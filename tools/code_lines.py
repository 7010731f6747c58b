"""Print the size of each module of ``src/lrfill``, and of the package.

Two counts per module: ``wc -l``, every line of the file, and the AST
count, the lines that hold code.  The AST count leaves out blank lines,
comments and docstrings (the string that opens a module, class or
function), so it moves with the code and not with its documentation.

Run from the root of the repository, or name another package directory:

    python3 tools/code_lines.py [src/lrfill]
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

# Tokens that hold no code.
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set:
    """Line numbers of the docstrings of the module and of every class and
    function in it."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Lines of ``source`` that hold a token of code outside a docstring."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv: list) -> int:
    package = Path(argv[0] if argv else "src/lrfill")
    rows = []
    for path in sorted(package.glob("*.py")):
        source = path.read_text()
        rows.append((path.name, source.count("\n"), code_lines(source)))
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    print(f"{'module':<16}{'wc -l':>8}{'AST':>8}")
    for name, wc, ast_count in rows:
        print(f"{name:<16}{wc:>8,}{ast_count:>8,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
