"""Source hygiene that needs no linter.

Every name a module imports is used.  ``__init__.py`` is skipped, since it
imports names only to re-export them, and so is any import on a line marked
``noqa``.

No ``.write(x.tobytes())``: a payload is written from its own buffer, not
from a full-size bytes copy of it.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lrfill"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by an import statement that no other code reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("noqa" in lines[i - 1] for i in range(node.lineno, node.end_lineno + 1)):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def copying_writes(source: str) -> list:
    """Lines of ``.write(...)`` calls handed a ``.tobytes()`` call directly."""
    def is_call_to(node, attr):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == attr)

    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if is_call_to(node, "write")
                  and any(is_call_to(arg, "tobytes") for arg in node.args))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_copying_writes(path):
    assert copying_writes(path.read_text()) == []


def test_check_sees_a_copying_write():
    source = ("fh.write(payload.tobytes())\n"
              "header.extend(dims.tobytes())\n"
              "fh.write(memoryview(payload))\n"
              "out.write(bytes(header)); fh.write(grid.astype(np.uint8).tobytes())\n")
    assert copying_writes(source) == [1, 4]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_check_sees_an_unused_import():
    source = "import os\nimport sys  # noqa: F401\nfrom math import pi, tau\nprint(pi)\n"
    assert unused_imports(source) == ["os (line 1)", "tau (line 3)"]
