"""Source hygiene that needs no linter.

Every name a module imports is used.  ``__init__.py`` is skipped, since it
imports names only to re-export them, and so is any import on a line marked
``noqa``.

No ``.write(x.tobytes())``: a payload is written from its own buffer, not
from a full-size bytes copy of it.

No file is mapped into memory: no ``np.memmap``, no ``mmap`` module and
no ``mmap_mode=``.  Touching mapped pages of a file counts toward the
process's resident memory, whole large folios at a time, so a mapped read
of blocks can peak near the size of the file.

The time/frequency transform pair has one home: no module but
``volume.py`` uses ``numpy.fft``, so the spectrum the run solves and the
frequencies it names for its bins come from one pair of functions.

Every lrfill name the benchmark under ``perfbench/`` imports or patches
exists, so a rename in the package cannot silently break the benchmark.

Every ``lrfill`` command line in the README's CLI section parses with the
CLI's own parser, so a flag that is renamed or removed cannot leave a
stale example behind.

Every indented ``key = value`` block of the same section builds the
config it shows with the parser and schema the CLI uses, so a key that
is renamed or removed cannot outlive its field in the docs.

Every setting is read: each field of a ``@dataclass`` named ``*Config`` or
``*Spec`` is read as an attribute somewhere in the package outside that
class's own ``__post_init__``, so no setting is validated and then ignored.

No state is write-only: each field of a ``@dataclass`` in the package, and
each attribute an ``__init__`` there sets on ``self``, is read as an
attribute somewhere in the package, the tests or the benchmark, reads in
the class's own ``__post_init__`` aside.
"""

import argparse
import ast
import contextlib
import importlib
import importlib.util
import io
import shlex
from pathlib import Path

import pytest

from lrfill.cli import build_parser, load_event_spec
from lrfill.pipeline import load_config

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lrfill"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
BENCH_MODULES = sorted((ROOT / "perfbench").glob("*.py"))


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


def memory_maps(source: str) -> list:
    """Lines that map a file into memory: a ``memmap`` name or attribute,
    an import of the ``mmap`` module or a name from it, an ``mmap`` name,
    or an ``mmap_mode=`` argument."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            mapped = any(alias.name.split(".")[0] == "mmap" for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            mapped = (node.module == "mmap"
                      or any(alias.name in ("memmap", "mmap") for alias in node.names))
        elif isinstance(node, ast.Attribute):
            mapped = node.attr == "memmap"
        elif isinstance(node, ast.Name):
            mapped = node.id in ("memmap", "mmap")
        elif isinstance(node, ast.keyword):
            mapped = node.arg == "mmap_mode"
        else:
            continue
        if mapped:
            lines.add(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_memory_maps(path):
    assert memory_maps(path.read_text()) == []


def test_check_sees_a_memory_map():
    source = ("import mmap\n"
              "data = np.memmap(path, dtype='<c16', mode='r')\n"
              "arr = np.load(path, mmap_mode='r')\n"
              "from numpy import memmap\n"
              "os.preadv(fd, [view], at)  # reads, never maps a memmap\n"
              "fh.readinto(buf)\n"
              "'np.memmap is not used'\n"
              "m = mmap.mmap(fd, 0)\n")
    assert memory_maps(source) == [1, 2, 3, 4, 8]


def fft_uses(source: str) -> list:
    """Lines that use ``numpy.fft``: an ``fft`` attribute, such as
    ``np.fft.rfft``, or an import of the module or of a name from it."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            used = node.attr == "fft"
        elif isinstance(node, ast.Import):
            used = any(alias.name == "numpy.fft" for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            used = (node.module == "numpy.fft"
                    or node.module == "numpy" and any(a.name == "fft" for a in node.names))
        else:
            continue
        if used:
            lines.add(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "volume.py"],
                         ids=lambda p: p.name)
def test_no_fft_outside_volume(path):
    assert fft_uses(path.read_text()) == []


def test_check_sees_an_fft_use():
    source = ("freqs = np.fft.rfftfreq(n, dt)\n"
              "from numpy import fft\n"
              "import numpy.fft\n"
              "spec = dft_time_axis(vol)  # no np.fft here\n"
              "from numpy.fft import irfft\n"
              "x = numpy.fft.fft(y)\n"
              "'np.fft is not used'\n")
    assert fft_uses(source) == [1, 2, 3, 5, 6]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_check_sees_an_unused_import():
    source = "import os\nimport sys  # noqa: F401\nfrom math import pi, tau\nprint(pi)\n"
    assert unused_imports(source) == ["os (line 1)", "tau (line 3)"]


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _attribute_reads(trees) -> list:
    return [node for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)]


def _methods(cls: ast.ClassDef, name: str) -> list:
    return [stmt for stmt in cls.body if isinstance(stmt, ast.FunctionDef) and stmt.name == name]


def _fields(cls: ast.ClassDef) -> list:
    return [stmt.target.id for stmt in cls.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]


def _read_outside_post_init(cls: ast.ClassDef, reads: list) -> set:
    own_checks = {id(node) for method in _methods(cls, "__post_init__")
                  for node in ast.walk(method)}
    return {node.attr for node in reads if id(node) not in own_checks}


def dead_settings(sources: list) -> list:
    """``Class.field`` for each field of a ``@dataclass`` named ``*Config``
    or ``*Spec`` that no attribute read in ``sources`` names, reads inside
    the class's own ``__post_init__`` aside."""
    trees = [ast.parse(source) for source in sources]
    reads = _attribute_reads(trees)
    dead = []
    for tree in trees:
        for cls in ast.walk(tree):
            if not (isinstance(cls, ast.ClassDef) and cls.name.endswith(("Config", "Spec"))
                    and _is_dataclass(cls)):
                continue
            read = _read_outside_post_init(cls, reads)
            dead += [f"{cls.name}.{name}" for name in _fields(cls) if name not in read]
    return sorted(dead)


def test_no_dead_settings():
    sources = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    assert dead_settings(sources) == []


def test_check_sees_a_dead_setting():
    source = ("@dataclass\n"
              "class PlantSpec:\n"
              "    p: int\n"
              "    noise_eps: float = 0.0\n"
              "    def __post_init__(self):\n"
              "        if self.noise_eps < 0 or self.p < 1:\n"
              "            raise ValueError\n"
              "@dataclasses.dataclass(frozen=True)\n"
              "class OuterConfig:\n"
              "    tol: float = 1e-4\n"
              "    unused: int = 0\n"
              "class HelperConfig:\n"
              "    ignored: int = 0\n"
              "@dataclass\n"
              "class RunResult:\n"
              "    rows: list\n"
              "def solve(spec, cfg):\n"
              "    cfg.unused = spec.p\n"
              "    return spec.p * cfg.tol\n")
    assert dead_settings([source]) == ["OuterConfig.unused", "PlantSpec.noise_eps"]


def write_only_state(sources: list, readers: list) -> list:
    """``Class.name`` for each field of a ``@dataclass`` in ``sources``, and
    each attribute an ``__init__`` there sets on ``self``, that no attribute
    read in ``sources`` or ``readers`` names, reads inside the class's own
    ``__post_init__`` aside.

    Reads are matched by attribute name alone, so a field that is only
    written still passes when an attribute of the same name is read on
    another object: an operator's ``mask`` would pass because a config's
    ``mask`` is read, and so would a mask's ``keep_fraction`` (a
    ``JitterSpec``'s is read) or a slice's ``freq_hz`` (a ``SliceReport``'s
    is read).
    """
    trees = [ast.parse(source) for source in sources]
    reads = _attribute_reads(trees + [ast.parse(source) for source in readers])
    unread = []
    for tree in trees:
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            stored = _fields(cls) if _is_dataclass(cls) else []
            stored += [node.attr for method in _methods(cls, "__init__")
                       for node in ast.walk(method)
                       if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                       and isinstance(node.value, ast.Name) and node.value.id == "self"]
            read = _read_outside_post_init(cls, reads)
            unread += [f"{cls.name}.{name}" for name in dict.fromkeys(stored)
                       if name not in read]
    return sorted(unread)


def test_no_write_only_state():
    sources = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    readers = [path.read_text() for path in
               sorted([*(ROOT / "tests").glob("*.py"), *BENCH_MODULES])]
    assert write_only_state(sources, readers) == []


def test_check_sees_write_only_state():
    source = ("@dataclass\n"
              "class Info:\n"
              "    iterations: int\n"
              "    objective: float\n"
              "    gap: float = 0.0\n"
              "    def __post_init__(self):\n"
              "        if self.gap < 0:\n"
              "            raise ValueError\n"
              "class Op:\n"
              "    shape = (1, 1)\n"
              "    def __init__(self, grid):\n"
              "        self.grid = grid\n"
              "        self.size, self.kept = grid.size, grid.sum()\n"
              "        self.size = int(self.size)\n"
              "class Plain:\n"
              "    unused: int = 0\n"
              "def solve(op):\n"
              "    op.grid[0] = 1\n"
              "    return op.size\n")
    reader = "def test_info(info):\n    assert info.iterations > 0\n"
    assert write_only_state([source], [reader]) == ["Info.gap", "Info.objective", "Op.kept"]


def _resolves(module: str, name: str) -> bool:
    """``name`` is an attribute or a submodule of ``module``."""
    try:
        return (hasattr(importlib.import_module(module), name)
                or importlib.util.find_spec(f"{module}.{name}") is not None)
    except ModuleNotFoundError:
        return False


def unresolved_bench_names(source: str) -> list:
    """``module.name`` references that benchmark source takes from lrfill
    and lrfill lacks: the names of ``from lrfill... import`` statements and
    the (module, attribute) pairs that open each entry of a ``SITES`` table."""
    refs = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "lrfill":
            refs += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "SITES" for t in node.targets):
            for site in node.value.elts:
                module, attr = (ast.literal_eval(e) for e in site.elts[:2])
                refs.append((module, attr))
    return sorted(f"{m}.{n}" for m, n in refs if not _resolves(m, n))


@pytest.mark.parametrize("path", BENCH_MODULES, ids=lambda p: p.name)
def test_bench_names_resolve(path):
    assert unresolved_bench_names(path.read_text()) == []


def test_check_sees_a_missing_bench_name():
    source = ("from lrfill.altmin import interpolate_slice, solve_factor_exact\n"
              "from lrfill import pipeline, no_such_module\n"
              "import lrfill\n"
              "SITES = (\n"
              "    ('lrfill.altmin', 'solve_factor', 'pdsolver.solve_factor', None),\n"
              "    ('lrfill.pipeline', 'read_volumes', 'fileio.read_volume', None),\n"
              "    ('lrfill.nowhere', 'run', 'nowhere.run', None),\n"
              ")\n")
    assert unresolved_bench_names(source) == [
        "lrfill.altmin.solve_factor_exact", "lrfill.no_such_module",
        "lrfill.nowhere.run", "lrfill.pipeline.read_volumes"]


def _cli_section(readme: str) -> str:
    return readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]


def stale_readme_commands(readme: str, parser: argparse.ArgumentParser) -> list:
    """The command lines of the ``## CLI`` section of ``readme``, each an
    indented line that starts with ``lrfill``, with ``\\`` continuations
    joined, that ``parser`` refuses."""
    stale = []
    for line in _cli_section(readme).replace("\\\n", " ").splitlines():
        if not line.startswith("    lrfill "):
            continue
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            stale.append(" ".join(line.split()))
    return stale


def test_readme_commands_parse():
    assert stale_readme_commands((ROOT / "README.md").read_text(), build_parser()) == []


def test_check_sees_a_stale_readme_command():
    readme = ("# tool\n\n    lrfill generate --kind events --out a.lrv\n\n"
              "## CLI\n\n"
              "lrfill generate --kind events is prose, not a command\n\n"
              "    # a comment\n"
              "    lrfill generate --spec e.cfg --out full.lrv\n"
              "    lrfill generate --kind events --spec e.cfg --out full.lrv\n"
              "    lrfill subsample --input full.lrv --keep 0.2 \\\n"
              "        --out-volume sub.lrv --out-mask mask.lrm\n"
              "    lrfill subsample --input full.lrv --keep 0.2 \\\n"
              "        --out-volume sub.lrv --mask mask.lrm\n"
              "    lrfill svdscan --input full.lrv --freq 10\n\n"
              "## Library use\n\n"
              "    lrfill svdscan --input full.lrv\n")
    assert stale_readme_commands(readme, build_parser()) == [
        "lrfill generate --kind events --spec e.cfg --out full.lrv",
        "lrfill subsample --input full.lrv --keep 0.2 --out-volume sub.lrv --mask mask.lrm",
        "lrfill svdscan --input full.lrv --freq 10"]


def stale_readme_configs(readme: str, workdir: Path) -> list:
    """The first line and the error of each indented ``key = value`` block
    of the ``## CLI`` section of ``readme`` that the CLI refuses: a block
    with ``event`` keys as the events spec of ``generate``, any other as
    the run config of ``interpolate``.  A block is a run of indented lines,
    each, with its comment cut, blank or a ``key = value`` line; a block of
    commands is none."""
    blocks, block = [], []
    for line in _cli_section(readme).splitlines() + [""]:
        if line.startswith("    "):
            block.append(line)
            continue
        settings = [kv.split("#", 1)[0] for kv in block]
        if any(settings) and all("=" in kv or not kv.strip() for kv in settings):
            blocks.append(block)
        block = []
    stale = []
    for block in blocks:
        path = workdir / "block.cfg"
        path.write_text("\n".join(block) + "\n")
        try:
            is_spec = any(line.split("=")[0].strip() == "event" for line in block)
            (load_event_spec if is_spec else load_config)(path)
        except ValueError as exc:
            stale.append(f"{block[0].strip()}: {exc}")
    return stale


def test_readme_configs_build(tmp_path):
    assert stale_readme_configs((ROOT / "README.md").read_text(), tmp_path) == []


def test_check_sees_a_stale_readme_config(tmp_path):
    readme = ("# tool\n\n    input = a.lrv\n    outpt = b.lrv\n\n"
              "## CLI\n\n"
              "    # a comment with key=value in it\n"
              "    lrfill interpolate --config run.cfg\n\n"
              "A run config:\n\n"
              "    input = a.lrv\n    output = b.lrv   # where = it goes\n    rank = 8\n\n"
              "An old one:\n\n"
              "    input = a.lrv\n    output = b.lrv\n    rank_schedule = 3:30,70:100\n\n"
              "Specs:\n\n"
              "    n_rx = 2\n    n_ry = 2\n    n_sx = 2\n    n_sy = 2\n"
              "    spacing_m = 25.0\n    nt = 16\n    dt = 0.004\n"
              "    event = 0.01, 0.0, 0.0, 1.0\n\n"
              "    n_rx = 2\n    n_ry = 2\n    n_sx = 2\n    n_sy = 2\n"
              "    spacing_m = 25.0\n    nt = 16\n    dt = 0.004\n"
              "    event = 0.01, 0.0, 0.0, 1.0\n    event = 9.0, 0.0, 0.0, 1.0\n\n"
              "## Library use\n\n"
              "    outpt = b.lrv\n")
    assert stale_readme_configs(readme, tmp_path) == [
        "input = a.lrv: unknown config key 'rank_schedule'",
        "n_rx = 2: event apex 9.0 outside the record"]
