"""Source-level layout rules for the package.

Every Fourier transform goes through ``hsfuse.cube``, so swapping the FFT
library is a change to that one module; no module reaches into another's
private (``_``-prefixed) names; the package runs on numpy alone: no
module imports scipy, and importing every module loads none; its one
thread pool lives in ``hsfuse.cube``, whose maps start plain threads and
never load ``concurrent.futures``; only ``hsfuse.cube`` compares a
cube's shape or cuts work into slices; only ``hsfuse.io`` opens or reads
files (the builtin ``open``, ``readinto``, ``np.fromfile``, ``np.memmap``),
so every read of a cube passes its checks; only ``cli.main`` opens a
command's stage, so each run's manifest and pool size are set up once; and
every public name has a caller in the program, the benchmark or the
acceptance criteria.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import hsfuse

SOURCES = sorted(Path(hsfuse.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parents[1]


def test_only_cube_names_an_fft_library():
    names = ("np.fft", "numpy.fft", "scipy.fft")
    offenders = [
        path.name
        for path in SOURCES
        if path.name != "cube.py" and any(name in path.read_text() for name in names)
    ]
    assert SOURCES and offenders == []


def _is_cube_shape(side: ast.AST) -> bool:
    """Whether ``side`` is ``<expr>.data.shape`` or a grid: a tuple holding ``<expr>.height`` or ``.width``."""
    if isinstance(side, ast.Tuple):
        return any(isinstance(e, ast.Attribute) and e.attr in ("height", "width") for e in side.elts)
    return (
        isinstance(side, ast.Attribute)
        and side.attr == "shape"
        and isinstance(side.value, ast.Attribute)
        and side.value.attr == "data"
    )


def _compares_cube_shape(node: ast.AST) -> bool:
    """Whether ``node`` is an ``==``/``!=`` comparison with a cube's shape or grid as an operand."""
    if not isinstance(node, ast.Compare) or not any(
        isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops
    ):
        return False
    return any(_is_cube_shape(side) for side in [node.left, *node.comparators])


def test_only_cube_compares_cube_shapes():
    # ``cube.check_shape`` is the one shape rule, for shapes and for an
    # operator's grid alike; a hand-written comparison elsewhere is a second
    # copy of it with its own message
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        if path.name != "cube.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if _compares_cube_shape(node)
    ]
    assert SOURCES and offenders == []


def test_only_cube_cuts_work_into_slices():
    # ``cube.chunks`` and ``cube.blocks`` (which ``cube.each_block`` walks)
    # decide how a pass is cut; a slice built elsewhere is a third rule
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        if path.name != "cube.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "slice"
    ]
    assert SOURCES and offenders == []


def test_only_io_opens_files():
    # ``io.load_cube`` and ``io.open_cube`` check a cube file's header, length
    # and values; a file read elsewhere would skip those checks
    names = ("open", "readinto", "fromfile", "memmap")
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        if path.name != "io.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) in names
    ]
    assert SOURCES and offenders == []


def _stage_calls(node: ast.AST) -> list[ast.Call]:
    return [
        call
        for call in ast.walk(node)
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_Stage"
    ]


def test_only_main_opens_a_stage():
    # ``main`` opens the manifest and sizes the pool for every command; a
    # command that opened its own stage would be a second runner
    tree = ast.parse((Path(hsfuse.__file__).parent / "cli.py").read_text())
    main = next(node for node in tree.body if getattr(node, "name", None) == "main")
    assert len(_stage_calls(tree)) == len(_stage_calls(main)) == 1


def test_no_module_imports_a_private_name_from_another():
    offenders = []
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        modules = set()  # names bound to sibling modules, as in ``from . import sylvester``
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            internal = node.level > 0 or (node.module or "").split(".")[0] == "hsfuse"
            for alias in node.names if internal else ():
                if alias.name.startswith("_"):
                    offenders.append(f"{path.name}: {alias.name}")
                elif node.module in (None, "hsfuse"):
                    modules.add(alias.asname or alias.name)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
                and node.attr.startswith("_")
            ):
                offenders.append(f"{path.name}: {node.value.id}.{node.attr}")
    assert offenders == []


def _imported(path: Path) -> list[str]:
    """Top-level names of the absolute imports in one source file."""
    names = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module or "")
    return [name.split(".")[0] for name in names]


def test_no_module_imports_scipy():
    offenders = [f"{path.name}: scipy" for path in SOURCES if "scipy" in _imported(path)]
    assert offenders == []


def test_only_cube_imports_threading_or_concurrent():
    offenders = [
        f"{path.name}: {name}"
        for path in SOURCES
        if path.name != "cube.py"
        for name in _imported(path)
        if name in ("threading", "concurrent")
    ]
    assert offenders == []


def _loaded_by_importing_every_module() -> set[str]:
    """Top-level names in ``sys.modules`` of a fresh interpreter with HSFUSE_THREADS unset,
    after importing every module but ``__main__`` (which runs the CLI)."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(hsfuse.__file__)))
    env = os.environ.copy()
    env.pop("HSFUSE_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (root, env.get("PYTHONPATH")) if p)
    modules = [f"hsfuse.{path.stem}" for path in SOURCES if path.stem not in ("__init__", "__main__")]
    code = f"import sys, {', '.join(modules)}; print(' '.join(sys.modules))"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return {name.split(".")[0] for name in proc.stdout.split()}


def test_fuse_import_path_loads_no_scipy():
    # ``import scipy.fft`` alone takes about 0.35 s and ``import scipy.signal``
    # about 1.4 s, which every CLI call and every worker would pay before its
    # first iteration
    assert "scipy" not in _loaded_by_importing_every_module()


def test_import_loads_no_executor():
    # ``concurrent.futures`` costs 5-7 ms that no map needs, so no module
    # imports it, not even lazily
    assert [path.name for path in SOURCES if "concurrent" in _imported(path)] == []
    assert "concurrent" not in _loaded_by_importing_every_module()


# a string literal that is only dotted identifiers, as the benchmark names its
# span targets ("hqs.fuse", "DegradationModel.degrade"); prose never matches
_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+")


def _referenced(path: Path, dotted_strings: bool = False) -> set[str]:
    """Every name, attribute and import alias that one file's code uses."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif dotted_strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            if _DOTTED.fullmatch(node.value):
                names.update(node.value.split("."))
    return names


def _public_names() -> list[tuple[str, str]]:
    """(qualified name, bare name) of every submodule ``__all__`` entry and of
    every public method of a class among them."""
    out = []
    for path in SOURCES:
        if path.stem in ("__init__", "__main__"):
            continue
        exported = importlib.import_module(f"hsfuse.{path.stem}").__all__
        classes = {
            node.name: node for node in ast.parse(path.read_text()).body
            if isinstance(node, ast.ClassDef)
        }
        for name in exported:
            out.append((f"{path.stem}.{name}", name))
            methods = classes[name].body if name in classes else []
            out += [
                (f"{path.stem}.{name}.{node.name}", node.name)
                for node in methods
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
            ]
    return out


def test_every_public_name_has_a_program_caller():
    # callers: the package itself, the benchmark, the acceptance criteria and
    # the installed script; unit tests alone do not keep a name in the package
    used = set().union(*(_referenced(path) for path in SOURCES))
    for path in sorted((ROOT / "bench").glob("*.py")):
        if not path.name.startswith("test_"):
            used |= _referenced(path, dotted_strings=True)
    used |= _referenced(ROOT / "tests" / "test_acceptance.py")
    import tomllib  # Python 3.11 and later; the package supports 3.10

    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"].values()
    used |= {target.rpartition(":")[2] for target in scripts}
    unused = [qualified for qualified, name in _public_names() if name not in used]
    assert unused == []
