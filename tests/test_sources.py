"""Source-level layout rules for the package.

Every Fourier transform goes through ``hsfuse.cube``, so swapping the FFT
library is a change to that one module; and no module reaches into another's
private (``_``-prefixed) names.
"""

import ast
from pathlib import Path

import hsfuse

SOURCES = sorted(Path(hsfuse.__file__).parent.glob("*.py"))


def test_only_cube_names_an_fft_library():
    names = ("np.fft", "numpy.fft", "scipy.fft")
    offenders = [
        path.name
        for path in SOURCES
        if path.name != "cube.py" and any(name in path.read_text() for name in names)
    ]
    assert SOURCES and offenders == []


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
