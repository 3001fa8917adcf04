import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _tool(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


loc = _tool("loc")
bench_json = _tool("bench_json")
unreached = _tool("unreached")


def test_code_lines_skip_docstrings_comments_and_blank_lines():
    source = '''"""A module docstring
over two lines."""

# a comment line
class Shape:
    """A class docstring."""

    def area(self):
        """A function docstring."""
        side = 2  # a trailing comment
        return """a string that is not a docstring,
over two lines"""
'''
    # class, def, the assignment and both lines of the string
    assert loc.code_lines(source) == 5


SYNTHETIC = '''"""A module docstring."""
import threading


def used(a):
    """A docstring is no line to reach."""
    # nor is a comment
    return a + 1


def unused(a):
    if a:
        return 1
    return 2


def main():
    worker = threading.Thread(target=used, args=(1,))
    worker.start()
    worker.join()
'''


def test_unreached_lists_the_executable_lines_no_process_hit():
    lines = unreached.executable_lines(SYNTHETIC, "mod.py")
    assert {6, 7, 9, 10}.isdisjoint(lines)
    assert {2, 5, 8, 11, 12, 13, 14, 17, 18, 19, 20} <= lines
    hits = {"mod.py": lines - {12, 13, 14}, "other.py": {1}}
    assert unreached.unreached({"mod.py": SYNTHETIC}, hits) == [
        ("mod.py", 12), ("mod.py", 13), ("mod.py", 14)
    ]
    # a module no process imported is unreached throughout
    assert len(unreached.unreached({"mod.py": SYNTHETIC}, {})) == len(lines)


def test_the_tracer_records_the_lines_of_every_thread_of_a_child(tmp_path):
    site, out, pkg = tmp_path / "site", tmp_path / "hits", tmp_path / "pkg"
    for directory in (site, out, pkg):
        directory.mkdir()
    (site / "sitecustomize.py").write_text(unreached.SITECUSTOMIZE)
    (pkg / "mod.py").write_text(SYNTHETIC)
    env = dict(os.environ, PYTHONPATH=f"{site}{os.pathsep}{pkg}",
               UNREACHED_ROOT=str(pkg), UNREACHED_OUT=str(out))
    subprocess.run([sys.executable, "-c", "import mod; mod.main()"], env=env, check=True)
    hits = unreached.read_hits(out)
    name = str((pkg / "mod.py").resolve())
    assert list(hits) == [name]
    # line 8 runs only on the thread that main starts
    assert unreached.unreached({name: SYNTHETIC}, hits) == [(name, 12), (name, 13), (name, 14)]


@pytest.mark.skipif(not (TOOLS.parent / ".git").exists(), reason="needs a git checkout")
def test_benchmark_copy_holds_the_checkout_files_and_no_git(tmp_path):
    root = bench_json.copy_checkout(tmp_path)
    listed = bench_json.git("ls-files", "-co", "--exclude-standard", "-z").split("\0")
    want = {name for name in listed if name and (TOOLS.parent / name).is_file()}
    got = {str(p.relative_to(root)) for p in root.rglob("*") if p.is_file()}
    assert got == want
    assert "bench/run.py" in got and not (root / ".git").exists()
    cube = "src/hsfuse/cube.py"
    assert (root / cube).read_bytes() == (TOOLS.parent / cube).read_bytes()
