import importlib.util
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
