import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "loc", Path(__file__).resolve().parent.parent / "tools" / "loc.py"
)
loc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(loc)


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

