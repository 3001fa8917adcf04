"""Print the two size counts of the ``src/hsfuse`` package that ROADMAP aim 2 tracks.

    python3 tools/loc.py

The first is every line of the package's modules, as
``cat src/hsfuse/*.py | wc -l`` counts them. The second counts code alone:
a line counts when it holds a token that is neither a comment nor part of a
module, class or function docstring, so blank lines, comment lines and
docstrings do not count, while every line of any other string does.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hsfuse"

# tokens that lay out a line rather than hold code
_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstrings(tree: ast.Module) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """The (start, end) positions of the module's, its classes' and its functions' docstrings."""
    spans = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            value = first.value
            spans.append(((value.lineno, value.col_offset), (value.end_lineno, value.end_col_offset)))
    return spans


def code_lines(source: str) -> int:
    """Lines of ``source`` that hold a token other than a comment or a docstring."""
    spans = _docstrings(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _LAYOUT or any(lo <= token.start < hi for lo, hi in spans):
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def main() -> None:
    texts = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    lines = sum(text.count("\n") for text in texts)
    print(f"src/hsfuse: {lines} lines, {sum(map(code_lines, texts))} of them code")


if __name__ == "__main__":
    main()
