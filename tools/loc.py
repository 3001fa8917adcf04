"""Print the three size counts of the ``src/hsfuse`` package that ROADMAP aim 2 tracks.

    python3 tools/loc.py

The first is every line of the package's modules, as
``cat src/hsfuse/*.py | wc -l`` counts them. The second counts code alone:
a line counts when it holds a token that is neither a comment nor part of a
module, class or function docstring, so blank lines, comment lines and
docstrings do not count, while every line of any other string does. The
third counts settable values: the defaulted parameters of every function
and method, plus every dataclass field with a default, given as a value or
as ``field(default=...)`` or ``field(default_factory=...)``; a ``field(...)``
with neither is a field every caller sets, and does not count.
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


def _name(node: ast.expr) -> str | None:
    """The name a decorator or callee ends in: ``dataclass`` for ``dataclasses.dataclass(...)``."""
    node = node.func if isinstance(node, ast.Call) else node
    return getattr(node, "id", getattr(node, "attr", None))


def _has_default(stmt: ast.stmt) -> bool:
    """Whether a statement of a dataclass body is a field with a default."""
    if not isinstance(stmt, ast.AnnAssign) or stmt.value is None:
        return False
    if isinstance(stmt.value, ast.Call) and _name(stmt.value) == "field":
        return any(k.arg in ("default", "default_factory") for k in stmt.value.keywords)
    return True


def settable_values(source: str) -> int:
    """Defaulted parameters of ``source``'s functions and methods, plus its defaulted dataclass fields."""
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            count += len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and "dataclass" in map(_name, node.decorator_list):
            count += sum(map(_has_default, node.body))
    return count


def main() -> None:
    texts = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    lines = sum(text.count("\n") for text in texts)
    print(
        f"src/hsfuse: {lines} lines, {sum(map(code_lines, texts))} of them code, "
        f"{sum(map(settable_values, texts))} settable values"
    )


if __name__ == "__main__":
    main()
