"""Print the lines of code under ``src/``: the size figure that ROADMAP.md and CHANGES.md cite.

Usage, from the root of a checkout::

    python tools/loc.py [PATH ...]

A line counts when it holds a token other than a comment or a module,
class or function docstring; blank lines do not count.  A token that
spans lines (a multi-line string that is no docstring, say) counts on
each of them.  With no PATH it counts every ``*.py`` file under ``src/``
and prints the total; with PATHs (files or directories) it counts those.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_starts(tree: ast.Module) -> set[tuple[int, int]]:
    """(line, column) of every module, class and function docstring."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                starts.add((first.lineno, first.col_offset))
    return starts


def count_lines(source: str) -> int:
    """The lines of ``source`` that hold code, by the rule above."""
    docstrings = _docstring_starts(ast.parse(source))
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _NOT_CODE or (token.type == tokenize.STRING and token.start in docstrings):
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def python_files(paths: list[Path]) -> list[Path]:
    return sorted(
        file for path in paths for file in ([path] if path.is_file() else path.rglob("*.py"))
    )


def main(argv: list[str]) -> int:
    paths = [Path(arg) for arg in argv] or [Path(__file__).resolve().parents[1] / "src"]
    print(sum(count_lines(file.read_text(encoding="utf-8")) for file in python_files(paths)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
