"""Count the code lines of each Python file under a directory.

A line counts when it holds a token other than a comment, a line break
or an indentation change, and is not part of a module, class or
function docstring.  Every line a token spans counts, so both lines of
a two-line string count, and so do both lines of a bracketed
expression broken over two.  Blank lines and comment-only lines do not.

    python tests/code_lines.py [DIRECTORY]

prints `<count> <path>` for each file under DIRECTORY (default
`src/anrdf`), sorted by path, and then `<total> total`.
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
_WITH_DOCSTRING = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source: str) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _WITH_DOCSTRING) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in the Python text `source`."""
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(source))


def main(argv: list[str]) -> None:
    root = Path(argv[1] if len(argv) > 1 else "src/anrdf")
    total = 0
    for path in sorted(root.rglob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6} {path}")
    print(f"{total:6} total")


if __name__ == "__main__":
    main(sys.argv)
