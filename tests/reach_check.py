"""Check that tier-1 reaches every statement of `src/anrdf`, except the
ones listed with a reason in `unreached.txt` beside this script.

    PYTHONPATH=src python tests/reach_check.py

The script installs a line tracer (`sys.settrace` and
`threading.settrace`) before anything imports `anrdf`, then runs tier-1
in this process through `pytest.main`, with `--hypothesis-seed=0` so
that hypothesis draws the same examples on every run.  Only frames whose
file lies under `src/anrdf` are traced; child processes are not.

Then it walks every `ast` statement of `src/anrdf`.  Docstrings and
`nonlocal`/`global` statements emit no line event and are skipped.  A
statement is reached when a line event falls on any of its lines; for a
compound statement (`if`, `for`, `def`, ...) only its header lines
count, from its first decorator to the line before its body.

Each entry of `unreached.txt` is `path: source text  # reason`, with the
path relative to `src/anrdf` and the statement's text on one line, so an
entry survives line moves.  The entries form a multiset: two unreached
statements with the same text in one file need two entries.  The script
exits 1 when tier-1 fails, when a statement is unreached but not listed,
or when a listed statement is reached; it exits 0 otherwise.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from collections import Counter
from pathlib import Path

from code_lines import docstring_lines

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "anrdf"
LISTED = Path(__file__).resolve().parent / "unreached.txt"
PYTEST_ARGS = [
    "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", "--continue-on-collection-errors"
]

Entry = tuple[str, str]  # (path under `src/anrdf`, source text)


def statements(source: str) -> list[tuple[range, str]]:
    """The lines that reach each statement of `source` and its text on one
    line, for every statement that can emit a line event."""
    lines = source.splitlines()
    docstrings = docstring_lines(source)
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or isinstance(node, (ast.Nonlocal, ast.Global)):
            continue
        if isinstance(node, ast.Expr) and node.lineno in docstrings:
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        body = getattr(node, "body", None)
        if body:  # a compound statement: its header lines only
            last = max(node.lineno, body[0].lineno - 1)
            text = " ".join(lines[first - 1 : last])
        else:
            last, text = node.end_lineno, ast.get_source_segment(source, node)
        found.append((range(first, last + 1), " ".join(text.split())))
    return found


def compare(
    sources: dict[str, str], hits: dict[str, set[int]], listed: list[Entry]
) -> tuple[list[tuple[str, int, str]], list[Entry]]:
    """The statements of `sources` (path to text) that no line of `hits`
    (path to line numbers) reaches and `listed` does not list, each as
    (path, line, text), and the listed entries that are reached."""
    left = Counter(listed)
    new = []
    for path in sorted(sources):
        seen = hits.get(path, set())
        for span, text in statements(sources[path]):
            if seen.isdisjoint(span):
                if left[(path, text)]:
                    left[(path, text)] -= 1
                else:
                    new.append((path, span.start, text))
    return sorted(new), sorted(left.elements())


def read_listed(text: str) -> list[Entry]:
    """The entries of an `unreached.txt` text; `#` lines are comments."""
    entries = []
    for line in text.splitlines():
        if line.strip() and not line.startswith("#"):
            path, _, rest = line.partition(": ")
            entries.append((path, rest.partition("  # ")[0]))
    return entries


def traced_run() -> tuple[int, dict[str, set[int]]]:
    """Run tier-1 under the line tracer; its exit code and the lines hit
    in each file under `src/anrdf`, by path relative to it."""
    prefix = str(PACKAGE) + os.sep
    wanted: dict[str, bool] = {}
    hits: set[tuple[str, int]] = set()
    hit = hits.add

    def local(frame, event, arg):
        if event == "line":
            hit((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        inside = wanted.get(name)
        if inside is None:
            inside = wanted[name] = os.path.abspath(name).startswith(prefix)
        return local if inside else None

    threading.settrace(call)
    sys.settrace(call)
    try:
        import pytest

        status = pytest.main([*PYTEST_ARGS, str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    by_path: dict[str, set[int]] = {}
    for name, line in hits:
        path = Path(os.path.abspath(name)).relative_to(PACKAGE).as_posix()
        by_path.setdefault(path, set()).add(line)
    return int(status), by_path


def main() -> int:
    os.chdir(ROOT)
    status, hits = traced_run()
    sources = {
        path.relative_to(PACKAGE).as_posix(): path.read_text(encoding="utf-8")
        for path in sorted(PACKAGE.rglob("*.py"))
    }
    listed = read_listed(LISTED.read_text(encoding="utf-8"))
    new, reached = compare(sources, hits, listed)
    total = sum(len(statements(text)) for text in sources.values())
    print(f"reach check: {total} statements in {len(sources)} files, {len(listed)} listed")
    for path, line, text in new:
        print(f"unreached, not listed: {path}:{line}: {text}")
    for path, text in reached:
        print(f"listed, but reached: {path}: {text}")
    if status != 0:
        print(f"tier-1 failed with exit code {status}")
    return 1 if new or reached or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
