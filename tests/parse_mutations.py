"""Digest how both parsers read seeded mutations of the sample files, to
check that a change to the syntax layer keeps every result and every
error, message and position included.

Each of 20,000 inputs (`random.Random(45)`) is one file of
`data/*.anrdf` or `data/queries/*.anql` with one to three edits: an
insert, a delete or a replace, each at a random position, drawn from
`PIECES`, which holds every token kind of both formats.  Its outcome is
the serialised document, the `repr` of the query parsed in `temporal`,
or the `Type: message` of the error it raises.  The script prints one
digest of each block of 1,000 outcomes and then the count of each
outcome kind, and exits 1 when any input raises an exception that is
not an `AnrdfError`.

    PYTHONPATH=src python tests/parse_mutations.py | diff - tests/parse_mutations.txt

`parse_mutations.txt` beside this script holds the output at the last
change that meant to alter a parse; CI diffs against it.  To compare two
trees, run the script from one checkout with the `src` of each on
`PYTHONPATH` and diff the outputs: a differing block holds an input
that reads differently.
"""

from __future__ import annotations

import hashlib
import random
import sys
from collections import Counter
from pathlib import Path

from anrdf import parse_graph, parse_query, serialize_graph
from anrdf.errors import AnrdfError

DATA = Path(__file__).resolve().parent.parent / "data"
INPUTS = 20_000
BLOCK = 1_000

PIECES = [
    # whitespace, line breaks and comments
    " ", "  ", "\t", "\n", "\r", "\xa0", "\u2028", "#", "# x\n", "\\",
    # punctuation
    ".", ":", ",", "(", ")", "{", "}", "[", "]", "<", ">", "^", "v",
    # terms
    "a", "x.y", "type", "sc", "sp", "dom", "range", "ex:", "ex:a", ":a", "_:", "_:b",
    "_:b.2", "<http://e/a>", "<a\tb>", '"', '"a"', '"q\\"x"', '"x\\ny"',
    '"\\u0041"', "?", "?x", "?l",
    # directives
    "@", "@domix", "@domix temporal .", "@domix #x", "@prefix",
    "@prefix ex: <http://e/>", "@prefix ex: <http://e/> .\n",
    # statements, one with a literal in predicate position
    "a b c .\n", "(a b c) : {[1,2]} .\n", '(s "p" o) : 2005 .\n', 'a "x\\ty" b .\n',
    # annotation literals
    "1", "2005", "0.5", "-", "+inf", "[1,2]", "{[1,2]}", "{[1,2],[4,5]}", "true", "false",
    # query keywords and operators
    "SELECT", "WHERE", "OPTIONAL", "FILTER", "UNION", "ASSIGN", "AS", "GROUPBY",
    "ORDERBY", "LIMIT", "BOUND(", "isIRI(", "length(", "before(", "SUM(", "COUNT(",
    "!", "=", "!=", "<=", "&&", "||",
]  # fmt: skip


def outcome(path: Path, text: str) -> str:
    """How `text`, a mutation of `path`, reads."""
    if path.suffix == ".anql":
        return repr(parse_query(text, "temporal"))
    doc = parse_graph(text)
    return serialize_graph(doc.graph, doc.plain)


def mutate(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(("insert", "delete", "replace"))
        start = rng.randint(0, len(text))
        end = start if kind == "insert" else min(len(text), start + rng.randint(1, 8))
        text = text[:start] + ("" if kind == "delete" else rng.choice(PIECES)) + text[end:]
    return text


def main() -> int:
    paths = sorted(DATA.glob("*.anrdf")) + sorted((DATA / "queries").glob("*.anql"))
    sources = {path: path.read_text(encoding="utf-8") for path in paths}
    rng = random.Random(45)
    counts: Counter[str] = Counter()
    digest = hashlib.sha256()
    foreign = 0
    for n in range(1, INPUTS + 1):
        path = rng.choice(paths)
        try:
            result = outcome(path, mutate(rng, sources[path]))
            counts["parsed"] += 1
        except Exception as exc:  # noqa: BLE001 - every error is an outcome
            result = f"{type(exc).__name__}: {exc}"
            counts[type(exc).__name__] += 1
            foreign += not isinstance(exc, AnrdfError)
        digest.update(result.encode("utf-8", "surrogatepass") + b"\0")
        if n % BLOCK == 0:
            print(f"block {n // BLOCK - 1:2} {digest.hexdigest()[:16]}")
            digest = hashlib.sha256()
    print(" ".join(f"{kind} {count}" for kind, count in sorted(counts.items())))
    return 1 if foreign else 0


if __name__ == "__main__":
    sys.exit(main())
