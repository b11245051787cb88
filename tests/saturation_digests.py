"""Digest `saturate_fast` over every compound construction, to check that
its normal forms have not changed.

For each of the 24 constructions (4 lattice first components x 6 second
components) it saturates seeded random inputs, each of up to 6 raw pairs
and, in 70 % of them, a closed operand (the normal form of up to 3 more
raw pairs), and prints one digest of the results per construction.
Two trees that print the same lines give the same normal form on every
input; a saturation that hits its step cap digests as "cap".

    python tests/saturation_digests.py SRC_DIR [INPUTS_PER_CONSTRUCTION]

`saturation_digests.txt` beside this script holds the lines for the
default 300 inputs per construction, and CI diffs against it:

    PYTHONPATH=src python tests/saturation_digests.py src | diff - tests/saturation_digests.txt

A change that means to alter a normal form must say so and rewrite that
file.  To compare two trees, run the script with the `src` directory of
each and diff the outputs.  `normal_form_check.py` draws its inputs
with `inputs` below.
"""

from __future__ import annotations

import hashlib
import random
import sys
from typing import Iterator

if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])  # the tree to digest

from anrdf.domains import Domain, get_domain  # noqa: E402
from anrdf.domains.compound import Pair, normalise, saturate_fast  # noqa: E402
from anrdf.errors import SaturationBoundError  # noqa: E402

FIRST = ["temporal", "fuzzy:min", "boolean", "provenance"]
SECOND = ["boolean", "fuzzy:min", "fuzzy:product", "fuzzy:lukasiewicz", "temporal", "provenance"]


def inputs(
    d1: Domain, d2: Domain, count: int
) -> Iterator[tuple[list[Pair], frozenset[Pair] | tuple[()]]]:
    """`count` seeded inputs `(raw pairs, closed operand)` of the
    construction `compound(d1, d2)`; an absent closed operand is `()`."""
    rng = random.Random(f"{d1.name}|{d2.name}")

    def raw(n):
        return [(d1.random_payload(rng), d2.random_payload(rng)) for _ in range(n)]

    for _ in range(count):
        pairs = raw(rng.randint(0, 6))
        yield pairs, normalise(d1, d2, raw(rng.randint(0, 3))) if rng.random() < 0.7 else ()


def main() -> None:
    count = int(sys.argv[2]) if len(sys.argv) > 2 else 300
    for first in FIRST:
        for second in SECOND:
            d1, d2 = get_domain(first), get_domain(second)
            digest = hashlib.sha256()
            caps = 0
            for pairs, closed in inputs(d1, d2, count):
                try:
                    out = saturate_fast(d1, d2, pairs, closed=closed)
                    text = repr(sorted((d1.format_payload(x), d2.format_payload(y)) for x, y in out))
                except SaturationBoundError:
                    caps += 1
                    text = "cap"
                digest.update(text.encode() + b"\n")
            print(f"compound({first},{second}) {digest.hexdigest()[:16]} caps={caps}")


if __name__ == "__main__":
    main()
