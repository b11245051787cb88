"""Digest `saturate_fast` over every compound construction, to compare two
source trees.

For each of the 24 constructions (4 lattice first components x 6 second
components) it saturates seeded random inputs, each of up to 6 raw pairs
and, in 70 % of them, a closed operand (the normal form of up to 3 more
raw pairs), and prints one digest of the results per construction.
Two trees that print the same lines give the same normal form on every
input; a saturation that hits its step cap digests as "cap".

    python tests/saturation_digests.py SRC_DIR [INPUTS_PER_CONSTRUCTION]

Run it once with the `src` directory of each tree and diff the outputs.
"""

from __future__ import annotations

import hashlib
import random
import sys

sys.path.insert(0, sys.argv[1])

from anrdf.domains import get_domain  # noqa: E402
from anrdf.domains.compound import normalise, saturate_fast  # noqa: E402
from anrdf.errors import SaturationBoundError  # noqa: E402

FIRST = ["temporal", "fuzzy:min", "boolean", "provenance"]
SECOND = ["boolean", "fuzzy:min", "fuzzy:product", "fuzzy:lukasiewicz", "temporal", "provenance"]


def main() -> None:
    inputs = int(sys.argv[2]) if len(sys.argv) > 2 else 300
    for first in FIRST:
        for second in SECOND:
            d1, d2 = get_domain(first), get_domain(second)
            rng = random.Random(f"{first}|{second}")
            digest = hashlib.sha256()
            caps = 0

            def raw(n):
                return [(d1.random_payload(rng), d2.random_payload(rng)) for _ in range(n)]

            for _ in range(inputs):
                pairs = raw(rng.randint(0, 6))
                closed = normalise(d1, d2, raw(rng.randint(0, 3))) if rng.random() < 0.7 else ()
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
