"""Check that `saturate_fast` gives the normal form, with no oracle, on more
inputs than tier-1 runs.

For each of the 24 compound constructions (4 lattice first components x 6
second components) it takes the seeded inputs of `saturation_digests.py`:
up to 6 raw pairs and, in 70 % of the inputs, a closed operand (the normal
form of up to 3 more raw pairs).  It checks each result with
`oracles.assert_normal_form`, the conditions (a)-(d) that
`TestNormalFormWithoutOracle` in `test_compound.py` uses and proves.  It
prints one line per construction and exits 1 if any input fails or hits
the saturation step cap.  The sizes are fixed here.

    PYTHONPATH=src python tests/normal_form_check.py
"""

from __future__ import annotations

import sys
import time

from anrdf.domains import get_domain
from anrdf.errors import SaturationBoundError
from oracles import assert_normal_form
from saturation_digests import FIRST, SECOND, inputs

INPUTS = 600  # per construction


def check(first: str, second: str) -> tuple[int, int]:
    """The number of failing inputs of one construction, and the size of
    its largest result."""
    d1, d2 = get_domain(first), get_domain(second)
    failures = largest = 0
    for i, (pairs, closed) in enumerate(inputs(d1, d2, INPUTS)):
        try:
            largest = max(largest, assert_normal_form(d1, d2, pairs, closed))
        except (AssertionError, SaturationBoundError) as error:
            failures += 1
            if failures == 1:
                print(f"  input {i}: {type(error).__name__}: {error}"[:300])
    return failures, largest


def main() -> int:
    if not __debug__:
        sys.exit("the check is made of assert statements: run it without -O")
    start = time.perf_counter()
    failed = 0
    for first in FIRST:
        for second in SECOND:
            failures, largest = check(first, second)
            failed += failures
            print(
                f"compound({first},{second}) {INPUTS - failures}/{INPUTS} normal,"
                f" largest result {largest} pairs"
            )
    print(f"{failed} failing inputs in {time.perf_counter() - start:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
