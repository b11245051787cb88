"""Check the closure against the brute-force oracle at workload size.

Builds the seed-1 documents of the `infer-temporal` and `infer-compound`
benchmark workloads with `perfbench/workloads.py`, applies `top`
defaults, and compares `closure` with `oracles.brute_force_closure`
statement by statement.  Exits 1 at the first difference.  The oracle
is slow (about a minute for both graphs), so this is a CI step and not
a collected test:

    PYTHONPATH=src python tests/workload_closure_oracle.py
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

from oracles import brute_force_closure

from anrdf import closure, parse_graph
from anrdf.reasoner import apply_defaults

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402  (the benchmark's generators, not a package)

SEED = 1
DOCUMENTS = {
    "infer-temporal": workloads.temporal_document,
    "infer-compound": workloads.compound_document,
}


def show(value) -> str:
    return "absent" if value is None else value.serialize()


def first_difference(fast: dict, slow: dict) -> str | None:
    for triple in sorted(fast.keys() | slow.keys()):
        if fast.get(triple) != slow.get(triple):
            return f"{triple}: closure {show(fast.get(triple))}, oracle {show(slow.get(triple))}"
    return None


def main() -> int:
    for name, make in DOCUMENTS.items():
        doc = parse_graph(make(SEED))
        graph, _ = apply_defaults(doc.graph, doc.plain, "top")
        start = time.perf_counter()
        fast = dict(closure(graph).statements())
        slow = brute_force_closure(graph)
        print(
            f"{name} seed {SEED}: {len(graph)} -> {len(slow)} triples,"
            f" {time.perf_counter() - start:.1f} s",
            flush=True,
        )
        difference = first_difference(fast, slow)
        if difference is not None:
            print(f"first difference: {difference}")
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
