#!/usr/bin/env python3
"""Forward-chaining inference over annotated triples.

Loads the company-acquisitions dataset (temporal annotations), computes
the closure, and shows how annotation values flow through subclass,
subproperty, domain, and range reasoning.  The same rules run unchanged
over any annotation domain, as the provenance dataset demonstrates.
"""

from pathlib import Path

from anrdf import apply_defaults, closure, parse_graph
from anrdf.syntax import serialize_graph

DATA = Path(__file__).resolve().parent.parent / "data"

print("== temporal closure of the company dataset")
doc = parse_graph((DATA / "fig1.anrdf").read_text())
# Plain (non-annotated) triples are folded in with the domain's top.
graph, _ = apply_defaults(doc.graph, doc.plain, "top")
closed = closure(graph)
print(f"  {len(graph)} input statements, {len(closed)} after closure")
for t, value in closed.statements():
    if t not in graph:
        print(f"  derived: {t.subject!r} {t.predicate.lexical.rsplit('#',1)[-1]}"
              f" {t.object!r} : {value.serialize()}")

print()
print("== the same rules over provenance annotations")
pdoc = parse_graph((DATA / "provenance_chad.anrdf").read_text())
pclosed = closure(apply_defaults(pdoc.graph, pdoc.plain, "top")[0])
print(serialize_graph(pclosed), end="")
print()
print("Two derivations of (chadHurley type Agent) collapse to the")
print("simplest formula that covers both: (chad ^ foaf).")
