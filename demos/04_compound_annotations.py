#!/usr/bin/env python3
"""Combining two annotation domains into one.

A pair like <[2009,2011], 0.3> says "during 2009-2011, at least to
degree 0.3".  Sets of such pairs denote functions from the first domain
to the second; normalisation computes a unique canonical pair set for
each function, so structurally equal means semantically equal.
"""

from fractions import Fraction

from anrdf import apply_defaults, closure, get_domain, parse_graph
from anrdf.domains import evaluate

time_fuzzy = get_domain("compound(temporal,fuzzy:product)")
time_prov = get_domain("compound(temporal,provenance)")
temporal = get_domain("temporal")
fuzzy = get_domain("fuzzy:product")

print("== joining observations keeps the whole history")
a = time_fuzzy.parse("{<{[2005,2009]}, 1>}")
b = time_fuzzy.parse("{<{[2009,2011]}, 0.3>}")
print(f"  {a.serialize()}  join  {b.serialize()}")
print(f"  = {a.join(b).serialize()}")
print("  (a pointwise join of plain pairs would have flattened this to")
print("   'degree 1 during 2005-2011')")

print()
print("== normalisation produces the canonical representative")
raw = "{<{[2000,2005]},0.7>,<{[2002,2008]},0.5>}"
print(f"  {raw}")
print(f"  normalises to {time_fuzzy.parse(raw).serialize()}")

raw = "{<{[1998,2006]},wikipedia>,<{[2001,2011]},wrong>}"
print(f"  {raw}")
print(f"  normalises to {time_prov.parse(raw).serialize()}")

print()
print("== a compound value is a function: ask it about any time range")
pairs = [
    (temporal.parse_payload("{[2005,2009]}"), Fraction(3, 10)),
    (temporal.parse_payload("{[2008,2011]}"), Fraction(1)),
]
for z in ("{[2008,2011]}", "{[2005,2009]}", "{[2005,2011]}", "{[1990,1991]}"):
    degree = evaluate(temporal, fuzzy, pairs, temporal.parse_payload(z))
    print(f"  degree over {z}: {degree}")

print()
print("== the reasoner runs over compound annotations unchanged")
text = """@domix compound(temporal,fuzzy:product) .
(SkypeCollab sc EbayCollab) : {<{[2005,2009]},1>,<{[2009,2011]},0.3>} .
(toivo type SkypeCollab) : {<{[2004,2010]},0.8>} .
"""
doc = parse_graph(text)
closed = closure(apply_defaults(doc.graph, doc.plain, "top")[0])
for t, value in closed.statements():
    if t.subject.lexical == "toivo" and t.object.lexical == "EbayCollab":
        print(f"  (toivo type EbayCollab) : {value.serialize()}")
