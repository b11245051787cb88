"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its seed and size: the same
arguments give byte-identical `.anrdf` / `.anql` text.  The program under
test sees only this text.
"""

from __future__ import annotations

import random

PROPERTIES = ("worksFor", "manages", "knows", "advises")

# Plain (non-annotated) schema axioms, so `apply_defaults top` folds them in.
SCHEMA = (
    "manages sp worksFor .",
    "advises sp knows .",
    "worksFor dom C0 .",
    "worksFor range Org .",
    "knows dom C1 .",
)

PROVENANCE_ATOMS = tuple(f"s{i}" for i in range(6))

# Sizes at full scale; the growth report also runs at a quarter of these.
TEMPORAL_CLASSES = 40
TEMPORAL_INDIVIDUALS = 400
COMPOUND_CLASSES = 20
COMPOUND_INDIVIDUALS = 100
COMPOUND_SECOND_PARENT = 0.3

# One pass of `query-mix` runs these shapes in this order.
QUERY_SHAPES: dict[str, str] = {
    "bap": "SELECT ?p ?l WHERE {\n"
    "    (?p type C0):?l . (?p worksFor ?o):?l\n"
    "}\n",
    "optional": "SELECT ?p ?l ?c WHERE {\n"
    "    (?p type C3):?l\n"
    "    OPTIONAL {(?p knows ?c):?l2 FILTER (?l2 <= ?l)}\n"
    "}\n",
    "groupby": "SELECT ?y ?n WHERE {\n"
    "    (?x worksFor ?y):?l\n"
    "    GROUPBY(?y) COUNT(?x) AS ?n\n"
    "}\n",
    "aggregate": "SELECT ?x ?avgL WHERE {\n"
    "    (?x worksFor ?y):?l\n"
    "    GROUPBY(?x) AVG(length(?l)) AS ?avgL\n"
    "}\n",
    "union": "SELECT ?p ?l WHERE {\n"
    "    {(?p type C5):?l} UNION {(?p type C7):?l}\n"
    "    FILTER(beforeAny(?l, {[2005,2006]}))\n"
    "}\n",
    "point": "SELECT ?c ?l WHERE {\n"
    "    (p17 type ?c):?l\n"
    "}\n",
}


def _interval(rng: random.Random) -> str:
    start = rng.randint(1990, 2015)
    return f"[{start},{start + rng.randint(1, 10)}]"


def _class_edges(classes: int, second_parent: float) -> list[str]:
    """A fixed-shape `sc` hierarchy rooted at C0: class i has parent
    (i-1)//3, and every class with i % 10 < 10 * second_parent (i >= 2)
    also gets parent (i-1)//2.

    The shape does not depend on the seed, so every seed does the same
    amount of reasoning and the query shapes name classes at fixed depths.
    """
    edges = []
    for i in range(1, classes):
        parents = {(i - 1) // 3}
        if i >= 2 and i % 10 < 10 * second_parent:
            parents.add((i - 1) // 2)
        edges.extend(f"C{i} sc C{j} ." for j in sorted(parents))
    return edges


def _individuals(rng: random.Random, individuals: int, classes: int, orgs: int):
    """Per individual: (name, class, property, object, pairs).

    Template i has class i % classes; within a class, members cycle
    through the properties and alternate between 1 and 2 annotation pairs.
    The seed only decides which name gets which template, the objects and
    the annotation values, so every seed does the same amount of work.
    """
    names = list(range(individuals))
    rng.shuffle(names)
    rows = []
    for i, name in enumerate(names):
        cls, member = i % classes, i // classes
        rows.append((name, cls, PROPERTIES[(cls + member) % len(PROPERTIES)], 1 + member % 2))
    rows.sort()
    workers = 0
    for name, cls, prop, pairs in rows:
        if prop in ("worksFor", "manages"):
            obj = f"O{workers % orgs}"
            workers += 1
        else:
            obj = f"p{rng.randrange(individuals)}"
        yield f"p{name}", f"C{cls}", prop, obj, pairs


def temporal_document(seed: int, individuals: int = TEMPORAL_INDIVIDUALS) -> str:
    """`infer-temporal` / `query-mix` input: every triple of an individual
    is annotated with its own random single interval."""
    rng = random.Random(f"temporal:{seed}")
    lines = ["@domix temporal .", *SCHEMA, *_class_edges(TEMPORAL_CLASSES, 0.0)]
    orgs = max(1, individuals // 10)
    for name, cls, prop, obj, _ in _individuals(rng, individuals, TEMPORAL_CLASSES, orgs):
        lines.append(f"({name} type {cls}) : {{{_interval(rng)}}} .")
        lines.append(f"({name} {prop} {obj}) : {{{_interval(rng)}}} .")
    return "\n".join(lines) + "\n"


def _compound_literal(rng: random.Random, pairs: int) -> str:
    """One <interval, atom> pair, or two whose intervals overlap without
    nesting and whose atoms differ, so the normal form always has four
    pairs: both inputs, their intersection with `s1 v s2`, and their
    union with `s1 ^ s2`."""
    start = rng.randint(1990, 2015)
    first = (start, start + rng.randint(2, 10))
    atoms = rng.sample(PROVENANCE_ATOMS, pairs)
    if pairs == 1:
        spans = [first]
    else:
        second = rng.randint(first[0] + 1, first[1] - 1)
        spans = [first, (second, first[1] + rng.randint(1, 10))]
    body = ",".join(f"<{{[{lo},{hi}]}},{atom}>" for (lo, hi), atom in zip(spans, atoms))
    return "{" + body + "}"


def compound_document(seed: int, individuals: int = COMPOUND_INDIVIDUALS) -> str:
    """`infer-compound` input: each individual's two triples share one
    annotation of 1 or 2 <interval, atom> pairs, and every worker has its
    own organisation.  Joining the values of different individuals makes
    normal forms grow exponentially in the number of values joined, so
    the document keeps every closed annotation a join of one input value.
    """
    rng = random.Random(f"compound:{seed}")
    lines = [
        "@domix compound(temporal,provenance) .",
        *SCHEMA,
        *_class_edges(COMPOUND_CLASSES, COMPOUND_SECOND_PARENT),
    ]
    for name, cls, prop, obj, pairs in _individuals(rng, individuals, COMPOUND_CLASSES, individuals):
        label = _compound_literal(rng, pairs)
        lines.append(f"({name} type {cls}) : {label} .")
        lines.append(f"({name} {prop} {obj}) : {label} .")
    return "\n".join(lines) + "\n"
