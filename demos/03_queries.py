#!/usr/bin/env python3
"""Annotation-aware querying.

Queries look like SPARQL except that triple patterns may carry an
annotation label -- a constant or a variable -- and filters, assignment,
grouping, and ordering can work with annotation values.  This script
walks through the main operators over the employment dataset.
"""

from pathlib import Path

from anrdf import (
    apply_defaults, closure, evaluate_query, parse_graph, parse_query, rewrite_defaults
)
from anrdf.syntax import serialize_answers_tsv

DATA = Path(__file__).resolve().parent.parent / "data"


def load(name: str):
    """The closure of a data file, its plain (non-annotated) triples
    folded in with the domain's top."""
    doc = parse_graph((DATA / name).read_text())
    graph, _ = apply_defaults(doc.graph, doc.plain, "top")
    return closure(graph)


closed = load("fig1_exx1.anrdf")


def run(title: str, text: str, graph=closed, mode=None):
    print(f"== {title}")
    print("\n".join("  | " + line for line in text.strip().splitlines()))
    query = parse_query(text, graph.domain)
    if mode:
        query = rewrite_defaults(query, mode, graph.domain)
    print("\n".join("  " + line for line in
                    serialize_answers_tsv(query.select, evaluate_query(graph, query)).splitlines()))
    print()


run(
    "optional patterns share the annotation variable",
    """
    SELECT ?p ?l ?c WHERE {
       (?p type ebayEmp):?l
       OPTIONAL{(?p hasCar ?c):?l}
    }
    """,
)

run(
    "filters compare annotation values in the domain order",
    """
    SELECT ?p ?l ?c WHERE {
       (?p type ebayEmp):?l
       OPTIONAL {(?p hasCar ?c):?l2
       FILTER (?l2 <= ?l)}
    }
    """,
)

run(
    "assignment applies built-ins per solution",
    """
    SELECT ?x ?z WHERE {
        (?x worksFor google):?l
        ASSIGN meet(?l, {[2002,2011]}) AS ?z
    }
    """,
)

run(
    "grouping and aggregation (average employment length)",
    """
    SELECT ?x ?avgL WHERE {
        (?x worksFor ?y):?l
        GROUPBY(?x)
        AVG(length(?l)) AS ?avgL
        ORDERBY ?avgL
    }
    """,
)

run(
    "interval-set relations pick their quantifier (beforeAny vs beforeAll)",
    """
    SELECT ?p WHERE {
        (?p type paypalEmp):?l1 .
        (toivo type paypalEmp):?l2 .
        FILTER(beforeAny(?l1,?l2))
    }
    """,
    graph=load("fig1_interval_sets.anrdf"),
)

print("== plain (non-annotated) query patterns under the three default rewrites")
plain = """
    SELECT ?p ?c WHERE {
        ?p type ebayEmp
        OPTIONAL{?p hasCar ?c}
    }
"""
minimal = load("exx1_minimal.anrdf")
for mode in ("shared-var", "fresh-vars", "top"):
    query = rewrite_defaults(parse_query(plain, minimal.domain), mode, minimal.domain)
    rows = evaluate_query(minimal, query)
    print(f"  {mode:11} -> {len(rows)} answers")
