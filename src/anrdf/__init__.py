"""anrdf: annotated RDF triples over pluggable semiring domains, the
annotated rho-df closure, and the AnQL query algebra.

Quick tour::

    from anrdf import apply_defaults, closure, evaluate_query, parse_graph, parse_query

    doc = parse_graph(open("data.anrdf").read(), domain="temporal")
    graph, _ = apply_defaults(doc.graph, doc.plain, "top")  # plain triples as top
    closed = closure(graph)
    query = parse_query(open("query.anql").read(), domain="temporal")
    rows = evaluate_query(closed, query)
"""

from .domains import (
    AllenRelation,
    AnnotationValue,
    Domain,
    QuantifierMode,
    allen_lifted,
    axiom_suite,
    get_domain,
    normalise,
    quasihomomorphism_suite,
)
from .model import AnnotatedGraph, Term, Triple, iri, literal, skolem
from .reasoner import apply_defaults, closure
from .anql import SubSelect, evaluate_query, rewrite_defaults
from .syntax import (
    parse_graph,
    parse_query,
    serialize_answers_json,
    serialize_answers_tsv,
    serialize_graph,
)

__version__ = "0.1.0"

__all__ = [
    "AllenRelation",
    "AnnotatedGraph",
    "AnnotationValue",
    "Domain",
    "QuantifierMode",
    "SubSelect",
    "Term",
    "Triple",
    "allen_lifted",
    "apply_defaults",
    "axiom_suite",
    "closure",
    "evaluate_query",
    "get_domain",
    "iri",
    "literal",
    "normalise",
    "parse_graph",
    "parse_query",
    "quasihomomorphism_suite",
    "rewrite_defaults",
    "serialize_answers_json",
    "serialize_answers_tsv",
    "serialize_graph",
    "skolem",
]
