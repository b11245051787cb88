"""Parsers and canonical serialisers for data documents, queries, and
answer sets."""

from .data import (
    Document,
    format_term,
    parse_graph,
    serialize_graph,
)
from .query import parse_query
from .results import serialize_answers_json, serialize_answers_tsv
