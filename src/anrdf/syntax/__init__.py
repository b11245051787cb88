"""Parsers and canonical serialisers for data documents, queries, and
answer sets."""

from .data import Document, parse_graph, serialize_graph
from .lexer import format_term
from .query import parse_query
from .results import serialize_answers_json, serialize_answers_tsv
