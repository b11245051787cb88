"""AnQL: the annotation-aware query algebra and its evaluator."""

from .algebra import QueryDocument
from .engine import evaluate_query
from .rewrite import rewrite_defaults
