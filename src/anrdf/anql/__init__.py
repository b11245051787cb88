"""AnQL: the annotation-aware query algebra and its evaluator."""

from .algebra import SubSelect
from .engine import evaluate_query
from .rewrite import rewrite_defaults
