"""AnQL algebra: pattern and filter-expression syntax trees.

Variables are plain `?name` tokens; whether one is a regular or an
annotation variable follows from where it occurs (annotation slots and
annotation-valued built-ins bind annotation values, everything else
binds terms), so solutions distinguish the two by the bound value.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from typing import Iterator, Union

from ..domains import AnnotationValue
from ..model import Term


@dataclass(frozen=True)
class Var:
    name: str  # without the leading '?'

    def __repr__(self) -> str:
        return f"?{self.name}"


TermSlot = Union[Term, Var]
AnnotationLabel = Union[AnnotationValue, Var, None]  # None: non-annotated pattern
Operand = Union[Var, Term, AnnotationValue, Fraction]


@dataclass(frozen=True)
class TriplePattern:
    subject: TermSlot
    predicate: TermSlot
    object: TermSlot
    annotation: AnnotationLabel = None


# -- filter expressions -------------------------------------------------------


class FilterExpr:
    pass


@dataclass(frozen=True)
class Bound(FilterExpr):
    var: Var


@dataclass(frozen=True)
class IsKind(FilterExpr):
    """isIRI, isBLANK or isLITERAL: the operand is a term of `kind`
    (`anrdf.model.IRI`, `SKOLEM` or `LITERAL`)."""

    kind: str
    operand: Operand


@dataclass(frozen=True)
class Eq(FilterExpr):
    left: Operand
    right: Operand


@dataclass(frozen=True)
class Not(FilterExpr):
    inner: FilterExpr


@dataclass(frozen=True)
class Or(FilterExpr):
    left: FilterExpr
    right: FilterExpr


@dataclass(frozen=True)
class And(FilterExpr):
    left: FilterExpr
    right: FilterExpr


@dataclass(frozen=True)
class AnnLeq(FilterExpr):
    """Domain order test `x <= y` on annotation values."""

    left: Operand
    right: Operand


@dataclass(frozen=True)
class BuiltinCall(FilterExpr):
    name: str
    args: tuple[Operand, ...]


# -- patterns -----------------------------------------------------------------


class Pattern:
    pass


@dataclass(frozen=True)
class Bap(Pattern):
    patterns: tuple[TriplePattern, ...]


@dataclass(frozen=True)
class Join(Pattern):  # AND
    left: Pattern
    right: Pattern


@dataclass(frozen=True)
class Union(Pattern):
    left: Pattern
    right: Pattern


@dataclass(frozen=True)
class Optional(Pattern):
    left: Pattern
    right: Pattern
    filter: FilterExpr | None = None


@dataclass(frozen=True)
class Filter(Pattern):
    pattern: Pattern
    expr: FilterExpr


@dataclass(frozen=True)
class Assign(Pattern):
    pattern: Pattern
    fn: str  # built-in name; "" is the identity on a single argument
    args: tuple[Operand, ...]
    target: Var


@dataclass(frozen=True)
class Aggregate:
    op: str  # SUM | AVG | MAX | MIN | COUNT | JOIN | MEET
    fn: str  # built-in applied per solution; "" is identity
    args: tuple[Operand, ...]
    target: Var


@dataclass(frozen=True)
class GroupBy(Pattern):
    pattern: Pattern
    keys: tuple[Var, ...]
    aggregates: tuple[Aggregate, ...]


@dataclass(frozen=True)
class OrderBy(Pattern):
    pattern: Pattern
    var: Var


@dataclass(frozen=True)
class Limit(Pattern):
    pattern: Pattern
    count: int


@dataclass(frozen=True)
class SubSelect(Pattern):
    variables: tuple[Var, ...]
    pattern: Pattern


@dataclass(frozen=True)
class QueryDocument:
    select: tuple[Var, ...]
    pattern: Pattern
    order_by: Var | None = None
    limit: int | None = None


def pattern_vars(p: Pattern) -> frozenset[Var]:
    """Variables a pattern can bind (annotation labels included)."""
    if isinstance(p, Bap):
        out = set()
        for tp in p.patterns:
            for slot in (tp.subject, tp.predicate, tp.object, tp.annotation):
                if isinstance(slot, Var):
                    out.add(slot)
        return frozenset(out)
    if isinstance(p, (Join, Union, Optional)):
        return pattern_vars(p.left) | pattern_vars(p.right)
    if isinstance(p, Filter):
        return pattern_vars(p.pattern)
    if isinstance(p, Assign):
        return pattern_vars(p.pattern) | {p.target}
    if isinstance(p, GroupBy):
        return frozenset(p.keys) | {a.target for a in p.aggregates}
    if isinstance(p, (OrderBy, Limit)):
        return pattern_vars(p.pattern)
    if isinstance(p, SubSelect):
        return frozenset(p.variables) & pattern_vars(p.pattern)
    raise TypeError(f"not a pattern: {p!r}")


def occurrences(node, kind: type) -> Iterator:
    """Every instance of `kind` in `node`, an algebra node or a tuple of
    them, whether or not a pattern can bind it.  Annotation values are
    leaves, and a term (a tuple of strings) holds no node."""
    if isinstance(node, kind):
        yield node
    elif isinstance(node, tuple):
        for item in node:
            yield from occurrences(item, kind)
    elif is_dataclass(node) and not isinstance(node, AnnotationValue):
        for f in fields(node):
            yield from occurrences(getattr(node, f.name), kind)
