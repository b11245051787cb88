"""AnQL algebra: pattern and filter-expression syntax trees.

Variables are plain `?name` tokens; whether one is a regular or an
annotation variable follows from where it occurs (annotation slots and
annotation-valued built-ins bind annotation values, everything else
binds terms), so solutions distinguish the two by the bound value.

The depth rule: every node (pattern, filter expression or query) has a
`depth`, the levels of its tree, one more than its deepest child's, set
when it is built, and no node deeper than `MAX_DEPTH` can be built.  A
query is its outermost `SubSelect`, which applies its own ORDERBY and
LIMIT, so the tree `evaluate_query` walks is the query's own: a query
that can be built can be rewritten and evaluated.  An ORDERBY or a
LIMIT inside a group is a `SubSelect` too, one with no projection, so
one node class sorts rows and cuts them.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple, Union

from ..domains import AnnotationValue
from ..errors import AnrdfError
from ..model import Term

# A level costs the recursive code at most two frames: `eval_pattern`
# and the benchmark tracer's wrapper around it, `rewrite_defaults`' walk
# and its comprehension, or a filter expression and its parenthesised
# primary in the parser.  So 353 levels take about 700 of Python's
# default limit of 1,000 frames (`TestDepthRule` measures it), leaving
# the rest to the caller; a query's SELECT is one level over its
# pattern, so 351 FILTERs in a row, over their Bap, are 353 levels.
MAX_DEPTH = 353


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


class Node:
    depth: int = 1  # the levels of this node's tree, set once when the node is built

    def __post_init__(self) -> None:
        # Every field that holds a node holds a child.
        values = (getattr(self, f.name) for f in fields(self))
        depth = 1 + max((v.depth for v in values if isinstance(v, Node)), default=0)
        if depth > MAX_DEPTH:
            raise AnrdfError(f"query nested deeper than {MAX_DEPTH} levels")
        object.__setattr__(self, "depth", depth)

    # Loops over the fields, so that `==` and `repr` cost a level two
    # frames (the depth rule's budget); the generated ones cost three
    # before Python 3.12, and so would `!=`, through `object.__ne__`.
    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        for f in fields(self):
            if not getattr(self, f.name) == getattr(other, f.name):
                return False
        return True

    def __repr__(self) -> str:
        args = []
        for f in fields(self):
            args.append(f"{f.name}={getattr(self, f.name)!r}")
        return f"{type(self).__name__}({', '.join(args)})"


# A node class keeps `Node`'s `==` and `repr`, and gets the hash of its fields.
_node = dataclass(frozen=True, eq=False, repr=False, unsafe_hash=True)


# -- filter expressions -------------------------------------------------------


class FilterExpr(Node):
    pass


@_node
class Bound(FilterExpr):
    var: Var


@_node
class IsKind(FilterExpr):
    """isIRI, isBLANK or isLITERAL: the operand is a term of `kind`
    (`anrdf.model.IRI`, `SKOLEM` or `LITERAL`)."""

    kind: str
    operand: Operand


@_node
class Eq(FilterExpr):
    left: Operand
    right: Operand


@_node
class Not(FilterExpr):
    inner: FilterExpr


@_node
class Or(FilterExpr):
    left: FilterExpr
    right: FilterExpr


@_node
class And(FilterExpr):
    left: FilterExpr
    right: FilterExpr


@_node
class AnnLeq(FilterExpr):
    """Domain order test `x <= y` on annotation values."""

    left: Operand
    right: Operand


@_node
class BuiltinCall(FilterExpr):
    name: str
    args: tuple[Operand, ...]


# -- patterns -----------------------------------------------------------------


class Pattern(Node):
    bindings: Bindings  # what this node's rows bind, set once when the node is built

    def __post_init__(self) -> None:
        # The children are built first, so `depth` and `bindings` read
        # their attributes and never recurse, however deep the tree.
        super().__post_init__()
        object.__setattr__(self, "bindings", bindings(self))


@_node
class Bap(Pattern):
    patterns: tuple[TriplePattern, ...]


@_node
class Join(Pattern):  # AND
    left: Pattern
    right: Pattern


@_node
class Union(Pattern):
    left: Pattern
    right: Pattern


@_node
class Optional(Pattern):
    left: Pattern
    right: Pattern
    filter: FilterExpr | None = None


@_node
class Filter(Pattern):
    pattern: Pattern
    expr: FilterExpr


@_node
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


@_node
class GroupBy(Pattern):
    pattern: Pattern
    keys: tuple[Var, ...]
    aggregates: tuple[Aggregate, ...]


@_node
class SubSelect(Pattern):
    """Its pattern's rows sorted by `order_by`, projected onto `select`,
    and cut to the first `limit`.  A query is one, with the query's
    ORDERBY and LIMIT, and so is a sub-SELECT, which has none; an
    ORDERBY or a LIMIT inside a group is one with no projection
    (`select` None), over what precedes it in the group.  Its `bindings`
    keep what `select` names of what the pattern's rows can bind (all of
    it with no projection), and the engine projects only when that drops
    a variable."""

    select: tuple[Var, ...] | None  # None: no projection
    pattern: Pattern
    order_by: Var | None = None
    limit: int | None = None


class Bindings(NamedTuple):
    """What the rows of a pattern bind, by variable name (the engine's keyed
    rule).  The engine takes every row-shape decision from it: whether a
    node prunes, what Join and OPTIONAL hash on, whether a SubSelect
    projects, and whether a Bap binds one variable to a term and to an
    annotation (then it gives no rows)."""

    can: frozenset[str]  # what some row may bind
    terms: frozenset[str]  # what every row binds to a non-annotation value
    labels: frozenset[str]  # what every row binds to an annotation value
    keyed: bool  # every row binds exactly `can` and is fixed by its `terms` bindings


def bindings(p: Pattern) -> Bindings:
    """What the rows of `p` bind, read from the tree alone: from its children's `bindings`."""
    # A built pattern has `bindings`; a bare `Pattern()` has none, nor
    # the fields `repr` prints, so the error names the child's type.
    for child in (getattr(p, name, None) for name in ("left", "right", "pattern")):
        if child is not None and not hasattr(child, "bindings"):
            raise TypeError(f"not a pattern: {type(child).__name__}")
    if isinstance(p, Bap):  # a variable in a slot and in a label gives no rows
        slots = [s for tp in p.patterns for s in (tp.subject, tp.predicate, tp.object)]
        terms = frozenset(s.name for s in slots if isinstance(s, Var))
        labels = frozenset(v.name for tp in p.patterns if isinstance(v := tp.annotation, Var))
        return Bindings(terms | labels, terms, labels, True)
    if isinstance(p, (Join, Union, Optional)):
        left, right = p.left.bindings, p.right.bindings
        can = left.can | right.can
        if isinstance(p, Join):
            keyed = left.keyed and right.keyed
            return Bindings(can, left.terms | right.terms, left.labels | right.labels, keyed)
        if isinstance(p, Union):
            return Bindings(can, left.terms & right.terms, left.labels & right.labels, False)
        return Bindings(can, left.terms, left.labels, False)  # bare left rows pass through
    if isinstance(p, Filter):
        return p.pattern.bindings
    if isinstance(p, SubSelect):  # no projection keeps what the rows can bind
        inner = p.pattern.bindings
        kept = inner.can if p.select is None else frozenset(v.name for v in p.select)
        keyed = inner.keyed and inner.terms <= kept
        return Bindings(inner.can & kept, inner.terms & kept, inner.labels & kept, keyed)
    if isinstance(p, Assign):  # the target may be overwritten by any kind of value
        inner, new = p.pattern.bindings, frozenset({p.target.name})
        return Bindings(inner.can | new, inner.terms - new, inner.labels - new, False)
    if isinstance(p, GroupBy):  # a group keeps its bound keys and binds every target
        inner, new = p.pattern.bindings, frozenset(a.target.name for a in p.aggregates)
        kept = frozenset(k.name for k in p.keys)
        return Bindings(kept | new, inner.terms & kept - new, inner.labels & kept - new, False)
    raise TypeError(f"not a pattern: {type(p).__name__}")


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
