"""Evaluation of AnQL patterns over a closed annotated graph.

Solutions are partial maps from variable names to terms, annotation
values, or rationals (the latter produced by ASSIGN/aggregates).

The domain rule: a query is evaluated in the graph's domain.
`evaluate_query` checks once, before evaluation, that every annotation
constant in the query has that domain, and raises `DomainMismatchError`
if one does not.  The operators below then never compare domains; a
caller that hands `eval_pattern` a foreign constant meets the
`AnnotationValue` guard instead.

The merge rule: `meet_compatible` decides and builds a merged row in
one pass.  The rows must agree on every shared non-annotation binding;
each shared annotation binding is met once, and the rows are
incompatible when that meet is bottom.  Join and OPTIONAL merge rows
through it.

The plan rule: every row that enters triple pattern i of a Bap binds the
same variables, the term variables of patterns 0..i-1 to terms and their
annotation variables to annotation values.  So `eval_bap` decides each
slot and the label once per pattern, not once per row.  A slot is a
constant, a variable an earlier pattern bound (read from the row), or a
new variable bound from the matched triple (a repeated one must meet the
same term).  A label is a constant matched by `leq`, a new annotation
variable bound to the stored value, or one an earlier pattern bound, met
with the row's value; a bottom meet drops the row.  A variable that
would hold both a term and an annotation gives no rows: the Bap's
`bindings` then name it in both `terms` and `labels`, so `eval_bap` reads
the clash from them once, before any lookup.  With no clash, a variable
an earlier pattern bound holds a term when it fills a slot and an
annotation when it is a label, so one set of bound variables decides
both.  A pattern that reads no slot from the row makes the same lookup
for every row, so it is matched once for all of them, and a cross
product does not sort the store once per row.

The keyed rule: a node's `bindings`, computed once per node from its
children's (`alg.bindings`), says from the tree alone what its rows can
bind, what every row binds to a non-annotation value (its `terms`) and
to an annotation value, and whether the node is keyed: every row binds
exactly what it can and is fixed by its `terms` bindings.  Join and
OPTIONAL hash the right rows on the `terms` both inputs share; rows that
differ there never meet.

`eval_pattern` is the one place that evaluates sub-patterns and
prunes.  It evaluates a node's `left` and `right` or its `.pattern`,
hands those rows to the node's operator, a function of rows that never
sees the graph, and prunes the result with one `prune_maximal` call.
Answers are the domain-maximal rows: a row loses when another row has
the same key set, identical term bindings, and pointwise larger
annotations.  Two rows of a keyed node with the same `_signature` are
equal, and no row dominates an equal one, so a keyed node skips the
prune.  A Bap is keyed: the store keeps one annotation per triple, so
the term bindings of a row fix the triples it matched and hence the
whole row.  So is a Join of two keyed inputs, whose rows' term bindings
fix the two rows each merges; a Filter over a keyed input; and a
SubSelect over a keyed input that keeps every `terms` variable.  A
SubSelect sorts and cuts rows, for a query, a sub-SELECT and a group's
ORDERBY or LIMIT alike; the last is one with no projection (`select`
None).  A SubSelect projects only when it drops a variable, that is when
its `bindings.can` is smaller than its pattern's; one that drops no
variable passes its rows, whatever `select` lists (or with none), since
no row binds a variable outside `select`.  A Filter and a SubSelect that
drops no variable skip the prune over any input, since a subset, an
order or a prefix of maximal rows is maximal.  A SubSelect that drops a
variable sorts its input's rows, projects them, prunes them unless
keyed, and only then keeps the first `limit`, so the cut keeps maximal
rows and a dominated row cannot take a place.  Every other node can
create a dominated row:

- UNION puts rows from two inputs side by side;
- OPTIONAL keeps a bare left row next to its extensions, and an
  extension that binds no new variable and shrinks an annotation is
  dominated by it;
- Join, and the merge of OPTIONAL, once an input is not keyed: an
  OPTIONAL output can hold a row with the optional variables and one
  without them, and both can join a row that binds the missing
  variables into one term binding (`test_join_prunes_rows_from_optional`);
- ASSIGN that overwrites a bound target can make two rows agree on
  their terms;
- GROUPBY keyed on an annotation variable gives groups that differ
  only in that key (`test_groupby_prunes_dominated_groups`);
- a projection (a SubSelect that drops a variable) drops the variables
  two rows differed in.

OPTIONAL keeps the paper's three cases; `_eval_optional` states them.

Filters are three-valued; errors never abort evaluation.  `&&` and `||`
follow SPARQL 1.1's logical-and and logical-or (section 17.2): `&&` is
false when either side is false, otherwise an error when either side is
one, otherwise true; `||` is true when either side is true, otherwise an
error when either side is one, otherwise false.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Callable

from ..domains import AnnotationValue
from ..errors import DomainMismatchError, QueryTypeError
from ..model import LITERAL, AnnotatedGraph, Term
from ..syntax.results import format_value
from . import algebra as alg
from .builtins import FUNCTIONS, REGISTRY, UNBOUND, BuiltinError

Value = Any  # Term | AnnotationValue | Fraction
Solution = dict[str, Value]
Candidates = Callable[[Solution], list[Solution]]  # a left row's right rows

TRUE = "true"
FALSE = "false"
ERROR = "error"
_NOT = {TRUE: FALSE, FALSE: TRUE, ERROR: ERROR}  # `!`, which maps error to error


# -- solution combinators -----------------------------------------------------


def meet_compatible(a: Solution, b: Solution) -> Solution | None:
    """The merge of `a` and `b`, or None when they are not compatible
    (see the merge rule in the module docstring).  `{}` is a merged row."""
    merged = {**a, **b}
    for key in a.keys() & b.keys():
        va, vb = a[key], b[key]
        if isinstance(va, AnnotationValue) and isinstance(vb, AnnotationValue):
            met = va.meet(vb)
            if met.is_bottom:
                return None
            merged[key] = met
        elif va != vb:
            return None
    return merged


def dominates(big: Solution, small: Solution) -> bool:
    """True iff `small` is a strictly subsumed variant of `big`, for two
    rows with the same `_signature`: only their annotations can differ."""
    return small != big and all(
        value.leq(big[key]) for key, value in small.items() if isinstance(value, AnnotationValue)
    )


def _signature(row: Solution) -> frozenset:
    """What two rows must share for one to dominate the other: the key
    set and each non-annotation value."""
    return frozenset(
        (key,) if isinstance(value, AnnotationValue) else (key, value)
        for key, value in row.items()
    )


def prune_maximal(solutions: list[Solution]) -> list[Solution]:
    """Drop rows subsumed by another row (duplicates are preserved).

    A row can only be dominated by a row with the same `_signature`, so
    rows are bucketed by signature and `dominates` compares each row only
    with the members of its own bucket (the Skyline approach).  Output
    keeps input order.
    """
    signatures = [_signature(row) for row in solutions]
    buckets: dict[frozenset, list[Solution]] = {}
    for row, signature in zip(solutions, signatures):
        buckets.setdefault(signature, []).append(row)
    return [
        row
        for row, signature in zip(solutions, signatures)
        if not any(dominates(other, row) for other in buckets[signature])
    ]


def _right_partitions(keys: list[str], right_rows: list[Solution]) -> Candidates:
    """For a left row, the right rows that can be meet-compatible with it.

    The right rows are hashed on `keys`, variables that every row on both
    sides binds to a non-annotation value (the keyed rule); rows that
    differ there never meet.  With no keys every row hashes on `()`, so
    every left row sees the whole right list.  Each partition keeps
    right-row order.
    """
    partitions: dict[tuple, list[Solution]] = {}
    for row in right_rows:
        partitions.setdefault(tuple(row[key] for key in keys), []).append(row)
    return lambda left: partitions.get(tuple(left[key] for key in keys), [])


# -- filter evaluation --------------------------------------------------------


def _resolve(operand: alg.Operand, solution: Solution):
    if isinstance(operand, alg.Var):
        return solution.get(operand.name, UNBOUND)
    return operand


def filter_eval(expr: alg.FilterExpr, solution: Solution) -> str:
    if isinstance(expr, alg.Bound):
        return TRUE if expr.var.name in solution else FALSE
    if isinstance(expr, alg.IsKind):
        value = _resolve(expr.operand, solution)
        if value is UNBOUND:
            return ERROR
        return TRUE if isinstance(value, Term) and value.kind == expr.kind else FALSE
    if isinstance(expr, alg.Eq):
        left = _resolve(expr.left, solution)
        right = _resolve(expr.right, solution)
        if left is UNBOUND or right is UNBOUND:
            return ERROR
        return TRUE if left == right else FALSE
    if isinstance(expr, alg.Not):
        return _NOT[filter_eval(expr.inner, solution)]
    if isinstance(expr, (alg.Or, alg.And)):
        # A true side decides `||` and a false one `&&`; then an error does.
        decisive = TRUE if isinstance(expr, alg.Or) else FALSE
        sides = (filter_eval(expr.left, solution), filter_eval(expr.right, solution))
        if decisive in sides:
            return decisive
        return ERROR if ERROR in sides else _NOT[decisive]
    if isinstance(expr, alg.AnnLeq):
        left = _resolve(expr.left, solution)
        right = _resolve(expr.right, solution)
        if isinstance(left, AnnotationValue) and isinstance(right, AnnotationValue):
            return TRUE if left.leq(right) else FALSE
        return FALSE
    if isinstance(expr, alg.BuiltinCall):
        return TRUE if _call(expr.name, expr.args, solution) is True else FALSE
    raise TypeError(f"not a filter expression: {type(expr).__name__}")


# -- pattern evaluation -------------------------------------------------------


def eval_bap(graph: AnnotatedGraph, bap: alg.Bap) -> list[Solution]:
    """Match triple patterns left to right by the plan rule in the module
    docstring.  Rows keep input order, and the extensions of a row come
    in `match` order."""
    if bap.bindings.terms & bap.bindings.labels:
        return []  # one variable cannot hold both a term and an annotation
    rows: list[Solution] = [{}]
    seen: set[str] = set()  # the variables earlier patterns bound (the plan rule)
    for tp in bap.patterns:
        slots = (tp.subject, tp.predicate, tp.object)
        key: list[Term | None] = [None if isinstance(slot, alg.Var) else slot for slot in slots]
        read: list[tuple[int, str]] = []  # slots of a bound variable, read from the row
        free: dict[str, int] = {}  # each new variable and the first slot it fills
        same: list[tuple[int, int]] = []  # the slots a repeated new variable ties
        for i, slot in enumerate(slots):
            if isinstance(slot, alg.Var):
                if slot.name in seen:
                    read.append((i, slot.name))
                elif slot.name in free:
                    same.append((free[slot.name], i))
                else:
                    free[slot.name] = i
        label = graph.domain.top if tp.annotation is None else tp.annotation
        label_var = label.name if isinstance(label, alg.Var) else None
        shared = label_var in seen
        # A pattern that reads nothing from the row makes one lookup for all
        # the rows, and none for no rows; a `match` result is for one pass.
        once = list(graph.match(*key)) if rows and not read else None
        extended: list[Solution] = []
        for row in rows:
            for i, name in read:
                key[i] = row[name]
            for t, stored in graph.match(*key) if once is None else once:
                if same and any(t[i] != t[j] for i, j in same):
                    continue
                if label_var is None:
                    if not label.leq(stored):
                        continue
                elif shared:
                    stored = row[label_var].meet(stored)
                    if stored.is_bottom:
                        continue
                new = row.copy()
                for name, i in free.items():
                    new[name] = t[i]
                if label_var is not None:
                    new[label_var] = stored
                extended.append(new)
        rows = extended
        seen.update(free)
        if label_var is not None:
            seen.add(label_var)
    return rows


def _eval_optional(
    node: alg.Optional, left_rows: list[Solution], candidates: Candidates
) -> list[Solution]:
    """The paper's three cases, for each left row: (1) every compatible
    merged row whose filter holds; the bare left row too when either
    (2) every compatible right row passes the filter while strictly
    shrinking every shared annotation binding, of which there must be at
    least one, or (3) every compatible right row fails the filter.  An
    error verdict passes neither.  With no compatible right row both hold,
    and this is the classical left join.  Each compatible right row leaves
    one record, its verdict and whether it shrinks, so (2) and (3) each
    say which records may occur.  A shared annotation binding shrinks when
    its merged value `left.meet(right)` differs from the left one, since a
    meet never exceeds its operand (the law "meet bounded", which
    `axiom_suite` checks for every domain)."""
    out: list[Solution] = []
    case_2, case_3 = {(TRUE, True)}, {(FALSE, True), (FALSE, False)}  # records that keep `left`
    for left in left_rows:
        records = set()  # (verdict, shrinks) of each compatible right row
        for right in candidates(left):
            merged = meet_compatible(left, right)
            if merged is None:
                continue
            verdict = TRUE if node.filter is None else filter_eval(node.filter, merged)
            if verdict == TRUE:
                out.append(merged)
            # A compatible pair binds a shared key to two annotations or
            # to two equal non-annotation values.
            shared = [k for k in left.keys() & right if isinstance(left[k], AnnotationValue)]
            records.add((verdict, bool(shared) and all(merged[k] != left[k] for k in shared)))
        if records <= case_2 or records <= case_3:
            out.append(left)
    return out


def _apply_assign(node: alg.Assign, rows: list[Solution]) -> list[Solution]:
    out = []
    for row in rows:
        value = _call(node.fn, node.args, row, FUNCTIONS)
        if value is None:
            continue
        if isinstance(value, AnnotationValue) and value.is_bottom:
            continue  # annotation variables never hold bottom
        out.append({**row, node.target.name: value})
    return out


def _call(fn: str, args: tuple[alg.Operand, ...], row: Solution, table=REGISTRY):
    """The value of built-in `fn` (or of its one operand when `fn` is
    empty), looked up in `table`; None when the built-in has none.  ASSIGN
    and aggregates pass `FUNCTIONS`, so a test they were built with raises
    `KeyError`."""
    resolved = tuple(_resolve(a, row) for a in args)
    if fn == "":
        value = resolved[0]
        return None if value is UNBOUND else value
    try:
        return table[fn](*resolved)
    except BuiltinError:
        return None


def _apply_groupby(
    node: alg.GroupBy, rows: list[Solution], diagnostics: list[str]
) -> list[Solution]:
    groups: dict[tuple, list[Solution]] = {}
    for row in rows:
        key = tuple(row.get(k.name) for k in node.keys)
        groups.setdefault(key, []).append(row)
    # Grouped output is a set with no dedup: two groups differ in a key
    # some row binds, each projected row keeps its bound keys, and the
    # parser rejects a target in the pattern's `bindings.can`.
    out: list[Solution] = []
    for members in groups.values():
        first = members[0]
        projected = {k.name: first[k.name] for k in node.keys if k.name in first}
        for aggregate in node.aggregates:
            value = _aggregate(aggregate, members)
            if isinstance(value, str):  # the reason it has no value drops the group
                # Named by its bound keys, as `?x=a`, only once it is dropped.
                keys = dict.fromkeys(k.name for k in node.keys if k.name in first)
                name = "".join(f" ?{k}={format_value(first[k])}" for k in keys)
                diagnostics.append(f"{aggregate.op}: {value} in group{name}; group dropped")
                break
            projected[aggregate.target.name] = value
        else:
            out.append(projected)
    return out


def _aggregate(aggregate: alg.Aggregate, members: list[Solution]) -> Value | str:
    """The value of `aggregate` over a group's `members`, or the reason it
    has none, a `str`, which no value is."""
    calls = (_call(aggregate.fn, aggregate.args, row, FUNCTIONS) for row in members)
    values = [value for value in calls if value is not None]
    op = aggregate.op
    if op == "COUNT":
        return Fraction(len(values))
    if not values:
        return "no defined values"
    if op in ("SUM", "AVG"):
        if not all(isinstance(v, Fraction) for v in values):
            return "non-numeric value"
        total = sum(values, Fraction(0))
        return total if op == "SUM" else total / len(values)
    if op in ("MAX", "MIN"):
        pick = max if op == "MAX" else min
        if all(isinstance(v, Fraction) for v in values) or all(
            isinstance(v, Term) and v.kind == LITERAL for v in values
        ):
            return pick(values)
        return "values are not totally ordered"
    if op in ("JOIN", "MEET"):
        if not all(isinstance(v, AnnotationValue) for v in values):
            return "non-annotation value"
        acc = FUNCTIONS[op.lower()](*values)
        # As in ASSIGN, annotation variables never hold bottom.
        return "bottom" if acc.is_bottom else acc
    raise QueryTypeError(f"unknown aggregate {op!r}")


def _apply_orderby(rows: list[Solution], var: alg.Var) -> list[Solution]:
    values = [row.get(var.name) for row in rows]
    bound = [v for v in values if v is not None]
    if all(isinstance(v, Fraction) for v in bound) or all(isinstance(v, Term) for v in bound):
        key = lambda v: v
    elif all(isinstance(v, AnnotationValue) for v in bound):
        key = lambda v: v.sort_key()
    else:
        raise QueryTypeError(
            f"ORDERBY ?{var.name}: values are not mutually orderable"
        )
    # Unbound rows sort first; the sort is stable.
    return sorted(rows, key=lambda r: (0,) if r.get(var.name) is None else (1, key(r[var.name])))


def eval_pattern(
    graph: AnnotatedGraph, pattern: alg.Pattern, diagnostics: list[str] | None = None
) -> list[Solution]:
    """The maximal rows of `pattern` (keyed nodes need no prune; see the
    module docstring)."""
    if diagnostics is None:
        diagnostics = []
    if isinstance(pattern, alg.Bap):
        return eval_bap(graph, pattern)
    if isinstance(pattern, (alg.Join, alg.Union, alg.Optional)):
        left = eval_pattern(graph, pattern.left, diagnostics)
        right = eval_pattern(graph, pattern.right, diagnostics)
        keys = sorted(pattern.left.bindings.terms & pattern.right.bindings.terms)
    elif isinstance(pattern, (alg.Filter, alg.Assign, alg.GroupBy, alg.SubSelect)):
        rows = eval_pattern(graph, pattern.pattern, diagnostics)
    else:
        raise TypeError(f"not a pattern: {type(pattern).__name__}")
    if isinstance(pattern, alg.Filter):
        return [r for r in rows if filter_eval(pattern.expr, r) == TRUE]
    if isinstance(pattern, alg.Join):
        candidates = _right_partitions(keys, right)
        rows = [
            merged
            for a in left
            for b in candidates(a)
            if (merged := meet_compatible(a, b)) is not None
        ]
    elif isinstance(pattern, alg.Union):
        rows = left + right
    elif isinstance(pattern, alg.Optional):
        rows = _eval_optional(pattern, left, _right_partitions(keys, right))
    elif isinstance(pattern, alg.Assign):
        rows = _apply_assign(pattern, rows)
    elif isinstance(pattern, alg.GroupBy):
        rows = _apply_groupby(pattern, rows, diagnostics)
    else:  # SubSelect: sort, project and prune, then keep the first `limit` rows
        if pattern.order_by is not None:
            rows = _apply_orderby(rows, pattern.order_by)
        if pattern.bindings.can < pattern.pattern.bindings.can:  # it drops a variable
            names = [v.name for v in pattern.select]
            rows = [{name: row[name] for name in names if name in row} for row in rows]
            if not pattern.bindings.keyed:
                rows = prune_maximal(rows)
        return rows[: pattern.limit]  # a limit of None keeps every row
    return rows if pattern.bindings.keyed else prune_maximal(rows)


def evaluate_query(
    graph: AnnotatedGraph,
    query: alg.SubSelect,
    diagnostics: list[str] | None = None,
) -> list[Solution]:
    """Evaluate a SELECT query; rows keep only the selected variables.

    Raises `DomainMismatchError` if an annotation constant of the query
    is not in the graph's domain (the domain rule).  Evaluation walks
    the query's own tree, which `algebra`'s depth rule bounded when it
    was built."""
    for value in alg.occurrences(query, AnnotationValue):
        if value.domain.name != graph.domain.name:
            raise DomainMismatchError(
                f"query constant {value.serialize()} is in domain {value.domain.name},"
                f" not in the graph's domain {graph.domain.name}"
            )
    return eval_pattern(graph, query, diagnostics)
