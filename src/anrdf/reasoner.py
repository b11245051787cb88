"""Forward-chaining closure over the annotated rho-df rules.

The rules are domain independent: every rule meets the premise
annotations and merges the conclusion into the store, where duplicate
triples join.  Rules never fire into bottom, and a firing whose
conclusion is already subsumed changes nothing, which (together with the
finiteness of derivable values in the shipped domains) makes the
fixpoint terminate.  A rule-firing cap guards against pathological
domains.

The rho-df rules, with conclusions right of the arrow:

    sp-transitivity         (A sp B), (B sp C)             -> (A sp C)
    sp-application          (D sp E), (X D Y)              -> (X E Y)
    sc-transitivity         (A sc B), (B sc C)             -> (A sc C)
    type-propagation        (A sc B), (X type A)           -> (X type B)
    domain-typing           (D dom B), (X D Y)             -> (X type B)
    range-typing            (D range B), (X D Y)           -> (Y type B)
    implicit-domain-typing  (A dom B), (D sp A), (X D Y)   -> (X type B)
    implicit-range-typing   (A range B), (D sp A), (X D Y) -> (Y type B)

The schema triples are those whose predicate is `sp`, `sc`, `dom` or
`range`; every other triple, `type` triples included, is a data triple.

The table rule.  When no rho-df term is used as data, that is, none is
the subject of a triple or the object of a triple other than a `type`
triple, data triples never combine with one another and never conclude
a schema triple.  The schema then closes by sp- and sc-transitivity
alone, and a data triple's conclusions depend only on its predicate D,
or on its class A for a `type` triple (X type A).  So they come from a
table: the conclusions of the placeholder (X D Y), or (X type A),
annotated top over the closed schema, each `type` conclusion of (X D Y)
taken one `sc` step further, the values of one conclusion joined and
bottom ones dropped.  A data triple (s D o) annotated v concludes each
entry with s and o in place of X and Y, annotated v meet its value.

The conclusions are data triples whose own conclusions these tables
already hold, because the closed `sp` and `sc` cover every chain: a
chain a -> b -> c gives v meet ab meet bc <= v meet ac.  A stored
annotation joins every derivation of its triple, so firing each path
and firing the joined value agree only when meet distributes over join:
v meet (a join b) = (v meet a) join (v meet b).  A compound whose second
meet is not idempotent, such as temporal x fuzzy:product, distributes
only up to an inequality (`anrdf.domains.compound`).  So `closure` takes
the table path when the domain has `meet_distributes` and no rho-df term
is used as data, and the agenda loop otherwise.

The table path joins every conclusion into one dict of triple to value,
which starts as the input with the closed schema laid over it, and
builds the output graph from that dict once (`AnnotatedGraph.from_values`).
It reads the input unsorted (`AnnotatedGraph.items`), since it needs no
order.

The agenda loop is semi-naive, and the store holds exactly the
processed triples.  Every input triple starts on an agenda, which holds
a triple at most once, and `pending` holds the values still to store.  A
seed taken off the agenda is stored, then fires with its other premises
from the store alone.  A conclusion raises a stored triple in place,
putting it back on the agenda when it strictly grows, or joins into a
pending value.  So a combination of premises fires from the premise
taken off last, not once from each, and again only when one of them
grows; a self-join fires because the seed is already stored.  The table
path closes its schema triples with the same loop.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable

from .domains import AnnotationValue, get_domain
from .errors import ClosureIterationError
from .model import DOM, LITERAL, RANGE, RHO_DF, SC, SP, TYPE, AnnotatedGraph, Term, Triple, skolem

DEFAULT_MAX_FIRINGS = 1_000_000

SCHEMA = frozenset({SP, SC, DOM, RANGE})

Conclusion = tuple[Triple, AnnotationValue]
Statements = list[tuple[Triple, AnnotationValue]]

# The subject and object of a table's placeholder (see the table rule),
# told apart from every stored term by identity.
_X, _Y = skolem("X"), skolem("Y")


@dataclass
class ClosureStats:
    """What one `closure` did.  Every rule conclusion is one firing with
    one outcome: a `new` triple, neither stored nor on the agenda; a
    stored or pending value strictly `raised`; a value `subsumed` by the
    one there already; or a `bottom` value, dropped.  `seeds` counts the
    triples taken off the agenda.  On the table path each table
    conclusion of a data triple is one firing, and each data triple is
    one seed.  Each count is added where the loops decide it, so the
    four outcomes sum to the firings."""

    firings: int = 0
    new: int = 0
    raised: int = 0
    subsumed: int = 0
    bottom: int = 0
    seeds: int = 0


def _typing(
    found: list[Conclusion], graph: AnnotatedGraph, d: Term, x: Term, y: Term, v: AnnotationValue
) -> None:
    """Add to `found` the domain and range typing of the data triple (x d y),
    or of one whose predicate is a subproperty of d, carrying `v`."""
    for u, vu in graph.match(d, DOM, None):
        found.append((Triple(x, TYPE, u.object), v.meet(vu)))
    for u, vu in graph.match(d, RANGE, None):
        found.append((Triple(y, TYPE, u.object), v.meet(vu)))


def _consequences(graph: AnnotatedGraph, t: Triple, v: AnnotationValue) -> list[Conclusion]:
    """Every rule conclusion with `t`, annotated `v`, as one premise and
    the other premises from `graph`."""
    match = graph.match
    found: list[Conclusion] = []
    s, p, o = t.subject, t.predicate, t.object
    # t as the data premise (X D Y).
    _typing(found, graph, p, s, o, v)
    for u, vu in match(p, SP, None):
        e, vd = u.object, v.meet(vu)
        if e.kind != LITERAL:
            found.append((Triple(s, e, o), vd))
        _typing(found, graph, e, s, o, vd)
    if p == SP or p == SC:
        # Transitivity, t as the first and as the second premise.
        found += [(Triple(s, p, u.object), v.meet(vu)) for u, vu in match(o, p, None)]
        found += [(Triple(u.subject, p, o), v.meet(vu)) for u, vu in match(None, p, s)]
    if p == SP:
        # t as (D sp E): sp-application and implicit typing.
        for u, vu in match(None, s, None):
            vd = v.meet(vu)
            if o.kind != LITERAL:
                found.append((Triple(u.subject, o, u.object), vd))
            _typing(found, graph, o, u.subject, u.object, vd)
    elif p == SC:
        found += [(Triple(u.subject, TYPE, o), v.meet(vu)) for u, vu in match(None, TYPE, s)]
    elif p == TYPE:
        found += [(Triple(s, TYPE, u.object), v.meet(vu)) for u, vu in match(o, SC, None)]
    elif p == DOM or p == RANGE:
        # t as (A dom B) or (A range B), over data triples of A itself
        # (plain typing) and of its subproperties (implicit typing).
        properties = [(s, v)] + [(u.subject, v.meet(vu)) for u, vu in match(None, SP, s)]
        for d, vd in properties:
            for u, vu in match(None, d, None):
                typed = u.subject if p == DOM else u.object
                found.append((Triple(typed, TYPE, o), vd.meet(vu)))
    return found


def _agenda_loop(
    out: AnnotatedGraph, seeds: Statements, max_firings: int, stats: ClosureStats
) -> None:
    """Close `seeds` into the empty store `out` by the agenda loop of the
    module docstring, and add its counts to `stats`.  `pending` maps each
    triple on the agenda to the value still to store, None once stored."""
    pending: dict[Triple, AnnotationValue | None] = dict(seeds)
    agenda = deque(pending)
    while agenda:
        seed = agenda.popleft()
        unstored = pending.pop(seed)
        stats.seeds += 1
        if unstored is not None:
            out.insert(seed, unstored)
        for conclusion, value in _consequences(out, seed, out.get(seed)):
            if stats.firings == max_firings:
                raise ClosureIterationError(max_firings, stats)
            stats.firings += 1
            if value.is_bottom:
                stats.bottom += 1
                continue
            if conclusion in out:
                grew, value = out.insert(conclusion, value), None
            elif conclusion in pending:
                waiting = pending[conclusion]
                value = waiting.join(value)
                grew = value != waiting
            else:
                stats.new += 1
                agenda.append(conclusion)
                pending[conclusion] = value
                continue
            if not grew:
                stats.subsumed += 1
                continue
            stats.raised += 1
            if conclusion not in pending:
                agenda.append(conclusion)
            pending[conclusion] = value


def _tables_apply(graph: AnnotatedGraph) -> tuple[Statements, Statements] | None:
    """The schema and the data statements of `graph`, or None when the
    table rule does not hold for it (see the module docstring)."""
    if not graph.domain.meet_distributes:
        return None
    schema: Statements = []
    data: Statements = []
    for t, v in graph.items():
        if t.subject in RHO_DF or (t.object in RHO_DF and t.predicate != TYPE):
            return None
        (schema if t.predicate in SCHEMA else data).append((t, v))
    return schema, data


def _table_closure(
    graph: AnnotatedGraph,
    schema_seeds: Statements,
    data: Statements,
    max_firings: int,
    stats: ClosureStats,
) -> AnnotatedGraph:
    """The closure of `graph` by the table rule: close the schema with the
    agenda loop, then join each data triple's table conclusions into one
    dict of triple to value, and build the graph from it once.  Both
    phases add their counts to `stats`."""
    schema = AnnotatedGraph(graph.domain)
    _agenda_loop(schema, schema_seeds, max_firings, stats)
    # A closed schema value is at least the input's, so it replaces it.
    values = dict(graph.items())
    values.update(schema.items())
    get = values.get
    top = graph.domain.top
    by_predicate: dict[Term, list[Conclusion]] = {}
    by_class: dict[Term, list[Conclusion]] = {}

    def table(placeholder: Triple) -> list[Conclusion]:
        # The table of `placeholder`, by the table rule.  A class's
        # conclusions come from the closed `sc`, so they need no step.
        further = placeholder.predicate != TYPE
        joined: dict[Triple, AnnotationValue] = {}
        for t, w in _consequences(schema, placeholder, top):
            steps = _consequences(schema, t, w) if further and t.predicate == TYPE else []
            for c, x in [(t, w), *steps]:
                old = joined.get(c)
                joined[c] = x if old is None else old.join(x)
        return [(c, w) for c, w in joined.items() if not w.is_bottom]

    # Every predicate below is `type` or a stored superproperty that is
    # not a literal, so the conclusions skip `Triple`'s check.
    make = tuple.__new__
    for (s, p, o), v in data:
        stats.seeds += 1
        if p == TYPE:
            found = by_class.get(o)
            if found is None:
                found = by_class[o] = table(Triple(_X, TYPE, o))
        else:
            found = by_predicate.get(p)
            if found is None:
                found = by_predicate[p] = table(Triple(_X, p, _Y))
        for (a, q, b), w in found:
            if stats.firings == max_firings:
                raise ClosureIterationError(max_firings, stats)
            stats.firings += 1
            # A conclusion's subject is always a placeholder.
            conclusion = make(Triple, (s if a is _X else o, q, o if b is _Y else b))
            value = v.meet(w)
            if value.is_bottom:
                stats.bottom += 1
                continue
            old = get(conclusion)
            if old is None:
                stats.new += 1
                values[conclusion] = value
                continue
            value = old.join(value)
            if value == old:
                stats.subsumed += 1
            else:
                stats.raised += 1
                values[conclusion] = value
    return AnnotatedGraph.from_values(graph.domain, values)


def closure(
    graph: AnnotatedGraph,
    max_firings: int = DEFAULT_MAX_FIRINGS,
    stats: ClosureStats | None = None,
) -> AnnotatedGraph:
    """Least fixpoint of the rho-df rules over `graph`, as a frozen new graph.

    By the table rule when it holds, else by the agenda loop (see the
    module docstring).  `stats`, if given, is overwritten with the counts
    once the closure finishes; past the cap it is left as it was, and
    the `ClosureIterationError` holds the counts.  A negative
    `max_firings` is a `ValueError`: it would be no cap.
    """
    if max_firings < 0:
        raise ValueError(f"max_firings must be at least 0, got {max_firings}")
    counts = ClosureStats()
    split = _tables_apply(graph)
    if split is None:
        out = AnnotatedGraph(graph.domain)
        _agenda_loop(out, graph.statements(), max_firings, counts)
    else:
        out = _table_closure(graph, *split, max_firings, counts)
    if stats is not None:
        vars(stats).update(vars(counts))
    return out.freeze()


def apply_defaults(
    graph: AnnotatedGraph,
    plain_triples: Iterable[Triple],
    mode: str = "top",
) -> tuple[AnnotatedGraph, AnnotatedGraph | None]:
    """Fold non-annotated triples into `graph` according to `mode`.

    top:       annotate each plain triple with the domain's top.
    segregate: keep plain triples apart, in a boolean side graph.

    Returns (graph, side graph or None); `graph` is not mutated.
    """
    if mode not in ("top", "segregate"):
        raise ValueError(f"unknown default-annotation mode {mode!r}")
    if mode == "segregate":
        boolean = get_domain("boolean")
        return graph, AnnotatedGraph.from_values(boolean, dict.fromkeys(plain_triples, boolean.top))
    # Any value joined with top is top.
    values = dict(graph.items())
    values.update(dict.fromkeys(plain_triples, graph.domain.top))
    return AnnotatedGraph.from_values(graph.domain, values), None
