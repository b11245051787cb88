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
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator

from .domains import AnnotationValue, get_domain
from .errors import ClosureIterationError
from .model import DOM, LITERAL, RANGE, SC, SP, TYPE, AnnotatedGraph, Term, Triple

DEFAULT_MAX_FIRINGS = 1_000_000

Conclusion = tuple[Triple, AnnotationValue]


def _typing(
    graph: AnnotatedGraph, d: Term, x: Term, y: Term, value: AnnotationValue
) -> Iterator[Conclusion]:
    """Domain and range typing of the data triple (x d y), or of one
    whose predicate is a subproperty of d, carrying `value`."""
    for u, vu in graph.match(d, DOM, None):
        yield Triple(x, TYPE, u.object), value.meet(vu)
    for u, vu in graph.match(d, RANGE, None):
        yield Triple(y, TYPE, u.object), value.meet(vu)


def _consequences(
    graph: AnnotatedGraph, t: Triple, v: AnnotationValue
) -> Iterator[Conclusion]:
    """Every rule conclusion with `t`, annotated `v`, as one premise and
    the other premises from `graph`."""
    s, p, o = t.subject, t.predicate, t.object
    # t as the data premise (X D Y).
    yield from _typing(graph, p, s, o, v)
    for u, vu in graph.match(p, SP, None):
        e, vd = u.object, v.meet(vu)
        if e.kind != LITERAL:
            yield Triple(s, e, o), vd
        yield from _typing(graph, e, s, o, vd)
    if p == SP or p == SC:
        # Transitivity, t as the first and as the second premise.
        for u, vu in graph.match(o, p, None):
            yield Triple(s, p, u.object), v.meet(vu)
        for u, vu in graph.match(None, p, s):
            yield Triple(u.subject, p, o), v.meet(vu)
    if p == SP:
        # t as (D sp E): sp-application and implicit typing.
        for u, vu in graph.match(None, s, None):
            vd = v.meet(vu)
            if o.kind != LITERAL:
                yield Triple(u.subject, o, u.object), vd
            yield from _typing(graph, o, u.subject, u.object, vd)
    elif p == SC:
        for u, vu in graph.match(None, TYPE, s):
            yield Triple(u.subject, TYPE, o), v.meet(vu)
    elif p == TYPE:
        for u, vu in graph.match(o, SC, None):
            yield Triple(s, TYPE, u.object), v.meet(vu)
    elif p == DOM or p == RANGE:
        # t as (A dom B) or (A range B), over data triples of A itself
        # (plain typing) and of its subproperties (implicit typing).
        properties = [(s, v)]
        properties += [(u.subject, v.meet(vu)) for u, vu in graph.match(None, SP, s)]
        for d, vd in properties:
            for u, vu in graph.match(None, d, None):
                typed = u.subject if p == DOM else u.object
                yield Triple(typed, TYPE, o), vd.meet(vu)


def closure(
    graph: AnnotatedGraph, max_firings: int = DEFAULT_MAX_FIRINGS
) -> AnnotatedGraph:
    """Least fixpoint of the rho-df rules over `graph`, as a frozen new graph.

    Semi-naive: only triples whose stored annotation changed are re-used
    as rule seeds, and firings whose conclusion is subsumed are dropped.
    """
    out = graph.copy()
    agenda: deque[Triple] = deque(t for t, _ in out.statements())
    firings = 0
    while agenda:
        seed = agenda.popleft()
        for conclusion, value in list(_consequences(out, seed, out.get(seed))):
            firings += 1
            if firings > max_firings:
                raise ClosureIterationError(
                    f"closure exceeded {max_firings} rule firings"
                )
            if value.is_bottom:
                continue
            if out.insert(conclusion, value):
                agenda.append(conclusion)
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
        side = AnnotatedGraph(get_domain("boolean"))
        top = side.domain.top
        for t in plain_triples:
            side.insert(t, top)
        return graph, side
    merged = graph.copy()
    top = graph.domain.top
    for t in plain_triples:
        merged.insert(t, top)
    return merged, None
