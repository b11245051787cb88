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

The closure is semi-naive, and the store holds exactly the processed
triples.  Every input triple starts on an agenda, which holds a triple at
most once, and `pending` holds the values still to store.  A seed taken
off the agenda is stored, then fires with its other premises from the
store alone.  A conclusion raises a stored triple in place, putting it
back on the agenda when it strictly grows, or joins into a pending value.
So a combination of premises fires from the premise taken off last, not
once from each, and again only when one of them grows; a self-join fires
because the seed is already stored.

Two kinds of conclusion then skip one role, because the closed `sp` and
`sc` cover it:

- a type-propagation conclusion (X type B) is not propagated through
  `sc` again: for (B sc C), the (X type A) it came from meets (A sc C);
- an sp-application conclusion (X E Y), E outside the rho-df vocabulary,
  is not a data premise again: (X D Y) is typed through the closed
  (D sp E) by the implicit rules, and reaches (E sp F) through (D sp F).

The skips lose nothing because the same fixpoint closes `sp` and `sc`,
and meet is associative and monotone: a chain a -> b -> c gives
v meet ab meet bc <= v meet ac.  That needs one more law, that meet
distributes over join, because a stored annotation joins every
derivation of its triple and the skipped firing would meet that join.  A
compound whose second meet is not idempotent, such as temporal x
fuzzy:product, distributes only up to an inequality
(`anrdf.domains.compound`), so over a domain without `meet_distributes`
nothing is skipped.  A triple skips its role only when every raise since
it last left the agenda came from a skipping conclusion; one raise from
any other rule makes it fire in full.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable

from .domains import AnnotationValue, get_domain
from .errors import ClosureIterationError
from .model import DOM, LITERAL, RANGE, RHO_DF, SC, SP, TYPE, AnnotatedGraph, Term, Triple

DEFAULT_MAX_FIRINGS = 1_000_000

Conclusion = tuple[Triple, AnnotationValue, bool]


@dataclass
class ClosureStats:
    """What one `closure` did.  Every rule conclusion is one firing with
    one outcome: a `new` triple, neither stored nor on the agenda; a
    stored or pending value strictly `raised`; a value `subsumed` by the
    one there already; or a `bottom` value, dropped.  `seeds` counts the
    triples taken off the agenda."""

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
        found.append((Triple(x, TYPE, u.object), v.meet(vu), True))
    for u, vu in graph.match(d, RANGE, None):
        found.append((Triple(y, TYPE, u.object), v.meet(vu), True))


def _consequences(
    graph: AnnotatedGraph, t: Triple, v: AnnotationValue, full: bool
) -> list[Conclusion]:
    """Every rule conclusion with `t`, annotated `v`, as one premise and
    the other premises from `graph`.

    Each conclusion comes with a flag that is False when it may skip a
    role (a type-propagation conclusion, or an sp-application conclusion
    outside the rho-df vocabulary).  With `full` False, `t` skips its
    role: it is neither a data premise nor propagated through `sc`.
    """
    match = graph.match
    found: list[Conclusion] = []
    s, p, o = t.subject, t.predicate, t.object
    if full or p in RHO_DF:
        # t as the data premise (X D Y).
        _typing(found, graph, p, s, o, v)
        for u, vu in match(p, SP, None):
            e, vd = u.object, v.meet(vu)
            if e.kind != LITERAL:
                found.append((Triple(s, e, o), vd, e in RHO_DF))
            _typing(found, graph, e, s, o, vd)
    if p == SP or p == SC:
        # Transitivity, t as the first and as the second premise.
        found += [(Triple(s, p, u.object), v.meet(vu), True) for u, vu in match(o, p, None)]
        found += [(Triple(u.subject, p, o), v.meet(vu), True) for u, vu in match(None, p, s)]
    if p == SP:
        # t as (D sp E): sp-application and implicit typing.
        for u, vu in match(None, s, None):
            vd = v.meet(vu)
            if o.kind != LITERAL:
                found.append((Triple(u.subject, o, u.object), vd, o in RHO_DF))
            _typing(found, graph, o, u.subject, u.object, vd)
    elif p == SC:
        found += [(Triple(u.subject, TYPE, o), v.meet(vu), False) for u, vu in match(None, TYPE, s)]
    elif p == TYPE and full:
        found += [(Triple(s, TYPE, u.object), v.meet(vu), False) for u, vu in match(o, SC, None)]
    elif p == DOM or p == RANGE:
        # t as (A dom B) or (A range B), over data triples of A itself
        # (plain typing) and of its subproperties (implicit typing).
        properties = [(s, v)] + [(u.subject, v.meet(vu)) for u, vu in match(None, SP, s)]
        for d, vd in properties:
            for u, vu in match(None, d, None):
                typed = u.subject if p == DOM else u.object
                found.append((Triple(typed, TYPE, o), vd.meet(vu), True))
    return found


def closure(
    graph: AnnotatedGraph,
    max_firings: int = DEFAULT_MAX_FIRINGS,
    stats: ClosureStats | None = None,
) -> AnnotatedGraph:
    """Least fixpoint of the rho-df rules over `graph`, as a frozen new graph.

    Semi-naive, with the skips the module docstring describes.  `pending`
    maps each triple on the agenda to the value still to store (None once
    stored) and to whether it fires in full: the OR over the raises since
    it last left the agenda.  `stats`, if given, receives the counts.
    A negative `max_firings` is a `ValueError`: it would be no cap.
    """
    if max_firings < 0:
        raise ValueError(f"max_firings must be at least 0, got {max_firings}")
    out = AnnotatedGraph(graph.domain)
    pending = {t: (v, True) for t, v in graph.statements()}
    agenda = deque(pending)
    skips = out.domain.meet_distributes
    firings = new = subsumed = bottom = seeds = 0

    def counts() -> ClosureStats:
        raised = firings - new - subsumed - bottom
        return ClosureStats(firings, new, raised, subsumed, bottom, seeds)

    while agenda:
        seed = agenda.popleft()
        unstored, seed_full = pending.pop(seed)
        seeds += 1
        if unstored is not None:
            out.insert(seed, unstored)
        for conclusion, value, full in _consequences(out, seed, out.get(seed), seed_full):
            if firings == max_firings:
                raise ClosureIterationError(max_firings, counts())
            firings += 1
            if value.is_bottom:
                bottom += 1
                continue
            waiting = pending.get(conclusion)
            if conclusion in out:
                grew, value = out.insert(conclusion, value), None
            elif waiting is not None:
                value = waiting[0].join(value)
                grew = value != waiting[0]
            else:
                new += 1
                grew = True
            if not grew:
                subsumed += 1
                continue
            if waiting is None:
                agenda.append(conclusion)
                waiting = (None, False)
            pending[conclusion] = (value, waiting[1] or full or not skips)
    if stats is not None:
        vars(stats).update(vars(counts()))
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
