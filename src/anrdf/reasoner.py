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

The closure is semi-naive.  Every stored triple starts on an agenda,
which holds a triple at most once; a triple goes back on it whenever its
stored annotation strictly grows.  A seed taken off the agenda joins the
processed triples before it fires, and its rules take their other
premises only from the processed triples.  So a combination of premises
fires from the premise taken off last, not once from each premise, and
again only when one of them grows; a self-join fires because the seed is
already processed.

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
from typing import Callable, Container, Iterable, Iterator

from .domains import AnnotationValue, get_domain
from .errors import ClosureIterationError
from .model import (
    DOM,
    LITERAL,
    RANGE,
    RHO_DF,
    SC,
    SP,
    TYPE,
    AnnotatedGraph,
    Term,
    Triple,
)

DEFAULT_MAX_FIRINGS = 1_000_000

Conclusion = tuple[Triple, AnnotationValue, bool]
Match = Callable[..., Iterable[tuple[Triple, AnnotationValue]]]


def _typing(
    match: Match, d: Term, x: Term, y: Term, value: AnnotationValue
) -> Iterator[Conclusion]:
    """Domain and range typing of the data triple (x d y), or of one
    whose predicate is a subproperty of d, carrying `value`."""
    for u, vu in match(d, DOM, None):
        yield Triple(x, TYPE, u.object), value.meet(vu), True
    for u, vu in match(d, RANGE, None):
        yield Triple(y, TYPE, u.object), value.meet(vu), True


def _consequences(
    graph: AnnotatedGraph,
    t: Triple,
    v: AnnotationValue,
    done: Container[Triple],
    full: bool,
) -> Iterator[Conclusion]:
    """Every rule conclusion with `t`, annotated `v`, as one premise and
    the other premises from the triples of `graph` in `done`.

    Each conclusion comes with a flag that is False when it may skip a
    role (a type-propagation conclusion, or an sp-application conclusion
    outside the rho-df vocabulary).  With `full` False, `t` skips its
    role: it is neither a data premise nor propagated through `sc`.
    """

    def match(s, p, o):
        return [(u, vu) for u, vu in graph.match(s, p, o) if u in done]

    s, p, o = t.subject, t.predicate, t.object
    if full or p in RHO_DF:
        # t as the data premise (X D Y).
        yield from _typing(match, p, s, o, v)
        for u, vu in match(p, SP, None):
            e, vd = u.object, v.meet(vu)
            if e.kind != LITERAL:
                yield Triple(s, e, o), vd, e in RHO_DF
            yield from _typing(match, e, s, o, vd)
    if p == SP or p == SC:
        # Transitivity, t as the first and as the second premise.
        for u, vu in match(o, p, None):
            yield Triple(s, p, u.object), v.meet(vu), True
        for u, vu in match(None, p, s):
            yield Triple(u.subject, p, o), v.meet(vu), True
    if p == SP:
        # t as (D sp E): sp-application and implicit typing.
        for u, vu in match(None, s, None):
            vd = v.meet(vu)
            if o.kind != LITERAL:
                yield Triple(u.subject, o, u.object), vd, o in RHO_DF
            yield from _typing(match, o, u.subject, u.object, vd)
    elif p == SC:
        for u, vu in match(None, TYPE, s):
            yield Triple(u.subject, TYPE, o), v.meet(vu), False
    elif p == TYPE and full:
        for u, vu in match(o, SC, None):
            yield Triple(s, TYPE, u.object), v.meet(vu), False
    elif p == DOM or p == RANGE:
        # t as (A dom B) or (A range B), over data triples of A itself
        # (plain typing) and of its subproperties (implicit typing).
        properties = [(s, v)]
        properties += [(u.subject, v.meet(vu)) for u, vu in match(None, SP, s)]
        for d, vd in properties:
            for u, vu in match(None, d, None):
                typed = u.subject if p == DOM else u.object
                yield Triple(typed, TYPE, o), vd.meet(vu), True


def closure(
    graph: AnnotatedGraph, max_firings: int = DEFAULT_MAX_FIRINGS
) -> AnnotatedGraph:
    """Least fixpoint of the rho-df rules over `graph`, as a frozen new graph.

    Semi-naive, with the skips the module docstring describes.  `pending`
    maps each triple on the agenda to whether it fires in full: the OR
    over the raises since it last left the agenda.  `done` holds the
    processed triples.
    """
    out = graph.copy()
    agenda: deque[Triple] = deque(t for t, _ in out.statements())
    pending = dict.fromkeys(agenda, True)
    done: set[Triple] = set()
    skips = out.domain.meet_distributes
    firings = 0
    while agenda:
        seed = agenda.popleft()
        seed_full = pending.pop(seed)
        done.add(seed)
        for conclusion, value, full in list(
            _consequences(out, seed, out.get(seed), done, seed_full)
        ):
            firings += 1
            if firings > max_firings:
                raise ClosureIterationError(
                    f"closure exceeded {max_firings} rule firings"
                )
            if value.is_bottom or not out.insert(conclusion, value):
                continue
            if conclusion not in pending:
                agenda.append(conclusion)
            pending[conclusion] = pending.get(conclusion, False) or full or not skips
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
