"""The temporal domain: finite sets of disjoint closed intervals.

Time points range over the rationals extended with two infinities.  A
value is kept in canonical form: intervals non-empty, strictly sorted by
lower endpoint, pairwise disjoint and non-touching (closed intervals that
merely share an endpoint, like [1,2] and [2,3], are merged), and every
endpoint the canonical scalar of `anrdf.rational.check_scalar` (a whole
number is an `int`).  Bottom is the empty set; top is {[-inf,+inf]}.

Join is the merged union of the interval sets, meet the set of pairwise
intersections, and the induced order is the Hoare lifting of interval
containment: t1 <= t2 iff every interval of t1 fits inside some interval
of t2.  Meet coincides with the lattice meet, so this domain may serve as
the first component of a compound domain.
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import AnnotationSyntaxError, TemporalValueError
from ..rational import (
    NEG_INF,
    POS_INF,
    Scalar,
    check_scalar,
    format_scalar,
    is_finite,
    parse_scalar,
)
from .base import Domain, split_top_level

Interval = tuple[Scalar, Scalar]
IntervalSet = tuple[Interval, ...]


def canonical_intervals(intervals) -> IntervalSet:
    """Sort, then merge every overlapping or touching pair."""
    items = sorted((check_scalar(lo), check_scalar(hi)) for lo, hi in intervals)
    for lo, hi in items:
        if lo > hi:
            raise AnnotationSyntaxError(f"empty interval [{lo},{hi}]")
    return _merge_sorted(items)


def _merge_sorted(items) -> IntervalSet:
    """Merge every overlapping or touching pair of sorted, non-empty
    intervals with canonical endpoints."""
    merged: list[list[Scalar]] = []
    for lo, hi in items:
        if merged and lo <= merged[-1][1]:
            if hi > merged[-1][1]:
                merged[-1][1] = hi
        else:
            merged.append([lo, hi])
    return tuple((lo, hi) for lo, hi in merged)


def interval_contains(outer: Interval, inner: Interval) -> bool:
    return outer[0] <= inner[0] and inner[1] <= outer[1]


def temporal_join(t1: IntervalSet, t2: IntervalSet) -> IntervalSet:
    # Both operands are sorted runs, which `sorted` merges in one pass.
    return _merge_sorted(sorted(t1 + t2))


def temporal_meet(t1: IntervalSet, t2: IntervalSet) -> IntervalSet:
    """Pairwise intersections, already canonical: those inside an
    interval of t1 lie in the order of t2's intervals, and the
    intervals of either operand are sorted, disjoint and non-touching."""
    out = []
    for lo1, hi1 in t1:
        for lo2, hi2 in t2:
            lo, hi = max(lo1, lo2), min(hi1, hi2)
            if lo <= hi:
                out.append((lo, hi))
    return tuple(out)


def temporal_leq(t1: IntervalSet, t2: IntervalSet) -> bool:
    """Hoare order: every interval of t1 inside some interval of t2."""
    return all(any(interval_contains(k, i) for k in t2) for i in t1)


def length(t: IntervalSet) -> Fraction:
    """Total length of all intervals; defined only for finite endpoints."""
    total = Fraction(0)
    for lo, hi in t:
        if not (is_finite(lo) and is_finite(hi)):
            raise TemporalValueError(f"length undefined for unbounded interval [{format_scalar(lo)},{format_scalar(hi)}]")
        total += hi - lo
    return total


def maxlength(t: IntervalSet) -> Interval:
    """The longest interval of t; ties go to the earliest lower endpoint."""
    if not t:
        raise TemporalValueError("maxlength of an empty temporal value")
    for lo, hi in t:
        if not (is_finite(lo) and is_finite(hi)):
            raise TemporalValueError("maxlength undefined for unbounded interval")
    best = t[0]
    for lo, hi in t[1:]:
        if hi - lo > best[1] - best[0]:
            best = (lo, hi)
    return best


def format_interval_set(t: IntervalSet) -> str:
    inner = ",".join(f"[{format_scalar(lo)},{format_scalar(hi)}]" for lo, hi in t)
    return "{" + inner + "}"


def parse_interval_set(text: str) -> IntervalSet:
    """Parse a temporal literal.

    Accepts the full form `{[a,b],[c,d]}` plus the shorthands `[a,b]`,
    `[a]`, and a bare time point `a` (all meaning singleton sets).
    """
    s = text.strip()
    if s.startswith("{"):
        if not s.endswith("}"):
            raise AnnotationSyntaxError(f"unterminated interval set: {text!r}")
        parts = split_top_level(s[1:-1].strip())
        return canonical_intervals(_parse_interval(p.strip()) for p in parts)
    if s.startswith("["):
        return canonical_intervals([_parse_interval(s)])
    try:
        point = parse_scalar(s)
    except ValueError:
        raise AnnotationSyntaxError(f"malformed temporal literal: {text!r}") from None
    return canonical_intervals([(point, point)])


def _parse_interval(text: str) -> Interval:
    s = text.strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise AnnotationSyntaxError(f"malformed interval: {text!r}")
    body = s[1:-1]
    pieces = [p.strip() for p in body.split(",")]
    try:
        if len(pieces) == 1:
            point = parse_scalar(pieces[0])
            return (point, point)
        if len(pieces) == 2:
            return (parse_scalar(pieces[0]), parse_scalar(pieces[1]))
    except ValueError:
        pass
    raise AnnotationSyntaxError(f"malformed interval: {text!r}")


class TemporalDomain(Domain):
    name = "temporal"
    is_lattice = True
    bottom_payload = ()
    top_payload = ((NEG_INF, POS_INF),)

    join_payload = staticmethod(temporal_join)
    meet_payload = staticmethod(temporal_meet)
    leq_payload = staticmethod(temporal_leq)
    parse_payload = staticmethod(parse_interval_set)
    format_payload = staticmethod(format_interval_set)
    validate_payload = staticmethod(canonical_intervals)

    def random_payload(self, rng) -> IntervalSet:
        intervals = []
        for _ in range(rng.randint(0, 3)):
            if rng.random() < 0.05:
                lo: Scalar = NEG_INF
            else:
                lo = rng.randint(-4, 16)
            if rng.random() < 0.05:
                hi: Scalar = POS_INF
            else:
                base = lo if is_finite(lo) else rng.randint(-4, 16)
                hi = base + rng.randint(0, 5)
            intervals.append((lo, hi))
        return canonical_intervals(intervals)

    def sort_key(self, payload: IntervalSet) -> tuple:
        if not payload:
            return (0, 0, 0, "")
        lo = payload[0][0]
        total = sum(hi - lo for lo, hi in payload)
        return (1, lo, total, format_interval_set(payload))
