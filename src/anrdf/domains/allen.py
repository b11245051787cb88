"""The thirteen Allen relations on closed intervals, lifted to interval
sets under five quantifier schemes.

On sets of disjoint intervals a relation r can be read in several ways;
we provide the existential/universal combinations (exists-exists,
exists-all, all-exists, their conjunction, and all-all).  Both operands
must be non-empty.
"""

from __future__ import annotations

from enum import Enum

from ..errors import TemporalValueError
from .temporal import Interval, IntervalSet


class AllenRelation(Enum):
    BEFORE = "before"
    AFTER = "after"
    MEETS = "meets"
    MET_BY = "metBy"
    OVERLAPS = "overlaps"
    OVERLAPPED_BY = "overlappedBy"
    STARTS = "starts"
    STARTED_BY = "startedBy"
    DURING = "during"
    CONTAINS = "contains"
    FINISHES = "finishes"
    FINISHED_BY = "finishedBy"
    EQUALS = "equals"


class QuantifierMode(Enum):
    """Quantifier scheme for lifting a relation to interval sets.

    The value is the suffix used in query built-ins, e.g.
    `beforeAny` (exists-exists) or `beforeAll` (all-all).  BOTH is the
    conjunction of ANY_ALL and ALL_ANY.
    """

    ANY = "Any"  # exists t1, exists t2
    ANY_ALL = "AnyAll"  # exists t1, for all t2
    ALL_ANY = "AllAny"  # for all t1, exists t2
    BOTH = "Both"  # ANY_ALL and ALL_ANY
    ALL = "All"  # for all t1, for all t2


def allen_holds(rel: AllenRelation, i1: Interval, i2: Interval) -> bool:
    (a1, b1), (a2, b2) = i1, i2
    R = AllenRelation
    if rel is R.BEFORE:
        return b1 < a2
    if rel is R.AFTER:
        return a1 > b2
    if rel is R.MEETS:
        return b1 == a2
    if rel is R.MET_BY:
        return a1 == b2
    if rel is R.OVERLAPS:
        return a1 < a2 and a2 < b1 and b1 < b2
    if rel is R.OVERLAPPED_BY:
        return a2 < a1 and a1 < b2 and b2 < b1
    if rel is R.STARTS:
        return a1 == a2 and b1 < b2
    if rel is R.STARTED_BY:
        return a1 == a2 and b1 > b2
    if rel is R.DURING:
        return a1 > a2 and b1 < b2
    if rel is R.CONTAINS:
        return a1 < a2 and b1 > b2
    if rel is R.FINISHES:
        return b1 == b2 and a1 > a2
    if rel is R.FINISHED_BY:
        return b1 == b2 and a1 < a2
    if rel is R.EQUALS:
        return i1 == i2
    raise AssertionError(rel)


def allen_lifted(
    rel: AllenRelation, mode: QuantifierMode, t1: IntervalSet, t2: IntervalSet
) -> bool:
    if not t1 or not t2:
        raise TemporalValueError("lifted Allen relations require non-empty operands")
    Q = QuantifierMode
    if mode is Q.ANY:
        return any(allen_holds(rel, i, k) for i in t1 for k in t2)
    if mode is Q.ANY_ALL:
        return any(all(allen_holds(rel, i, k) for k in t2) for i in t1)
    if mode is Q.ALL_ANY:
        return all(any(allen_holds(rel, i, k) for k in t2) for i in t1)
    if mode is Q.BOTH:
        return allen_lifted(rel, Q.ANY_ALL, t1, t2) and allen_lifted(
            rel, Q.ALL_ANY, t1, t2
        )
    if mode is Q.ALL:
        return all(allen_holds(rel, i, k) for i in t1 for k in t2)
    raise AssertionError(mode)
