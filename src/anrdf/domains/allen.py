"""The thirteen Allen relations on closed intervals, lifted to interval
sets under five quantifier schemes.

Seven relations are tested on the endpoints: before, meets, overlaps,
starts, during, finishes and equals.  Each of the other six is the
inverse of one of them, and holds of (i1, i2) exactly when that relation
holds of (i2, i1).  On proper intervals exactly one relation holds of two
intervals, but a point interval can satisfy two: [2,2] both meets and
starts [2,5].

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


# The endpoint test of each relation, on i1 = [a1, b1] and i2 = [a2, b2].
_HOLDS = {
    AllenRelation.BEFORE: lambda a1, b1, a2, b2: b1 < a2,
    AllenRelation.MEETS: lambda a1, b1, a2, b2: b1 == a2,
    AllenRelation.OVERLAPS: lambda a1, b1, a2, b2: a1 < a2 < b1 < b2,
    AllenRelation.STARTS: lambda a1, b1, a2, b2: a1 == a2 and b1 < b2,
    AllenRelation.DURING: lambda a1, b1, a2, b2: a2 < a1 and b1 < b2,
    AllenRelation.FINISHES: lambda a1, b1, a2, b2: b1 == b2 and a2 < a1,
    AllenRelation.EQUALS: lambda a1, b1, a2, b2: a1 == a2 and b1 == b2,
}


def _inverse(test):
    """The endpoint test of the inverse of `test`'s relation, which holds
    of (i1, i2) exactly when that relation holds of (i2, i1)."""
    return lambda a1, b1, a2, b2: test(a2, b2, a1, b1)


_HOLDS[AllenRelation.AFTER] = _inverse(_HOLDS[AllenRelation.BEFORE])
_HOLDS[AllenRelation.MET_BY] = _inverse(_HOLDS[AllenRelation.MEETS])
_HOLDS[AllenRelation.OVERLAPPED_BY] = _inverse(_HOLDS[AllenRelation.OVERLAPS])
_HOLDS[AllenRelation.STARTED_BY] = _inverse(_HOLDS[AllenRelation.STARTS])
_HOLDS[AllenRelation.CONTAINS] = _inverse(_HOLDS[AllenRelation.DURING])
_HOLDS[AllenRelation.FINISHED_BY] = _inverse(_HOLDS[AllenRelation.FINISHES])

# The (outer, inner) quantifiers of each scheme but BOTH: the outer one
# ranges over the first operand, the inner one over the second.
_QUANTIFIERS = {
    QuantifierMode.ANY: (any, any),
    QuantifierMode.ANY_ALL: (any, all),
    QuantifierMode.ALL_ANY: (all, any),
    QuantifierMode.ALL: (all, all),
}


def allen_holds(rel: AllenRelation, i1: Interval, i2: Interval) -> bool:
    return _HOLDS[rel](*i1, *i2)


def allen_lifted(
    rel: AllenRelation, mode: QuantifierMode, t1: IntervalSet, t2: IntervalSet
) -> bool:
    if not t1 or not t2:
        raise TemporalValueError("lifted Allen relations require non-empty operands")
    Q = QuantifierMode
    if mode is Q.BOTH:
        return allen_lifted(rel, Q.ANY_ALL, t1, t2) and allen_lifted(rel, Q.ALL_ANY, t1, t2)
    holds = _HOLDS[rel]
    outer, inner = _QUANTIFIERS[mode]
    # Any of any is any over the pairs, and all of all is all over them;
    # one generator over the pairs costs less than one per interval.
    if outer is inner:
        return outer(holds(a1, b1, a2, b2) for a1, b1 in t1 for a2, b2 in t2)
    return outer(inner(holds(a1, b1, a2, b2) for a2, b2 in t2) for a1, b1 in t1)
