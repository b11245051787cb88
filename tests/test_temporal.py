"""Temporal interval sets: algebra, built-ins, and Allen relations."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from anrdf.domains import AllenRelation, QuantifierMode, allen_holds, allen_lifted, get_domain
from anrdf.domains.temporal import (
    canonical_intervals,
    length,
    maxlength,
    parse_interval_set,
    temporal_join,
    temporal_leq,
    temporal_meet,
)
from anrdf.errors import AnnotationSyntaxError, TemporalValueError
from anrdf.rational import NEG_INF, POS_INF, check_scalar, format_scalar, parse_scalar

TEMPORAL = get_domain("temporal")


def ts(text: str):
    return parse_interval_set(text)


class TestAlgebra:
    def test_join_merges_overlaps(self):
        assert temporal_join(ts("{[2,5],[8,12]}"), ts("{[4,6],[9,15]}")) == ts(
            "{[2,6],[8,15]}"
        )

    def test_meet_intersects_pairwise(self):
        assert temporal_meet(ts("{[2,5],[8,12]}"), ts("{[4,6],[9,15]}")) == ts(
            "{[4,5],[9,12]}"
        )
        assert temporal_meet(ts("{[2005,2010]}"), ts("{[2006,2011]}")) == ts(
            "{[2006,2010]}"
        )
        assert temporal_meet(ts("{[1,2]}"), ts("{[3,4]}")) == ()

    def test_join_bottom_neutral(self):
        assert temporal_join(ts("{[1,4]}"), ()) == ts("{[1,4]}")

    def test_touching_closed_intervals_merge(self):
        assert temporal_join(ts("{[1,2]}"), ts("{[2,3]}")) == ts("{[1,3]}")

    def test_leq_is_hoare_containment(self):
        assert temporal_leq(ts("{[2003,2004]}"), ts("{[2000,2006]}"))
        assert temporal_leq((), ts("{[1,2]}"))
        assert not temporal_leq(ts("{[2005,2010]}"), ts("{[2002,2009]}"))

    def test_canonical_rejects_empty_interval(self):
        with pytest.raises(AnnotationSyntaxError):
            canonical_intervals([(Fraction(3), Fraction(1))])

    def test_infinite_endpoints(self):
        top = ((NEG_INF, POS_INF),)
        assert temporal_meet(top, ts("{[1,2]}")) == ts("{[1,2]}")
        assert temporal_join(top, ts("{[1,2]}")) == top


intervals_st = st.lists(
    st.tuples(st.integers(-20, 40), st.integers(0, 12)).map(
        lambda p: (Fraction(p[0]), Fraction(p[0] + p[1]))
    ),
    max_size=5,
)


class TestCanonicalForm:
    @given(intervals_st)
    def test_canonical_invariants(self, raw):
        value = canonical_intervals(raw)
        for lo, hi in value:
            assert lo <= hi
        for (lo1, hi1), (lo2, hi2) in zip(value, value[1:]):
            assert hi1 < lo2  # strictly sorted, disjoint, non-touching

    @given(intervals_st, intervals_st)
    def test_join_meet_stay_canonical(self, raw1, raw2):
        t1, t2 = canonical_intervals(raw1), canonical_intervals(raw2)
        assert temporal_join(t1, t2) == canonical_intervals(temporal_join(t1, t2))
        assert temporal_meet(t1, t2) == canonical_intervals(temporal_meet(t1, t2))

    @given(intervals_st, intervals_st, intervals_st)
    def test_lattice_law(self, raw1, raw2, raw3):
        z, x, y = (canonical_intervals(r) for r in (raw1, raw2, raw3))
        lhs = temporal_leq(z, x) and temporal_leq(z, y)
        assert lhs == temporal_leq(z, temporal_meet(x, y))


class TestBuiltins:
    def test_length_sums_intervals(self):
        assert length(ts("{[2,5],[8,12]}")) == 7
        assert length(()) == 0

    def test_length_rejects_unbounded(self):
        with pytest.raises(TemporalValueError):
            length(ts("{[-inf,5]}"))

    def test_maxlength_picks_longest(self):
        assert maxlength(ts("{[2,5],[8,12]}")) == (Fraction(8), Fraction(12))
        assert maxlength(ts("{[1,2]}")) == (Fraction(1), Fraction(2))

    def test_maxlength_tie_breaks_earliest(self):
        assert maxlength(ts("{[0,3],[5,8]}")) == (Fraction(0), Fraction(3))

    def test_maxlength_rejects_empty(self):
        with pytest.raises(TemporalValueError):
            maxlength(())


class TestParsing:
    def test_shorthands(self):
        assert ts("[2005]") == ts("{[2005,2005]}")
        assert ts("2005") == ts("{[2005,2005]}")
        assert ts("[2005,2011]") == ts("{[2005,2011]}")

    def test_canonicalises_on_parse(self):
        assert ts("{[4,6],[2,5]}") == ts("{[2,6]}")

    def test_top_rendering(self):
        assert TEMPORAL.top.serialize() == "{[-inf,+inf]}"
        assert TEMPORAL.parse("{[-inf,+inf]}") == TEMPORAL.top

    def test_decimal_endpoints(self):
        assert length(ts("{[1.5,2.25]}")) == Fraction(3, 4)

    @pytest.mark.parametrize("bad", ["{[5,1]}", "{[1,2", "[]", "{1,2}", "nonsense"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(AnnotationSyntaxError):
            ts(bad)


class TestIntegerEndpoints:
    def test_scalars(self):
        for text, value in [("2001", 2001), ("2001.0", 2001), ("-4/2", -2), ("+3", 3)]:
            assert type(parse_scalar(text)) is int and parse_scalar(text) == value
        assert parse_scalar("1/2") == Fraction(1, 2)
        assert parse_scalar("2.5") == Fraction(5, 2)
        assert type(check_scalar(Fraction(6, 3))) is int
        assert check_scalar(Fraction(7, 3)) == Fraction(7, 3)
        assert check_scalar(NEG_INF) == NEG_INF
        with pytest.raises(TypeError):
            check_scalar(2.0)
        assert format_scalar(2001) == format_scalar(Fraction(2001)) == "2001"

    @pytest.mark.parametrize(
        "text", ["0", "-0", "+7", "007", "1.0", "2.50", "6/3", "3/4", "-12", "-inf"]
    )
    def test_parse_scalar_is_the_canonical_scalar(self, text):
        exact = float(text) if text.endswith("inf") else Fraction(text)
        expected = check_scalar(exact)
        assert parse_scalar(text) == expected
        assert type(parse_scalar(text)) is type(expected)

    def test_int_and_fraction_payloads_are_one_value(self):
        whole = ((Fraction(1), Fraction(2)),)
        assert TEMPORAL.value(whole) == TEMPORAL.parse("{[1,2]}")
        assert hash(TEMPORAL.value(whole)) == hash(TEMPORAL.parse("{[1,2]}"))
        assert TEMPORAL.value(whole).payload == ((1, 2),)

    def test_no_endpoint_is_a_whole_fraction(self):
        rng = random.Random(6100)

        def endpoint_text() -> str:
            n = rng.randint(-6, 30)
            return rng.choice(
                [str(n), f"{n}.0", f"{2 * n}/2", f"{n}/3", f"{n}.5", "-inf", "+inf"]
            )

        checked = 0
        for _ in range(400):
            a, b = TEMPORAL.random_payload(rng), TEMPORAL.random_payload(rng)
            texts = []
            for _ in range(rng.randint(1, 3)):
                lo, hi = sorted([endpoint_text(), endpoint_text()], key=parse_scalar)
                texts.append(f"[{lo},{hi}]")
            parsed = TEMPORAL.parse_payload("{" + ",".join(texts) + "}")
            point = TEMPORAL.parse_payload(f"{rng.randint(-6, 30)}.0")
            lifted = TEMPORAL.parse_payload(f"{rng.randint(-6, 30) * 3}/3")
            values = [a, b, parsed, point, lifted,
                      temporal_join(a, parsed), temporal_meet(b, parsed)]
            if parsed and all(x not in (NEG_INF, POS_INF) for iv in parsed for x in iv):
                values.append(TEMPORAL.value((maxlength(parsed),)).payload)
            for value in values:
                for x in (x for interval in value for x in interval):
                    assert not (isinstance(x, Fraction) and x.denominator == 1), value
            checked += len(values)
        assert checked > 2500


class TestAllen:
    def test_paper_figure_cases(self):
        before = AllenRelation.BEFORE
        assert allen_lifted(before, QuantifierMode.ALL, ts("{[0,2],[3,4]}"), ts("{[5,7],[8,9]}"))
        assert allen_lifted(before, QuantifierMode.ANY, ts("{[1,3],[7,9]}"), ts("{[0,2],[5,9]}"))
        assert not allen_lifted(before, QuantifierMode.ALL, ts("{[0,2],[5,7]}"), ts("{[3,4],[8,9]}"))
        assert allen_lifted(before, QuantifierMode.ANY_ALL, ts("{[1,3],[6,8]}"), ts("{[4,6],[7,9]}"))
        assert allen_lifted(before, QuantifierMode.ALL_ANY, ts("{[1,3],[4,6]}"), ts("{[0,2],[7,9]}"))
        assert allen_lifted(before, QuantifierMode.BOTH, ts("{[0,2],[5,7]}"), ts("{[3,4],[8,9]}"))

    def test_empty_operand_rejected(self):
        with pytest.raises(TemporalValueError):
            allen_lifted(AllenRelation.BEFORE, QuantifierMode.ANY, (), ts("{[1,2]}"))

    # Allen's thirteen relations of i1 = [a1, b1] to i2 = [a2, b2], each
    # written out on the endpoints.
    DEFINITIONS = {
        AllenRelation.BEFORE: lambda a1, b1, a2, b2: b1 < a2,
        AllenRelation.AFTER: lambda a1, b1, a2, b2: b2 < a1,
        AllenRelation.MEETS: lambda a1, b1, a2, b2: b1 == a2,
        AllenRelation.MET_BY: lambda a1, b1, a2, b2: b2 == a1,
        AllenRelation.OVERLAPS: lambda a1, b1, a2, b2: a1 < a2 and a2 < b1 and b1 < b2,
        AllenRelation.OVERLAPPED_BY: lambda a1, b1, a2, b2: a2 < a1 and a1 < b2 and b2 < b1,
        AllenRelation.STARTS: lambda a1, b1, a2, b2: a1 == a2 and b1 < b2,
        AllenRelation.STARTED_BY: lambda a1, b1, a2, b2: a1 == a2 and b2 < b1,
        AllenRelation.DURING: lambda a1, b1, a2, b2: a2 < a1 and b1 < b2,
        AllenRelation.CONTAINS: lambda a1, b1, a2, b2: a1 < a2 and b2 < b1,
        AllenRelation.FINISHES: lambda a1, b1, a2, b2: b1 == b2 and a2 < a1,
        AllenRelation.FINISHED_BY: lambda a1, b1, a2, b2: b1 == b2 and a1 < a2,
        AllenRelation.EQUALS: lambda a1, b1, a2, b2: a1 == a2 and b1 == b2,
    }

    def test_every_relation_is_its_endpoint_definition(self):
        # Every pair of intervals over these endpoints, point and
        # unbounded intervals included.
        points = [NEG_INF, *map(Fraction, range(5)), POS_INF]
        intervals = [(a, b) for a in points for b in points if a <= b]
        assert len(self.DEFINITIONS) == len(AllenRelation)
        for rel, definition in self.DEFINITIONS.items():
            for i1 in intervals:
                for i2 in intervals:
                    assert allen_holds(rel, i1, i2) == definition(*i1, *i2), (rel, i1, i2)

    def test_every_scheme_is_its_quantifiers(self):
        rng = random.Random(43)
        Q = QuantifierMode
        checked = 0
        while checked < 300:
            t1, t2 = TEMPORAL.random_payload(rng), TEMPORAL.random_payload(rng)
            if not t1 or not t2:
                continue
            checked += 1
            for rel, definition in self.DEFINITIONS.items():
                holds = [[definition(*i, *k) for k in t2] for i in t1]
                exists_all = any(all(row) for row in holds)
                all_exists = all(any(row) for row in holds)
                expected = {
                    Q.ANY: any(any(row) for row in holds),
                    Q.ANY_ALL: exists_all,
                    Q.ALL_ANY: all_exists,
                    Q.BOTH: exists_all and all_exists,
                    Q.ALL: all(all(row) for row in holds),
                }
                for mode in QuantifierMode:
                    assert allen_lifted(rel, mode, t1, t2) == expected[mode], (rel, mode, t1, t2)

    def test_single_interval_relations_partition(self):
        # On any two proper intervals exactly one of the 13 relations
        # holds; a point interval can satisfy two ([2,2] meets and starts
        # [2,5]).
        rng = random.Random(11)
        for _ in range(300):
            a = sorted(rng.sample(range(12), 2))
            b = sorted(rng.sample(range(12), 2))
            i1 = (Fraction(a[0]), Fraction(a[1]))
            i2 = (Fraction(b[0]), Fraction(b[1]))
            holding = [r for r in AllenRelation if allen_holds(r, i1, i2)]
            assert len(holding) == 1, (i1, i2, holding)
        point, proper = (Fraction(2), Fraction(2)), (Fraction(2), Fraction(5))
        holding = {r for r in AllenRelation if allen_holds(r, point, proper)}
        assert holding == {AllenRelation.MEETS, AllenRelation.STARTS}

    def test_quantifier_hierarchy(self):
        rng = random.Random(5)
        domain = get_domain("temporal")
        checked = 0
        for _ in range(400):
            t1 = domain.random_payload(rng)
            t2 = domain.random_payload(rng)
            if not t1 or not t2:
                continue
            checked += 1
            for rel in AllenRelation:
                aa = allen_lifted(rel, QuantifierMode.ALL, t1, t2)
                both = allen_lifted(rel, QuantifierMode.BOTH, t1, t2)
                ea = allen_lifted(rel, QuantifierMode.ANY_ALL, t1, t2)
                ae = allen_lifted(rel, QuantifierMode.ALL_ANY, t1, t2)
                ee = allen_lifted(rel, QuantifierMode.ANY, t1, t2)
                assert not aa or both
                assert not both or (ea and ae)
                assert not ea or ee
                assert not ae or ee
        assert checked > 100
