"""Compound domains: evaluation, saturation, reduction, normalisation."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from anrdf.domains import (
    Domain,
    compound,
    evaluate,
    get_domain,
    normalise,
    quasihomomorphism_suite,
    saturate_fast,
)
from anrdf.domains.compound import generated_sublattice
from anrdf.errors import NotALatticeError, SaturationBoundError
from oracles import (
    NAIVE_SATURATE_BOUND,
    Recording,
    assert_normal_form,
    combinations,
    reduce_pairs,
    saturate_naive,
)

T = get_domain("temporal")
FP = get_domain("fuzzy:product")
PV = get_domain("provenance")
SECOND_COMPONENTS = [
    get_domain(name)
    for name in ("boolean", "fuzzy:min", "fuzzy:product", "fuzzy:lukasiewicz", "temporal", "provenance")
]


def iv(lo, hi):
    return ((Fraction(lo), Fraction(hi)),)


EXEE = [(iv(2000, 2005), Fraction(7, 10)), (iv(2002, 2008), Fraction(1, 2))]
EXEE_NORMAL = {
    (iv(2000, 2005), Fraction(7, 10)),
    (iv(2002, 2008), Fraction(1, 2)),
    (iv(2000, 2008), Fraction(7, 20)),
}

TIME_PROV = [
    (iv(1998, 2006), PV.parse_payload("wikipedia")),
    (iv(2001, 2011), PV.parse_payload("wrong")),
]
TIME_PROV_NORMAL = {
    (iv(1998, 2011), PV.parse_payload("(wikipedia ^ wrong)")),
    (iv(1998, 2006), PV.parse_payload("wikipedia")),
    (iv(2001, 2011), PV.parse_payload("wrong")),
    (iv(2001, 2006), PV.parse_payload("(wikipedia v wrong)")),
}


class TestEvaluate:
    def test_step_function_example(self):
        pairs = [(iv(2005, 2009), Fraction(3, 10)), (iv(2008, 2011), Fraction(1))]
        assert evaluate(T, FP, pairs, iv(2008, 2011)) == 1
        assert evaluate(T, FP, pairs, iv(2005, 2009)) == Fraction(3, 10)
        assert evaluate(T, FP, pairs, iv(1990, 1991)) == 0

    def test_subset_join_coverage(self):
        # [2005,2011] is covered only by joining both pairs, so the
        # value is the meet of the two degrees.
        pairs = [(iv(2005, 2009), Fraction(3, 10)), (iv(2008, 2011), Fraction(1))]
        assert evaluate(T, FP, pairs, iv(2005, 2011)) == Fraction(3, 10)

    def test_requires_lattice_first_component(self):
        with pytest.raises(NotALatticeError):
            evaluate(FP, T, [], Fraction(1, 2))


class TestSaturateReduce:
    def test_fuzzy_example_reduces_to_three_pairs(self):
        assert reduce_pairs(T, FP, saturate_naive(T, FP, EXEE)) == EXEE_NORMAL

    def test_fast_path_matches(self):
        assert normalise(T, FP, EXEE) == frozenset(EXEE_NORMAL)

    def test_time_provenance_normalises_to_four_pairs(self):
        assert normalise(T, PV, TIME_PROV) == frozenset(TIME_PROV_NORMAL)
        assert reduce_pairs(T, PV, saturate_naive(T, PV, TIME_PROV)) == TIME_PROV_NORMAL

    def test_naive_empty_and_singleton(self):
        assert reduce_pairs(T, FP, saturate_naive(T, FP, [])) == set()
        single = [(iv(1, 2), Fraction(1, 2))]
        assert reduce_pairs(T, FP, saturate_naive(T, FP, single)) == set(single)

    def test_naive_bound(self):
        five = [(iv(i, i + 1), Fraction(1, 2)) for i in range(0, 10, 2)]
        with pytest.raises(SaturationBoundError):
            saturate_naive(T, FP, five)

    def test_reduce_is_total_and_idempotent(self):
        antichain = {(iv(0, 1), Fraction(1, 2)), (iv(2, 3), Fraction(1, 4))}
        assert reduce_pairs(T, FP, antichain) == antichain
        assert reduce_pairs(T, FP, {(iv(0, 1), Fraction(0))}) == set()

    @pytest.mark.parametrize("d2", SECOND_COMPONENTS, ids=lambda d: d.name)
    @pytest.mark.parametrize("d1", [T, PV], ids=lambda d: d.name)
    def test_fast_equals_naive_on_random_inputs(self, d1, d2):
        # The first `cut` raw pairs enter as a closed operand, their normal
        # form; the oracle saturates all the raw pairs.
        rng = random.Random(17)
        for _ in range(100):
            raw = [
                (d1.random_payload(rng), d2.random_payload(rng))
                for _ in range(rng.randint(0, 3))
            ]
            cut = rng.randint(0, len(raw))
            fast = saturate_fast(d1, d2, raw[cut:], closed=normalise(d1, d2, raw[:cut]))
            assert fast == reduce_pairs(d1, d2, saturate_naive(d1, d2, raw)), (raw, cut)


class TestNormalFormProperties:
    def test_quasihomomorphism_suites(self):
        for d2 in (FP, PV):
            domain = get_domain(f"compound(temporal,{d2.name})")
            report = quasihomomorphism_suite(domain, trials=60, seed=3)
            assert report.all_passed, report.format()

    def test_canonicity_on_generated_sublattice(self):
        rng = random.Random(29)
        agreements = 0
        for _ in range(150):
            a = [
                (T.random_payload(rng), FP.random_payload(rng))
                for _ in range(rng.randint(0, 2))
            ]
            b = [
                (T.random_payload(rng), FP.random_payload(rng))
                for _ in range(rng.randint(0, 2))
            ]
            probe = generated_sublattice(T, [x for x, _ in a] + [x for x, _ in b])
            agree = all(
                evaluate(T, FP, a, z) == evaluate(T, FP, b, z) for z in probe
            )
            same = normalise(T, FP, a) == normalise(T, FP, b)
            assert agree == same, (a, b)
            agreements += agree
        assert agreements  # the sample includes genuine agreements

    def test_normalise_requires_lattice(self):
        with pytest.raises(NotALatticeError):
            normalise(FP, T, [])


def dominates(d1, d2, p, q) -> bool:
    return p != q and d1.leq_payload(q[0], p[0]) and d2.leq_payload(q[1], p[1])


class TestClosedOperandJoin:
    """`join_payload` saturates with its larger operand taken as closed;
    it must give the normal form of the union either way round."""

    @pytest.mark.parametrize(
        "name", ["compound(temporal,fuzzy:product)", "compound(temporal,provenance)"]
    )
    def test_join_equals_oracle(self, name):
        domain = get_domain(name)
        d1, d2 = domain.d1, domain.d2
        rng = random.Random(4400)

        def raw_pairs(n):
            return [(d1.random_payload(rng), d2.random_payload(rng)) for _ in range(n)]

        naive = dominating = 0
        for _ in range(300):
            a = domain.validate_payload(raw_pairs(rng.randint(0, 4)))
            if a and rng.random() < 0.5:
                # One pair above a member of `a`: as the smaller operand
                # it prunes members of the closed one.
                x, y = rng.choice(
                    sorted(a, key=lambda p: (d1.format_payload(p[0]), d2.format_payload(p[1])))
                )
                (rx, ry), = raw_pairs(1)
                b = domain.validate_payload(
                    [(d1.join_payload(x, rx), d2.join_payload(y, ry))]
                )
            else:
                b = domain.validate_payload(raw_pairs(rng.randint(0, 3)))
            ab, ba = domain.join_payload(a, b), domain.join_payload(b, a)
            assert ab == ba, (a, b)
            assert ab == domain.validate_payload(a | b), (a, b)
            small, large = sorted((a, b), key=len)
            if len(small) < len(large) and any(
                dominates(d1, d2, p, q) for p in small for q in large
            ):
                dominating += 1
            # The oracle takes up to its bound of 4 pairs, but 4 are slow.
            if len(a) + len(b) <= NAIVE_SATURATE_BOUND - 1:
                assert set(ab) == reduce_pairs(d1, d2, saturate_naive(d1, d2, [*a, *b]))
                naive += 1
        assert naive > 100 and dominating > 30, (naive, dominating)


class TestSemiNaiveSaturation:
    """`saturate_fast` combines each unordered pair of members at most
    once, and never a derived pair with its parents or sibling.  Pairs
    leave the queue in the order they entered it, so a popped pair
    meets only members that have already left it (or never joined it).

    Each combination calls D1's meet on the two first components and then
    D2's join on the two second components, so the two logs, zipped,
    give the two pairs of every combination."""

    @pytest.mark.parametrize("d2", [FP, PV], ids=["fuzzy", "provenance"])
    def test_each_pair_meets_once_and_the_result_is_the_oracle(self, d2):
        rng = random.Random(1600)
        checked = closed_checked = 0

        def raw(n):
            return [(T.random_payload(rng), d2.random_payload(rng)) for _ in range(n)]

        for _ in range(150):
            pairs, closed = raw(rng.randint(0, 4)), normalise(T, d2, raw(rng.randint(0, 2)))
            rec1, rec2 = Recording(T, "meet_payload"), Recording(d2, "join_payload")
            out = saturate_fast(rec1, rec2, pairs, closed=closed)
            seen, met = set(), set()
            for p, q in combinations(rec1, rec2):
                assert p != q, f"{p} combined with itself"
                assert p not in met, f"{p} popped after it was met"
                met.add(q)
                key = frozenset((p, q))
                assert key not in seen, f"{p} and {q} combined twice"
                seen.add(key)
            if len(pairs) + len(closed) <= NAIVE_SATURATE_BOUND - 1:
                oracle = reduce_pairs(T, d2, saturate_naive(T, d2, [*pairs, *closed]))
                assert out == oracle, (pairs, closed)
                checked += 1
                closed_checked += bool(closed)
        assert checked > 60 and closed_checked > 30, (checked, closed_checked)

    @pytest.mark.parametrize("d2", [FP, PV], ids=["fuzzy", "provenance"])
    def test_no_derived_pair_meets_its_parents_or_sibling(self, d2):
        # A pair's first derivation is the one that queues it; a pair
        # derived again, or given as input, gains no new tag.  Of two
        # combined pairs the popped one entered the front later: its tag
        # skips its parents and a sibling that entered earlier, and a
        # later sibling is not combined with it, so neither side's tag
        # names the other.
        rng = random.Random(1700)
        derived_popped = 0

        def raw(n):
            return [(T.random_payload(rng), d2.random_payload(rng)) for _ in range(n)]

        for _ in range(100):
            pairs, closed = raw(rng.randint(0, 4)), normalise(T, d2, raw(rng.randint(0, 2)))
            rec1, rec2 = Recording(T, "meet_payload"), Recording(d2, "join_payload")
            saturate_fast(rec1, rec2, pairs, closed=closed)
            known, tags = {*pairs, *closed}, {}
            for p, q in combinations(rec1, rec2):
                assert q not in tags.get(p, ()) and p not in tags.get(q, ()), (p, q)
                derived_popped += p in tags
                low = (T.meet_payload(p[0], q[0]), d2.join_payload(p[1], q[1]))
                high = (T.join_payload(p[0], q[0]), d2.meet_payload(p[1], q[1]))
                for r, sibling in ((low, high), (high, low)):
                    if r not in known:
                        known.add(r)
                        tags[r] = (p, q, sibling)
        assert derived_popped > 50, derived_popped

    # A boolean second component gives one-pair values, which combine nothing.
    @pytest.mark.parametrize("d2", SECOND_COMPONENTS[1:], ids=lambda d: d.name)
    def test_a_meet_combines_each_two_members_of_its_result_once(self, d2):
        # The crossing of two normal forms is closed (module docstring),
        # so a meet keeps no derived pair, and its work follows its
        # result alone, not the order in which it crosses its operands.
        rng = random.Random(1800)
        domain = compound.CompoundDomain(T, d2)
        rec2 = Recording(d2, "join_payload")
        recorded = compound.CompoundDomain(Recording(T, "meet_payload"), rec2)
        combined = 0

        def value(n):
            return domain.validate_payload(
                [(T.random_payload(rng), d2.random_payload(rng)) for _ in range(n)]
            )

        for _ in range(100):
            a, b = value(rng.randint(2, 5)), value(rng.randint(2, 5))
            rec2.calls.clear()
            out = recorded.meet_payload(a, b)
            assert len(rec2.calls) == len(out) * (len(out) - 1) // 2, (a, b)
            combined += len(rec2.calls)
        assert combined > 50, combined

    def test_two_pair_literal_forms_one_combination(self, monkeypatch):
        # Its two derived pairs would meet each other and their parents
        # in five more combinations, all decided by the lattice laws.
        pairs = [(iv(1, 5), PV.parse_payload("s1")), (iv(3, 8), PV.parse_payload("s2"))]
        rec1, rec2 = Recording(T, "meet_payload"), Recording(PV, "join_payload")
        out = saturate_fast(rec1, rec2, pairs)
        assert len(combinations(rec1, rec2)) == 1
        # A step is one formed result: the combination's two fit a cap of 2.
        monkeypatch.setattr(compound, "_FAST_SATURATE_CAP", 2)
        domain = get_domain("compound(temporal,provenance)")
        value = domain.parse_payload("{<{[1,5]},s1>,<{[3,8]},s2>}")
        assert value == out
        assert domain.format_payload(value) == (
            "{<{[1,5]},s1>,<{[1,8]},(s1 ^ s2)>,<{[3,5]},(s1 v s2)>,<{[3,8]},s2>}"
        )


LATTICE_FIRST_COMPONENTS = [d for d in SECOND_COMPONENTS if d.is_lattice]


class TestNormalFormWithoutOracle:
    """A result R of `saturate_fast(d1, d2, raw, closed)` is the normal
    form, checked with no oracle, so inputs can be larger than the
    naive saturation allows.

    Let D be the closure of raw ∪ closed under the two combinators
    low(e, f) = <e1 meet1 f1, e2 join2 f2> and
    high(e, f) = <e1 join1 f1, e2 meet2 f2>, and D* its pairs with no
    bottom component.  The normal form is the set of maximal pairs of
    D*.  `oracles.assert_normal_form` checks, from R and the `Recording`
    logs of the run:

    (a) R is an antichain with no bottom component;
    (b) every pair of raw and closed with no bottom component lies under
        a member of R;
    (c) both combinations of every two members of R, equal ones
        included, lie under a member of R or have a bottom component;
    (d) each combination formed during the run reads two pairs of raw,
        closed or earlier results, and every member of R is a pair of
        raw or closed or one of those results.

    Proof that these give R = max(D*).  By (d) and induction over the
    run, every formed result is in D, so R ⊆ D, and by (a) R ⊆ D*.
    Next, every d in D has a bottom component or lies under a member of
    R, by induction over a derivation of d.  Pairs of raw and closed do
    by (b).  Let d be a combination of e and f, each of which does.
    If e lies under r and f under s, members of R, then d lies under the
    same combination of r and s, because both combinators are monotone
    in each argument; by (c), and because the combinators commute, that
    pair lies under a member of R or has a bottom component, and a pair
    under one with a bottom component has one too (bottom is least).
    If e has a bottom component, then low(e, f) has one when e1 is
    bottom (bot1 meet1 f1 = bot1), and low(e, f) = <e1 meet1 f1, f2>
    lies under f when e2 is bottom (bot2 is the unit of join2); high(e, f)
    = <f1, e2 meet2 f2> lies under f when e1 is bottom (meet2 is
    bounded), and has a bottom component when e2 is bottom
    (bot2 meet2 f2 = bot2).  So d has a bottom component or lies under
    f, and f has a bottom component or lies under a member of R; f
    having one is symmetric.  Now take r in R: a pair of D* strictly
    above r lies under some r' in R, so r lies strictly under r', which
    (a) forbids; so R ⊆ max(D*).  And a maximal m in D* lies under some
    r in R ⊆ D*, so m = r.  No step uses distributivity or an idempotent
    meet2, so the check covers every D2.

    `saturate_naive` stays the cross-check at the sizes it can reach
    (`test_fast_equals_naive_on_random_inputs`), and
    `tests/normal_form_check.py` runs the same check on more inputs."""

    @pytest.mark.parametrize("d2", SECOND_COMPONENTS, ids=lambda d: d.name)
    @pytest.mark.parametrize("d1", LATTICE_FIRST_COMPONENTS, ids=lambda d: d.name)
    def test_result_is_the_normal_form(self, d1, d2):
        # Up to 6 raw pairs, and in 70 % of the inputs a closed operand,
        # the normal form of up to 3 more.
        rng = random.Random(3600)
        largest = 0

        def pairs(n):
            return [(d1.random_payload(rng), d2.random_payload(rng)) for _ in range(n)]

        for _ in range(25):
            raw = pairs(rng.randint(1, 6))
            closed = normalise(d1, d2, pairs(rng.randint(0, 3))) if rng.random() < 0.7 else ()
            largest = max(largest, assert_normal_form(d1, d2, raw, closed))
        # With a boolean component one pair dominates every other.
        assert largest >= 2 or "boolean" in (d1.name, d2.name), largest


class TestOrderKernel:
    """`CompoundDomain.leq_payload` tests componentwise cover; it must be
    the order the join induces (the module docstring proves it)."""

    @pytest.mark.parametrize(
        "name", ["compound(temporal,fuzzy:product)", "compound(temporal,provenance)"]
    )
    def test_cover_is_the_join_induced_order(self, name):
        domain = get_domain(name)
        rng = random.Random(7700)
        below = 0
        for i in range(300):
            a, other = domain.random_payload(rng), domain.random_payload(rng)
            if i % 3 == 1:
                b = domain.join_payload(a, other)  # a <= b
            elif i % 3 == 2:
                a, b = domain.meet_payload(a, other), a  # a <= b
            else:
                b = other
            induced = Domain.leq_payload(domain, a, b)
            assert domain.leq_payload(a, b) == induced, (a, b)
            below += induced
        assert below >= 200

    def test_the_second_component_counts(self):
        domain = get_domain("compound(temporal,fuzzy:product)")
        low = domain.parse_payload("{<{[1,5]},0.5>}")
        high = domain.parse_payload("{<{[1,5]},0.7>}")
        assert domain.leq_payload(low, high) and not domain.leq_payload(high, low)
        assert domain.leq_payload(domain.bottom_payload, low)
        assert not domain.leq_payload(low, domain.bottom_payload)


class TestCompoundDomain:
    def test_join_merges_and_normalises(self):
        domain = get_domain("compound(temporal,fuzzy:product)")
        a = domain.parse("{<{[2005,2009]}, 1>}")
        b = domain.parse("{<{[2009,2011]}, 0.3>}")
        joined = a.join(b)
        # The dominated pair <[2009,2011],0.3> is absorbed by
        # <[2005,2011],0.3> during reduction.
        assert joined == domain.parse("{<{[2005,2009]},1>,<{[2005,2011]},0.3>}")

    def test_identities(self):
        domain = get_domain("compound(temporal,fuzzy:product)")
        value = domain.parse("{<{[2005,2009]}, 0.5>}")
        assert value.join(domain.bottom) == value
        assert value.meet(domain.top) == value
        assert value.join(domain.top) == domain.top
        assert value.meet(domain.bottom) == domain.bottom

    def test_parse_normalises_eagerly(self):
        domain = get_domain("compound(temporal,fuzzy:product)")
        value = domain.parse("{<{[2000,2005]},0.7>,<{[2002,2008]},0.5>}")
        assert (
            value.serialize()
            == "{<{[2000,2005]},0.7>,<{[2000,2008]},0.35>,<{[2002,2008]},0.5>}"
        )

    def test_sorted_pair_serialisation_round_trips(self):
        domain = get_domain("compound(temporal,provenance)")
        value = domain.parse(
            "{<{[1998,2006]},wikipedia>,<{[2001,2011]},wrong>}"
        )
        assert domain.parse(value.serialize()) == value

    def test_defaults_example_from_integration_discussion(self):
        # A temporal-only fact and a fuzzy-only fact, each padded with
        # the other component's top, combine without losing either side.
        domain = get_domain("compound(temporal,fuzzy:product)")
        a = domain.parse("{<{[2006,2010]}, 1>}")
        b = domain.parse("{<{[-inf,+inf]}, 0.7>}")
        merged = a.join(b)
        assert domain.parse("{<{[2006,2010]},1>,<{[-inf,+inf]},0.7>}") == merged
