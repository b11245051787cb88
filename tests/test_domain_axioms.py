"""Axiom suites for every shipped domain, plus registry behaviour."""

from __future__ import annotations

import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from anrdf.domains import (
    AnnotationValue,
    Domain,
    axiom_suite,
    compound,
    get_domain,
    primitive_domain_ids,
)
from anrdf.domains.compound import CompoundDomain, quasihomomorphism_suite
from anrdf.domains.fuzzy import FuzzyDomain
from anrdf.errors import (
    AnnotationSyntaxError,
    DomainMismatchError,
    NotALatticeError,
    UnknownDomainError,
)

ALL_DOMAIN_IDS = primitive_domain_ids() + [
    "compound(temporal,fuzzy:product)",
    "compound(temporal,provenance)",
]

FULLY_LAWFUL_DOMAIN_IDS = primitive_domain_ids() + [
    "compound(temporal,provenance)",
    "compound(temporal,fuzzy:min)",
    "compound(temporal,boolean)",
]


@pytest.mark.parametrize("domain_id", FULLY_LAWFUL_DOMAIN_IDS)
def test_axiom_suite_passes(domain_id):
    domain = get_domain(domain_id)
    samples = 60 if domain_id.startswith("compound") else 300
    report = axiom_suite(domain, samples=samples, seed=7)
    assert report.all_passed, report.format()
    assert domain.meet_distributes


@pytest.mark.parametrize("tnorm", ["product", "lukasiewicz"])
def test_compound_distributivity_boundary(tnorm):
    """Known limitation: with a non-idempotent second-component meet,
    the pair-set meet distributes over the pair-set join only up to an
    inequality, because re-joining distributed meets multiplies the
    shared degree in twice.  Every other axiom holds."""
    domain = get_domain(f"compound(temporal,fuzzy:{tnorm})")
    report = axiom_suite(domain, samples=120, seed=7)
    failed = {c.name for c in report.checks if not c.passed}
    assert failed == {"meet distributes over join"}, report.format()
    assert not domain.meet_distributes

    # Minimal witness: one annotation spanning two islands, split and
    # re-joined against each island separately.
    t = get_domain("temporal")
    a = domain.value([(t.parse_payload("{[0,1],[4,5]}"), Fraction(1, 2))])
    b = domain.value([(t.parse_payload("{[0,1]}"), Fraction(1))])
    c = domain.value([(t.parse_payload("{[4,5]}"), Fraction(1))])
    lhs = a.meet(b.join(c))
    rhs = a.meet(b).join(a.meet(c))
    assert lhs != rhs
    assert rhs.leq(lhs)  # the distributed side only under-approximates


def test_checks_report_their_cases_and_stop_at_the_first_counterexample():
    for domain_id in ("temporal", "compound(temporal,provenance)"):
        report = axiom_suite(get_domain(domain_id), samples=37, seed=2)
        assert [(c.passed, c.cases) for c in report.checks] == [(True, 37)] * len(report.checks)
    quasi = quasihomomorphism_suite(get_domain("compound(temporal,provenance)"), trials=9)
    assert [(c.passed, c.cases) for c in quasi.checks] == [(True, 9)] * 4
    report = axiom_suite(get_domain("compound(temporal,fuzzy:product)"), samples=100, seed=0)
    failed = [c for c in report.checks if not c.passed]
    assert [(c.name, c.cases, c.counterexample) for c in failed] == [
        (
            "meet distributes over join",
            4,
            "{<{[-inf,8],[10,10]},0.4>}, {<{[-2,3]},0.6>}, {<{[4,7]},0.25>}",
        )
    ]
    assert {c.cases for c in report.checks if c.passed} == {100}


def test_boolean_suite_is_exhaustive():
    report = axiom_suite(get_domain("boolean"), samples=5, seed=0)
    assert report.exhaustive
    assert report.all_passed


class _BrokenDomain(Domain):
    """Negative control: meet is not commutative."""

    name = "broken"
    is_lattice = False
    bottom_payload = 0
    top_payload = 9

    def join_payload(self, a, b):
        return max(a, b)

    def meet_payload(self, a, b):
        return a  # deliberately wrong

    def format_payload(self, payload):
        return str(payload)

    def validate_payload(self, payload):
        return payload

    def random_payload(self, rng):
        return rng.randint(0, 9)


def test_broken_domain_reports_counterexample():
    report = axiom_suite(_BrokenDomain(), samples=100, seed=7)
    assert not report.all_passed
    failed = {c.name for c in report.checks if not c.passed}
    assert "meet commutative" in failed
    commutative = next(c for c in report.checks if c.name == "meet commutative")
    assert commutative.counterexample is not None


class _TopBlindDomain(FuzzyDomain):
    """Negative control: a meet kernel that drops a top operand's
    partner, hidden at the value level by the top short-circuit."""

    def __init__(self):
        super().__init__("min")
        self.name = "top-blind"

    def meet_payload(self, a, b):
        return self.top_payload if self.top_payload in (a, b) else super().meet_payload(a, b)


def test_short_circuited_laws_are_checked_on_the_kernels():
    domain = _TopBlindDomain()
    value = domain.value(Fraction(1, 2))
    assert domain.top.meet(value) == value  # the kernel is never asked
    report = axiom_suite(domain, samples=100, seed=7)
    failed = {c.name for c in report.checks if not c.passed}
    assert "top neutral for meet" in failed


class _ReversedOrderDomain(FuzzyDomain):
    """Negative control: `leq` is the reverse of the order join induces."""

    def __init__(self):
        super().__init__("min")
        self.name = "reversed-order"

    def leq_payload(self, a, b):
        return a >= b


def test_order_must_be_the_one_join_induces():
    report = axiom_suite(_ReversedOrderDomain(), samples=100, seed=7)
    failed = {c.name for c in report.checks if not c.passed}
    assert "order induced by join" in failed


class _MaxMeetDomain(FuzzyDomain):
    """Negative control: `fuzzy:min`, except that meet is `max`."""

    def __init__(self):
        super().__init__("min")

    meet_payload = staticmethod(max)


@pytest.mark.parametrize(
    "second, failures",
    [
        (
            _ReversedOrderDomain,
            {
                "quasihomomorphism bounds": "meet bound fails on [",
                "antitone": "antitone fails on [",
                "normalisation preserves the function": "normalise changes the function of [",
            },
        ),
        (
            _MaxMeetDomain,
            {
                "quasihomomorphism bounds": "join bound fails on [",
                "normalisation preserves the function": "normalise changes the function of [",
            },
        ),
    ],
)
def test_quasihomomorphism_suite_names_each_failure(second, failures):
    # Each failing check keeps the counterexample its message names.
    domain = CompoundDomain(get_domain("temporal"), second())
    report = quasihomomorphism_suite(domain, trials=50, seed=3)
    failed = {c.name: c.counterexample for c in report.checks if not c.passed}
    assert failed.keys() == failures.keys(), report.format()
    for name, start in failures.items():
        assert failed[name].startswith(start), failed[name]


def test_quasihomomorphism_suite_fails_a_normalise_that_is_not_idempotent(monkeypatch):
    # A negative control: a `normalise` that drops a pair on every call
    # changes its own output when applied to it again.
    real = compound.normalise

    def dropping(d1, d2, pairs):
        return frozenset(sorted(real(d1, d2, pairs), key=repr)[1:])

    monkeypatch.setattr(compound, "normalise", dropping)
    report = quasihomomorphism_suite(get_domain("compound(temporal,fuzzy:min)"), trials=50, seed=3)
    failed = {c.name: c.counterexample for c in report.checks if not c.passed}
    assert failed["normalisation idempotent"].startswith("normalise not idempotent on ["), report.format()


@pytest.mark.parametrize("domain_id", ALL_DOMAIN_IDS)  # criterion 09's eight
def test_value_operations_agree_with_the_payload_kernels(domain_id):
    """`AnnotationValue.meet`/`.join` skip the kernel on a top, bottom or
    equal operand; on every drawn pair they still give its result."""
    domain = get_domain(domain_id)
    rng = random.Random(9090)
    shapes = Counter()

    def draw(other):
        roll = rng.random()
        if roll < 0.2:
            return domain.top
        if roll < 0.4:
            return domain.bottom
        if roll < 0.6 and other is not None:
            return domain.value(other.payload)  # equal, not the same object
        return domain.random_value(rng)

    for _ in range(300):
        a = draw(None)
        b = draw(a)
        if rng.random() < 0.5:
            a, b = b, a
        shapes["top"] += domain.top in (a, b)
        shapes["bottom"] += domain.bottom in (a, b)
        shapes["equal"] += a == b
        assert a.meet(b) == domain.value(domain.meet_payload(a.payload, b.payload)), (a, b)
        assert a.join(b) == domain.value(domain.join_payload(a.payload, b.payload)), (a, b)
    assert min(shapes.values()) >= 50, shapes


def test_join_meet_examples_from_each_domain():
    temporal = get_domain("temporal")
    a = temporal.parse("{[2000,2006]}")
    b = temporal.parse("{[2003,2008]}")
    assert a.join(b) == temporal.parse("{[2000,2008]}")

    fuzzy = get_domain("fuzzy:product")
    assert fuzzy.parse("0.7").join(fuzzy.parse("0.6")) == fuzzy.parse("0.7")
    assert fuzzy.parse("0.7").meet(fuzzy.parse("0.6")).payload == Fraction(42, 100)

    for domain_id in ALL_DOMAIN_IDS:
        domain = get_domain(domain_id)
        value = domain.random_value(random.Random(3))
        assert value.join(domain.bottom) == value
        assert value.meet(domain.top) == value
        assert value.meet(domain.bottom) == domain.bottom
        assert value.join(domain.top) == domain.top


def test_leq_examples():
    temporal = get_domain("temporal")
    assert temporal.parse("{[2003,2004]}").leq(temporal.parse("{[2000,2006]}"))
    fuzzy = get_domain("fuzzy:product")
    assert not fuzzy.parse("0.7").leq(fuzzy.parse("0.6"))
    value = temporal.parse("{[1,2]}")
    assert value.leq(value)


def test_domain_mismatch_raises():
    with pytest.raises(DomainMismatchError):
        get_domain("temporal").parse("{[1,2]}").join(get_domain("fuzzy:min").parse("0.5"))


@pytest.mark.parametrize(
    "payload, shown",
    [(Fraction(3, 2), "1.5"), (Fraction(-7, 3), "-7/3"), (2, "2"), (0.5, "0.5")],
)
def test_an_out_of_range_fuzzy_payload_is_named_as_a_scalar(payload, shown):
    # API input: a rational is written as an answer cell writes it.
    message = f"fuzzy degree must be a rational in [0,1], got {shown}"
    with pytest.raises(AnnotationSyntaxError, match=f"^{re.escape(message)}$"):
        get_domain("fuzzy:min").value(payload)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: get_domain("boolean").value("maybe"), "boolean payload expected, got 'maybe'"),
        (lambda: get_domain("provenance").value(5), "bad provenance payload 5"),
        (lambda: FuzzyDomain("nope"), "unknown t-norm 'nope'"),
    ],
)
def test_a_bad_api_payload_or_t_norm_is_named(make, message):
    with pytest.raises(AnnotationSyntaxError) as err:
        make()
    assert str(err.value) == message


def test_registry():
    assert get_domain("fuzzy:min").is_lattice
    assert not get_domain("fuzzy:product").is_lattice
    assert get_domain("temporal") is get_domain("temporal")
    with pytest.raises(UnknownDomainError):
        get_domain("no-such-domain")
    with pytest.raises(NotALatticeError):
        get_domain("compound(fuzzy:product,temporal)")
    with pytest.raises(UnknownDomainError):
        get_domain("compound(compound(temporal,boolean),boolean)")


def test_lattice_flags_match_the_glb_law():
    # is_lattice is declared; the axiom harness checks it where declared.
    # For fuzzy:product the law genuinely fails, which keeps it out of
    # compound first components.
    fuzzy = get_domain("fuzzy:product")
    z, x, y = (
        AnnotationValue(fuzzy, Fraction(1, 2)),
        AnnotationValue(fuzzy, Fraction(3, 5)),
        AnnotationValue(fuzzy, Fraction(3, 5)),
    )
    assert z.leq(x) and z.leq(y)
    assert not z.leq(x.meet(y))  # 1/2 > 9/25
