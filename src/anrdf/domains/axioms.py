"""Seeded axiom-checking harness for annotation domains.

Runs every semiring axiom (plus the order laws, including that
`leq_payload` is the order the join induces, and, for lattice domains,
the greatest-lower-bound law) against sampled value triples and
reports pass/fail with a counterexample.  Finite domains are checked
exhaustively over all value triples instead of sampling.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, Iterable

from .base import AnnotationValue, Domain


@dataclass
class AxiomCheck:
    name: str
    passed: bool
    cases: int
    counterexample: str | None = None


@dataclass
class AxiomReport:
    domain: str
    seed: int
    exhaustive: bool
    checks: list[AxiomCheck] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def record(self, name: str, outcomes: Iterable[str | None]) -> None:
        """Append the check `name` over `outcomes`, one per case: a
        counterexample, or None for a passed case.  It stops at the first
        counterexample, so no later case is drawn."""
        cases, counterexample = 0, None
        for cases, counterexample in enumerate(outcomes, 1):
            if counterexample is not None:
                break
        self.checks.append(AxiomCheck(name, counterexample is None, cases, counterexample))

    def format(self) -> str:
        lines = [
            f"domain {self.domain} "
            f"({'exhaustive' if self.exhaustive else f'seed={self.seed}'})"
        ]
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            line = f"  [{status}] {c.name} ({c.cases} cases)"
            if c.counterexample:
                line += f" counterexample: {c.counterexample}"
            lines.append(line)
        return "\n".join(lines)


Law = tuple[str, int, Callable[..., bool]]


def _laws(domain: Domain) -> list[Law]:
    bot, top = domain.bottom, domain.top

    # The laws `AnnotationValue.meet` and `.join` take for granted are
    # checked on the payload kernels, in both argument orders, so that a
    # kernel breaking them still fails here.
    def join(a: AnnotationValue, b: AnnotationValue) -> AnnotationValue:
        return AnnotationValue(domain, domain.join_payload(a.payload, b.payload))

    def meet(a: AnnotationValue, b: AnnotationValue) -> AnnotationValue:
        return AnnotationValue(domain, domain.meet_payload(a.payload, b.payload))

    def both_orders(op, a, b, expected) -> bool:
        return op(a, b) == expected and op(b, a) == expected

    laws: list[Law] = [
        ("join idempotent", 1, lambda a: join(a, a) == a),
        ("join commutative", 2, lambda a, b: a.join(b) == b.join(a)),
        ("join associative", 3, lambda a, b, c: a.join(b).join(c) == a.join(b.join(c))),
        ("meet commutative", 2, lambda a, b: a.meet(b) == b.meet(a)),
        ("meet associative", 3, lambda a, b, c: a.meet(b).meet(c) == a.meet(b.meet(c))),
        ("bottom neutral for join", 1, lambda a: both_orders(join, bot, a, a)),
        ("top neutral for meet", 1, lambda a: both_orders(meet, top, a, a)),
        ("bottom annihilates meet", 1, lambda a: both_orders(meet, bot, a, bot)),
        ("top annihilates join", 1, lambda a: both_orders(join, top, a, top)),
        (
            "meet distributes over join",
            3,
            lambda a, b, c: a.meet(b.join(c)) == a.meet(b).join(a.meet(c)),
        ),
        ("order reflexive", 1, lambda a: a.leq(a)),
        (
            "order antisymmetric",
            2,
            lambda a, b: not (a.leq(b) and b.leq(a)) or a == b,
        ),
        (
            "order transitive",
            3,
            lambda a, b, c: not (a.leq(b) and b.leq(c)) or a.leq(c),
        ),
        ("meet bounded", 2, lambda a, b: a.meet(b).leq(a)),
        (
            "meet monotone",
            3,
            lambda a, b, c: not a.leq(b) or c.meet(a).leq(c.meet(b)),
        ),
    ]
    if domain.is_lattice:
        laws.append(
            (
                "meet is greatest lower bound",
                3,
                lambda z, x, y: (z.leq(x) and z.leq(y)) == z.leq(x.meet(y)),
            )
        )
    # Last: every law draws its cases from one shared generator, so a law
    # placed earlier would change the cases of every law after it.
    laws.append(("order induced by join", 2, lambda a, b: a.leq(b) == (join(a, b) == b)))
    return laws


def axiom_suite(domain: Domain, samples: int = 200, seed: int = 0) -> AxiomReport:
    """Check every axiom on `samples` sampled cases (seeded), or
    exhaustively when the domain is small and finite."""
    finite = domain.finite_payloads
    exhaustive = finite is not None and len(finite) <= 8
    report = AxiomReport(domain=domain.name, seed=seed, exhaustive=exhaustive)
    rng = random.Random(seed)

    if exhaustive:
        pool = [AnnotationValue(domain, p) for p in finite]

        def cases(arity: int):
            return itertools.product(pool, repeat=arity)

    else:

        def cases(arity: int):
            for _ in range(samples):
                yield tuple(domain.random_value(rng) for _ in range(arity))

    for name, arity, law in _laws(domain):
        outcomes = (
            None if law(*args) else ", ".join(v.serialize() for v in args)
            for args in cases(arity)
        )
        report.record(name, outcomes)
    return report
