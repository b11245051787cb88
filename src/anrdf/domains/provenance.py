"""The provenance domain: monotone propositional formulas over atom
identifiers, up to logical equivalence.

A value is an irredundant monotone DNF: a frozenset of clauses, each
clause a frozenset of atoms, and no clause a proper subset of another
(an antichain under inclusion).  Equivalence classes of monotone
formulas correspond one-to-one to such antichains, so set equality
decides logical equivalence.  The empty DNF is `false` (bottom) and the
DNF whose single clause is empty is `true` (top).  A value has no order;
`format_payload` prints clauses by size, then by their sorted atoms, and
each clause's atoms sorted.

Meet and join are conjunction and disjunction; the induced order is
entailment, which for monotone DNFs reduces to clause containment.
"""

from __future__ import annotations

import re
from typing import Iterable

from ..errors import AnnotationSyntaxError
from .base import Domain

Clause = frozenset[str]
Dnf = frozenset[Clause]

FALSE: Dnf = frozenset()
TRUE: Dnf = frozenset({frozenset()})

# Like a name of the text formats, an atom never ends in `.`.
_ATOM_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_:-]*(?:\.[A-Za-z0-9_:-]+)*")


def minimize_clauses(clauses: Iterable[Iterable[str]]) -> Dnf:
    """Deduplicate and drop every clause that contains another."""
    unique = set(map(frozenset, clauses))
    return frozenset(c for c in unique if not any(other < c for other in unique))


def prov_join(a: Dnf, b: Dnf) -> Dnf:
    return minimize_clauses(a | b)


def prov_meet(a: Dnf, b: Dnf) -> Dnf:
    return minimize_clauses(c1 | c2 for c1 in a for c2 in b)


def prov_leq(a: Dnf, b: Dnf) -> bool:
    """Entailment a |= b: each clause of a is a superset of some clause of b."""
    return all(any(cb <= ca for cb in b) for ca in a)


class ProvenanceDomain(Domain):
    name = "provenance"
    is_lattice = True
    bottom_payload = FALSE
    top_payload = TRUE

    join_payload = staticmethod(prov_join)
    meet_payload = staticmethod(prov_meet)
    leq_payload = staticmethod(prov_leq)

    def parse_payload(self, text: str) -> Dnf:
        return _Parser(text).parse()

    def format_payload(self, payload: Dnf) -> str:
        if payload == FALSE:
            return "false"
        if payload == TRUE:
            return "true"
        clauses = sorted((sorted(c) for c in payload), key=lambda c: (len(c), c))
        rendered = [_format_clause(c) for c in clauses]
        if len(rendered) == 1:
            return rendered[0]
        return "(" + " v ".join(rendered) + ")"

    def validate_payload(self, payload) -> Dnf:
        try:
            clauses = [frozenset(str(a) for a in clause) for clause in payload]
        except TypeError:
            raise AnnotationSyntaxError(f"bad provenance payload {payload!r}") from None
        return minimize_clauses(clauses)

    def random_payload(self, rng) -> Dnf:
        roll = rng.random()
        if roll < 0.05:
            return FALSE
        if roll < 0.1:
            return TRUE
        atoms = "abcde"
        clauses = []
        for _ in range(rng.randint(1, 3)):
            size = rng.randint(1, 3)
            clauses.append(frozenset(rng.sample(atoms, size)))
        return minimize_clauses(clauses)

    def sort_key(self, payload: Dnf) -> tuple:
        return (len(payload), self.format_payload(payload))


def _format_clause(clause: list[str]) -> str:
    if len(clause) == 1:
        return clause[0]
    return "(" + " ^ ".join(clause) + ")"


class _Parser:
    """Recursive-descent parser for `atom`, `(f ^ g)`, `(f v g)`,
    `true`, `false`; chains of one operator inside a group are allowed."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def parse(self) -> Dnf:
        dnf = self._formula()
        self._skip_ws()
        if self.pos != len(self.text):
            raise AnnotationSyntaxError(
                f"trailing input in provenance literal: {self.text[self.pos:]!r}"
            )
        return dnf

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _formula(self) -> Dnf:
        self._skip_ws()
        if self.pos >= len(self.text):
            raise AnnotationSyntaxError("empty provenance literal")
        if self.text[self.pos] == "(":
            self.pos += 1
            operands = [self._formula()]
            operator = None
            while True:
                self._skip_ws()
                if self.pos < len(self.text) and self.text[self.pos] == ")":
                    self.pos += 1
                    break
                op = self._operator()
                if operator is None:
                    operator = op
                elif op != operator:
                    raise AnnotationSyntaxError(
                        "mixed ^ and v inside one group; add parentheses"
                    )
                operands.append(self._formula())
            if operator is None or operator == "v":
                result = FALSE
                for item in operands:
                    result = prov_join(result, item)
            else:
                result = TRUE
                for item in operands:
                    result = prov_meet(result, item)
            return result
        m = _ATOM_RE.match(self.text, self.pos)
        if not m:
            raise AnnotationSyntaxError(
                f"expected atom at position {self.pos} in {self.text!r}"
            )
        word = m.group(0)
        self.pos = m.end()
        if word == "true":
            return TRUE
        if word == "false":
            return FALSE
        if word == "v":
            raise AnnotationSyntaxError("'v' is the disjunction operator, not an atom")
        return frozenset({frozenset({word})})

    def _operator(self) -> str:
        self._skip_ws()
        if self.pos < len(self.text) and self.text[self.pos] == "^":
            self.pos += 1
            return "^"
        m = _ATOM_RE.match(self.text, self.pos)
        if m and m.group(0) == "v":
            self.pos = m.end()
            return "v"
        raise AnnotationSyntaxError(
            f"expected ^ or v at position {self.pos} in {self.text!r}"
        )
