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

A literal is read from a list of tokens: `(`, `)`, `^` and atoms, with
whitespace allowed between them (`_TOKEN_RE`).  One recursive rule reads
a formula: an atom, `true`, `false`, or a group `(f op g op ...)` of one
or more formulas joined by one operator, `^` (and) or `v` (or).  `v` is
never an atom, and a group that mixes the two operators is rejected.
Groups nest at most `MAX_NESTING` deep, which keeps the rule's recursion
well inside Python's stack; `format_payload` writes two levels at most.
"""

from __future__ import annotations

import re
from functools import reduce
from typing import Iterable

from ..errors import AnnotationSyntaxError
from .base import Domain

Clause = frozenset[str]
Dnf = frozenset[Clause]

FALSE: Dnf = frozenset()
TRUE: Dnf = frozenset({frozenset()})

MAX_NESTING = 100

# Like a name of the text formats, an atom never ends in `.`.
_ATOM_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_:-]*(?:\.[A-Za-z0-9_:-]+)*")
# Group 1 is a token: an atom (group 2), or `(`, `)`, `^` or a character
# no rule accepts, kept as a token so that an error can name its position.
_TOKEN_RE = re.compile(rf"\s*(({_ATOM_RE.pattern})|\S)")


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


def parse_formula(text: str) -> Dnf:
    """Read a provenance literal (see the module docstring)."""
    tokens = [(m[1], m.start(1), m[2] is not None) for m in _TOKEN_RE.finditer(text)]
    tokens.append(("", len(text), False))  # the end of the text
    value, i = _formula(text, tokens, 0)
    token, pos, _ = tokens[i]
    if token:
        raise AnnotationSyntaxError(f"trailing input in provenance literal: {text[pos:]!r}")
    return value


def _formula(
    text: str, tokens: list[tuple[str, int, bool]], i: int, depth: int = 0
) -> tuple[Dnf, int]:
    """The formula that starts at token `i`, inside `depth` groups, and the
    index of the token after it."""
    token, pos, atom = tokens[i]
    if token == "(":
        if depth == MAX_NESTING:
            raise AnnotationSyntaxError(
                f"groups nested deeper than {MAX_NESTING} at position {pos} in a provenance literal"
            )
        operands, operator = [], None
        while True:
            value, i = _formula(text, tokens, i + 1, depth + 1)
            operands.append(value)
            token, pos, _ = tokens[i]
            if token == ")":
                return reduce(prov_meet if operator == "^" else prov_join, operands), i + 1
            if token not in ("^", "v"):
                raise AnnotationSyntaxError(f"expected ^, v or ) at position {pos} in {text!r}")
            if operator is None:
                operator = token
            elif token != operator:
                raise AnnotationSyntaxError("mixed ^ and v inside one group; add parentheses")
    if not atom:
        raise AnnotationSyntaxError(f"expected an atom or ( at position {pos} in {text!r}")
    if token == "v":
        raise AnnotationSyntaxError("'v' is the disjunction operator, not an atom")
    if token == "true":
        return TRUE, i + 1
    if token == "false":
        return FALSE, i + 1
    return frozenset({frozenset({token})}), i + 1


class ProvenanceDomain(Domain):
    name = "provenance"
    is_lattice = True
    bottom_payload = FALSE
    top_payload = TRUE

    join_payload = staticmethod(prov_join)
    meet_payload = staticmethod(prov_meet)
    leq_payload = staticmethod(prov_leq)

    parse_payload = staticmethod(parse_formula)

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
