"""Annotation-domain contract.

An annotation domain is an idempotent commutative semiring
``(L, join, meet, bottom, top)`` whose join is top-annihilating.  One
construction falls short: a compound domain whose second component's
meet is not idempotent satisfies distributivity only as an inequality
(see the `anrdf.domains.compound` module docstring).  The join
induces a partial order (``a <= b`` iff ``a join b == b``) under which join
combines evidence about one statement and meet conjoins evidence across
rule premises.

Every concrete domain supplies a canonical payload representation so that
semantic equality of annotation values is structural equality of payloads.
The payload kernels (`join_payload`, `meet_payload`, `leq_payload`) take
canonical payloads and return canonical payloads; only `parse_payload`,
`validate_payload` and `random_payload` canonicalise values from
outside.  A payload that is a set has no order of its own:
`format_payload` decides the order in which it prints.

A domain's constants are attributes, fixed once per domain: the payloads
`bottom_payload` and `top_payload`, and `finite_payloads`, every payload
of a finite domain (`None` otherwise).  Its operations are methods: the
payload kernels and the codec hooks.  `Domain.bottom` and `Domain.top`
are built once per domain.

`AnnotationValue.meet` and `AnnotationValue.join` settle the cases the
semiring laws decide without calling the domain's payload kernel: top is
neutral for meet, bottom is neutral for join, and join is idempotent.
Every domain must satisfy these laws (`anrdf.domains.axioms` checks them
on the payload operations themselves), and because payloads are canonical
the operand returned is structurally the value the kernel would give.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Sequence

from ..errors import DomainMismatchError


class Domain:
    """Base class for annotation domains.

    A concrete domain defines seven hooks: its `name`; the payload
    kernels `join_payload` and `meet_payload`; the codec hooks
    `parse_payload`, `format_payload` and `validate_payload`, which
    returns the canonical form of a payload and raises on junk; and
    `random_payload`, the seeded generator used by the axiom-checking
    harness and the document generators.  It may keep two defaults:
    `leq_payload`, the order the join induces, and `sort_key`, the
    formatted payload.
    """

    name: str = "abstract"
    #: True iff meet is the greatest lower bound of the induced order,
    #: i.e. leq(z,x) and leq(z,y) iff leq(z, meet(x,y)).
    is_lattice: bool = False
    #: True iff meet distributes over join as an equality,
    #: a meet (b join c) == (a meet b) join (a meet c).
    meet_distributes: bool = True
    #: The payloads of bottom and top; every concrete domain sets both.
    bottom_payload: Any
    top_payload: Any
    #: Every payload of a finite domain (enables exhaustive checking).
    finite_payloads: Sequence[Any] | None = None

    # -- defaults a subclass may keep -----------------------------------------

    def leq_payload(self, a: Any, b: Any) -> bool:
        # Induced order; domains may override with a direct test.
        return self.join_payload(a, b) == b

    def sort_key(self, payload: Any) -> tuple:
        """Linearization key used by ORDERBY on annotation values."""
        return (self.format_payload(payload),)

    # -- value-level convenience ----------------------------------------------

    def value(self, payload: Any) -> "AnnotationValue":
        return AnnotationValue(self, self.validate_payload(payload))

    def parse(self, text: str) -> "AnnotationValue":
        return AnnotationValue(self, self.parse_payload(text))

    @cached_property
    def bottom(self) -> "AnnotationValue":
        return AnnotationValue(self, self.bottom_payload)

    @cached_property
    def top(self) -> "AnnotationValue":
        return AnnotationValue(self, self.top_payload)

    def random_value(self, rng) -> "AnnotationValue":
        return AnnotationValue(self, self.random_payload(rng))


@dataclass(frozen=True)
class AnnotationValue:
    """A domain-tagged element of some L, in canonical form.

    Instances are immutable and hashable; equality is structural equality
    of (domain name, payload), which by the canonical-form requirement
    coincides with semantic equality.
    """

    domain: Domain
    payload: Any

    def _check(self, other: "AnnotationValue") -> None:
        if self.domain.name != other.domain.name:
            raise DomainMismatchError(
                f"cannot combine {self.domain.name} with {other.domain.name}"
            )

    def join(self, other: "AnnotationValue") -> "AnnotationValue":
        """The join, without the kernel when bottom is neutral for join
        (one operand is bottom) or join is idempotent (equal operands)."""
        self._check(other)
        a, b = self.payload, other.payload
        if a == b:
            return self
        bottom = self.domain.bottom_payload
        if a == bottom:
            return other
        if b == bottom:
            return self
        return AnnotationValue(self.domain, self.domain.join_payload(a, b))

    def meet(self, other: "AnnotationValue") -> "AnnotationValue":
        """The meet, without the kernel when top is neutral for meet
        (one operand is top)."""
        self._check(other)
        a, b = self.payload, other.payload
        top = self.domain.top_payload
        if a == top:
            return other
        if b == top:
            return self
        return AnnotationValue(self.domain, self.domain.meet_payload(a, b))

    def leq(self, other: "AnnotationValue") -> bool:
        self._check(other)
        return self.domain.leq_payload(self.payload, other.payload)

    @property
    def is_bottom(self) -> bool:
        return self.payload == self.domain.bottom_payload

    def serialize(self) -> str:
        return self.domain.format_payload(self.payload)

    def sort_key(self) -> tuple:
        return self.domain.sort_key(self.payload)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AnnotationValue):
            return NotImplemented
        return self.domain.name == other.domain.name and self.payload == other.payload

    def __hash__(self) -> int:
        return hash((self.domain.name, self.payload))

    def __repr__(self) -> str:
        return f"{self.domain.name}:{self.serialize()}"


# The bracket pairs of an annotation literal, opening and closing in the
# same order.  `split_top_level` and `lexer.annotation_literal_end` both
# count depth over them, so the two depth rules agree.
OPENING, CLOSING = "<{[(", ">}])"

# The characters `split_top_level` acts on; it skips every other one.
_SPLIT_RE = re.compile(f"[{re.escape(OPENING + CLOSING)},]")


def split_top_level(body: str) -> list[str]:
    """Split a literal body at the commas outside every bracket pair
    `<>`, `{}`, `[]`, `()`; the parts are not stripped."""
    if not body:
        return []
    parts = []
    depth = 0
    start = 0
    for m in _SPLIT_RE.finditer(body):
        ch = m.group()
        if ch in OPENING:
            depth += 1
        elif ch != ",":
            depth -= 1
        elif depth == 0:
            parts.append(body[start : m.start()])
            start = m.end()
    parts.append(body[start:])
    return parts
