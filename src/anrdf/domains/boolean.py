"""The two-element boolean domain: ({0,1}, max, min, 0, 1).

Annotated reasoning over this domain coincides with classical crisp
reasoning, which the conservativity tests rely on.
"""

from __future__ import annotations

from ..errors import AnnotationSyntaxError
from .base import Domain


class BooleanDomain(Domain):
    name = "boolean"
    is_lattice = True
    bottom_payload = False
    top_payload = True
    finite_payloads = (False, True)

    def join_payload(self, a: bool, b: bool) -> bool:
        return a or b

    def meet_payload(self, a: bool, b: bool) -> bool:
        return a and b

    def leq_payload(self, a: bool, b: bool) -> bool:
        return (not a) or b

    def parse_payload(self, text: str) -> bool:
        text = text.strip()
        if text == "true":
            return True
        if text == "false":
            return False
        raise AnnotationSyntaxError(f"boolean literal must be true/false, got {text!r}")

    def format_payload(self, payload: bool) -> str:
        return "true" if payload else "false"

    def validate_payload(self, payload) -> bool:
        if not isinstance(payload, bool):
            raise AnnotationSyntaxError(f"boolean payload expected, got {payload!r}")
        return payload

    def random_payload(self, rng) -> bool:
        return rng.random() < 0.5
