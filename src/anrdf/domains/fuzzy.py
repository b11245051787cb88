"""Fuzzy domains over [0,1] with exact rational degrees.

Join is max in every variant; meet is a configurable t-norm.  The t-norm
choice is part of the domain identifier because it changes the algebra:
only the minimum t-norm makes meet the lattice meet, so only `fuzzy:min`
is admissible as the first component of a compound domain.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from ..errors import AnnotationSyntaxError
from ..rational import format_scalar, is_finite, parse_scalar
from .base import Domain

ZERO = Fraction(0)
ONE = Fraction(1)
_OUT_OF_RANGE = "fuzzy degree must be a rational in [0,1]"


def tnorm_lukasiewicz(a: Fraction, b: Fraction) -> Fraction:
    return max(ZERO, a + b - ONE)


_TNORMS = {
    "min": (min, True),
    "product": (operator.mul, False),
    "lukasiewicz": (tnorm_lukasiewicz, False),
}


class FuzzyDomain(Domain):
    bottom_payload = ZERO
    top_payload = ONE
    join_payload = staticmethod(max)
    leq_payload = staticmethod(operator.le)
    format_payload = staticmethod(format_scalar)

    def __init__(self, tnorm: str = "product"):
        if tnorm not in _TNORMS:
            raise AnnotationSyntaxError(f"unknown t-norm {tnorm!r}")
        self._tnorm, self.is_lattice = _TNORMS[tnorm]
        self.name = f"fuzzy:{tnorm}"

    def meet_payload(self, a: Fraction, b: Fraction) -> Fraction:
        return self._tnorm(a, b)

    def parse_payload(self, text: str) -> Fraction:
        """The degree `text` writes; one out of range is named as written."""
        try:
            value = parse_scalar(text)
        except ValueError as exc:
            raise AnnotationSyntaxError(str(exc)) from None
        if is_finite(value) and ZERO <= value <= ONE:
            return Fraction(value)
        raise AnnotationSyntaxError(f"{_OUT_OF_RANGE}, got {text.strip()}")

    def validate_payload(self, payload) -> Fraction:
        if isinstance(payload, int):
            payload = Fraction(payload)
        if not isinstance(payload, Fraction) or not ZERO <= payload <= ONE:
            shown = format_scalar(payload) if isinstance(payload, Fraction) else repr(payload)
            raise AnnotationSyntaxError(f"{_OUT_OF_RANGE}, got {shown}")
        return payload

    def random_payload(self, rng) -> Fraction:
        # Small denominators keep meet/join chains readable in reports.
        den = rng.choice((1, 2, 4, 5, 10, 20))
        return Fraction(rng.randint(0, den), den)

    def sort_key(self, payload: Fraction) -> tuple:
        return (payload,)
