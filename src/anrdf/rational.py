"""Exact rational scalars with +/- infinity endpoints.

Numbers are exact: a scalar is an `int`, a `fractions.Fraction` or one of
the two float infinities (used only as temporal interval endpoints),
which compare correctly against both in either direction.  No other
floats are ever allowed in.

`check_scalar` and `parse_scalar` give the canonical scalar: a whole
number as `int`, any other rational as `Fraction`.  Temporal endpoints
are kept this way, because `int` arithmetic and comparison are much
cheaper than `Fraction`'s.  An `int` and the `Fraction` of the same value
compare and hash alike, so structural equality of payloads stays
semantic equality.  Every other number in the package (query constants,
`length`, aggregates, fuzzy degrees) stays a `Fraction`.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Union

Scalar = Union[int, Fraction, float]  # float restricted to +/- inf

NEG_INF: float = float("-inf")
POS_INF: float = float("inf")

_DECIMAL_RE = re.compile(r"[+-]?(\d+)(\.\d+)?")
_RATIO_RE = re.compile(r"([+-]?\d+)/(\d+)")


def is_finite(x: Scalar) -> bool:
    return not isinstance(x, float)


def check_scalar(x: Scalar) -> Scalar:
    """The canonical scalar for `x`: a whole number as `int`."""
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, float) and math.isinf(x):
        return x
    raise TypeError(f"not a rational or infinity: {x!r}")


def parse_scalar(text: str) -> Scalar:
    """Parse `-inf`, `+inf`, an integer, a decimal, or `p/q`, into the
    canonical scalar of `check_scalar`."""
    text = text.strip()
    if text in ("-inf", "-INF"):
        return NEG_INF
    if text in ("+inf", "inf", "+INF", "INF"):
        return POS_INF
    m = _RATIO_RE.fullmatch(text)
    if m:
        if int(m.group(2)) == 0:
            raise ValueError(f"zero denominator: {text!r}")
        return check_scalar(Fraction(int(m.group(1)), int(m.group(2))))
    m = _DECIMAL_RE.fullmatch(text)
    if m:
        return check_scalar(Fraction(text)) if m.group(2) else int(text)
    raise ValueError(f"not a number: {text!r}")


def format_scalar(x: Scalar) -> str:
    """Canonical rendering: integers bare, terminating decimals as decimals,
    other rationals as `p/q`, infinities as `-inf`/`+inf`."""
    if isinstance(x, float):
        return "+inf" if x > 0 else "-inf"
    if x.denominator == 1:
        return str(x.numerator)
    # Terminating decimal iff the denominator is of the form 2^a * 5^b.
    den = x.denominator
    exp2 = 0
    while den % 2 == 0:
        den //= 2
        exp2 += 1
    exp5 = 0
    while den % 5 == 0:
        den //= 5
        exp5 += 1
    if den != 1:
        return f"{x.numerator}/{x.denominator}"
    digits = max(exp2, exp5)
    scaled = x * 10**digits
    sign = "-" if scaled < 0 else ""
    whole, frac = divmod(abs(int(scaled)), 10**digits)
    return f"{sign}{whole}.{frac:0{digits}d}"
