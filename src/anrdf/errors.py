"""Exception types shared across the package."""

from __future__ import annotations


class AnrdfError(Exception):
    """Base class for all errors raised by this package."""


class DomainMismatchError(AnrdfError):
    """Two annotation values from different domains were combined."""


class AnnotationSyntaxError(AnrdfError):
    """An annotation literal does not parse in its declared domain."""


class NotALatticeError(AnrdfError):
    """A compound domain was requested with a first component whose meet
    is not the greatest lower bound of the induced order."""


class UnknownDomainError(AnrdfError):
    """Domain identifier not present in the registry."""


class SaturationBoundError(AnrdfError):
    """Compound saturation ran into a resource bound: the fast
    saturation's step cap, or the input-size bound of the doubly
    exponential reference saturation."""


class BuiltinError(AnrdfError):
    """An AnQL built-in was applied outside its domain of definition, so
    the call has no value: a FILTER reads it as false, ASSIGN drops the
    row and an aggregate leaves the row out."""


class TemporalValueError(BuiltinError):
    """A temporal built-in was applied outside its domain of definition
    (e.g. length of an unbounded interval); it is a `BuiltinError`."""


class ClosureIterationError(AnrdfError):
    """The closure engine exceeded its rule-firing cap.  `stats` holds the
    closure's counts (`anrdf.reasoner.ClosureStats`) up to the cap."""

    def __init__(self, max_firings: int, stats):
        super().__init__(f"closure exceeded {max_firings} rule firings")
        self.stats = stats


class ParseError(AnrdfError):
    """Syntax error in a data document or query, with source position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class QueryTypeError(AnrdfError):
    """Evaluation-time type error (e.g. ordering mutually unorderable values)."""
