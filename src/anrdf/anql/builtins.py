"""Built-in predicates and functions available in FILTER/ASSIGN/aggregates.

The table maps a name to a callable over resolved values (terms,
annotation values, rationals).  Unbound variables arrive as the UNBOUND
sentinel: the domain fold built-ins `join` and `meet` skip them (so the
union-of-annotations idiom works across UNION branches whose rows bind
only one operand); every other built-in rejects them.

Temporal relation predicates exist for each Allen relation under each
quantifier suffix, e.g. `beforeAny` (some interval of the first operand
before some interval of the second), `beforeAll` (all before all),
`beforeAnyAll`, `beforeAllAny`, and `beforeBoth` (the conjunction of the
previous two).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Callable

from ..domains import AllenRelation, AnnotationValue, QuantifierMode, allen_lifted
from ..domains.temporal import length, maxlength
from ..errors import AnrdfError, TemporalValueError


class BuiltinError(AnrdfError):
    """Raised when a built-in is applied outside its domain of definition."""


UNBOUND = object()


def _temporal_payload(value: Any, name: str):
    if not (
        isinstance(value, AnnotationValue) and value.domain.name == "temporal"
    ):
        raise BuiltinError(f"{name} expects a temporal annotation value")
    return value.payload


def _length(*args: Any) -> Fraction:
    if len(args) != 1:
        raise BuiltinError("length takes one argument")
    try:
        return length(_temporal_payload(args[0], "length"))
    except TemporalValueError as exc:
        raise BuiltinError(str(exc)) from None


def _maxlength(*args: Any) -> AnnotationValue:
    if len(args) != 1:
        raise BuiltinError("maxlength takes one argument")
    try:
        interval = maxlength(_temporal_payload(args[0], "maxlength"))
    except TemporalValueError as exc:
        raise BuiltinError(str(exc)) from None
    return args[0].domain.value((interval,))


def _fold(op: str) -> Callable[..., AnnotationValue]:
    def fold(*args: Any) -> AnnotationValue:
        values = [a for a in args if a is not UNBOUND]
        if not values:
            raise BuiltinError(f"{op} needs at least one bound argument")
        if not all(isinstance(v, AnnotationValue) for v in values):
            raise BuiltinError(f"{op} expects annotation values")
        acc = values[0]
        for value in values[1:]:
            acc = acc.join(value) if op == "join" else acc.meet(value)
        return acc

    return fold


def _type_probe(domain_name: str) -> Callable[..., bool]:
    def probe(*args: Any) -> bool:
        if len(args) != 1:
            raise BuiltinError("type probes take one argument")
        value = args[0]
        return isinstance(value, AnnotationValue) and value.domain.name == domain_name

    return probe


def _allen(rel: AllenRelation, mode: QuantifierMode) -> Callable[..., bool]:
    def predicate(*args: Any) -> bool:
        if len(args) != 2:
            raise BuiltinError("temporal relations take two arguments")
        t1 = _temporal_payload(args[0], rel.value)
        t2 = _temporal_payload(args[1], rel.value)
        try:
            return allen_lifted(rel, mode, t1, t2)
        except TemporalValueError as exc:
            raise BuiltinError(str(exc)) from None

    return predicate


FUNCTIONS: dict[str, Callable[..., Any]] = {
    "length": _length,
    "maxlength": _maxlength,
    "join": _fold("join"),
    "meet": _fold("meet"),
}

# A test yields a truth value: FILTER reads it, but no answer cell can
# hold it, so ASSIGN cannot bind it.
TESTS: dict[str, Callable[..., bool]] = {
    "isTEMPORAL": _type_probe("temporal"),
    "isPROVENANCE": _type_probe("provenance"),
    # All fuzzy variants share one probe regardless of the configured t-norm.
    "isFUZZY": lambda *args: (
        len(args) == 1
        and isinstance(args[0], AnnotationValue)
        and args[0].domain.name.startswith("fuzzy:")
    ),
}

for _rel in AllenRelation:
    for _mode in QuantifierMode:
        TESTS[f"{_rel.value}{_mode.surface}"] = _allen(_rel, _mode)

# `beforeBefore` style aliases are not provided; the plain Allen name
# defaults to the exists/exists reading used by most related systems.
for _rel in AllenRelation:
    TESTS.setdefault(_rel.value, _allen(_rel, QuantifierMode.ANY))

REGISTRY: dict[str, Callable[..., Any]] = {**FUNCTIONS, **TESTS}


def lookup(name: str) -> Callable[..., Any]:
    try:
        return REGISTRY[name]
    except KeyError:
        raise BuiltinError(f"unknown built-in {name!r}") from None


def is_known(name: str) -> bool:
    return name in REGISTRY
