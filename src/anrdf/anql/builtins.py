"""Built-in predicates and functions available in FILTER/ASSIGN/aggregates.

The table maps a name to a callable over resolved values (terms,
annotation values, rationals).  Each callable names its parameters, and
`ARITY` holds the argument counts they accept, derived once at import;
the query parser checks every call against it, so a built-in never sees
a wrong number of arguments.  Unbound variables arrive as the UNBOUND
sentinel: the domain fold built-ins `join` and `meet` skip them (so the
union-of-annotations idiom works across UNION branches whose rows bind
only one operand); every other built-in rejects them.  A built-in
applied outside its domain raises `BuiltinError`, as the temporal
kernels' `TemporalValueError` does, and the call has no value.

Temporal relation predicates exist for each Allen relation under each
quantifier suffix, e.g. `beforeAny` (some interval of the first operand
before some interval of the second), `beforeAll` (all before all),
`beforeAnyAll`, `beforeAllAny`, and `beforeBoth` (the conjunction of the
previous two).
"""

from __future__ import annotations

import inspect
import math
from fractions import Fraction
from typing import Any, Callable

from ..domains import AllenRelation, AnnotationValue, QuantifierMode, allen_lifted
from ..domains.temporal import length, maxlength
from ..errors import BuiltinError

UNBOUND = object()


def _temporal_payload(value: Any, name: str):
    if not (
        isinstance(value, AnnotationValue) and value.domain.name == "temporal"
    ):
        raise BuiltinError(f"{name} expects a temporal annotation value")
    return value.payload


def _length(value: Any) -> Fraction:
    return length(_temporal_payload(value, "length"))


def _maxlength(value: Any) -> AnnotationValue:
    interval = maxlength(_temporal_payload(value, "maxlength"))
    return value.domain.value((interval,))


def _fold(op: str) -> Callable[..., AnnotationValue]:
    def fold(first: Any, *rest: Any) -> AnnotationValue:
        values = [a for a in (first, *rest) if a is not UNBOUND]
        if not values:
            raise BuiltinError(f"{op} needs at least one bound argument")
        if not all(isinstance(v, AnnotationValue) for v in values):
            raise BuiltinError(f"{op} expects annotation values")
        acc = values[0]
        for value in values[1:]:
            acc = acc.join(value) if op == "join" else acc.meet(value)
        return acc

    return fold


def _type_probe(kind: str) -> Callable[[Any], bool]:
    """Whether a value lies in a domain whose name, up to any `:`, is
    `kind`; so all fuzzy t-norms share one probe."""

    def probe(value: Any) -> bool:
        return isinstance(value, AnnotationValue) and value.domain.name.partition(":")[0] == kind

    return probe


def _allen(rel: AllenRelation, mode: QuantifierMode) -> Callable[[Any, Any], bool]:
    def predicate(first: Any, second: Any) -> bool:
        t1 = _temporal_payload(first, rel.value)
        t2 = _temporal_payload(second, rel.value)
        return allen_lifted(rel, mode, t1, t2)

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
    "isFUZZY": _type_probe("fuzzy"),
}

for _rel in AllenRelation:
    for _mode in QuantifierMode:
        TESTS[f"{_rel.value}{_mode.value}"] = _allen(_rel, _mode)

# `beforeBefore` style aliases are not provided; the plain Allen name
# defaults to the exists/exists reading used by most related systems.
for _rel in AllenRelation:
    TESTS.setdefault(_rel.value, _allen(_rel, QuantifierMode.ANY))

REGISTRY: dict[str, Callable[..., Any]] = {**FUNCTIONS, **TESTS}


def _arity(fn: Callable[..., Any]) -> tuple[int, float]:
    """The fewest and the most positional arguments `fn` accepts."""
    params = inspect.signature(fn).parameters.values()
    named = sum(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
    variadic = any(p.kind is p.VAR_POSITIONAL for p in params)
    return named, math.inf if variadic else named


ARITY: dict[str, tuple[int, float]] = {name: _arity(fn) for name, fn in REGISTRY.items()}
