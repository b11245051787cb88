"""Annotation domains and their registry.

Domain identifiers: `boolean`, `fuzzy:min`, `fuzzy:product`,
`fuzzy:lukasiewicz`, `temporal`, `provenance`, and `compound(<d1>,<d2>)`
where the components are primitive identifiers and d1 must be a
lattice domain.
"""

from __future__ import annotations

from ..errors import UnknownDomainError
from .allen import AllenRelation, QuantifierMode, allen_holds, allen_lifted
from .axioms import AxiomCheck, AxiomReport, axiom_suite
from .base import AnnotationValue, Domain
from .boolean import BooleanDomain
from .compound import (
    CompoundDomain,
    evaluate,
    normalise,
    quasihomomorphism_suite,
    saturate_fast,
)
from .fuzzy import FuzzyDomain
from .provenance import ProvenanceDomain
from .temporal import TemporalDomain

_PRIMITIVES: dict[str, Domain] = {}
for _d in (
    BooleanDomain(),
    TemporalDomain(),
    ProvenanceDomain(),
    FuzzyDomain("min"),
    FuzzyDomain("product"),
    FuzzyDomain("lukasiewicz"),
):
    _PRIMITIVES[_d.name] = _d

_COMPOUND_CACHE: dict[str, CompoundDomain] = {}


def primitive_domain_ids() -> list[str]:
    return sorted(_PRIMITIVES)


def get_domain(identifier: str) -> Domain:
    """Resolve a domain identifier; compound ids build (and cache) the
    compound domain, enforcing the lattice requirement on d1."""
    name = identifier.strip()
    if name in _PRIMITIVES:
        return _PRIMITIVES[name]
    if name.startswith("compound(") and name.endswith(")"):
        inner = name[len("compound(") : -1]
        parts = [p.strip() for p in inner.split(",")]
        if len(parts) != 2:
            raise UnknownDomainError(f"compound takes two components: {identifier!r}")
        key = f"compound({parts[0]},{parts[1]})"
        if key not in _COMPOUND_CACHE:
            left, right = (_resolve_primitive(p) for p in parts)
            _COMPOUND_CACHE[key] = CompoundDomain(left, right)
        return _COMPOUND_CACHE[key]
    raise UnknownDomainError(f"unknown domain {identifier!r}")


def _resolve_primitive(name: str) -> Domain:
    if name not in _PRIMITIVES:
        raise UnknownDomainError(
            f"unknown primitive domain {name!r} (compound components must be primitive)"
        )
    return _PRIMITIVES[name]


__all__ = [
    "AllenRelation",
    "AnnotationValue",
    "AxiomCheck",
    "AxiomReport",
    "BooleanDomain",
    "CompoundDomain",
    "Domain",
    "FuzzyDomain",
    "ProvenanceDomain",
    "QuantifierMode",
    "TemporalDomain",
    "allen_holds",
    "allen_lifted",
    "axiom_suite",
    "evaluate",
    "get_domain",
    "normalise",
    "primitive_domain_ids",
    "quasihomomorphism_suite",
    "saturate_fast",
]
