"""Terms, triples, and the annotated triple store.

A graph keeps at most one annotation per triple: inserting a triple that
is already present joins the new annotation into the stored one (the
destructive generalisation step), and bottom-annotated triples are never
stored at all.
"""

from __future__ import annotations

from typing import NamedTuple

from .domains import AnnotationValue, Domain
from .errors import AnrdfError, DomainMismatchError

IRI = "iri"
LITERAL = "literal"
SKOLEM = "skolem"


class Term(NamedTuple):
    """A term; as a tuple it orders, hashes and compares by (kind, lexical)."""

    kind: str  # iri | literal | skolem
    lexical: str

    def __repr__(self) -> str:
        if self.kind == LITERAL:
            return f'"{self.lexical}"'
        if self.kind == SKOLEM:
            return f"_:{self.lexical}"
        return self.lexical


def iri(lexical: str) -> Term:
    return Term(IRI, lexical)


def literal(lexical: str) -> Term:
    return Term(LITERAL, lexical)


def skolem(label: str) -> Term:
    """Deterministic replacement for a blank-node label."""
    return Term(SKOLEM, label)


# The rho-df vocabulary, identified by the full RDF(S) IRIs.
RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS_NS = "http://www.w3.org/2000/01/rdf-schema#"

TYPE = iri(RDF_NS + "type")
SP = iri(RDFS_NS + "subPropertyOf")
SC = iri(RDFS_NS + "subClassOf")
DOM = iri(RDFS_NS + "domain")
RANGE = iri(RDFS_NS + "range")

RHO_DF = {SP, SC, TYPE, DOM, RANGE}


class _Spo(NamedTuple):
    subject: Term
    predicate: Term
    object: Term


class Triple(_Spo):
    """An (s, p, o) tuple of terms, ordered position by position.

    A subclass, because a `NamedTuple` body may not define `__new__`.
    """

    __slots__ = ()

    def __new__(cls, subject: Term, predicate: Term, object: Term) -> "Triple":
        if predicate.kind == LITERAL:
            raise AnrdfError(f"predicate must not be a literal: {predicate!r}")
        return super().__new__(cls, subject, predicate, object)

    @classmethod
    def _make(cls, iterable) -> "Triple":
        # `NamedTuple._make` would skip `__new__`; `_replace` calls this.
        return cls(*iterable)

    def __repr__(self) -> str:
        return f"({self.subject!r} {self.predicate!r} {self.object!r})"


# predicate -> subject (or object) -> triples
_Index = dict[Term, dict[Term, list[Triple]]]


class FrozenGraphError(AnrdfError):
    pass


class AnnotatedGraph:
    """A finite set of annotated triples over one annotation domain."""

    def __init__(self, domain: Domain):
        self.domain = domain
        self._statements: dict[Triple, AnnotationValue] = {}
        # Reduced Hexastore: p -> s -> triples and p -> o -> triples.  The
        # store never deletes, so append-only lists are enough.
        self._by_ps: _Index = {}
        self._by_po: _Index = {}
        self._frozen = False
        self._sorted_cache: list[tuple[Triple, AnnotationValue]] | None = None

    # -- mutation --------------------------------------------------------

    def insert(self, t: Triple, value: AnnotationValue) -> bool:
        """Add t with `value`, joining into any stored annotation.

        Returns True iff the stored annotation strictly increased.
        Bottom values are ignored entirely.
        """
        if self._frozen:
            raise FrozenGraphError("graph is frozen")
        if value.domain.name != self.domain.name:
            raise DomainMismatchError(
                f"graph over {self.domain.name} got a {value.domain.name} value"
            )
        if value.is_bottom:
            return False
        stored = self._statements.get(t)
        if stored is None:
            self._statements[t] = value
            self._by_ps.setdefault(t.predicate, {}).setdefault(t.subject, []).append(t)
            self._by_po.setdefault(t.predicate, {}).setdefault(t.object, []).append(t)
            return True
        merged = stored.join(value)
        if merged == stored:
            return False
        self._statements[t] = merged
        return True

    def freeze(self) -> "AnnotatedGraph":
        self._frozen = True
        return self

    def copy(self) -> "AnnotatedGraph":
        clone = AnnotatedGraph(self.domain)
        clone._statements = dict(self._statements)
        clone._by_ps = _copy_index(self._by_ps)
        clone._by_po = _copy_index(self._by_po)
        return clone

    # -- queries ---------------------------------------------------------

    def get(self, t: Triple) -> AnnotationValue | None:
        return self._statements.get(t)

    def __len__(self) -> int:
        return len(self._statements)

    def __contains__(self, t: Triple) -> bool:
        return t in self._statements

    def statements(self) -> list[tuple[Triple, AnnotationValue]]:
        """Statements in (s, p, o) order; cached once frozen."""
        if self._sorted_cache is None:
            # Triples are distinct, so the values are never compared.
            ordered = sorted(self._statements.items())
            if not self._frozen:
                return ordered
            self._sorted_cache = ordered
        return self._sorted_cache

    def match(
        self, s: Term | None, p: Term | None, o: Term | None
    ) -> list[tuple[Triple, AnnotationValue]]:
        """A new list of the statements agreeing with the given fixed
        positions, in (s, p, o) order.  Callers iterate it once.

        With `p` bound the candidates come from an index: the `(p,s)`
        index when `s` is bound too, else the `(p,o)` index when `o` is
        bound, else every triple with predicate `p`.  With `p` unbound
        every statement is a candidate.  Only the candidates are sorted,
        and an empty lookup returns before any sort.
        """
        if p is None:
            return [
                (t, value)
                for t, value in self.statements()
                if (s is None or t.subject == s) and (o is None or t.object == o)
            ]
        if s is not None:
            found = self._by_ps.get(p, {}).get(s)
        elif o is not None:
            found = self._by_po.get(p, {}).get(o)
        else:
            found = [t for ts in self._by_ps.get(p, {}).values() for t in ts]
        if not found:
            return []
        statements = self._statements
        return [(t, statements[t]) for t in sorted(found) if o is None or t.object == o]

    def triple_set(self) -> set[Triple]:
        return set(self._statements)


def _copy_index(index: _Index) -> _Index:
    return {p: {k: list(ts) for k, ts in by_key.items()} for p, by_key in index.items()}
