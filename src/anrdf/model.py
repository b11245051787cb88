"""Terms, triples, and the annotated triple store.

A graph keeps at most one annotation per triple: inserting a triple that
is already present joins the new annotation into the stored one (the
destructive generalisation step), and bottom-annotated triples are never
stored at all.

A graph whose contents are known up front is built once, by
`AnnotatedGraph.from_values`, from a dict of triple to joined value;
any other graph grows by `insert`.  The store holds each statement
once, in that dict; the `(p,s)` and `(p,o)` indexes hold only triples.
They are built by one scan on the first `match` with a bound position,
and `insert` keeps them up to date from then on, so a graph that is
never matched that way never pays for them.  Nothing sorted is kept:
`statements` and `match` sort what they return on each call, and
`freeze` only refuses later writes.
"""

from __future__ import annotations

from collections.abc import ItemsView
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
            from .syntax.lexer import format_term  # `lexer` imports this module

            raise AnrdfError(f"predicate must not be a literal: {format_term(predicate)}")
        return super().__new__(cls, subject, predicate, object)

    @classmethod
    def _make(cls, iterable) -> "Triple":
        # `NamedTuple._make` would skip `__new__`; `_replace` calls this.
        return cls(*iterable)


# predicate -> subject (or object) -> triples
_Index = dict[Term, dict[Term, list[Triple]]]


class FrozenGraphError(AnrdfError):
    pass


class AnnotatedGraph:
    """A finite set of annotated triples over one annotation domain."""

    def __init__(self, domain: Domain):
        self.domain = domain
        self._statements: dict[Triple, AnnotationValue] = {}
        # Reduced Hexastore: p -> s -> triples and p -> o -> triples, built
        # by the first `match` with a bound position (`_index`).  The store
        # never deletes, so append-only lists are enough.  One attribute
        # holds both, so a reader sees neither or both.
        self._indexes: tuple[_Index, _Index] | None = None
        self._frozen = False

    @classmethod
    def from_values(cls, domain: Domain, values: dict[Triple, AnnotationValue]) -> "AnnotatedGraph":
        """A new graph holding each triple of `values` with its value, as
        `insert` would store it: a bottom value is dropped, and a value of
        another domain raises `DomainMismatchError`.  `values` is not kept."""
        graph = cls(domain)
        kept, bottom = graph._statements, domain.bottom_payload
        for t, value in values.items():
            # `is_bottom`, and the domain check of `insert`, made cheaper
            # for the usual value, which holds the graph's own domain.
            if value.domain is not domain and value.domain.name != domain.name:
                raise _mismatch(domain, value)
            if value.payload != bottom:
                kept[t] = value
        return graph

    # -- mutation --------------------------------------------------------

    def insert(self, t: Triple, value: AnnotationValue) -> bool:
        """Add t with `value`, joining into any stored annotation.

        Returns True iff the stored annotation strictly increased.
        Bottom values are ignored entirely.
        """
        if self._frozen:
            raise FrozenGraphError("graph is frozen")
        if value.domain.name != self.domain.name:
            raise _mismatch(self.domain, value)
        if value.is_bottom:
            return False
        stored = self._statements.get(t)
        if stored is None:
            self._statements[t] = value
            if self._indexes is not None:
                _add(self._indexes, t)
            return True
        merged = stored.join(value)
        if merged == stored:
            return False
        self._statements[t] = merged
        return True

    def freeze(self) -> "AnnotatedGraph":
        """Refuse every later `insert` (the closure's result is frozen)."""
        self._frozen = True
        return self

    # -- queries ---------------------------------------------------------

    def get(self, t: Triple) -> AnnotationValue | None:
        return self._statements.get(t)

    def __len__(self) -> int:
        return len(self._statements)

    def __contains__(self, t: Triple) -> bool:
        return t in self._statements

    def items(self) -> ItemsView[Triple, AnnotationValue]:
        """A view of the statements as (triple, value) pairs, in no order."""
        return self._statements.items()

    def statements(self) -> list[tuple[Triple, AnnotationValue]]:
        """A new list of the statements in (s, p, o) order, sorted on each
        call; nothing is cached."""
        # Triples are distinct, so the values are never compared.
        return sorted(self._statements.items())

    def match(
        self, s: Term | None, p: Term | None, o: Term | None
    ) -> list[tuple[Triple, AnnotationValue]]:
        """A new list of the statements agreeing with the given fixed
        positions, in (s, p, o) order.  Callers iterate it once.

        Every lookup with a bound position takes its candidates from an
        index.  With `p` bound they are the `(p,s)` bucket when `s` is
        bound too, else the `(p,o)` bucket when `o` is bound, else every
        triple with predicate `p`.  With `p` unbound they are the bound
        subject's triples across the `(p,s)` index, else the bound
        object's across the `(p,o)` index.  Only a fully unbound lookup
        takes every triple.  Every case then sorts its candidates and
        keeps those with the bound `o` in one pass, and an empty lookup
        returns before any sort.  The first lookup with a bound position
        builds the indexes.
        """
        if s is None and p is None and o is None:
            found = self._statements
        else:
            by_ps, by_po = self._indexes or self._index()
            if p is not None:
                if s is not None:
                    found = by_ps.get(p, {}).get(s)
                elif o is not None:
                    found = by_po.get(p, {}).get(o)
                else:
                    found = [t for ts in by_ps.get(p, {}).values() for t in ts]
            elif s is not None:
                found = [t for by_s in by_ps.values() for t in by_s.get(s, ())]
            else:
                found = [t for by_o in by_po.values() for t in by_o.get(o, ())]
        if not found:
            return []
        statements = self._statements
        return [(t, statements[t]) for t in sorted(found) if o is None or t.object == o]

    def triple_set(self) -> set[Triple]:
        return set(self._statements)

    def _index(self) -> tuple[_Index, _Index]:
        """Build the indexes by one scan of the store and keep them."""
        indexes: tuple[_Index, _Index] = ({}, {})
        for t in self._statements:
            _add(indexes, t)
        self._indexes = indexes
        return indexes


def _add(indexes: tuple[_Index, _Index], t: Triple) -> None:
    by_ps, by_po = indexes
    by_ps.setdefault(t.predicate, {}).setdefault(t.subject, []).append(t)
    by_po.setdefault(t.predicate, {}).setdefault(t.object, []).append(t)


def _mismatch(domain: Domain, value: AnnotationValue) -> DomainMismatchError:
    return DomainMismatchError(f"graph over {domain.name} got a {value.domain.name} value")
