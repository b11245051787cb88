"""Parse-time rewrites giving non-annotated triple patterns an
annotation label.

Three choices: one shared fresh annotation variable for every bare
pattern, a distinct fresh variable per pattern, or the top constant.
The engine's own default for a bare pattern is the top constant, so the
`top` rewrite is the identity in effect; the variable rewrites change
OPTIONAL/join behaviour by making annotations visible to the algebra.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass, replace
from itertools import count
from typing import Iterator

from ..domains import AnnotationValue, Domain
from . import algebra as alg

MODES = ("shared-var", "fresh-vars", "top")


def rewrite_defaults(
    query: alg.QueryDocument, mode: str, domain: Domain
) -> alg.QueryDocument:
    if mode not in MODES:
        raise ValueError(f"unknown rewrite mode {mode!r}")
    used = set(_var_names(query))
    counter = count()

    def fresh() -> alg.Var:
        while True:
            name = f"_a{next(counter)}"
            if name not in used:
                used.add(name)
                return alg.Var(name)

    shared = fresh() if mode == "shared-var" else None

    def label() -> alg.AnnotationLabel:
        if mode == "top":
            return domain.top
        if mode == "shared-var":
            return shared
        return fresh()

    def walk(p: alg.Pattern) -> alg.Pattern:
        if isinstance(p, alg.Bap):
            return alg.Bap(
                tuple(
                    tp if tp.annotation is not None else alg.TriplePattern(
                        tp.subject, tp.predicate, tp.object, label()
                    )
                    for tp in p.patterns
                )
            )
        # Every other node keeps its own fields and recurses into its
        # sub-patterns; `fields` raises TypeError on a non-dataclass.
        return replace(
            p,
            **{
                f.name: walk(getattr(p, f.name))
                for f in fields(p)
                if isinstance(getattr(p, f.name), alg.Pattern)
            },
        )

    return alg.QueryDocument(
        select=query.select,
        pattern=walk(query.pattern),
        order_by=query.order_by,
        limit=query.limit,
    )


def _var_names(node) -> Iterator[str]:
    """The name of every variable that occurs in `node`, an algebra node
    or a tuple of them, whether or not the node can bind it."""
    if isinstance(node, alg.Var):
        yield node.name
    elif isinstance(node, tuple):
        for item in node:
            yield from _var_names(item)
    elif is_dataclass(node) and not isinstance(node, AnnotationValue):
        for f in fields(node):
            yield from _var_names(getattr(node, f.name))
