"""Parse-time rewrites giving non-annotated triple patterns an
annotation label.

Three choices: one shared fresh annotation variable for every bare
pattern, a distinct fresh variable per pattern, or the top.  The engine
reads a bare pattern as the graph domain's top (`eval_bap`), so the
`top` rewrite is the identity and returns the query it is given; the
variable rewrites change OPTIONAL/join behaviour by making annotations
visible to the algebra.
"""

from __future__ import annotations

from dataclasses import fields, replace
from itertools import count

from ..domains import Domain
from . import algebra as alg

MODES = ("shared-var", "fresh-vars", "top")


def rewrite_defaults(query: alg.SubSelect, mode: str, domain: Domain) -> alg.SubSelect:
    """`query` with a label on every bare triple pattern; under `top`,
    `query` itself.  No mode reads `domain`: a bare pattern is read in
    the domain of the graph it is evaluated on.  The walk recurses a
    level at a time, which `algebra`'s depth rule bounds where `query`
    was built, so it checks no depth itself."""
    if mode not in MODES:
        raise ValueError(f"unknown rewrite mode {mode!r}")
    if mode == "top":
        return query
    used = {var.name for var in alg.occurrences(query, alg.Var)}
    counter = count()

    def fresh() -> alg.Var:
        while True:
            name = f"_a{next(counter)}"
            if name not in used:
                used.add(name)
                return alg.Var(name)

    shared = fresh() if mode == "shared-var" else None

    def walk(p: alg.Pattern) -> alg.Pattern:
        if isinstance(p, alg.Bap):
            return alg.Bap(
                tuple(
                    tp if tp.annotation is not None else alg.TriplePattern(
                        tp.subject, tp.predicate, tp.object, shared or fresh()
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

    return walk(query)
