"""Answer serialisation: TSV and a JSON bindings document.

An answer binds a variable to a term, an annotation value, or a number
from ASSIGN or an aggregate.  `format_value` writes each: a term as
`format_term` does, an annotation as its domain's literal, a number as
`format_scalar` does.  A TSV cell and a key of a dropped GROUPBY group
in the engine's warnings are that text.  A JSON binding is
`{"type", "value"}`, typed `iri`, `literal` or `skolem` with a term's
lexical form as its value, or `annotation:<domain>` or `number` with
`format_value`'s text."""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Iterable

from ..anql.algebra import Var
from ..domains import AnnotationValue
from ..model import Term
from ..rational import format_scalar
from .lexer import format_term


def format_value(value) -> str:
    if isinstance(value, Term):
        return format_term(value)
    if isinstance(value, AnnotationValue):
        return value.serialize()
    if isinstance(value, Fraction):
        return format_scalar(value)
    raise TypeError(f"cannot serialise binding {value!r}")


def serialize_answers_tsv(variables: Iterable[Var], rows: list[dict]) -> str:
    names = [v.name for v in variables]
    lines = ["\t".join(f"?{n}" for n in names)]
    for row in rows:
        lines.append("\t".join(format_value(row[n]) if n in row else "" for n in names))
    return "\n".join(lines) + "\n"


def _binding(value) -> dict:
    if isinstance(value, Term):
        return {"type": value.kind, "value": value.lexical}
    kind = f"annotation:{value.domain.name}" if isinstance(value, AnnotationValue) else "number"
    return {"type": kind, "value": format_value(value)}


def serialize_answers_json(variables: Iterable[Var], rows: list[dict]) -> str:
    names = [v.name for v in variables]
    doc = {
        "vars": names,
        "bindings": [
            {n: _binding(row[n]) for n in names if n in row} for row in rows
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"
