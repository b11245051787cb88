"""Answer serialisation: TSV and a JSON bindings document."""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Iterable

from ..anql.algebra import Var
from ..domains import AnnotationValue
from ..model import Term
from ..rational import format_scalar
from .lexer import format_term


def _cell(value) -> str:
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
        lines.append("\t".join(_cell(row[n]) if n in row else "" for n in names))
    return "\n".join(lines) + "\n"


def _binding(value) -> dict:
    if isinstance(value, Term):
        return {"type": value.kind, "value": value.lexical}
    kind = f"annotation:{value.domain.name}" if isinstance(value, AnnotationValue) else "literal"
    return {"type": kind, "value": _cell(value)}


def serialize_answers_json(variables: Iterable[Var], rows: list[dict]) -> str:
    names = [v.name for v in variables]
    doc = {
        "vars": names,
        "bindings": [
            {n: _binding(row[n]) for n in names if n in row} for row in rows
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"
