"""The AnRDF text format: one statement per line.

    @domix temporal .
    @prefix ex: <http://example.org/> .
    ex:a ex:b ex:c .
    (ex:s ex:p ex:o) : {[2005,2010]} .

Lines end at `\\n` only; a trailing `\\r` is whitespace.  Terms are read
by the scanner shared with AnQL (`anrdf.syntax.lexer`), plus `_:label`
blank nodes, which are skolemised on load.  The annotation literal
after `:` is the lexer's annotation literal, the same token as an AnQL
label, and the final `.` follows it.  Plain statements carry no
annotation and are returned separately for defaults handling.

Each line is read one of two ways, never part one way and part the
other.  A line in either form `serialize_graph` writes from bare names,
`(s p o) : literal .` or `s p o .`, single spaces apart, is read whole
by one compiled pattern and builds no scanner.  The scanner reads the
same line to the same result: it skips no whitespace before the first
name, a name holds no `:` for `PNAME_RE` to take, `NAME_RE` stops at the
space or `)` after each name, and the pattern takes the literal only
where `annotation_literal_end` ends it, which the scanner calls too, so
` .` is all that follows.  Each distinct name becomes a term, and each
distinct literal text is checked, once per document.  Every other line
(a prefixed name, `<iri>`, a literal term, a blank node, a tab, extra
or leading spaces, a comment, `a b c.`, a directive) is read by the
scanner alone, so every error keeps its message and position.

Serialisation is canonical: statements sorted by subject, predicate,
object; annotations in canonical literal form; no prefixes (IRIs print
bare when they can, bracketed otherwise); shorthand annotations always
expanded.  Serialising a parsed document twice is byte-identical.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from ..domains import AnnotationValue, Domain, get_domain
from ..errors import AnnotationSyntaxError, AnrdfError, ParseError, UnknownDomainError
from ..model import AnnotatedGraph, Term, Triple, skolem
from .lexer import NAME_RE, Scanner, annotation_literal_end, format_term, name_term

# A blank-node label holds '.' only between two label characters, as
# NAME_RE does, so a label glued to the final '.' ends before it.
_LABEL_RE = re.compile(r"[A-Za-z0-9_\-]+(?:\.[A-Za-z0-9_\-]+)*")

# A whole canonical line: `(s p o) : literal .` or `s p o .`, bare names
# apart by single spaces.  Group 1 is the `(` that selects the annotated
# form, groups 2-4 the names and group 5 the literal text.
_STATEMENT_RE = re.compile(r"(\()?({0}) ({0}) ({0})(?(1)\) : (.+)) \.".format(NAME_RE.pattern))


@dataclass
class Document:
    """Parse result: the annotated statements plus the plain-triple side
    list (kept apart until a defaults mode is chosen)."""

    domain: Domain
    graph: AnnotatedGraph
    plain: list[Triple] = field(default_factory=list)


class _Memo(dict):
    """`fn` of each key, computed on first lookup only."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def _term(cur: Scanner) -> Term:
    cur.skip_ws()
    if cur.text.startswith("_:", cur.pos):
        m = _LABEL_RE.match(cur.text, cur.pos + 2)
        if not m:
            raise cur.error("blank node needs a label")
        cur.pos = m.end()
        return skolem(m.group(0))
    term = cur.ground_term()
    if term is not None:
        return term
    if cur.at_end():
        raise cur.error("expected a term")
    raise cur.error(f"cannot read a term at {_rest_of_line(cur).rstrip()[:10]!r}")


def _rest_of_line(cur: Scanner) -> str:
    return cur.text[cur.pos :].partition("#")[0]


def _up_to_final_dot(cur: Scanner, message: str) -> str:
    """The rest of the line, minus any comment, up to its final '.';
    leaves `cur` at the first character of that text."""
    rest = _rest_of_line(cur)
    cur.pos += len(rest) - len(rest.lstrip())
    rest = rest.strip()
    if not rest.endswith("."):
        raise cur.error(message)
    return rest[:-1].strip()


def _expect_final_dot(cur: Scanner, message: str) -> None:
    if not (cur.take(".") and cur.at_end()):
        raise cur.error(message)


def _directive(cur: Scanner, declared: Domain | None, after_annotated: bool) -> Domain | None:
    """Read the `@domix` or `@prefix` line at `cur`; returns the declared
    domain, which only `@domix` sets."""
    start = cur.pos
    if cur.directive("domix"):
        # The domain fixes how every annotation literal reads, so it
        # is named once, ahead of them all.
        if declared is not None:
            raise ParseError("a document has at most one @domix line", cur.line_no, start + 1)
        if after_annotated:
            raise ParseError(
                "@domix must come before the first annotated statement", cur.line_no, start + 1
            )
        name = _up_to_final_dot(cur, "@domix line must end with '.'")
        try:
            return get_domain(name)
        except UnknownDomainError as exc:
            raise cur.error(str(exc)) from None
    if not cur.directive("prefix"):
        raise cur.error("unknown directive; expected @domix or @prefix")
    cur.prefix_directive()
    _expect_final_dot(cur, "@prefix line must end with '.'")
    return declared


def parse_graph(text: str, domain: Domain | str | None = None) -> Document:
    """Parse an AnRDF document.

    `domain` overrides any `@domix` header; one of the two must name the
    annotation domain.  A document has at most one `@domix` line, before
    its first annotated statement, whether or not `domain` is given.
    """
    if isinstance(domain, str):
        domain = get_domain(domain)
    prefixes: dict[str, str] = {}
    annotated: list[tuple[int, int, Triple, str]] = []
    plain: list[Triple] = []
    declared: Domain | None = None
    names = _Memo(name_term)
    whole_literal = _Memo(lambda lit: annotation_literal_end(lit, 0) == len(lit))
    for line_no, line in enumerate(text.split("\n"), start=1):
        m = _STATEMENT_RE.fullmatch(line)
        if m and (m[1] is None or whole_literal[m[5]]):
            triple = Triple(names[m[2]], names[m[3]], names[m[4]])
            if m[1] is None:
                plain.append(triple)
            else:
                annotated.append((line_no, m.start(5) + 1, triple, m[5]))
            continue
        cur = Scanner(line, line_no, prefixes)
        if cur.at_end():
            continue
        if line[cur.pos] == "@":
            declared = _directive(cur, declared, bool(annotated))
            continue
        start = cur.pos
        bracketed = cur.take("(")
        s, p, o = _term(cur), _term(cur), _term(cur)
        annotation = None
        if bracketed:
            cur.expect(")")
            cur.expect(":")
            cur.skip_ws()
            column = cur.pos + 1
            annotation = cur.annotation_literal()
        _expect_final_dot(cur, "statement must end with '.'")
        try:
            triple = Triple(s, p, o)
        except AnrdfError as exc:
            raise ParseError(str(exc), line_no, start + 1) from None
        if annotation is None:
            plain.append(triple)
        else:
            annotated.append((line_no, column, triple, annotation))

    effective = domain or declared
    if effective is None:
        if annotated:
            line_no = annotated[0][0]
            raise ParseError("no annotation domain declared", line_no, 1)
        effective = get_domain("boolean")
    # Annotated data repeats its literals, so each distinct text is parsed
    # once; lines are visited in order, so a bad literal fails at its first.
    # A repeated triple joins its values, and the graph is built once.
    parsed: dict[str, AnnotationValue] = {}
    joined: dict[Triple, AnnotationValue] = {}
    for line_no, column, triple, literal_text in annotated:
        value = parsed.get(literal_text)
        if value is None:
            try:
                value = parsed[literal_text] = effective.parse(literal_text)
            except AnnotationSyntaxError as exc:
                raise ParseError(str(exc), line_no, column) from None
        old = joined.get(triple)
        joined[triple] = value if old is None else old.join(value)
    graph = AnnotatedGraph.from_values(effective, joined)
    return Document(domain=effective, graph=graph, plain=plain)


# -- serialisation ------------------------------------------------------------


def serialize_graph(graph: AnnotatedGraph, plain: list[Triple] | None = None) -> str:
    """Canonical text for a graph (optionally with plain triples).

    Each line is a plain `s p o .` or an annotated `(s p o) : literal .`,
    with terms written by `format_term`.  A graph repeats its terms and
    annotation values, so each distinct term and payload is formatted
    once per call; payloads are canonical, so equal payloads print
    alike.  `graph.statements()` is already in line order, so only plain
    triples call for a sort; a triple both annotated and plain prints
    both lines, ordered by their text."""
    terms = _Memo(format_term)
    literals = _Memo(graph.domain.format_payload)
    entries: list[tuple[Triple, str]] = [
        (t, f"({terms[t[0]]} {terms[t[1]]} {terms[t[2]]}) : {literals[v.payload]} .")
        for t, v in graph.statements()
    ]
    if plain:
        entries += [(t, f"{terms[t[0]]} {terms[t[1]]} {terms[t[2]]} .") for t in plain]
        entries.sort()
    lines = [f"@domix {graph.domain.name} ."]
    lines.extend(text for _, text in entries)
    return "\n".join(lines) + "\n"
