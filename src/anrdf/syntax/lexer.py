"""The scanner shared by the AnRDF data format and AnQL queries, and
`format_term`, the one writer of a term.

Both formats read the same ground terms: `<iri>`, which may hold a
space but no control character (U+0000-U+001F), also in `@prefix`;
`"literal"` (escapes `\\n`, `\\t`, `\\r`, `\\"`, `\\\\`, and `\\uXXXX` for
the character with those four hex digits, unless they name a surrogate;
any other escaped character stands for itself); `prefix:name` after an
`@prefix name: <iri> .` directive; and bare names, taken as IRIs
verbatim except for the rho-df keywords `type`, `sp`, `sc`, `dom`,
`range`.  A name never ends in `.`, so `a b c.` ends after `c`; nor does
an annotation literal, which both formats read as one token
(`annotation_literal`) that only the domain's `parse` validates.
Whitespace and `#` comments (to the end of the line) are skipped
between tokens, never inside one; both are one compiled pattern
(`WS_RE`), and so is a string literal (in a query, a backslash before a
raw line break stands for the line break).  Blank nodes `_:label` exist
only in data and `?var` only in queries; each parser checks its own
before asking for a ground term.

The scanner's protocol: after any whitespace, `Scanner.take` takes a
fixed token of any length and `Scanner.read` the token a compiled
pattern matches; every token of both formats is taken one of these two
ways, directives, `<iri>`s, blank nodes and keywords included, except
the annotation literal, whose brackets must balance
(`annotation_literal_end`), so `annotation_literal` reads it by hand.
Only `skip_ws`, `take`, `read` and `annotation_literal` move `pos`, and
only forward: a lookahead (the query parser's `_comparison_ahead`)
reads the text past `pos` and leaves the scanner where it was.  An
error names its position with `Scanner.error(message, at)`, which reads
the line and column off `at` and never moves the scanner.

`format_term` writes a term as `ground_term` reads it back: a keyword or
bare name where one spells the IRI, `<iri>` otherwise (it refuses an IRI
holding `>` or a control character), `"literal"` with
`\\`, `"`, a tab and every line break escaped, and `_:label`.  The data
serialiser writes terms through it, and so does `results.format_value`,
the one writer of an answer value, which both answer writers and the
engine's GROUPBY warnings call.
"""

from __future__ import annotations

import re

from ..domains.base import CLOSING, OPENING
from ..errors import AnrdfError, ParseError
from ..model import DOM, LITERAL, RANGE, SC, SKOLEM, SP, TYPE, Term, iri, literal

KEYWORDS = {"type": TYPE, "sp": SP, "sc": SC, "dom": DOM, "range": RANGE}
KEYWORD_FOR_TERM = {term: word for word, term in KEYWORDS.items()}

NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_\-]*(?:\.[A-Za-z0-9_\-]+)*")
PNAME_RE = re.compile(
    r"([A-Za-z][A-Za-z0-9_.\-]*)?:([A-Za-z_][A-Za-z0-9_\-]*(?:\.[A-Za-z0-9_\-]+)*)"
)
_PREFIX_NAME_RE = re.compile(r"([A-Za-z][A-Za-z0-9_.\-]*)?:")
# `@name` as a whole word: a name character after it makes another word.
_DIRECTIVE_RES = {n: re.compile(rf"@{n}(?![A-Za-z0-9_.\-])") for n in ("domix", "prefix")}
_ESCAPES = {"n": "\n", "t": "\t", "r": "\r"}
# `<...>` ends at its first `>`, and holds no control character.
_IRI_RE = re.compile(r"<([^>]*)>")
_NOT_IN_IRI_RE = re.compile(r"[\x00-\x1f>]")
WS_RE = re.compile(r"(?:\s|#[^\n]*)*")
_STRING_RE = re.compile(r'"((?:[^"\\]|\\.)*)"', re.DOTALL)
_ESCAPE_RE = re.compile(r"\\(u(?![dD][89a-fA-F])[0-9a-fA-F]{4}|.)", re.DOTALL)
_OPENING = tuple(OPENING)  # the prefixes `str.startswith` tests
_BRACKET_RE = re.compile(f"[{re.escape(OPENING + CLOSING)}]")
_WORD_RE = re.compile(r"[A-Za-z0-9_:+\-/]+(?:\.[A-Za-z0-9_:+\-/]+)*")


def annotation_literal_end(text: str, start: int) -> int:
    """Where the annotation literal at `text[start]` ends, or -1 when none
    does.  It is one bracket group, ending where the depth over the
    pairs `domains.base.OPENING` and `CLOSING` returns to 0 as in
    `split_top_level`, or one word of letters, digits and `_:+-/.` in
    which a `.` stands only between two other word characters."""
    if text.startswith(_OPENING, start):
        depth = 0
        for m in _BRACKET_RE.finditer(text, start):
            depth += 1 if m.group() in OPENING else -1
            if depth == 0:
                return m.end()
        return -1
    m = _WORD_RE.match(text, start)
    return -1 if m is None else m.end()


def _unescape(escape: re.Match) -> str:
    code = escape[1]
    return chr(int(code[1:], 16)) if len(code) == 5 else _ESCAPES.get(code, code)


def name_term(name: str) -> Term:
    """The term a bare name stands for: a rho-df keyword, else an IRI."""
    return KEYWORDS.get(name) or iri(name)


# A tab is escaped too, so that a literal stays one field of a TSV answer,
# and so is every line break that `str.splitlines` knows, so that it stays
# on one line: `\r` by name and the rest as `\uXXXX`.
_LITERAL_ESCAPES = str.maketrans(
    {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t", "\r": "\\r"}
    | {c: f"\\u{ord(c):04X}" for c in "\v\f\x1c\x1d\x1e\x85\u2028\u2029"}
)


def format_term(term: Term) -> str:
    """The text of `term` as both formats read it.  An IRI that no bare
    name spells is written `<...>`, which ends at its first `>` and holds
    no control character, so an IRI with either raises `AnrdfError`."""
    if term.kind == LITERAL:
        return f'"{term.lexical.translate(_LITERAL_ESCAPES)}"'
    if term.kind == SKOLEM:
        return f"_:{term.lexical}"
    short = KEYWORD_FOR_TERM.get(term)
    if short:
        return short
    if NAME_RE.fullmatch(term.lexical) and term.lexical not in KEYWORDS:
        return term.lexical
    bad = _NOT_IN_IRI_RE.search(term.lexical)
    if bad:
        what = "'>'" if bad[0] == ">" else f"control character U+{ord(bad[0]):04X}"
        raise AnrdfError(f"cannot write IRI {term.lexical!r}: {what}")
    return f"<{term.lexical}>"


class Scanner:
    """A position in `text`, whose first line is line `line_no`."""

    def __init__(
        self, text: str, line_no: int = 1, prefixes: dict[str, str] | None = None
    ):
        self.text = text
        self.pos = 0
        self.line_no = line_no
        self.prefixes = {} if prefixes is None else prefixes

    def error(self, message: str, at: int | None = None) -> ParseError:
        """A `ParseError` at position `at` of `text` (default `pos`)."""
        at = self.pos if at is None else at
        line = self.line_no + self.text.count("\n", 0, at)
        column = at - (self.text.rfind("\n", 0, at) + 1) + 1
        return ParseError(message, line, column)

    def skip_ws(self) -> None:
        self.pos = WS_RE.match(self.text, self.pos).end()

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def take(self, token: str) -> bool:
        self.skip_ws()
        if self.text.startswith(token, self.pos):
            self.pos += len(token)
            return True
        return False

    def expect(self, token: str) -> None:
        if not self.take(token):
            raise self.error(f"expected {token!r}")

    def read(self, pattern: re.Pattern, expected: str | None = None) -> re.Match | None:
        """Take the token `pattern` matches after any whitespace.  When it
        matches nothing, `pos` stays after the whitespace and the result
        is None, or with `expected` an error `expected <expected>`."""
        self.skip_ws()
        m = pattern.match(self.text, self.pos)
        if m:
            self.pos = m.end()
        elif expected:
            raise self.error(f"expected {expected}")
        return m

    def ground_term(self) -> Term | None:
        """Read an IRI or literal term; None when none starts here, so
        the caller can name what it expected."""
        ch = self.peek()
        if ch == "<":
            return iri(self._iri("unterminated <iri>", self.pos))
        if ch == '"':
            m = self.read(_STRING_RE)
            if m is None:
                raise self.error("unterminated string literal")
            return literal(_ESCAPE_RE.sub(_unescape, m[1]))
        m = self.read(PNAME_RE)
        if m:
            prefix = m.group(1) or ""
            if prefix not in self.prefixes:
                raise self.error(f"undeclared prefix {prefix!r}", m.start())
            return iri(self.prefixes[prefix] + m.group(2))
        m = self.read(NAME_RE)
        return None if m is None else name_term(m.group(0))

    def annotation_literal(self) -> str:
        """Read the annotation literal that `annotation_literal_end`
        delimits; errors point at its start."""
        self.skip_ws()
        start = self.pos
        end = annotation_literal_end(self.text, start)
        if end < 0:
            if self.text.startswith(_OPENING, start):
                raise self.error(f"unbalanced {self.text[start]}")
            raise self.error("expected an annotation literal")
        self.pos = end
        return self.text[start:end]

    def directive(self, name: str) -> bool:
        """Take `@name` when it starts here as a whole word: a name
        character right after it (`@prefixex:`) makes it another word."""
        return self.read(_DIRECTIVE_RES[name]) is not None

    def prefix_directive(self) -> None:
        """Read the `name: <iri>` after `@prefix` and declare the prefix;
        the caller checks the closing '.'."""
        m = self.read(_PREFIX_NAME_RE)
        if not m:
            raise self.error("@prefix needs 'name:'")
        if self.peek() != "<":
            raise self.error("expected '<'")
        self.prefixes[m.group(1) or ""] = self._iri("unterminated prefix IRI", self.pos + 1)

    def _iri(self, unterminated: str, at: int) -> str:
        """Read the `<...>` that starts here and return the IRI inside it;
        with no `>` to end it the error is `unterminated` at `at`, and a
        control character in it is an error at that character."""
        m = self.read(_IRI_RE)
        if m is None:
            raise self.error(unterminated, at)
        bad = _NOT_IN_IRI_RE.search(self.text, m.start(1), m.end(1))
        if bad:
            raise self.error(f"control character U+{ord(bad[0]):04X} in an IRI", bad.start())
        return m[1]
