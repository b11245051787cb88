"""Data and query syntax: parsing, canonical serialisation, round trips."""

from __future__ import annotations

import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from anrdf import evaluate_query, get_domain, parse_graph, parse_query
from anrdf.anql import algebra as alg
from anrdf.domains import AnnotationValue, Domain
from anrdf.errors import AnrdfError, ParseError
from anrdf.model import (
    IRI,
    LITERAL,
    SC,
    SKOLEM,
    TYPE,
    AnnotatedGraph,
    Term,
    Triple,
    iri,
    literal,
    skolem,
)
from anrdf.syntax import (
    serialize_answers_json,
    serialize_answers_tsv,
    serialize_graph,
)
from anrdf.domains.base import split_top_level
from anrdf.syntax import data as data_syntax
from anrdf.syntax.data import _STATEMENT_RE
from anrdf.syntax.lexer import format_term
from anrdf.syntax.results import format_value
from oracles import format_statement

TEMPORAL = get_domain("temporal")
PROVENANCE = get_domain("provenance")
DATA_FILES = sorted((Path(__file__).resolve().parent.parent / "data").glob("*.anrdf"))

ALL_DOMAIN_IDS = [
    "boolean",
    "fuzzy:min",
    "fuzzy:product",
    "fuzzy:lukasiewicz",
    "temporal",
    "provenance",
    "compound(temporal,fuzzy:product)",
    "compound(temporal,provenance)",
]


def random_term(rng: random.Random) -> Term:
    roll = rng.random()
    if roll < 0.55:
        return iri(rng.choice(["alpha", "beta.v2", "rel-x", "worksFor"]))
    if roll < 0.7:
        return iri(f"http://example.org/ns#{rng.randrange(5)}")
    if roll < 0.85:
        return literal(rng.choice(["plain", 'with "quotes"', "line\nbreak", "7"]))
    return skolem(f"b{rng.randrange(4)}")


def random_document(rng: random.Random, domain) -> AnnotatedGraph:
    graph = AnnotatedGraph(domain)
    predicates = [iri("p"), iri("q"), TYPE, SC]
    for _ in range(rng.randint(0, 10)):
        s = random_term(rng)
        p = rng.choice(predicates)
        o = random_term(rng)
        payload = domain.random_payload(rng)
        value = domain.value(payload)
        if not value.is_bottom:
            graph.insert(Triple(s, p, o), value)
    return graph


def split_by_characters(body: str) -> list[str]:
    """`split_top_level` by its definition, one character at a time."""
    if not body:
        return []
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(body):
        if ch in "<{[(":
            depth += 1
        elif ch in ">}])":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(body[start:i])
            start = i + 1
    parts.append(body[start:])
    return parts


class TestSplitTopLevel:
    def test_nested_literals(self):
        body = "<{[1,2],[3,4]},(a ^ b)>, <{[5,6]},c>,<{},x>"
        assert split_top_level(body) == ["<{[1,2],[3,4]},(a ^ b)>", " <{[5,6]},c>", "<{},x>"]
        assert split_top_level("") == [] and split_top_level(",") == ["", ""]

    def test_agrees_with_the_character_definition(self):
        # Random bodies over the bracket characters, commas and filler,
        # balanced or not, plus literals that every domain writes.
        rng = random.Random(5150)
        alphabet = [*"<>{}[](),", "a", "1", " ", "^", "-"]
        bodies = [
            "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))
            for _ in range(3000)
        ]
        for domain_id in ALL_DOMAIN_IDS:
            domain = get_domain(domain_id)
            bodies += [domain.random_value(rng).serialize()[1:-1] for _ in range(50)]
        for body in bodies:
            assert split_top_level(body) == split_by_characters(body), body


class TestDataRoundTrip:
    @pytest.mark.parametrize("domain_id", ALL_DOMAIN_IDS)
    def test_generated_documents(self, domain_id):
        domain = get_domain(domain_id)
        rng = random.Random(hash(domain_id) & 0xFFFF)
        for _ in range(40):
            graph = random_document(rng, domain)
            text = serialize_graph(graph)
            doc = parse_graph(text)
            assert doc.domain.name == domain.name
            assert dict(doc.graph.statements()) == dict(graph.statements())
            assert serialize_graph(doc.graph) == text  # byte-identical

    @pytest.mark.parametrize("domain_id", ALL_DOMAIN_IDS)
    def test_each_line_is_format_statement(self, domain_id):
        # `serialize_graph` formats each distinct term and payload once;
        # every line must still read as `format_statement` writes it.
        # Values come from a small pool, so payloads and terms repeat.
        domain = get_domain(domain_id)
        rng = random.Random(f"lines:{domain_id}")
        for _ in range(40):
            pool = [domain.random_value(rng) for _ in range(3)]
            graph = AnnotatedGraph(domain)
            for _ in range(rng.randint(0, 12)):
                value = rng.choice(pool)
                if not value.is_bottom:
                    graph.insert(Triple(random_term(rng), iri("p"), random_term(rng)), value)
            plain = [
                Triple(random_term(rng), TYPE, random_term(rng))
                for _ in range(rng.randint(0, 3))
            ]
            entries = [(t, format_statement(t, v)) for t, v in graph.statements()]
            entries += [(t, format_statement(t, None)) for t in plain]
            lines = [f"@domix {domain.name} .", *(text for _, text in sorted(entries))]
            assert serialize_graph(graph, plain) == "\n".join(lines) + "\n"

    @pytest.mark.parametrize("domain_id", ALL_DOMAIN_IDS)
    def test_lines_follow_the_sorted_triples(self, domain_id):
        # The lines are written in `statements()` order with no sort of
        # their own; a frozen graph serves that order from its cache.
        domain = get_domain(domain_id)
        rng = random.Random(f"order:{domain_id}")
        for _ in range(40):
            graph = random_document(rng, domain)
            values = dict(graph.statements())
            expected = [format_statement(t, values[t]) for t in sorted(values)]
            assert serialize_graph(graph).split("\n")[1:-1] == expected
            assert serialize_graph(graph.freeze()).split("\n")[1:-1] == expected

    def test_literals_with_quotes_comments_and_line_breaks(self):
        # The characters an escape, a comment or a line split could get
        # wrong, with the line breaks that str.splitlines() knows besides
        # "\n": `"say \"#1\""` once lost its tail to a comment.
        alphabet = [*"abXY", '"', "\\", "#", "<", ">", "\t", "\n", "\r", "\x0c", "\u2028"]
        rng = random.Random(7300)

        def text() -> Term:
            return literal("".join(rng.choice(alphabet) for _ in range(rng.randint(0, 8))))

        for _ in range(200):
            graph = AnnotatedGraph(TEMPORAL)
            for _ in range(rng.randint(1, 4)):
                graph.insert(Triple(text(), iri("p"), text()), TEMPORAL.parse("[1,2]"))
            plain = [Triple(iri("a"), iri("q"), text())]
            doc = parse_graph(serialize_graph(graph, plain))
            assert dict(doc.graph.statements()) == dict(graph.statements())
            assert doc.plain == plain

    def test_crlf_lines(self):
        doc = parse_graph("@domix temporal .\r\n(a p b) : [1,2] . # c\r\na q b .\r\n")
        assert len(doc.graph) == 1 and doc.plain == [Triple(iri("a"), iri("q"), iri("b"))]

    def test_fig1_round_trip_is_byte_identical(self, data_dir):
        doc = parse_graph((data_dir / "fig1.anrdf").read_text())
        once = serialize_graph(doc.graph, doc.plain)
        again = serialize_graph(parse_graph(once).graph, parse_graph(once).plain)
        assert once == again

    @pytest.mark.parametrize("name", [p.name for p in DATA_FILES])
    def test_data_files_round_trip_byte_identically(self, data_dir, name):
        doc = parse_graph((data_dir / name).read_text())
        once = serialize_graph(doc.graph, doc.plain)
        again = parse_graph(once)
        assert serialize_graph(again.graph, again.plain) == once

    def test_plain_triples_are_side_listed(self):
        doc = parse_graph("a p b .\n(c q d) : {[1,2]} .\n", domain="temporal")
        assert doc.plain == [Triple(iri("a"), iri("p"), iri("b"))]
        assert len(doc.graph) == 1

    def test_shorthands_expand_on_output(self):
        doc = parse_graph("@domix temporal .\n(a p b) : 2005 .\n(c q d) : [1,4] .\n")
        text = serialize_graph(doc.graph)
        assert "{[2005,2005]}" in text and "{[1,4]}" in text

    def test_temporal_top_serialisation(self):
        assert TEMPORAL.top.serialize() == "{[-inf,+inf]}"

    def test_prefixes_and_keywords(self):
        doc = parse_graph(
            "@domix temporal .\n"
            "@prefix : <http://ex.org/> .\n"
            "@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .\n"
            "(:chadHurley rdf:type :youtubeEmp) : {[2005,2010]} .\n"
        )
        t = Triple(
            iri("http://ex.org/chadHurley"), TYPE, iri("http://ex.org/youtubeEmp")
        )
        assert doc.graph.get(t) is not None
        # ':' cannot continue a name, so it ends the directive word.
        doc = parse_graph("@domix\ttemporal .\n@prefix: <http://ex.org/> .\n(:a :p :b) : 1 .\n")
        assert doc.graph.get(Triple(*(iri(f"http://ex.org/{n}") for n in "apb"))) is not None

    def test_skolemisation_is_deterministic(self):
        text = "@domix boolean .\n(_:b1 p _:b2) : true .\n"
        doc1, doc2 = parse_graph(text), parse_graph(text)
        assert dict(doc1.graph.statements()) == dict(doc2.graph.statements())
        t = next(iter(doc1.graph.triple_set()))
        assert t.subject == skolem("b1")

    def test_literal_subject_allowed(self):
        doc = parse_graph('@domix boolean .\n("42" p b) : true .\n')
        assert next(iter(doc.graph.triple_set())).subject == literal("42")

    def test_literal_predicate_rejected(self):
        with pytest.raises(ParseError):
            parse_graph('@domix boolean .\n(a "p" b) : true .\n')

    # (column, message).  Columns count the raw line; annotation literal
    # errors point at the literal, triple errors at the statement.
    FUZZY_RANGE = "fuzzy degree must be a rational in [0,1], got 1.5"
    DIRECTIVE = "unknown directive; expected @domix or @prefix"
    ERROR_COLUMNS = {
        "(a p b) : {[1,2]}": (18, "statement must end with '.'"),  # missing dot
        "(a p b) : 0.5. .": (16, "statement must end with '.'"),  # a word never ends in '.'
        "(a p) : {[1,2]} .": (5, "cannot read a term at ') : {[1,2]'"),  # two terms
        "a p .": (5, "cannot read a term at '.'"),
        "(a p b) : nonsense .": (11, "not a number: 'nonsense'"),
        "(a p b) : 1.5 .": (11, FUZZY_RANGE),
        '(a "p" b) : true .': (1, 'predicate must not be a literal: "p"'),
        '      (a "p" b) : 0.5 .': (7, 'predicate must not be a literal: "p"'),
        "  (a p b) :   1.5 . # comment": (15, FUZZY_RANGE),
        "(a p b) : +inf .": (11, "fuzzy degree must be a rational in [0,1], got +inf"),
        # Variables are query-only.
        "(?x p b) : 0.5 .": (2, "cannot read a term at '?x p b) : '"),
        "@prefixex: <http://e/> .": (1, DIRECTIVE),  # a directive is a whole word
        "@domixfuzzy:min .": (1, DIRECTIVE),
        # A blank-node label never ends in '.'.
        "(_:b. p c) : 0.5 .": (5, "cannot read a term at '. p c) : 0'"),
        "a p _:b..c .": (9, "statement must end with '.'"),
        "a p _:.b .": (5, "blank node needs a label"),
        # Unicode, vertical-tab and form-feed spaces are whitespace.
        "(a\xa0p\u2003b)\x0b:\x0c1.5 .": (11, FUZZY_RANGE),
        # ... but no control character may stand inside <...>.
        "(<c\td> p b) : 0.5 .": (4, "control character U+0009 in an IRI"),
        "a p <x\x1fy> .": (7, "control character U+001F in an IRI"),
        "@prefix ex: <http://e/\x00x> .": (23, "control character U+0000 in an IRI"),
        "(<abc p b) : 0.5 .": (2, "unterminated <iri>"),
        "@prefix <http://e/> .": (9, "@prefix needs 'name:'"),
        "@prefix ex: <http://e/ .": (14, "unterminated prefix IRI"),
        "a p": (4, "expected a term"),  # at the end of the line
    }

    @pytest.mark.parametrize("bad", ERROR_COLUMNS)
    def test_errors_carry_positions(self, bad):
        with pytest.raises(ParseError) as info:
            parse_graph(f"@domix fuzzy:product .\n{bad}\n")
        column, message = self.ERROR_COLUMNS[bad]
        assert str(info.value) == f"2:{column}: {message}"

    def test_fuzzy_range_check(self):
        with pytest.raises(ParseError):
            parse_graph("@domix fuzzy:min .\n(a p b) : 1.5 .\n")

    def test_missing_domain(self):
        with pytest.raises(ParseError):
            parse_graph("(a p b) : {[1,2]} .\n")

    # (line, column, message); the last row is a malformed @domix line.
    LATE_DOMIX = {
        # A second @domix would re-read the statements before it.
        "@domix fuzzy:min .\n(a p b) : 1 .\n@domix temporal .\n(a p c) : 1 .\n": (
            3,
            1,
            "at most one @domix",
        ),
        "@domix temporal .\n@domix temporal .\n": (2, 1, "at most one @domix"),
        "(a p b) : 1 .\n@domix temporal .\n": (2, 1, "before the first annotated"),
        "@domix fuzzy:min\n(a p b) : 1 .\n": (1, 8, "@domix line must end with '.'"),
    }

    @pytest.mark.parametrize("domain", [None, "temporal"])
    @pytest.mark.parametrize("text", LATE_DOMIX)
    def test_late_or_repeated_domix_rejected(self, text, domain):
        line, column, message = self.LATE_DOMIX[text]
        with pytest.raises(ParseError, match=message) as info:
            parse_graph(text, domain=domain)
        assert (info.value.line, info.value.column) == (line, column)

    def test_domix_after_plain_statements(self):
        doc = parse_graph("a p b .\n@domix temporal .\n(a p c) : 1 .\n")
        assert doc.domain.name == "temporal" and len(doc.graph) == 1

    def test_comments_ignored(self):
        doc = parse_graph("# header\n@domix boolean .\n(a p b) : true . # tail\n")
        assert len(doc.graph) == 1

    def test_name_never_ends_in_a_dot(self):
        doc = parse_graph("a b c.\n(a b d.e) : 0.5.\n", domain="fuzzy:min")
        assert doc.plain == [Triple(iri("a"), iri("b"), iri("c"))]
        assert doc.graph.get(Triple(iri("a"), iri("b"), iri("d.e"))) is not None
        graph = AnnotatedGraph(TEMPORAL)
        graph.insert(Triple(iri("c."), iri("p"), iri("a..b")), TEMPORAL.parse("1"))
        text = serialize_graph(graph)
        assert "(<c.> p <a..b>)" in text
        assert dict(parse_graph(text).graph.statements()) == dict(graph.statements())

    def test_blank_node_label_never_ends_in_a_dot(self):
        doc = parse_graph(
            "a p _:b.\n_:b.c p _:d.e .\n(_:x q _:y.z) : 0.5.\n", domain="fuzzy:min"
        )
        assert doc.plain == [
            Triple(iri("a"), iri("p"), skolem("b")),
            Triple(skolem("b.c"), iri("p"), skolem("d.e")),
        ]
        assert doc.graph.get(Triple(skolem("x"), iri("q"), skolem("y.z"))) is not None
        again = parse_graph(serialize_graph(doc.graph, doc.plain))
        assert again.plain == doc.plain
        assert dict(again.graph.statements()) == dict(doc.graph.statements())

    @pytest.mark.parametrize(
        "written, read",
        [("\\u2028", "\u2028"), ("\\u000b", "\v"), ("\\u00E9", "é"),
         ("\\u12", "u12"), ("\\uD800", "uD800"), ("\\U2028", "U2028"), ("\\\\u0041", "\\u0041")],
    )
    def test_a_unicode_escape_reads_as_its_character(self, written, read):
        # Four hex digits that name no surrogate; else `u` stands for itself.
        doc = parse_graph(f'(a p "{written}") : 1 .\n', "temporal")
        assert doc.graph.get(Triple(iri("a"), iri("p"), literal(read))) is not None

    def test_a_carriage_return_escape_reads_as_one(self):
        doc = parse_graph('(a p "x\\ry") : 1 .\n', "temporal")
        assert doc.graph.get(Triple(iri("a"), iri("p"), literal("x\ry"))) is not None
        assert format_term(literal("x\ry")) == '"x\\ry"'

    def test_term_formatting(self):
        assert format_term(TYPE) == "type"
        assert format_term(iri("plain")) == "plain"
        assert format_term(iri("has space")) == "<has space>"
        assert format_term(iri("type")) == "<type>"  # avoids the keyword
        assert format_term(literal('say "hi"')) == '"say \\"hi\\""'

    @pytest.mark.parametrize(
        "lexical, message",
        [
            ("c\td", "cannot write IRI 'c\\td': control character U+0009"),
            ("a>b", "cannot write IRI 'a>b': '>'"),
        ],
        ids=["tab", "angle-bracket"],
    )
    def test_an_iri_with_a_control_character_is_not_written(self, lexical, message):
        # The reader rejects `<c\td>` and ends `<a>b>` at its first `>`,
        # so neither writer emits them.
        graph = AnnotatedGraph(TEMPORAL)
        graph.insert(Triple(iri(lexical), iri("name"), literal("n")), TEMPORAL.parse("[1,2]"))
        with pytest.raises(AnrdfError) as info:
            serialize_graph(graph)
        assert str(info.value) == message
        with pytest.raises(AnrdfError) as info:
            serialize_answers_tsv([alg.Var("s")], [{"s": iri(lexical)}])
        assert str(info.value) == message


_STRING_OR_SPACE = re.compile(r'"(?:[^"\\]|\\.)*"| ')


def double_spaces(text: str) -> str:
    """`text` with every space outside a string literal doubled."""
    return _STRING_OR_SPACE.sub(lambda m: "  " if m[0] == " " else m[0], text)


class TestStatementPattern:
    """Whole lines in a canonical form are read by `_STATEMENT_RE`, all
    others by the scanner alone; both readers must give the same
    document."""

    @staticmethod
    def pattern_lines(text: str) -> int:
        return sum(1 for line in text.split("\n") if _STATEMENT_RE.fullmatch(line))

    @staticmethod
    def scanned_lines(text: str, monkeypatch) -> list[str]:
        """The lines for which `parse_graph(text)` builds a scanner."""
        lines = []

        class Recording(data_syntax.Scanner):
            def __init__(self, line, *args):
                lines.append(line)
                super().__init__(line, *args)

        with monkeypatch.context() as patch:
            patch.setattr(data_syntax, "Scanner", Recording)
            parse_graph(text)
        return lines

    @staticmethod
    def read_line(domain_id: str, line: str) -> str:
        """`line` as the second line of a document, written back
        canonically, or the error it raises."""
        try:
            doc = parse_graph(f"@domix {domain_id} .\n" + line)
        except ParseError as exc:
            return str(exc)
        return serialize_graph(doc.graph, doc.plain).split("\n")[1]

    def assert_reads_as_the_scanner(self, text: str) -> None:
        # Doubled spaces send every line to the scanner.
        doubled = double_spaces(text)
        assert self.pattern_lines(doubled) == 0
        doc, scanned = parse_graph(text), parse_graph(doubled)
        assert dict(doc.graph.statements()) == dict(scanned.graph.statements())
        assert doc.plain == scanned.plain

    @pytest.mark.parametrize("name", [p.name for p in DATA_FILES])
    def test_data_files(self, data_dir, name):
        text = (data_dir / name).read_text()
        assert self.pattern_lines(text) > 0
        self.assert_reads_as_the_scanner(text)

    @pytest.mark.parametrize("domain_id", ALL_DOMAIN_IDS)
    def test_generated_documents(self, domain_id):
        domain = get_domain(domain_id)
        rng = random.Random(f"pattern:{domain_id}")
        read = 0
        for _ in range(40):
            graph = random_document(rng, domain)
            plain = [Triple(random_term(rng), iri("q"), random_term(rng)) for _ in range(3)]
            text = serialize_graph(graph, plain)
            read += self.pattern_lines(text)
            self.assert_reads_as_the_scanner(text)
        assert read > 0

    @pytest.mark.parametrize(
        "line, expected",
        [
            ("a b c.", "a b c ."),
            ("a b c:d .", "2:5: undeclared prefix 'c'"),
            ("a b:c d .", "2:3: undeclared prefix 'b'"),
            ("(a b c d) : 1 .", "2:8: expected ')'"),
            ("a b c #x", "2:9: statement must end with '.'"),
            ("a b c(", "2:6: statement must end with '.'"),
            ("(a b c)x : 1 .", "2:8: expected ':'"),
            ("(a b c.) : 1 .", "2:7: expected ')'"),
            ("(type sp sc) : 1 .", "(type sp sc) : 1 ."),
            ("(a.b c.d e.f) : 1 .", "(a.b c.d e.f) : 1 ."),
            ("(a\tb\tc) : 1 .", "(a b c) : 1 ."),
            ("a\tb\tc .", "a b c ."),
            (" (a b c) : 1 .", "(a b c) : 1 ."),
            (" a b c .", "a b c ."),
            ("a b c\r", "2:7: statement must end with '.'"),
            ("(a b c ) :1 . # x", "(a b c) : 1 ."),
            ("(a b c) : 1) .", "2:12: statement must end with '.'"),
            ("(a b c) : (1 .", "2:11: unbalanced ("),
            ("(a b c) : 1 . # x", "(a b c) : 1 ."),
            ("(a b c) : 1#x .", "2:16: statement must end with '.'"),
            ("(a b c) : 1 .\r", "(a b c) : 1 ."),
            ("(a b c) : 1 ..", "2:14: statement must end with '.'"),
        ],
    )
    def test_edge_lines(self, line, expected):
        # Each result is the one the scanner alone gave: the statement
        # written back canonically, or the error at its position.
        assert self.read_line("fuzzy:min", line) == expected

    @pytest.mark.parametrize(
        "line, expected",
        [
            ("(a b c) : {[1,2]]} .", "2:18: statement must end with '.'"),
            ("(a b c) : {[1,2)} .", "2:11: malformed interval: '[1,2)'"),
            ("(a b c) : {[1,2]} .", "(a b c) : {[1,2]} ."),
            ("(a b c) : {[1,2] .", "2:11: unbalanced {"),
            ("(a b c) : {#} .", "2:11: malformed interval: '#'"),
        ],
    )
    def test_temporal_edge_lines(self, line, expected):
        assert self.read_line("temporal", line) == expected

    @pytest.mark.parametrize("document", ["temporal_document", "compound_document"])
    def test_benchmark_documents(self, workloads, monkeypatch, document):
        # The pattern must read every statement line of the documents the
        # benchmark parses: only the `@domix` line and the empty line
        # after the final newline may build a scanner.
        text = getattr(workloads, document)(1)
        statements = [line for line in text.split("\n") if line and line[0] != "@"]
        assert self.pattern_lines(text) == len(statements) > 0
        assert self.scanned_lines(text, monkeypatch) == [text.split("\n")[0], ""]
        self.assert_reads_as_the_scanner(text)

    def test_each_name_is_one_term(self):
        doc = parse_graph("a p b .\nb p a .")
        first, second = doc.plain
        assert first.subject is second.object and first.predicate is second.predicate


class TestLiteralParseCache:
    def test_repeated_literal_is_parsed_once(self, monkeypatch):
        parsed = []
        parse = Domain.parse

        def counted(self, text):
            parsed.append(text)
            return parse(self, text)

        monkeypatch.setattr(Domain, "parse", counted)
        lines = [f"(x{i} p y) : {{[1,5]}} ." for i in range(50)] + ["(z p y) : 7 ."]
        doc = parse_graph("@domix temporal .\n" + "\n".join(lines) + "\n")
        assert sorted(parsed) == ["7", "{[1,5]}"]
        assert len(doc.graph) == 51
        assert doc.graph.get(Triple(iri("x49"), iri("p"), iri("y"))) == TEMPORAL.value(
            ((1, 5),)
        )

    def test_repeated_bad_literal_reports_its_first_line(self):
        text = (
            "@domix temporal .\n"
            "(a p b) : 1 .\n"
            "(a p c) :   [5,1] .\n"
            "(a p d) : 2 .\n"
            "  (a p e) : [5,1] .\n"
        )
        with pytest.raises(ParseError) as info:
            parse_graph(text)
        assert (info.value.line, info.value.column) == (3, 13)


class TestRepeatedStatements:
    def test_a_repeated_annotated_triple_holds_the_join(self):
        # The second statement goes through the scanner, the first not.
        text = "@domix temporal .\n(a p b) : {[1,3]} .\n(a  p b) : {[5,7]} .\n"
        graph = parse_graph(text).graph
        assert graph.statements() == [
            (Triple(iri("a"), iri("p"), iri("b")), TEMPORAL.parse("{[1,3],[5,7]}"))
        ]

    def test_a_bottom_annotated_triple_is_not_stored(self):
        text = "@domix temporal .\n(a p b) : {} .\n(a p c) : {[1,3]} .\n"
        graph = parse_graph(text).graph
        assert Triple(iri("a"), iri("p"), iri("b")) not in graph
        assert len(graph) == 1


class TestQueryParsing:
    @pytest.mark.parametrize(
        "modifiers, column",
        [
            ("LIMIT 1 LIMIT 5", 9),
            ("ORDERBY ?o ORDERBY ?o", 12),
            ("LIMIT 1 ORDERBY ?o LIMIT 5", 20),
        ],
    )
    def test_repeated_modifier_rejected(self, modifiers, column):
        prefix = "SELECT ?o WHERE { (a p ?o):?l } "
        with pytest.raises(ParseError, match="at most one") as info:
            parse_query(prefix + modifiers, TEMPORAL)
        assert info.value.column == len(prefix) + column

    @pytest.mark.parametrize("modifiers", ["ORDERBY ?o LIMIT 1", "LIMIT 1 ORDERBY ?o"])
    def test_modifiers_in_either_order(self, modifiers):
        query = parse_query("SELECT ?o WHERE { (a p ?o):?l } " + modifiers, TEMPORAL)
        assert (query.order_by, query.limit) == (alg.Var("o"), 1)

    def test_exx1_shape(self, data_dir):
        query = parse_query((data_dir / "queries" / "exx1.anql").read_text(), TEMPORAL)
        assert query.select == (alg.Var("p"), alg.Var("l"), alg.Var("c"))
        assert isinstance(query.pattern, alg.Optional)
        assert query.pattern.filter is None
        bap = query.pattern.left
        assert isinstance(bap, alg.Bap)
        assert bap.patterns[0].annotation == alg.Var("l")

    def test_optional_trailing_filter_becomes_guard(self, data_dir):
        query = parse_query((data_dir / "queries" / "exx2.anql").read_text(), TEMPORAL)
        assert isinstance(query.pattern, alg.Optional)
        assert isinstance(query.pattern.filter, alg.AnnLeq)
        assert isinstance(query.pattern.right, alg.Bap)

    def test_annotation_constant_and_shorthand(self):
        query = parse_query(
            "SELECT ?x WHERE { (?x p ?y):{[2005,2011]} (?x q ?z):[2005] }", TEMPORAL
        )
        bap = query.pattern
        assert bap.patterns[0].annotation == TEMPORAL.parse("{[2005,2011]}")
        assert bap.patterns[1].annotation == TEMPORAL.parse("{[2005,2005]}")

    def test_filter_builtin_with_shorthand(self):
        query = parse_query(
            "SELECT ?comp WHERE { (chadHurley worksFor ?comp):?l FILTER(before(?l, [2005])) }",
            TEMPORAL,
        )
        expr = query.pattern.expr
        assert isinstance(expr, alg.BuiltinCall)
        assert expr.name == "before"
        assert expr.args[1] == TEMPORAL.parse("{[2005,2005]}")

    def test_unknown_builtin_rejected(self):
        with pytest.raises(ParseError):
            parse_query("SELECT ?x WHERE { (?x p ?y):?l FILTER(frobnicate(?l)) }", TEMPORAL)

    # A call must name a registered built-in and fit its parameters; the
    # error points at the name, wherever the call stands.
    BAD_CALLS = {
        "length(?l, ?l)": "length takes 1 argument, not 2",
        "maxlength()": "maxlength takes 1 argument, not 0",
        "isTEMPORAL(?l, ?l)": "isTEMPORAL takes 1 argument, not 2",
        "isFUZZY()": "isFUZZY takes 1 argument, not 0",
        "beforeAny(?l)": "beforeAny takes 2 arguments, not 1",
        "before(?l, ?l, ?l)": "before takes 2 arguments, not 3",
        "join()": "join takes at least 1 argument, not 0",
        "meet()": "meet takes at least 1 argument, not 0",
        "frobnicate(?l)": "unknown built-in 'frobnicate'",
        "select(?l)": "unknown built-in 'select'",
    }

    @pytest.mark.parametrize("call", BAD_CALLS)
    @pytest.mark.parametrize(
        "clause",
        ["FILTER({})", "FILTER(!({}))", "ASSIGN {} AS ?n", "GROUPBY(?x) SUM({}) AS ?n"],
    )
    def test_bad_call_is_reported_at_its_name(self, clause, call):
        text = f"SELECT ?x WHERE {{ (?x p ?y):?l\n  {clause.format(call)} }}"
        with pytest.raises(ParseError) as info:
            parse_query(text, TEMPORAL)
        column = text.index(call) - text.index("\n")
        assert str(info.value) == f"2:{column}: {self.BAD_CALLS[call]}"

    def test_calls_that_fit_their_parameters(self):
        parse_query("SELECT ?x WHERE { (?x p ?y):?l FILTER(beforeAny(?l, ?l)) }", TEMPORAL)
        for call in ("length(?l)", "join(?l)", "meet(?l, ?l, ?l)"):
            parse_query(f"SELECT ?x WHERE {{ (?x p ?y):?l ASSIGN {call} AS ?n }}", TEMPORAL)

    FUNCTION_CALLS = ("length(?l)", "maxlength(?l)", "join(?l, ?l)", "meet(?l)")

    @pytest.mark.parametrize("call", FUNCTION_CALLS)
    @pytest.mark.parametrize(
        "clause",
        [
            "FILTER({})",
            "FILTER(!{})",
            "FILTER(BOUND(?x) && {})",
            "FILTER({} || BOUND(?x))",
            "FILTER(({}))",
            "OPTIONAL {{ (?x q ?z):?m FILTER({}) }}",
        ],
    )
    def test_function_as_condition_is_reported_at_its_name(self, clause, call):
        # A value is no truth value, so no FILTER condition reads one.
        text = f"SELECT ?x WHERE {{ (?x p ?y):?l\n  {clause.format(call)} }}"
        with pytest.raises(ParseError) as info:
            parse_query(text, TEMPORAL)
        column = text.index(call) - text.index("\n")
        name = call.partition("(")[0]
        assert str(info.value) == (
            f"2:{column}: {name} is a function, not a test: "
            "FILTER cannot read it as a condition"
        )

    def test_whitespace_comments_and_escapes(self):
        plain = parse_query('SELECT ?x WHERE { ?x p "a\\nb" . ?x q "c\\\\" }', TEMPORAL)
        assert [tp.object for tp in plain.pattern.patterns] == [literal("a\nb"), literal("c\\")]
        # A backslash before a raw line break stands for the line break.
        spaced = parse_query(
            'SELECT\xa0?x\u2003WHERE\x0b{\x0c?x p "a\\\nb" # a comment\n'
            '  . ?x q "c\\\\" }',
            TEMPORAL,
        )
        assert spaced == plain

    def test_union_assign_groupby_modifiers(self):
        query = parse_query(
            """
            SELECT ?x ?n WHERE {
                {(?x p ?y):?l1} UNION {(?x q ?y):?l2}
                ASSIGN join(?l1, ?l2) AS ?l
                GROUPBY(?x) COUNT(?y) AS ?n
            } ORDERBY ?n LIMIT 5
            """,
            TEMPORAL,
        )
        assert query.order_by == alg.Var("n")
        assert query.limit == 5
        group = query.pattern
        assert isinstance(group, alg.GroupBy)
        assert group.keys == (alg.Var("x"),)
        assign = group.pattern
        assert isinstance(assign, alg.Assign)
        assert assign.fn == "join"
        assert isinstance(assign.pattern, alg.Union)

    def test_a_deep_group_is_refused_while_parsing(self):
        # The GROUPBY rule reads what the filters below it bind.  With its
        # Bap and the query's SubSelect, 350 filters are `MAX_DEPTH` levels.
        def text(filters: int) -> str:
            body = "FILTER(BOUND(?x)) " * filters
            return f"SELECT ?x WHERE {{ (?x p ?y):?l {body}GROUPBY(?x) COUNT(?y) AS ?n }}"

        group = parse_query(text(alg.MAX_DEPTH - 3), TEMPORAL).pattern
        assert isinstance(group, alg.GroupBy)
        assert group.bindings.can == {"x", "n"}
        for filters in (alg.MAX_DEPTH - 2, 2000):
            with pytest.raises(AnrdfError, match=f"query nested deeper than {alg.MAX_DEPTH} levels"):
                parse_query(text(filters), TEMPORAL)

    # Each opening token and a query that nests `n` levels deep, the
    # WHERE group's `{` the first of them.  (`TestDepthRule` in
    # `test_anql.py` evaluates each at the bound.)
    NESTINGS = {
        "{": lambda n: "SELECT ?x WHERE " + "{ " * n + "(?x p ?y):?l" + " }" * n,
        "(": lambda n: (
            "SELECT ?x WHERE { (?x p ?y):?l FILTER(" + "(" * (n - 1) + "?x = ?y" + ")" * n + " }"
        ),
    }

    @pytest.mark.parametrize("token", NESTINGS)
    def test_nesting_stops_one_level_past_the_bound(self, token):
        # The innermost opening crosses the bound, and the error is there.
        parse_query(self.NESTINGS[token](alg.MAX_DEPTH), TEMPORAL)
        deeper = self.NESTINGS[token](alg.MAX_DEPTH + 1)
        with pytest.raises(ParseError, match=f"nested deeper than {alg.MAX_DEPTH} levels") as info:
            parse_query(deeper, TEMPORAL)
        assert info.value.column == deeper.rindex(token) + 1

    @pytest.mark.parametrize("modifiers", ["", " ORDERBY ?x LIMIT 1"])
    def test_a_flat_filter_run_is_refused_at_its_352nd_filter(self, modifiers):
        # The query's SELECT, which applies its ORDERBY and LIMIT, is one
        # level over its pattern, so 351 FILTERs over their Bap are
        # `MAX_DEPTH` levels.  In a longer run the 352nd FILTER's node is
        # the first to reach the bound, and the error is at its keyword
        # (line 353), however long the run.
        def text(filters: int) -> str:
            body = "\n  FILTER(BOUND(?x))" * filters
            return f"SELECT ?x WHERE {{ (?x type ?c):?l{body}\n}}{modifiers}"

        assert parse_query(text(351), TEMPORAL).depth == alg.MAX_DEPTH
        for filters in (352, 353, 2000):
            with pytest.raises(ParseError, match=f"nested deeper than {alg.MAX_DEPTH} levels") as info:
                parse_query(text(filters), TEMPORAL)
            assert (info.value.line, info.value.column) == (353, 3)

    @staticmethod
    def condition(text: str) -> alg.FilterExpr:
        return parse_query(f"SELECT ?x WHERE {{ (?x p ?y):?l FILTER({text}) }}", TEMPORAL).pattern.expr

    def test_runs_of_and_and_or_are_balanced(self):
        a, b, c, d = (alg.Eq(alg.Var("x"), iri(name)) for name in "abcd")
        assert self.condition("?x = a || ?x = b || ?x = c") == alg.Or(alg.Or(a, b), c)
        assert self.condition("?x = a || ?x = b || ?x = c || ?x = d") == alg.Or(
            alg.Or(a, b), alg.Or(c, d)
        )
        assert self.condition("?x = a && ?x = b || ?x = c && !?x = d") == alg.Or(
            alg.And(a, b), alg.And(c, alg.Not(d))
        )
        assert self.condition(" || ".join(["?x = a"] * 1000)).depth == 11

    def test_a_run_of_negations_folds_by_parity(self):
        # `!` maps error to error, so `!!e` is `e`: a run of `!` is at most
        # one tree level, and no level of the parser's recursion.
        bound = alg.Bound(alg.Var("x"))
        assert self.condition("!" * 2000 + "BOUND(?x)") == bound
        assert self.condition("!" * 2001 + "BOUND(?x)") == alg.Not(bound)
        assert self.condition("!!?x != a") == alg.Not(alg.Eq(alg.Var("x"), iri("a")))

    def test_nested_select(self):
        query = parse_query(
            "SELECT ?x WHERE { (?x p ?y):?l SELECT ?x WHERE { (?x q ?z):?m } }",
            TEMPORAL,
        )
        assert isinstance(query.pattern, alg.Join)
        assert isinstance(query.pattern.right, alg.SubSelect)

    def test_case_insensitive_keywords(self):
        query = parse_query(
            "select ?x where { (?x p ?y):?l Optional{(?x q ?z):?m} } orderby ?x",
            TEMPORAL,
        )
        assert isinstance(query.pattern, alg.Optional)
        assert query.order_by == alg.Var("x")

    def test_provenance_literals_in_patterns_and_filters(self):
        prov = get_domain("provenance")
        query = parse_query(
            "SELECT ?x WHERE { (?x p ?y):(a ^ b) FILTER(?l <= (a v b)) }", prov
        )
        assert query.pattern.pattern.patterns[0].annotation == prov.parse("(a ^ b)")
        assert query.pattern.expr.right == prov.parse("(a v b)")

    def test_boolean_and_compound_labels(self):
        query = parse_query("SELECT ?x WHERE { (?x p ?y):true }", "boolean")
        assert query.pattern.patterns[0].annotation == get_domain("boolean").top
        compound = get_domain("compound(temporal,fuzzy:product)")
        query = parse_query(
            "SELECT ?x WHERE { (?x p ?y):{<{[1,2]},0.5>} }", compound
        )
        assert query.pattern.patterns[0].annotation == compound.parse("{<{[1,2]},0.5>}")

    @pytest.mark.parametrize(
        "bad",
        [
            "SELECT ?x WHERE { }",
            "SELECT WHERE { (?x p ?y):?l }",
            "WHERE { (?x p ?y):?l }",
            "SELECT ?x WHERE { (?x p ?y):?l",
            "SELECT ?x WHERE { (?x p):?l }",
            "SELECT ?x WHERE { (?x p ?y):{[5,1]} }",
            "SELECT ?x WHERE { ?x p _:b }",  # blank nodes are data-only
            "@prefixex: <http://e/> . SELECT ?x WHERE { ?x ex:p ?y }",
            # A sub-SELECT projects at least one variable, as a query does.
            "SELECT ?p WHERE { (?p type ?c):?l SELECT WHERE { (?x worksFor ?y):?m } }",
            "SELECT ?x WHERE { ?x p ?y # }",  # a comment runs to the end of the line
        ],
    )
    def test_syntax_errors(self, bad):
        with pytest.raises(ParseError):
            parse_query(bad, TEMPORAL)

    def test_parenthesised_pattern_without_label_names_both_forms(self):
        with pytest.raises(ParseError) as info:
            parse_query("SELECT ?p WHERE { (?p worksFor g) }", TEMPORAL)
        message = str(info.value)
        assert message.startswith("1:35: expected ':'")
        assert "(s p o):label" in message and "bare s p o" in message
        bare = parse_query("SELECT ?p WHERE { ?p worksFor g }", TEMPORAL)
        assert bare.pattern.patterns[0].annotation is None

    def test_missing_operand_at_end_of_input(self):
        with pytest.raises(ParseError) as info:
            parse_query("SELECT ?x WHERE { ?x p ?y FILTER(?x = ", TEMPORAL)
        assert str(info.value) == "1:39: expected an operand"

    # (column, message).  Annotation-literal errors point at the literal's
    # first character, as in the data format, also for filter and
    # assignment operands.
    ERROR_COLUMNS = {
        "SELECT ?x WHERE { (?x p ?y):{[2,1]} }": (29, "empty interval [2,1]"),
        "SELECT ?x WHERE { (?x p ?y):nonsense }": (29, "malformed temporal literal: 'nonsense'"),
        "SELECT ?x WHERE { (?x p ?y):{[1,2] ": (29, "unbalanced {"),
        "SELECT ?x WHERE { (?x p ?y): }": (30, "expected an annotation literal"),
        "SELECT ?x WHERE { (?x p ?y):?l FILTER(?l <= {[2,1]}) }": (45, "empty interval [2,1]"),
        "SELECT ?x WHERE { (?x p ?y):?l FILTER(before(?l, [5,1])) }": (50, "empty interval [5,1]"),
        "SELECT ?x WHERE { (?x p ?y):?l ASSIGN length([3,2]) AS ?n }": (46, "empty interval [3,2]"),
        # Both sides of `<=` and every built-in argument are labels.
        "SELECT ?x WHERE { (?x p ?y):?l FILTER(?l <= chad) }": (45, "malformed temporal literal: 'chad'"),
        'SELECT ?x WHERE { (?x p ?y):?l FILTER("a" <= ?l) }': (39, "expected an annotation literal"),
        "SELECT ?x WHERE { (?x p ?y):?l FILTER(isTEMPORAL(chad)) }": (
            50,
            "malformed temporal literal: 'chad'",
        ),
        "SELECT\xa0?x\u2003WHERE\x0b{\x0c(?x p ?y):{[2,1]} }": (29, "empty interval [2,1]"),
        # An unterminated string literal fails at its opening quote.
        'SELECT ?x WHERE { ?x p "abc\\': (24, "unterminated string literal"),
        'SELECT ?x WHERE { ?x p "ab\\" }': (24, "unterminated string literal"),
        # A control character inside <...> fails at that character.
        "SELECT ?s ?n WHERE { (<c\td> name ?n):?l }": (25, "control character U+0009 in an IRI"),
        "SELECT ?x WHERE { ?x p <a\nb> }": (26, "control character U+000A in an IRI"),
        "@prefix ex: <http://e\x0b/> . SELECT ?x WHERE { (?x ex:p ?y):?l }": (
            22,
            "control character U+000B in an IRI",
        ),
        # A bad call in a parenthesised filter is reported at its name.
        "SELECT ?x WHERE { (?x p ?y):?l FILTER((before(?l))) }": (40, "before takes 2 arguments, not 1"),
        "SELECT ?x WHERE { (?x p ?y):?l FILTER((length(?l))) }": (
            40,
            "length is a function, not a test: FILTER cannot read it as a condition",
        ),
        # `(?x)` followed by `=` is an annotation literal, which the
        # domain rejects at its `(`.
        "SELECT ?x WHERE { (?x p ?y):?l FILTER((?x) = ?y) }": (39, "malformed temporal literal: '(?x)'"),
        "SELECT ?x WHERE { ?x p ?y } ORDERBY x": (37, "expected ?variable"),
        "SELECT ?x WHERE { ?x p ?y } GROUP": (29, "expected ORDERBY, LIMIT, or end of query"),
        "SELECT ?x WHERE { ?x p ?y } LIMIT x": (35, "expected an integer"),
        "SELECT ?x WHERE ?x p ?y }": (17, "expected '{'"),
        "SELECT ?x WHERE { (?x p ?y):?l ASSIGN length(?l) ?n }": (50, "ASSIGN needs 'AS ?var'"),
        "SELECT ?x ?m WHERE { (?x p ?y):?l GROUPBY(?x) MAX(length(?l)) ?m }": (
            63,
            "aggregates need 'AS ?var'",
        ),
        # A number operand the scalar parser rejects.
        "SELECT ?x WHERE { (?x p ?y):?l FILTER(?x = 1/0) }": (44, "zero denominator: '1/0'"),
    }

    @pytest.mark.parametrize("bad", ERROR_COLUMNS)
    def test_errors_carry_positions(self, bad):
        with pytest.raises(ParseError) as info:
            parse_query(bad, TEMPORAL)
        column, message = self.ERROR_COLUMNS[bad]
        assert str(info.value) == f"1:{column}: {message}"

    def test_name_never_ends_in_a_dot(self):
        query = parse_query("SELECT ?x WHERE { ?x p c. ?x q ?z }", TEMPORAL)
        assert query.pattern.patterns[0].object == iri("c")
        prov = get_domain("provenance")
        query = parse_query("SELECT ?x WHERE { (?x p ?y):src. ?x q ?z }", prov)
        assert query.pattern.patterns[0].annotation == prov.parse("src")
        doc = parse_graph("(a p b) : src.\n", prov)
        assert doc.graph.get(Triple(iri("a"), iri("p"), iri("b"))) == prov.parse("src")

    def test_prefix_prologue(self):
        query = parse_query(
            "@prefix ex: <http://ex.org/> .\nSELECT ?x WHERE { (?x ex:p ex:o):?l }",
            TEMPORAL,
        )
        tp = query.pattern.patterns[0]
        assert tp.predicate == iri("http://ex.org/p")


class TestFilterGrammar:
    """The FILTER expression grammar, checked on the algebra it builds."""

    @staticmethod
    def expr(text: str, domain=TEMPORAL) -> alg.FilterExpr:
        query = parse_query(f"SELECT ?x WHERE {{ (?x p ?y):?l FILTER({text}) }}", domain)
        return query.pattern.expr

    x, y, l, m = alg.Var("x"), alg.Var("y"), alg.Var("l"), alg.Var("m")
    # A row whose constants are provenance formulas is parsed in that domain.
    TREES = {
        "!BOUND(?y)": alg.Not(alg.Bound(y)),
        "BOUND(?x) && BOUND(?y)": alg.And(alg.Bound(x), alg.Bound(y)),
        # && binds tighter than ||, and both associate to the left.
        "BOUND(?x) || BOUND(?y) && BOUND(?l)": alg.Or(
            alg.Bound(x), alg.And(alg.Bound(y), alg.Bound(l))
        ),
        "BOUND(?x) || BOUND(?y) || BOUND(?l)": alg.Or(
            alg.Or(alg.Bound(x), alg.Bound(y)), alg.Bound(l)
        ),
        "(BOUND(?x) || BOUND(?y)) && BOUND(?l)": alg.And(
            alg.Or(alg.Bound(x), alg.Bound(y)), alg.Bound(l)
        ),
        "!(isIRI(?y))": alg.Not(alg.IsKind(IRI, y)),
        "isIRI(?y)": alg.IsKind(IRI, y),
        "isBLANK(?y)": alg.IsKind(SKOLEM, y),
        "isLITERAL(?y)": alg.IsKind(LITERAL, y),
        "?x != ?y": alg.Not(alg.Eq(x, y)),
        "?y = 3": alg.Eq(y, Fraction(3)),
        "?y = -3/2": alg.Eq(y, Fraction(-3, 2)),
        # `true` is not a temporal literal, so it is a name here.
        "?y = true": alg.Eq(y, iri("true")),
        # Operators need no spaces around them.
        "?x = ?y || ?x != ?y && ?l <= ?l": alg.Or(
            alg.Eq(x, y), alg.And(alg.Not(alg.Eq(x, y)), alg.AnnLeq(l, l))
        ),
        "?x=?y||?x!=?y&&?l<=?l": alg.Or(
            alg.Eq(x, y), alg.And(alg.Not(alg.Eq(x, y)), alg.AnnLeq(l, l))
        ),
        # A `(` opens a group unless an operand and a comparison start there.
        "(a ^ b) <= ?l": alg.AnnLeq(PROVENANCE.parse("(a ^ b)"), l),
        "((a ^ b) <= ?l)": alg.AnnLeq(PROVENANCE.parse("(a ^ b)"), l),
        "(a v b) = ?l": alg.Eq(PROVENANCE.parse("(a v b)"), l),
        "((a v b) != ?l)": alg.Not(alg.Eq(PROVENANCE.parse("(a v b)"), l)),
        "((?x = ?y))": alg.Eq(x, y),
        "(?l <= ?m) && BOUND(?x)": alg.And(alg.AnnLeq(l, m), alg.Bound(x)),
        "([1,2] <= ?l) || !(?x = ?y)": alg.Or(
            alg.AnnLeq(TEMPORAL.parse("[1,2]"), l), alg.Not(alg.Eq(x, y))
        ),
    }

    @pytest.mark.parametrize("text", TREES)
    def test_tree(self, text):
        tree = self.TREES[text]
        domain = next((v.domain for v in alg.occurrences(tree, AnnotationValue)), TEMPORAL)
        assert self.expr(text, domain) == tree

    def test_unclosed_provenance_group(self):
        # The filter's `(` is never closed, so no comparison follows
        # `((a ^ b))` or `(a ^ b)`: both open groups, and `a` is an operand
        # with no comparison after it.
        with pytest.raises(ParseError) as info:
            parse_query("SELECT ?x WHERE { (?x p ?y):?l FILTER(((a ^ b)) }", PROVENANCE)
        assert str(info.value) == "1:43: expected a comparison operator"

    def test_true_is_a_literal_where_the_domain_has_one(self):
        boolean = get_domain("boolean")
        assert self.expr("?l = true", boolean) == alg.Eq(self.l, boolean.top)
        assert self.expr("?l = false", boolean) == alg.Eq(self.l, boolean.bottom)

    def test_bang_equals_needs_a_left_operand(self):
        with pytest.raises(ParseError, match="unexpected '!='"):
            self.expr("!= ?y")

    def test_combined_filter_evaluates(self, fig1_exx1_closure):
        query = parse_query(
            "SELECT ?p ?c WHERE { (?p hasCar ?c):?l FILTER("
            "isIRI(?c) && !isBLANK(?c) && !isLITERAL(?c) && ?c != renault"
            " || BOUND(?nowhere)) }",
            TEMPORAL,
        )
        rows = evaluate_query(fig1_exx1_closure, query)
        assert rows == [{"p": iri("toivo"), "c": iri("peugeot")}]


def bare_literal(rng: random.Random, domain) -> str | None:
    """An unbracketed literal the data format has always accepted, for
    the domains that have one besides their canonical form."""
    if domain.name == "temporal":
        return rng.choice(
            [
                "-inf",
                "+inf",
                f"{rng.randint(-9, 9)}/{rng.randint(1, 9)}",
                f"{rng.randint(-3000, 3000)}",
                f"+{rng.randint(0, 99)}.{rng.randint(0, 99)}",
            ]
        )
    if domain.name == "provenance":
        parts = [rng.choice(["_", "src", "a", "X1"])]
        parts += ["".join(rng.choice("ab_:-1") for _ in range(rng.randint(1, 3)))
                  for _ in range(rng.randint(0, 2))]
        return ".".join(parts)
    if domain.name.startswith("fuzzy"):
        den = rng.randint(1, 9)
        return f"{rng.randint(0, den)}/{den}"
    return None


class TestAnnotationLiteralToken:
    """A document and a query read the same annotation literal alike."""

    TRIPLE = Triple(iri("a"), iri("p"), iri("b"))

    @pytest.mark.parametrize("domain_id", ALL_DOMAIN_IDS)
    def test_data_and_query_read_the_same_value(self, domain_id):
        domain = get_domain(domain_id)
        rng = random.Random(7700)
        for _ in range(300):
            texts = [domain.value(domain.random_payload(rng)).serialize()]
            bare = bare_literal(rng, domain)
            if bare is not None:
                texts.append(bare)
            for text in texts:
                stored = parse_graph(f"(a p b) : {text} .", domain).graph.get(self.TRIPLE)
                query = parse_query(f"SELECT ?x WHERE {{ (?x p ?y):{text} }}", domain)
                label = query.pattern.patterns[0].annotation
                assert label == (domain.bottom if stored is None else stored), text


class TestAnswerSerialisation:
    VARS = (alg.Var("x"), alg.Var("l"), alg.Var("n"))

    def rows(self):
        from fractions import Fraction

        return [
            {"x": iri("toivo"), "l": TEMPORAL.parse("{[2002,2009]}"), "n": Fraction(7)},
            {"x": literal("free text")},
        ]

    def test_tsv(self):
        text = serialize_answers_tsv(self.VARS, self.rows())
        lines = text.splitlines()
        assert lines[0] == "?x\t?l\t?n"
        assert lines[1] == "toivo\t{[2002,2009]}\t7"
        assert lines[2] == '"free text"\t\t'

    # Every line break that str.splitlines() knows, with the characters
    # an escape could be confused with.
    @given(st.text(st.sampled_from([*"\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029", *'\t\\"u0Ba'])))
    def test_a_literal_stays_on_one_line_and_round_trips(self, text):
        term = literal(text)
        tsv = serialize_answers_tsv(self.VARS[:2], [{"x": term, "l": term}])
        assert [line.split("\t") for line in tsv.splitlines()] == [
            ["?x", "?l"], [format_term(term)] * 2
        ]
        graph = AnnotatedGraph(TEMPORAL)
        graph.insert(Triple(iri("a"), iri("p"), term), TEMPORAL.parse("[1,2]"))
        written = serialize_graph(graph)
        assert len(written.splitlines()) == 2
        assert dict(parse_graph(written).graph.statements()) == dict(graph.statements())

    def test_json(self):
        import json

        text = serialize_answers_json(self.VARS, self.rows())
        doc = json.loads(text)
        assert doc["vars"] == ["x", "l", "n"]
        assert doc["bindings"][0]["l"] == {
            "type": "annotation:temporal",
            "value": "{[2002,2009]}",
        }
        assert doc["bindings"][0]["n"] == {"type": "number", "value": "7"}
        assert doc["bindings"][1] == {"x": {"type": "literal", "value": "free text"}}

    def test_a_number_and_a_literal_with_its_digits_differ(self):
        import json

        rows = [{"x": literal("13")}, {"x": Fraction(13)}]
        assert serialize_answers_tsv(self.VARS[:1], rows).splitlines() == ["?x", '"13"', "13"]
        doc = json.loads(serialize_answers_json(self.VARS[:1], rows))
        assert [b["x"] for b in doc["bindings"]] == [
            {"type": "literal", "value": "13"},
            {"type": "number", "value": "13"},
        ]

    def test_a_value_of_no_answer_type_is_refused(self):
        with pytest.raises(TypeError) as err:
            format_value(True)
        assert str(err.value) == "cannot serialise binding True"
