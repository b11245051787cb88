"""AnQL evaluation: paper regressions and the operator algebra."""

from __future__ import annotations

import contextlib
import itertools
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from anrdf import closure, evaluate_query, get_domain, iri, parse_graph, parse_query
from anrdf.anql import algebra as alg
from anrdf.anql import engine
from anrdf.anql.rewrite import rewrite_defaults
from anrdf.anql.builtins import FUNCTIONS, UNBOUND, BuiltinError
from anrdf.anql.engine import (
    ERROR,
    FALSE,
    TRUE,
    _right_partitions,
    _signature,
    eval_pattern,
    filter_eval,
    meet_compatible,
    prune_maximal,
)
from anrdf.domains import AnnotationValue, compound
from anrdf.errors import (
    AnrdfError, DomainMismatchError, ParseError, QueryTypeError, SaturationBoundError
)
from anrdf.model import IRI, LITERAL, SKOLEM, TYPE, AnnotatedGraph, Term, Triple
from oracles import (
    _filter_value,
    exx2_oracle,
    prune_maximal_pairwise,
    random_crisp_graph,
    random_pattern,
    sparql_eval,
    top_annotated,
)

TEMPORAL = get_domain("temporal")
BOOLEAN = get_domain("boolean")


def tv(text: str):
    return TEMPORAL.parse(text)


def rows_as_set(rows):
    def freeze(value):
        return value.serialize() if hasattr(value, "serialize") else value

    return {tuple(sorted((k, freeze(v)) for k, v in row.items())) for row in rows}


def q(text: str, domain=TEMPORAL):
    return parse_query(text, domain)


def random_rows(rng: random.Random, x_bound: float = 0.8, x_term: float = 0.6) -> list[dict]:
    """Rows over keys x, y, l with small temporal annotations: key sets
    vary, a share `x_bound` of the rows binds x, to a term with chance
    `x_term` and else to an annotation, and some rows repeat earlier ones."""
    terms = [iri("a"), iri("b")]

    def annotation():
        start = rng.randint(0, 6)
        return tv(f"{{[{start},{start + rng.randint(0, 3)}]}}")

    rows: list[dict] = []
    for _ in range(rng.randint(0, 40)):
        if rows and rng.random() < 0.2:
            rows.append(dict(rng.choice(rows)))
            continue
        row: dict = {}
        if rng.random() < x_bound:
            row["x"] = rng.choice(terms) if rng.random() < x_term else annotation()
        if rng.random() < 0.5:
            row["y"] = rng.choice(terms)
        if rng.random() < 0.8:
            row["l"] = annotation()
        rows.append(row)
    return rows


class TestBap:
    def test_constant_annotation_matches_by_subsumption(self, fig1_closure):
        query = q("SELECT ?x WHERE { (chadHurley type googleEmp):{[2007,2008]} (?x worksFor google):{[2000,2001]} }")
        rows = evaluate_query(fig1_closure, query)
        assert rows_as_set(rows) == {
            (("x", Term("iri", "larryPage")),),
            (("x", Term("iri", "sergeyBrin")),),
        }

    def test_constant_annotation_too_large_fails(self, fig1_closure):
        query = q("SELECT ?x WHERE { (?x type googleEmp):{[1990,2010]} }")
        assert evaluate_query(fig1_closure, query) == []

    def test_empty_graph(self):
        empty = closure(AnnotatedGraph(TEMPORAL))
        query = q("SELECT ?x WHERE { (?x type googleEmp):?l }")
        assert evaluate_query(empty, query) == []

    def test_constant_only_bap_yields_one_empty_solution(self, fig1_closure):
        bap = alg.Bap(
            (
                alg.TriplePattern(
                    iri("chadHurley"), TYPE, iri("googleEmp"), tv("{[2007,2008]}")
                ),
            )
        )
        assert eval_pattern(fig1_closure, bap) == [{}]

    def test_annotation_variable_binds_stored_maximum(self, fig1_closure):
        query = q("SELECT ?l WHERE { (chadHurley type googleEmp):?l }")
        rows = evaluate_query(fig1_closure, query)
        assert [r["l"] for r in rows] == [tv("{[2006,2010]}")]

    def test_shared_annotation_variable_meets(self, fig1_closure):
        query = q(
            "SELECT ?l WHERE { (chadHurley type googleEmp):?l (steveChen type googleEmp):?l }"
        )
        rows = evaluate_query(fig1_closure, query)
        assert [r["l"] for r in rows] == [tv("{[2006,2010]}")]

    def test_join_order_independence(self, fig1_exx1_closure):
        base = [
            "(?p type ebayEmp):?l",
            "(?p hasCar ?c):?l2",
            "(?p type paypalEmp):?m",
        ]
        reference = None
        for perm in itertools.permutations(base):
            query = q("SELECT ?p ?c ?l ?l2 ?m WHERE { " + " . ".join(perm) + " }")
            got = rows_as_set(evaluate_query(fig1_exx1_closure, query))
            if reference is None:
                reference = got
            assert got == reference

    def test_repeated_variable_in_one_pattern(self):
        doc = parse_graph(
            "@domix temporal .\n(a loves a) : {[1,2]} .\n(a loves b) : {[1,2]} .\n"
        )
        closed = closure(doc.graph)
        rows = evaluate_query(closed, q("SELECT ?x WHERE { (?x loves ?x):?l }"))
        assert [r["x"] for r in rows] == [iri("a")]

    @pytest.fixture()
    def chain(self):
        doc = parse_graph(
            "@domix temporal .\n"
            "(a p b) : {[1,5]} .\n(b p c) : {[3,8]} .\n(c p d) : {[7,9]} .\n"
        )
        return closure(doc.graph)

    def test_variable_as_term_and_label_of_one_pattern(self, chain):
        assert evaluate_query(chain, q("SELECT ?y WHERE { (?w p ?y):?w }")) == []
        assert len(evaluate_query(chain, q("SELECT ?y WHERE { (?w p ?y):?l }"))) == 3

    @pytest.mark.parametrize(
        "first, second",
        [
            ("(a p ?y):?l", "(?l p ?z):?m"),  # an annotation, then a term slot
            ("(a p ?y):?l", "(b p ?z):?y"),  # a term, then an annotation slot
        ],
    )
    def test_variable_as_annotation_and_term_of_two_patterns(self, chain, first, second):
        # Each pattern matches on its own; together they bind one
        # variable to a term and to an annotation, so no row merges.
        assert evaluate_query(chain, q(f"SELECT ?y WHERE {{ {first} }}")) != []
        assert evaluate_query(chain, q(f"SELECT ?z WHERE {{ {second} }}")) != []
        assert evaluate_query(chain, q(f"SELECT ?y ?z WHERE {{ {first} {second} }}")) == []

    def test_a_term_and_label_clash_makes_no_lookup(self, chain, monkeypatch):
        # `bindings` records that ?l is both a label and a term, so the Bap
        # gives no rows before it matches its first pattern.
        calls = []
        original = AnnotatedGraph.match
        monkeypatch.setattr(
            AnnotatedGraph, "match", lambda graph, *key: calls.append(key) or original(graph, *key)
        )
        x, y, z, label = (alg.Var(name) for name in "xyzl")
        bap = alg.Bap(
            (alg.TriplePattern(x, iri("p"), y, label), alg.TriplePattern(label, iri("q"), z))
        )
        assert bap.bindings.terms & bap.bindings.labels == {"l"}
        assert eval_pattern(chain, bap) == []
        assert calls == []

    def test_a_pattern_that_reads_no_row_is_matched_once(self, monkeypatch):
        # `(?x type C7):?l . (?s ?p ?o):?m` is a cross product: the second
        # pattern reads no variable from the row, so every row makes the
        # same lookup, and one `match` serves them all.
        doc = parse_graph(
            "@domix temporal .\n"
            "(a type C7) : {[1,5]} .\n(b type C7) : {[2,9]} .\n"
            "(a p b) : {[3,4]} .\n(c q a) : {[1,1]} .\n"
        )
        closed = closure(doc.graph)
        c7 = iri("C7")
        x, s, p, o, l, m = (alg.Var(name) for name in "xspolm")
        bap = alg.Bap((alg.TriplePattern(x, TYPE, c7, l), alg.TriplePattern(s, p, o, m)))
        # The rows the per-row evaluation gave: each first-pattern row,
        # in `match` order, extended by every statement in (s, p, o) order.
        expected = [
            {"x": t.subject, "l": lv, "s": u.subject, "p": u.predicate, "o": u.object, "m": mv}
            for t, lv in closed.match(None, TYPE, c7)
            for u, mv in closed.statements()
        ]
        assert len(expected) == 2 * len(closed) > 0
        calls = []
        original = AnnotatedGraph.match

        def counting(graph, *key):
            calls.append(key)
            return original(graph, *key)

        monkeypatch.setattr(AnnotatedGraph, "match", counting)
        assert engine.eval_bap(closed, bap) == expected
        assert calls == [(None, TYPE, c7), (None, None, None)]

    def test_shared_annotation_variable_with_a_bottom_meet_drops_the_row(self, chain):
        met = q("SELECT ?z ?l WHERE { (a p ?y):?l (b p ?z):?l }")
        assert evaluate_query(chain, met) == [{"z": iri("c"), "l": tv("{[3,5]}")}]
        disjoint = q("SELECT ?z ?l WHERE { (a p ?y):?l (c p ?z):?l }")
        assert evaluate_query(chain, disjoint) == []


class TestOptionalExamples:
    EXX1_EXPECTED = {
        (("l", "{[2002,2009]}"), ("p", Term("iri", "toivo"))),
        (
            ("c", Term("iri", "peugeot")),
            ("l", "{[2002,2005]}"),
            ("p", Term("iri", "toivo")),
        ),
        (
            ("c", Term("iri", "renault")),
            ("l", "{[2005,2009]}"),
            ("p", Term("iri", "toivo")),
        ),
    }

    def test_exx1_minimal_dataset_exact(self, exx1_minimal_closure, data_dir):
        query = q((data_dir / "queries" / "exx1.anql").read_text())
        rows = evaluate_query(exx1_minimal_closure, query)
        assert rows_as_set(rows) == self.EXX1_EXPECTED

    def test_exx1_full_dataset_toivo_rows(self, fig1_exx1_closure, data_dir):
        # Over the full Figure-1 data the same three rows appear for
        # toivo; the other Ebay employees surface as extra bare rows.
        query = q((data_dir / "queries" / "exx1.anql").read_text())
        rows = evaluate_query(fig1_exx1_closure, query)
        toivo = {r for r in rows_as_set(rows) if ("p", Term("iri", "toivo")) in r}
        assert toivo == self.EXX1_EXPECTED

    def test_exx2_matches_the_formal_semantics_oracle(
        self, fig1_exx1_closure, data_dir
    ):
        query = q((data_dir / "queries" / "exx2.anql").read_text())
        rows = evaluate_query(fig1_exx1_closure, query)
        oracle = exx2_oracle(fig1_exx1_closure)
        assert rows_as_set(rows) == rows_as_set(oracle)
        # The filter admits no car row on this data, so each employee
        # keeps only the bare row; the paper's printed second answer
        # (toivo with the renault) contradicts its own order check.
        assert rows_as_set(rows) == {
            (("l", "{[2002,2009]}"), ("p", Term("iri", "toivo"))),
            (("l", "{[2002,2005]}"), ("p", Term("iri", "jawedKarim"))),
            (("l", "{[2002,2005]}"), ("p", Term("iri", "chadHurley"))),
        }

    def test_optional_without_match_passes_left_row(self, fig1_closure):
        query = q("SELECT ?p ?c WHERE { (?p worksFor google):?l OPTIONAL{(?p hasCar ?c):?l} }")
        rows = evaluate_query(fig1_closure, query)
        assert rows_as_set(rows) == {
            (("p", Term("iri", "larryPage")),),
            (("p", Term("iri", "sergeyBrin")),),
        }

    def test_optional_shrink_rule_requires_shared_annotation(self):
        # With distinct annotation variables nothing "shrinks", so a
        # matched OPTIONAL suppresses the bare row (classical join).
        doc = parse_graph(
            "@domix temporal .\n(p type c) : {[1,9]} .\n(p hasCar car) : {[2,3]} .\n"
        )
        closed = closure(doc.graph)
        rows = evaluate_query(
            closed, q("SELECT ?p ?c WHERE { (?p type c):?l OPTIONAL{(?p hasCar ?c):?l2} }")
        )
        assert rows_as_set(rows) == {
            (("c", Term("iri", "car")), ("p", Term("iri", "p"))),
        }

    @staticmethod
    def _cars(statements: str, optional: str):
        doc = parse_graph("@domix temporal .\n" + statements)
        query = q(f"SELECT ?p ?l ?c WHERE {{ (?p type emp):?l OPTIONAL {{{optional}}} }}")
        return rows_as_set(evaluate_query(closure(doc.graph), query))

    def test_bare_row_passes_only_when_every_shared_annotation_shrinks(self):
        # p1's car outlasts the employment, so the merged row keeps p1's
        # annotation and no bare p1 row may follow it; p2's car shrinks
        # it, so the bare p2 row passes.
        rows = self._cars(
            "(p1 type emp) : {[2000,2010]} .\n(p1 hasCar c1) : {[1990,2020]} .\n"
            "(p2 type emp) : {[2000,2010]} .\n(p2 hasCar c2) : {[2005,2006]} .\n",
            "(?p hasCar ?c):?l",
        )
        assert rows == {
            (("c", Term("iri", "c1")), ("l", "{[2000,2010]}"), ("p", Term("iri", "p1"))),
            (("c", Term("iri", "c2")), ("l", "{[2005,2006]}"), ("p", Term("iri", "p2"))),
            (("l", "{[2000,2010]}"), ("p", Term("iri", "p2"))),
        }

    def test_bare_row_needs_every_shrinking_row_to_pass_the_filter(self):
        # Both cars shrink p1's annotation, but c2 fails the filter, so
        # neither pass-through case holds and only the c1 row remains.
        rows = self._cars(
            "(p1 type emp) : {[2000,2010]} .\n(p1 hasCar c1) : {[2005,2006]} .\n"
            "(p1 hasCar c2) : {[2004,2007]} .\n",
            "(?p hasCar ?c):?l FILTER(?c = c1)",
        )
        assert rows == {
            (("c", Term("iri", "c1")), ("l", "{[2005,2006]}"), ("p", Term("iri", "p1"))),
        }

    def test_bare_row_needs_every_shared_annotation_to_shrink(self):
        # The car shrinks ?l but leaves ?m as it was, so case (2) fails
        # and only the merged row remains.
        doc = parse_graph(
            "@domix temporal .\n(p type emp) : {[2000,2010]} .\n(p worksAt o) : {[2000,2010]} .\n"
            "(p hasCar c) : {[2005,2006]} .\n(c madeIn y) : {[1990,2020]} .\n"
        )
        query = q(
            "SELECT ?p ?c ?l ?m WHERE { (?p type emp):?l (?p worksAt ?o):?m"
            " OPTIONAL { (?p hasCar ?c):?l (?c madeIn ?y):?m } }"
        )
        assert rows_as_set(evaluate_query(closure(doc.graph), query)) == {
            (
                ("c", Term("iri", "c")),
                ("l", "{[2005,2006]}"),
                ("m", "{[2000,2010]}"),
                ("p", Term("iri", "p")),
            ),
        }

    @pytest.mark.parametrize(
        "guard, count",
        [("?c = ?nope", 10), ("!(?c = ?c)", 12), ("!!(?c = ?nope)", 10), ("!!!(?c = ?c)", 12)],
    )
    def test_guard_verdicts_on_every_compatible_right_row(self, fig1_exx1_closure, guard, count):
        # toivo owns the only car.  A guard that is an error for each of
        # his right rows satisfies neither pass-through case, so his bare
        # rows go too; a guard that is false for each keeps them.
        query = q(
            "SELECT ?p ?t ?c WHERE { (?p type ?t):?l "
            f"OPTIONAL {{ (?p hasCar ?c):?l2 FILTER({guard}) }} }}"
        )
        rows = evaluate_query(fig1_exx1_closure, query)
        assert len(rows) == count
        assert not any("c" in row for row in rows)
        assert any(row["p"].lexical == "toivo" for row in rows) == (count == 12)

    @pytest.mark.parametrize(
        "filters, expected",
        [
            ("FILTER(BOUND(?y)) FILTER(BOUND(?z))", [{"x": iri("a")}]),
            ("FILTER(BOUND(?y) && BOUND(?z))", [{"x": iri("a"), "z": iri("d")}]),
        ],
        ids=["two-filters", "one-conjunction"],
    )
    def test_only_the_last_filter_of_an_optional_group_is_its_guard(self, filters, expected):
        # The guard sees the outer ?y; an earlier FILTER filters the
        # optional's own rows, where ?y is unbound, so none are left.
        graph = closure(parse_graph("@domix temporal .\n(a p c) : {[0,10]} .\n(a q d) : {[0,5]} .\n").graph)
        query = q(f"SELECT ?x ?z WHERE {{ (?x p ?y):?l OPTIONAL {{(?x q ?z):?m {filters}}} }}")
        assert evaluate_query(graph, query) == expected


class TestConstraintsAndUnions:
    def test_no_submaximal_split_answers(self, fig1_closure):
        # Asking twice about youtube employees yields only maximal
        # annotations; no row splits an interval to satisfy a later
        # comparison.
        query = q(
            "SELECT ?p ?l1 ?l2 WHERE { (?p type youtubeEmp):?l1 . (steveChen type youtubeEmp):?l2 }"
        )
        rows = evaluate_query(fig1_closure, query)
        values = {
            (r["p"].lexical, r["l1"].serialize(), r["l2"].serialize()) for r in rows
        }
        assert values == {
            ("steveChen", "{[2005,2011]}", "{[2005,2011]}"),
            ("chadHurley", "{[2005,2010]}", "{[2005,2011]}"),
            ("jawedKarim", "{[2005,2011]}", "{[2005,2011]}"),
        }
        # Projecting the employee away afterwards keeps only rows that
        # are maximal among themselves.
        projected = evaluate_query(
            fig1_closure,
            q(
                "SELECT ?l1 ?l2 WHERE { (?p type youtubeEmp):?l1 . (steveChen type youtubeEmp):?l2 }"
            ),
        )
        assert {(r["l1"].serialize(), r["l2"].serialize()) for r in projected} == {
            ("{[2005,2011]}", "{[2005,2011]}")
        }

    def test_union_treats_shared_variable_per_branch(self, fig1_closure):
        query = q(
            "SELECT ?l WHERE { {(chadHurley type youtubeEmp):?l} UNION {(chadHurley type paypalEmp):?l} }"
        )
        rows = evaluate_query(fig1_closure, query)
        assert rows_as_set(rows) == {
            (("l", "{[2005,2010]}"),),
            (("l", "{[2002,2005]}"),),
        }

    def test_union_of_annotations_idiom(self, fig1_closure):
        query = q(
            "SELECT ?l WHERE { {(chadHurley type youtubeEmp):?l1} UNION "
            "{(chadHurley type paypalEmp):?l2} ASSIGN join(?l1, ?l2) AS ?l }"
        )
        rows = evaluate_query(fig1_closure, query)
        assert rows_as_set(rows) == {
            (("l", "{[2005,2010]}"),),
            (("l", "{[2002,2005]}"),),
        }

    def test_union_branch_with_no_answers(self, fig1_closure):
        query = q(
            "SELECT ?l WHERE { {(chadHurley type youtubeEmp):?l} UNION {(nobody type nothing):?l} }"
        )
        rows = evaluate_query(fig1_closure, query)
        assert [r["l"] for r in rows] == [tv("{[2005,2010]}")]


class TestAssign:
    def test_length(self, data_dir, fig1_exx1_closure):
        query = q(
            "SELECT ?p ?z WHERE { (?p type ebayEmp):?l ASSIGN length(?l) AS ?z }"
        )
        rows = evaluate_query(fig1_exx1_closure, query)
        by_name = {r["p"].lexical: r["z"] for r in rows}
        assert by_name["toivo"] == 7
        assert by_name["jawedKarim"] == 3

    def test_meet_with_constant(self, fig1_closure, data_dir):
        query = q((data_dir / "queries" / "google_2002_2011.anql").read_text())
        rows = evaluate_query(fig1_closure, query)
        assert rows_as_set(rows) == {
            (("x", Term("iri", "larryPage")), ("z", "{[2002,2011]}")),
            (("x", Term("iri", "sergeyBrin")), ("z", "{[2002,2011]}")),
        }

    def test_reassignment_replaces(self, fig1_closure):
        query = q(
            "SELECT ?l WHERE { (chadHurley type googleEmp):?l "
            "ASSIGN meet(?l, {[2006,2007]}) AS ?l }"
        )
        rows = evaluate_query(fig1_closure, query)
        assert [r["l"] for r in rows] == [tv("{[2006,2007]}")]

    def test_error_drops_solution(self, fig1_closure):
        # ceo sp worksFor has unbounded length
        query = q(
            "SELECT ?p ?q ?z WHERE { (?p sp ?q):?l ASSIGN length(?l) AS ?z }"
        )
        assert evaluate_query(fig1_closure, query) == []

    def test_bottom_value_drops_the_row(self, fig1_exx1_closure):
        # Only toivo's ebayEmp interval reaches 2008; the other meets are
        # bottom, which no annotation variable holds.
        query = q("SELECT ?p ?z WHERE { (?p type ebayEmp):?l ASSIGN meet(?l, [2008]) AS ?z }")
        rows = evaluate_query(fig1_exx1_closure, query)
        assert rows == [{"p": iri("toivo"), "z": tv("{[2008,2008]}")}]

    def test_maxlength(self, data_dir):
        doc = parse_graph((data_dir / "fig1_interval_sets.anrdf").read_text())
        closed = closure(doc.graph)
        query = q(
            "SELECT ?z WHERE { (toivo type paypalEmp):?l ASSIGN maxlength(?l) AS ?z }"
        )
        rows = evaluate_query(closed, query)
        assert [r["z"] for r in rows] == [tv("{[1999,2004]}")]

    def test_maxlength_of_an_unbounded_interval_drops_the_row(self):
        doc = parse_graph(
            "@domix temporal .\n(a p x) : {[2000,+inf]} .\n(b p x) : {[1,3],[7,20]} .\n"
        )
        with pytest.raises(BuiltinError, match="^maxlength undefined for unbounded interval$"):
            FUNCTIONS["maxlength"](tv("{[2000,+inf]}"))
        query = q("SELECT ?s ?m WHERE { (?s p x):?l ASSIGN maxlength(?l) AS ?m }")
        assert evaluate_query(closure(doc.graph), query) == [{"s": iri("b"), "m": tv("{[7,20]}")}]

    @pytest.mark.parametrize(
        "call, args, message",
        [
            ("join(?u, ?v)", (UNBOUND, UNBOUND), "join needs at least one bound argument"),
            ("meet(?u, ?v)", (UNBOUND, UNBOUND), "meet needs at least one bound argument"),
            ("join(?s, ?l)", (iri("a"), tv("{[1,5]}")), "join expects annotation values"),
            ("meet(?l, ?s)", (tv("{[1,5]}"), iri("a")), "meet expects annotation values"),
        ],
    )
    def test_join_and_meet_errors_drop_the_row(self, call, args, message):
        # Every argument unbound, or a term argument, is a built-in error,
        # and ASSIGN drops a row whose call fails.
        with pytest.raises(BuiltinError, match=f"^{message}$"):
            FUNCTIONS[call.split("(")[0]](*args)
        doc = parse_graph("@domix temporal .\n(a p b) : {[1,5]} .\n")
        query = q(f"SELECT ?s ?j WHERE {{ (?s p ?o):?l ASSIGN {call} AS ?j }}")
        assert evaluate_query(closure(doc.graph), query) == []

    @pytest.mark.parametrize("call", ["isTEMPORAL(?l)", "before(?l, [2005])"])
    def test_a_test_cannot_be_assigned(self, call):
        # A predicate yields a truth value, which no answer cell can hold;
        # the parser rejects it at the call's name.
        name = call.split("(")[0]
        text = f"SELECT ?x ?t WHERE {{ (?x type ?c):?l ASSIGN {call} AS ?t }}"
        with pytest.raises(ParseError, match=rf"^1:45: {name} is a test.* \?t$"):
            q(text)

    def test_a_test_cannot_be_assigned_over_no_rows(self, fig1_exx1_closure):
        # Rejected before evaluation, so whatever the data.
        pattern = "(?x noSuchProperty ?c):?l"
        assert evaluate_query(fig1_exx1_closure, q(f"SELECT ?x WHERE {{ {pattern} }}")) == []
        text = f"SELECT ?x ?t WHERE {{ {pattern} ASSIGN isTEMPORAL(?l) AS ?t }}"
        with pytest.raises(ParseError, match=r"^1:55: isTEMPORAL is a test.* \?t$"):
            q(text)

    def test_a_hand_built_assign_of_a_test_raises(self, fig1_exx1_closure):
        # Only FUNCTIONS can be assigned, so a test never binds a bool.
        pattern = alg.Assign(
            q("SELECT ?x WHERE { (?x type ?c):?l }").pattern,
            "isTEMPORAL", (alg.Var("l"),), alg.Var("t"),
        )
        with pytest.raises(KeyError, match="isTEMPORAL"):
            evaluate_query(fig1_exx1_closure, alg.SubSelect((alg.Var("t"),), pattern))


class TestAggregateOfATest:
    @pytest.mark.parametrize(
        "op, call, column", [("COUNT", "before(?l, [2007])", 56), ("MAX", "isTEMPORAL(?l)", 54)]
    )
    def test_a_test_cannot_be_aggregated(self, op, call, column):
        # COUNT would count False rows and MAX would drop every group; the
        # parser rejects the test at the call's name.
        name = call.split("(")[0]
        text = f"SELECT ?c ?n WHERE {{ (?x type ?c):?l GROUPBY(?c) {op}({call}) AS ?n }}"
        message = rf"^1:{column}: {name} is a test, not a function: {op} cannot aggregate it into \?n$"
        with pytest.raises(ParseError, match=message):
            q(text)

    def test_a_hand_built_aggregate_of_a_test_raises(self, fig1_exx1_closure):
        pattern = alg.GroupBy(
            q("SELECT ?c WHERE { (?x type ?c):?l }").pattern,
            (alg.Var("c"),),
            (alg.Aggregate("COUNT", "isTEMPORAL", (alg.Var("l"),), alg.Var("n")),),
        )
        with pytest.raises(KeyError, match="isTEMPORAL"):
            evaluate_query(fig1_exx1_closure, alg.SubSelect((alg.Var("n"),), pattern))


class TestGroupBy:
    @pytest.fixture()
    def lengths_graph(self):
        doc = parse_graph(
            "@domix temporal .\n"
            "(x worksFor y1) : {[0,3]} .\n"
            "(x worksFor y2) : {[10,15]} .\n"
            "(z worksFor y1) : {[4,6]} .\n"
        )
        return closure(doc.graph)

    def test_average_length(self, lengths_graph, data_dir):
        query = q((data_dir / "queries" / "avg_employment.anql").read_text())
        rows = evaluate_query(lengths_graph, query)
        by_name = {r["x"].lexical: r["avgL"] for r in rows}
        assert by_name == {"x": 4, "z": 2}

    def test_count(self, lengths_graph):
        query = q(
            "SELECT ?x ?n WHERE { (?x worksFor ?y):?l GROUPBY(?x) COUNT(?y) AS ?n }"
        )
        rows = evaluate_query(lengths_graph, query)
        assert {r["x"].lexical: r["n"] for r in rows} == {"x": 2, "z": 1}

    def test_join_aggregate(self, lengths_graph):
        query = q(
            "SELECT ?x ?all WHERE { (?x worksFor ?y):?l GROUPBY(?x) JOIN(?l) AS ?all }"
        )
        rows = evaluate_query(lengths_graph, query)
        values = {r["x"].lexical: r["all"].serialize() for r in rows}
        assert values == {"x": "{[0,3],[10,15]}", "z": "{[4,6]}"}

    def test_empty_key_list_is_one_group(self, lengths_graph):
        query = q(
            "SELECT ?n WHERE { (?x worksFor ?y):?l GROUPBY() COUNT(?x) AS ?n }"
        )
        rows = evaluate_query(lengths_graph, query)
        assert [r["n"] for r in rows] == [3]

    def test_sum_type_mismatch_drops_group(self, lengths_graph):
        query = q(
            "SELECT ?x ?s WHERE { (?x worksFor ?y):?l GROUPBY(?x) SUM(?y) AS ?s }"
        )
        diagnostics: list[str] = []
        rows = eval_pattern(lengths_graph, query.pattern, diagnostics)
        assert rows == []
        assert any("SUM" in d for d in diagnostics)

    @pytest.mark.parametrize(
        "op, names, expected",
        [
            ("MAX", ['"b"', '"ab"', '"c"'], '"c"'),
            ("MIN", ['"b"', '"ab"', '"c"'], '"ab"'),
            ("MAX", ['"b"', "c"], None),
        ],
    )
    def test_max_min_order_literals_by_lexical(self, op, names, expected):
        doc = parse_graph(
            "@domix temporal .\n" + "".join(f"(x name {n}) : {{[0,3]}} .\n" for n in names)
        )
        query = q(f"SELECT ?x ?m WHERE {{ (?x name ?n):?l GROUPBY(?x) {op}(?n) AS ?m }}")
        diagnostics: list[str] = []
        rows = eval_pattern(closure(doc.graph), query.pattern, diagnostics)
        if expected is None:  # an IRI among the values: not totally ordered
            assert rows == [] and any("not totally ordered" in d for d in diagnostics)
        else:
            assert [repr(r["m"]) for r in rows] == [expected]

    def test_meet_to_bottom_drops_group(self):
        # As in ASSIGN, an aggregate never binds bottom.
        doc = parse_graph("@domix temporal .\n(a p b) : {[1,2]} .\n(a p c) : {[3,4]} .\n")
        query = q("SELECT ?s ?z WHERE { (?s p ?o):?l GROUPBY(?s) MEET(?l) AS ?z }")
        diagnostics: list[str] = []
        assert evaluate_query(closure(doc.graph), query, diagnostics) == []
        assert diagnostics == ["MEET: bottom in group ?s=a; group dropped"]

    @pytest.mark.parametrize(
        "aggregate, expected, diagnostics",
        [
            ("MAX(?zz)", [], ["MAX: no defined values in group ?s=a; group dropped"]),
            ("SUM(?o)", [], ["SUM: non-numeric value in group ?s=a; group dropped"]),
            ("AVG(?l)", [], ["AVG: non-numeric value in group ?s=a; group dropped"]),
            ("JOIN(?o)", [], ["JOIN: non-annotation value in group ?s=a; group dropped"]),
            (
                "MEET(length(?l))",
                [],
                ["MEET: non-annotation value in group ?s=a; group dropped"],
            ),
            ("COUNT(?zz)", [{"s": iri("a"), "z": Fraction(0)}], []),
        ],
    )
    def test_aggregate_diagnostics(self, aggregate, expected, diagnostics):
        doc = parse_graph("@domix temporal .\n(a p b) : {[1,2]} .\n(a p c) : {[3,4]} .\n")
        query = q(f"SELECT ?s ?z WHERE {{ (?s p ?o):?l GROUPBY(?s) {aggregate} AS ?z }}")
        seen: list[str] = []
        assert evaluate_query(closure(doc.graph), query, seen) == expected
        assert seen == diagnostics

    @pytest.mark.parametrize(
        "keys, group",
        [
            # Each key is written as its answer cell writes it.
            ("?s", " ?s=a"),  # a term as a query spells it
            ("?n", " ?n=1.5"),  # a number as `format_scalar` writes it
            ("?l", " ?l={[1,2]}"),  # an annotation as its domain's literal
            ("?s ?n", " ?s=a ?n=1.5"),
            ("?i", " ?i=<http://ex.org/a>"),  # an IRI no bare name spells
            ("?t", ' ?t="x\\ty"'),  # a literal's tab escaped, as a query reads it
            ("?s ?s", " ?s=a"),  # a repeated key named once
            ("", ""),  # one group, with no key to name
        ],
    )
    def test_a_diagnostic_names_its_group(self, keys, group):
        doc = parse_graph("@domix temporal .\n(a p b) : {[1,2]} .\n")
        query = q(
            "SELECT ?z WHERE { (?s p ?o):?l ASSIGN 3/2 AS ?n ASSIGN <http://ex.org/a> AS ?i"
            f' ASSIGN "x\\ty" AS ?t GROUPBY({keys}) MAX(?zz) AS ?z }}'
        )
        seen: list[str] = []
        assert evaluate_query(closure(doc.graph), query, seen) == []
        assert seen == [f"MAX: no defined values in group{group}; group dropped"]

    def test_an_unknown_aggregate_is_refused(self, lengths_graph):
        # Only an API-built query can name one; the parser reads none.
        s, y, z = alg.Var("s"), alg.Var("y"), alg.Var("z")
        bap = alg.Bap((alg.TriplePattern(s, iri("worksFor"), y, alg.Var("l")),))
        group = alg.GroupBy(bap, (s,), (alg.Aggregate("FOO", "", (y,), z),))
        with pytest.raises(QueryTypeError) as err:
            evaluate_query(lengths_graph, alg.SubSelect((s, z), group))
        assert str(err.value) == "unknown aggregate 'FOO'"

    def test_a_target_already_computed_does_not_name_the_group(self):
        # ?k is a key no row binds, so COUNT may target it.
        doc = parse_graph("@domix temporal .\n(a p b) : {[1,2]} .\n")
        query = q("SELECT ?s WHERE { (?s p ?o):?l GROUPBY(?s ?k) COUNT(?o) AS ?k MAX(?zz) AS ?z }")
        seen: list[str] = []
        assert evaluate_query(closure(doc.graph), query, seen) == []
        assert seen == ["MAX: no defined values in group ?s=a; group dropped"]

    @pytest.mark.parametrize(
        "aggregate, kept, written",
        [("COUNT(?o)", 2, 0), ("MAX(length(?l))", 1, 1)],  # b's interval is unbounded
    )
    def test_only_a_dropped_group_writes_its_keys(self, monkeypatch, aggregate, kept, written):
        doc = parse_graph("@domix temporal .\n(a p c) : {[1,2]} .\n(b p c) : {[3,+inf]} .\n")
        query = q(f"SELECT ?s ?z WHERE {{ (?s p ?o):?l GROUPBY(?s) {aggregate} AS ?z }}")
        calls = []
        monkeypatch.setattr(engine, "format_value", lambda v: calls.append(v) or repr(v))
        assert len(evaluate_query(closure(doc.graph), query, [])) == kept
        assert len(calls) == written

    def test_saturation_cap_is_not_a_domain_mismatch(self, monkeypatch):
        doc = parse_graph(
            "@domix compound(temporal,provenance) .\n"
            "(s p a) : {<[1,2],x>} .\n(s p b) : {<[3,4],y>} .\n"
        )
        closed = closure(doc.graph)
        monkeypatch.setattr(compound, "_FAST_SATURATE_CAP", 1)
        query = q("SELECT ?s ?j WHERE { (?s p ?o):?l GROUPBY(?s) JOIN(?l) AS ?j }", doc.domain)
        with pytest.raises(SaturationBoundError):
            evaluate_query(closed, query)

    def test_target_collision_rejected(self):
        text = "SELECT ?x WHERE { (?x worksFor ?y):?l GROUPBY(?x) COUNT(?y) AS ?l }"
        with pytest.raises(ParseError, match=r"^1:64: aggregate target \?l already occurs"):
            q(text)

    @pytest.mark.parametrize(
        "pattern",
        [
            "(?x worksFor ?y):?l OPTIONAL { (?x hasCar ?n):?m }",
            "{ (?x worksFor ?y):?l } UNION { (?x hasCar ?n):?m }",
            "(?x worksFor ?y):?l ASSIGN length(?l) AS ?n",
        ],
    )
    def test_target_bound_below_any_operator_rejected(self, pattern):
        text = f"SELECT ?x WHERE {{ {pattern} GROUPBY(?x) COUNT(?y) AS ?n }}"
        with pytest.raises(ParseError, match=r"target \?n already occurs") as caught:
            q(text)
        assert caught.value.column == text.index("?n }") + 1

    @pytest.mark.parametrize(
        "pattern",
        [
            "SELECT ?x ?y WHERE { (?x worksFor ?y):?n }",
            "(?x worksFor ?y):?l FILTER(!BOUND(?n))",
        ],
    )
    def test_target_the_pattern_cannot_bind_accepted(self, lengths_graph, pattern):
        # A sub-SELECT projects ?n away; a FILTER mentions it but binds nothing.
        query = q(f"SELECT ?x ?n WHERE {{ {pattern} GROUPBY(?x) COUNT(?y) AS ?n }}")
        counts = {row["x"].lexical: row["n"] for row in evaluate_query(lengths_graph, query)}
        assert counts == {"x": 2, "z": 1}

    def test_key_used_as_argument_rejected(self):
        text = "SELECT ?x WHERE { (?x worksFor ?y):?l GROUPBY(?x) COUNT(?x) AS ?n }"
        with pytest.raises(ParseError, match=r"^1:57: aggregate argument \?x is a grouping key"):
            q(text)


class TestModifiers:
    def test_orderby_numeric(self, fig1_exx1_closure):
        query = q(
            "SELECT ?p ?z WHERE { (?p type ebayEmp):?l ASSIGN length(?l) AS ?z "
            "ORDERBY ?z }"
        )
        rows = evaluate_query(fig1_exx1_closure, query)
        assert [r["z"] for r in rows] == sorted(r["z"] for r in rows)

    def test_orderby_annotation_linearisation(self, fig1_exx1_closure):
        query = q("SELECT ?p ?l WHERE { (?p type ebayEmp):?l ORDERBY ?l }")
        rows = evaluate_query(fig1_exx1_closure, query)
        keys = [r["l"].sort_key() for r in rows]
        assert keys == sorted(keys)

    def test_orderby_fuzzy_labels_by_degree(self):
        doc = parse_graph(
            "@domix fuzzy:min .\n(a p x) : 0.5 .\n(b p x) : 1 .\n(c p x) : 0.25 .\n(d p x) : 0.75 .\n"
        )
        query = q("SELECT ?s ?l WHERE { (?s p x):?l } ORDERBY ?l", doc.domain)
        rows = evaluate_query(closure(doc.graph), query)
        assert [(r["s"].lexical, r["l"].serialize()) for r in rows] == [
            ("c", "0.25"), ("a", "0.5"), ("d", "0.75"), ("b", "1"),
        ]

    def test_orderby_provenance_labels_by_clause_count_then_text(self):
        doc = parse_graph(
            "@domix provenance .\n(a p x) : (s1 v s2) .\n(b p x) : s2 .\n"
            "(c p x) : (s1 ^ s3) .\n(d p x) : s1 .\n(e p x) : (s3 v (s1 ^ s2)) .\n"
        )
        query = q("SELECT ?s ?l WHERE { (?s p x):?l } ORDERBY ?l", doc.domain)
        rows = evaluate_query(closure(doc.graph), query)
        assert [(r["s"].lexical, r["l"].serialize()) for r in rows] == [
            ("c", "(s1 ^ s3)"), ("d", "s1"), ("b", "s2"), ("a", "(s1 v s2)"),
            ("e", "(s3 v (s1 ^ s2))"),
        ]

    def test_orderby_compound_labels_by_pair_count_then_text(self):
        doc = parse_graph(
            "@domix compound(temporal,provenance) .\n"
            "(a p x) : {<{[1,5]},s1>,<{[3,8]},s2>} .\n(b p x) : {<{[2,4]},s2>} .\n"
            "(c p x) : {<{[1,9]},s1>} .\n(d p x) : {<{[1,2]},s3>,<{[5,6]},s3>} .\n"
        )
        query = q("SELECT ?s ?l WHERE { (?s p x):?l } ORDERBY ?l", doc.domain)
        rows = evaluate_query(closure(doc.graph), query)
        assert [(r["s"].lexical, r["l"].serialize()) for r in rows] == [
            ("d", "{<{[1,2],[5,6]},s3>}"),
            ("c", "{<{[1,9]},s1>}"),
            ("b", "{<{[2,4]},s2>}"),
            ("a", "{<{[1,5]},s1>,<{[1,8]},(s1 ^ s2)>,<{[3,5]},(s1 v s2)>,<{[3,8]},s2>}"),
        ]

    def test_orderby_boolean_labels(self):
        # No answer binds bottom, so `false` is only seen by the key itself.
        assert sorted([BOOLEAN.top, BOOLEAN.bottom], key=AnnotationValue.sort_key) == [
            BOOLEAN.bottom, BOOLEAN.top,
        ]
        doc = parse_graph(
            "@domix boolean .\n(a p x) : true .\n(b p x) : true .\n(b q y) : true .\n"
        )
        query = q(
            "SELECT ?s ?l WHERE { (?s p x):?k OPTIONAL {(?s q y):?l} } ORDERBY ?l", BOOLEAN
        )
        rows = evaluate_query(closure(doc.graph), query)
        assert [(r["s"].lexical, r.get("l")) for r in rows] == [
            ("a", None), ("b", BOOLEAN.top),
        ]

    def test_orderby_mixed_types_error(self, fig1_exx1_closure):
        query = q(
            "SELECT ?p ?z WHERE { { (?p type ebayEmp):?l ASSIGN length(?l) AS ?z } "
            "UNION { (?p hasCar ?z):?l2 } ORDERBY ?z }"
        )
        with pytest.raises(QueryTypeError):
            evaluate_query(fig1_exx1_closure, query)

    def test_limit(self, fig1_exx1_closure):
        base = "SELECT ?p ?l WHERE { (?p type ebayEmp):?l ORDERBY ?l }"
        full = evaluate_query(fig1_exx1_closure, q(base))
        limited = evaluate_query(fig1_exx1_closure, q(base + " LIMIT 2"))
        assert limited == full[:2]
        assert evaluate_query(fig1_exx1_closure, q(base + " LIMIT 0")) == []

    def test_limit_inside_a_group(self, fig1_exx1_closure):
        # A group's ORDERBY and LIMIT are two SubSelects with no projection.
        query = q("SELECT ?p WHERE { (?p type ebayEmp):?l ORDERBY ?p LIMIT 2 }")
        p, label = alg.Var("p"), alg.Var("l")
        bap = alg.Bap((alg.TriplePattern(p, TYPE, iri("ebayEmp"), label),))
        assert query.pattern == alg.SubSelect(None, alg.SubSelect(None, bap, p), None, 2)
        assert query.order_by is None and query.limit is None
        rows = evaluate_query(fig1_exx1_closure, query)
        assert [r["p"].lexical for r in rows] == ["chadHurley", "jawedKarim"]

    @pytest.mark.parametrize("modifier", ["ORDERBY ?s", "LIMIT 5"])
    @pytest.mark.parametrize("mode, expected", [("shared-var", "b"), ("fresh-vars", "a b")])
    def test_a_group_modifier_keeps_the_labels_a_rewrite_adds(self, modifier, mode, expected):
        # `rewrite_defaults` labels `?s p x` and `?s q y` after parsing.
        # Under shared-var one label must meet both values, which is
        # bottom for a; a modifier that projected onto what its group
        # could bind when parsed would drop the label and answer a too.
        graph = parse_graph(
            "@domix temporal .\n(a p x) : {[1,2]} .\n(a q y) : {[5,6]} .\n"
            "(b p x) : {[1,9]} .\n(b q y) : {[3,4]} .\n"
        ).graph
        query = q(f"SELECT ?s WHERE {{ ?s p x {modifier} ?s q y }}")
        rows = evaluate_query(graph, rewrite_defaults(query, mode, TEMPORAL))
        assert " ".join(r["s"].lexical for r in rows) == expected

    def test_a_subselect_with_no_projection_does_not_prune(self, monkeypatch):
        # The Union's rows are already maximal, and so is any order or
        # prefix of them; only a projection can make a row dominated.
        graph = parse_graph("@domix temporal .\n(a p b) : {[1,2]} .\n(a p c) : {[1,5]} .\n").graph
        x, y, label = alg.Var("x"), alg.Var("y"), alg.Var("l")
        bap = alg.Bap((alg.TriplePattern(x, iri("p"), y, label),))
        union = alg.Union(bap, bap)
        calls = []
        monkeypatch.setattr(engine, "prune_maximal", lambda rows: calls.append(rows) or rows)
        for node in (alg.SubSelect(None, union, y), alg.SubSelect(None, union, None, 1)):
            calls.clear()
            eval_pattern(graph, node)
            assert len(calls) == 1  # the Union's own prune
        calls.clear()
        eval_pattern(graph, alg.SubSelect((x, label), union))
        assert len(calls) == 2

    @pytest.mark.parametrize("keyed", [False, True], ids=["union", "bap"])
    def test_a_subselect_that_drops_no_variable_passes_its_rows(self, monkeypatch, keyed):
        # Its input's rows are maximal and bind nothing outside `select`,
        # so they pass as they are, keyed input or not: the same row
        # objects, in order, and no prune.
        graph = parse_graph("@domix temporal .\n(a p b) : {[1,2]} .\n(a p c) : {[1,5]} .\n").graph
        x, y, label = alg.Var("x"), alg.Var("y"), alg.Var("l")
        bap = alg.Bap((alg.TriplePattern(x, iri("p"), y, label),))
        inner = bap if keyed else alg.Union(bap, bap)
        rows = eval_pattern(graph, inner)
        assert len(rows) == (2 if keyed else 4)
        real = engine.eval_pattern
        monkeypatch.setattr(
            engine, "eval_pattern", lambda g, p, d=None: rows if p is inner else real(g, p, d)
        )
        calls = []
        monkeypatch.setattr(engine, "prune_maximal", lambda rows: calls.append(rows) or rows)
        # `select` in another order, or naming a variable no row binds.
        for select in ((label, y, x), (x, alg.Var("z"), y, label)):
            node = alg.SubSelect(select, inner)
            assert node.bindings == inner.bindings
            assert [id(row) for row in real(graph, node)] == [id(row) for row in rows]
        assert calls == []

    def test_subselect_projects(self, fig1_exx1_closure):
        query = q(
            "SELECT ?p WHERE { SELECT ?p WHERE { (?p type ebayEmp):?l (?p hasCar ?c):?l2 } }"
        )
        rows = evaluate_query(fig1_exx1_closure, query)
        assert rows_as_set(rows) == {(("p", Term("iri", "toivo")),)}


class TestIntegerEndpoints:
    """Temporal endpoints are `int` when whole, but every number a query
    computes or compares stays a `Fraction`, so the numeric checks of
    FILTER, the aggregates, ORDERBY and the answer formats keep working."""

    @pytest.fixture()
    def graph(self):
        doc = parse_graph(
            "@domix temporal .\n"
            "(x worksFor y1) : {[1999,2001]} .\n"
            "(x worksFor y2) : {[2003,2008]} .\n"
            "(z worksFor y1) : {[2001.5,2004]} .\n"
            "(w worksFor y3) : 2001 .\n"
        )
        return closure(doc.graph)

    def names(self, rows):
        return sorted(r["x"].lexical for r in rows)

    def test_filter_against_a_whole_year(self, graph):
        base = "SELECT ?x WHERE { (?x worksFor ?y):?l FILTER(%s) }"
        assert self.names(evaluate_query(graph, q(base % "?l <= 2001"))) == ["w"]
        assert self.names(evaluate_query(graph, q(base % "?l <= 2001.0"))) == ["w"]
        assert self.names(evaluate_query(graph, q(base % "2001 <= ?l"))) == ["w", "x"]

    def test_lifted_year_is_canonical(self, graph):
        rows = evaluate_query(graph, q("SELECT ?l WHERE { (w worksFor y3):?l }"))
        stored = rows[0]["l"]
        query = q("SELECT ?l WHERE { (w worksFor y3):?l FILTER(?l <= 2001) }")
        lifted = query.pattern.expr.right.payload
        assert stored.payload == lifted
        assert all(type(x) is int for interval in lifted for x in interval)

    def test_length_is_a_fraction(self, graph):
        query = q("SELECT ?x ?y ?z WHERE { (?x worksFor ?y):?l ASSIGN length(?l) AS ?z }")
        lengths = {(r["x"].lexical, r["y"].lexical): r["z"] for r in evaluate_query(graph, query)}
        assert lengths == {
            ("x", "y1"): 2, ("x", "y2"): 5, ("z", "y1"): Fraction(5, 2), ("w", "y3"): 0,
        }
        assert all(type(v) is Fraction for v in lengths.values())

    @pytest.mark.parametrize(
        "op, expected",
        [
            ("SUM", {"x": 7, "z": Fraction(5, 2), "w": 0}),
            ("AVG", {"x": Fraction(7, 2), "z": Fraction(5, 2), "w": 0}),
            ("MAX", {"x": 5, "z": Fraction(5, 2), "w": 0}),
        ],
    )
    def test_aggregates_over_length(self, graph, op, expected):
        query = q(
            f"SELECT ?x ?s WHERE {{ (?x worksFor ?y):?l GROUPBY(?x) {op}(length(?l)) AS ?s }}"
        )
        diagnostics: list[str] = []
        rows = eval_pattern(graph, query.pattern, diagnostics)
        assert diagnostics == []
        assert {r["x"].lexical: r["s"] for r in rows} == expected
        assert all(type(r["s"]) is Fraction for r in rows)

    def test_orderby_length(self, graph):
        query = q(
            "SELECT ?x ?y ?z WHERE { (?x worksFor ?y):?l ASSIGN length(?l) AS ?z ORDERBY ?z }"
        )
        rows = evaluate_query(graph, query)
        assert [r["z"] for r in rows] == [0, 2, Fraction(5, 2), 5]

    def test_fuzzy_literal_one(self):
        fuzzy = get_domain("fuzzy:product")
        doc = parse_graph("@domix fuzzy:product .\n(a p b) : 1 .\n(a p c) : 0.5 .\n")
        stored = dict(doc.graph.statements())
        assert [type(v.payload) for v in stored.values()] == [Fraction, Fraction]
        assert fuzzy.parse("1") == fuzzy.top and type(fuzzy.parse("1").payload) is Fraction
        query = q("SELECT ?o WHERE { (a p ?o):?d FILTER(1 <= ?d) }", fuzzy)
        assert [r["o"].lexical for r in evaluate_query(doc.graph, query)] == ["b"]

    def test_answer_cells(self, graph):
        import json

        from anrdf.syntax import serialize_answers_json, serialize_answers_tsv

        query = q(
            "SELECT ?y ?l ?z WHERE { (x worksFor ?y):?l ASSIGN length(?l) AS ?z ORDERBY ?z }"
        )
        rows = evaluate_query(graph, query)
        variables = query.select
        assert serialize_answers_tsv(variables, rows).splitlines() == [
            "?y\t?l\t?z",
            "y1\t{[1999,2001]}\t2",
            "y2\t{[2003,2008]}\t5",
        ]
        doc = json.loads(serialize_answers_json(variables, rows))
        assert doc["bindings"][0]["l"] == {
            "type": "annotation:temporal", "value": "{[1999,2001]}",
        }
        assert doc["bindings"][1]["z"] == {"type": "number", "value": "5"}


class TestFilterSemantics:
    theta = {"x": Term("iri", "a"), "l": None}  # l filled in setup

    def setup_method(self):
        self.theta = {"x": Term("iri", "a"), "lit": Term("literal", "3"),
                      "sk": Term("skolem", "b1"), "l": tv("{[2,5]}")}

    def test_bound(self):
        assert filter_eval(alg.Bound(alg.Var("x")), self.theta) == TRUE
        assert filter_eval(alg.Bound(alg.Var("nope")), self.theta) == FALSE

    def test_type_probes(self):
        assert filter_eval(alg.IsKind(IRI, alg.Var("x")), self.theta) == TRUE
        assert filter_eval(alg.IsKind(SKOLEM, alg.Var("sk")), self.theta) == TRUE
        assert filter_eval(alg.IsKind(LITERAL, alg.Var("lit")), self.theta) == TRUE
        assert filter_eval(alg.IsKind(LITERAL, alg.Var("x")), self.theta) == FALSE
        assert filter_eval(alg.IsKind(IRI, alg.Var("nope")), self.theta) == ERROR

    @pytest.mark.parametrize(
        "kind", [IRI, SKOLEM, LITERAL], ids=["IsIri", "IsBlank", "IsLiteral"]
    )
    def test_term_probes_of_non_terms_are_false(self, kind):
        assert filter_eval(alg.IsKind(kind, alg.Var("l")), self.theta) == FALSE
        assert filter_eval(alg.IsKind(kind, Fraction(3)), self.theta) == FALSE

    def test_eq(self):
        assert filter_eval(alg.Eq(alg.Var("x"), Term("iri", "a")), self.theta) == TRUE
        assert filter_eval(alg.Eq(alg.Var("x"), alg.Var("lit")), self.theta) == FALSE
        assert filter_eval(alg.Eq(alg.Var("gone"), alg.Var("x")), self.theta) == ERROR

    def test_error_propagation(self):
        err = alg.Eq(alg.Var("gone"), alg.Var("x"))
        true = alg.Bound(alg.Var("x"))
        false = alg.Bound(alg.Var("nope"))
        assert filter_eval(alg.Not(err), self.theta) == ERROR
        assert filter_eval(alg.Or(err, true), self.theta) == TRUE
        assert filter_eval(alg.Or(err, false), self.theta) == ERROR
        assert filter_eval(alg.And(err, false), self.theta) == FALSE
        assert filter_eval(alg.And(true, false), self.theta) == FALSE

    # SPARQL 1.1, section 17.2: the truth tables of logical-and and logical-or.
    AND_OR = {
        (TRUE, TRUE): (TRUE, TRUE),
        (TRUE, FALSE): (FALSE, TRUE),
        (FALSE, TRUE): (FALSE, TRUE),
        (FALSE, FALSE): (FALSE, FALSE),
        (TRUE, ERROR): (ERROR, TRUE),
        (ERROR, TRUE): (ERROR, TRUE),
        (FALSE, ERROR): (FALSE, ERROR),
        (ERROR, FALSE): (FALSE, ERROR),
        (ERROR, ERROR): (ERROR, ERROR),
    }

    @pytest.mark.parametrize("left, right", list(AND_OR))
    def test_and_or_truth_tables(self, left, right):
        verdicts = {
            TRUE: alg.Bound(alg.Var("x")),
            FALSE: alg.Bound(alg.Var("nope")),
            ERROR: alg.Eq(alg.Var("gone"), alg.Var("x")),
        }
        pair = (verdicts[left], verdicts[right])
        got = (filter_eval(alg.And(*pair), self.theta), filter_eval(alg.Or(*pair), self.theta))
        assert got == self.AND_OR[left, right]
        oracle = (_filter_value(alg.And(*pair), self.theta), _filter_value(alg.Or(*pair), self.theta))
        assert oracle == got

    def test_false_and_error_is_false_in_a_query(self):
        # (?x = ?y) is false and (?u = ?x) an error, so the conjunction is
        # false and its negation true: SPARQL keeps the row.
        graph = parse_graph("@domix temporal .\n(a p b) : [1,2] .\n").graph
        query = q("SELECT ?x ?y WHERE { (?x p ?y):?l FILTER(!((?x = ?y) && (?u = ?x))) }")
        assert evaluate_query(graph, query) == [{"x": iri("a"), "y": iri("b")}]

    def test_annotation_order(self):
        expr = alg.AnnLeq(alg.Var("l"), tv("{[0,9]}"))
        assert filter_eval(expr, self.theta) == TRUE
        expr = alg.AnnLeq(tv("{[2005,2010]}"), tv("{[2002,2009]}"))
        assert filter_eval(expr, self.theta) == FALSE
        # unbound and mismatched operands are false, never errors
        assert filter_eval(alg.AnnLeq(alg.Var("gone"), alg.Var("l")), self.theta) == FALSE
        assert filter_eval(alg.AnnLeq(alg.Var("x"), alg.Var("l")), self.theta) == FALSE

    def test_scalar_coercion_in_order_test(self):
        # A bare number beside `<=` is a literal of the query's domain.
        fuzzy = get_domain("fuzzy:product")
        theta = {"f": fuzzy.parse("0.4")}
        for text, verdict in (("?f <= 0.5", TRUE), ("0.5 <= ?f", FALSE)):
            query = q(f"SELECT ?f WHERE {{ (a p b):?f FILTER({text}) }}", fuzzy)
            assert filter_eval(query.pattern.expr, theta) == verdict

    def test_builtin_calls(self):
        expr = alg.BuiltinCall("beforeAll", (tv("{[0,2],[3,4]}"), tv("{[5,7],[8,9]}")))
        assert filter_eval(expr, {}) == TRUE
        expr = alg.BuiltinCall("isTEMPORAL", (alg.Var("l"),))
        assert filter_eval(expr, self.theta) == TRUE
        expr = alg.BuiltinCall("isFUZZY", (alg.Var("l"),))
        assert filter_eval(expr, self.theta) == FALSE
        # errors inside built-ins surface as false
        expr = alg.BuiltinCall("length", (alg.Var("x"),))
        assert filter_eval(expr, self.theta) == FALSE

    def test_order_operand_reads_a_prefixed_atom(self):
        prov = get_domain("provenance")
        doc = parse_graph(
            "@domix provenance .\n(a p b) : src:wiki .\n(c p d) : (src:wiki ^ x) .\n"
            "(e p f) : (src:wiki v x) .\n(g p h) : x .\n"
        )
        query = q(
            "@prefix src: <http://s/> .\n"
            "SELECT ?s WHERE { (?s p ?o):?l FILTER(?l <= src:wiki) }",
            prov,
        )
        rows = evaluate_query(closure(doc.graph), query)
        assert sorted(r["s"].lexical for r in rows) == ["a", "c"]

    def test_builtin_arguments_are_domain_literals(self, fig1_closure):
        expr = q("SELECT ?p WHERE { (?p type ?c):?l FILTER(before(?l, -inf)) }").pattern.expr
        assert expr.args == (alg.Var("l"), tv("-inf"))
        # Every bounded interval is after the point -inf.
        query = q("SELECT ?p WHERE { (?p type youtubeEmp):?l FILTER(after(?l, -inf)) }")
        assert {r["p"].lexical for r in evaluate_query(fig1_closure, query)} == {
            "chadHurley", "jawedKarim", "steveChen"
        }
        fuzzy = get_domain("fuzzy:product")
        expr = q("SELECT ?f WHERE { (a p b):?f FILTER(isFUZZY(0.5)) }", fuzzy).pattern.expr
        assert filter_eval(expr, {}) == TRUE

    def test_filter_keeps_only_true_rows(self, fig1_closure):
        query = q(
            "SELECT ?p WHERE { (?p type youtubeEmp):?l FILTER(before(?l, [2011])) }"
        )
        rows = evaluate_query(fig1_closure, query)
        assert {r["p"].lexical for r in rows} == {"chadHurley"}

    @pytest.mark.parametrize(
        "group, expected",
        [
            ("(?x p ?y):?l FILTER(BOUND(?z)) OPTIONAL {(?x q ?z):?m}", []),
            ("(?x p ?y):?l OPTIONAL {(?x q ?z):?m} FILTER(BOUND(?z))", [{"x": iri("a"), "y": iri("c")}]),
        ],
        ids=["before-optional", "after-optional"],
    )
    def test_a_filter_filters_what_precedes_it_in_its_group(self, group, expected):
        # The paper's binary (P FILTER R), not SPARQL 1.1's group-wide
        # FILTER: before the OPTIONAL binds ?z, BOUND(?z) is false.
        graph = closure(parse_graph("@domix temporal .\n(a p c) : {[0,10]} .\n(a q d) : {[0,5]} .\n").graph)
        assert evaluate_query(graph, q(f"SELECT ?x ?y WHERE {{ {group} }}")) == expected


class TestAllenQueries:
    def test_before_all_gives_no_result(self, data_dir):
        doc = parse_graph((data_dir / "fig1_interval_sets.anrdf").read_text())
        closed = closure(doc.graph)
        query = q((data_dir / "queries" / "before_all.anql").read_text())
        assert evaluate_query(closed, query) == []

    def test_before_any_returns_chad(self, data_dir):
        doc = parse_graph((data_dir / "fig1_interval_sets.anrdf").read_text())
        closed = closure(doc.graph)
        query = q((data_dir / "queries" / "before_any.anql").read_text())
        names = {r["p"].lexical for r in evaluate_query(closed, query)}
        assert "chadHurley" in names
        assert names == {"chadHurley", "jawedKarim", "toivo"}


class TestDefaultRewrites:
    @pytest.mark.parametrize(
        "mode,expected",
        [
            (
                "shared-var",
                {
                    (("p", Term("iri", "toivo")),),
                    (("c", Term("iri", "peugeot")), ("p", Term("iri", "toivo"))),
                    (("c", Term("iri", "renault")), ("p", Term("iri", "toivo"))),
                },
            ),
            (
                "fresh-vars",
                {
                    (("c", Term("iri", "peugeot")), ("p", Term("iri", "toivo"))),
                    (("c", Term("iri", "renault")), ("p", Term("iri", "toivo"))),
                },
            ),
            ("top", set()),
        ],
    )
    def test_three_approaches(self, exx1_minimal_closure, data_dir, mode, expected):
        from anrdf import rewrite_defaults

        query = q((data_dir / "queries" / "non_annotated.anql").read_text())
        rewritten = rewrite_defaults(query, mode, TEMPORAL)
        rows = evaluate_query(exx1_minimal_closure, rewritten)
        assert rows_as_set(rows) == expected

    def test_fresh_vars_reach_every_node_left_to_right(self):
        x = [alg.Var(f"x{i}") for i in range(4)]

        def bap(i, label=None):
            return alg.Bap((alg.TriplePattern(x[i], iri("p"), iri("o"), label),))

        def tree(leaf):
            inner = alg.Join(
                alg.Union(leaf(0), leaf(1)), alg.Optional(leaf(2), leaf(3), alg.Bound(x[3]))
            )
            assign = alg.Assign(alg.Filter(inner, alg.Bound(x[0])), "", (x[0],), alg.Var("y"))
            group = alg.GroupBy(assign, (x[0],), ())
            ordered = alg.SubSelect(None, alg.SubSelect((x[0],), group), x[0])
            return alg.SubSelect(None, ordered, None, 5)

        query = alg.SubSelect((x[0],), tree(bap), x[0], 3)
        rewritten = rewrite_defaults(query, "fresh-vars", TEMPORAL)
        assert rewritten == alg.SubSelect((x[0],), tree(lambda i: bap(i, alg.Var(f"_a{i}"))), x[0], 3)
        # A node that is not a dataclass reaches the walk's `fields`.
        for mode in ("fresh-vars", "shared-var"):
            with pytest.raises(TypeError, match="must be called with a dataclass"):
                rewrite_defaults(alg.Pattern(), mode, TEMPORAL)

    def test_top_returns_the_query_it_is_given(self, data_dir, workloads):
        texts = [path.read_text() for path in sorted((data_dir / "queries").glob("*.anql"))]
        texts += workloads.QUERY_SHAPES.values()
        for text in texts:
            query = q(text)
            assert rewrite_defaults(query, "top", TEMPORAL) is query, text

    def test_a_bare_pattern_reads_the_top_of_the_graphs_domain(self):
        # `top` inserts no constant, so a rewrite made in another domain
        # meets no domain check, and `eval_bap` reads the graph's top.
        graph = closure(
            parse_graph("@domix temporal .\n(a p b) : {[-inf,+inf]} .\n(a p c) : {[1,2]} .\n").graph
        )
        fuzzy = get_domain("fuzzy:min")
        query = rewrite_defaults(q("SELECT ?o WHERE { a p ?o }", fuzzy), "top", fuzzy)
        assert evaluate_query(graph, query) == [{"o": iri("b")}]

    def test_an_unknown_mode_is_refused(self):
        query = q("SELECT ?x WHERE { ?x p ?y }")
        with pytest.raises(ValueError) as err:
            rewrite_defaults(query, "nope", TEMPORAL)
        assert str(err.value) == "unknown rewrite mode 'nope'"

    @pytest.mark.parametrize(
        "text",
        [
            "SELECT ?x WHERE { SELECT ?x WHERE { (?x p ?y):?_a0 . ?x q ?z } }",
            "SELECT ?x ?n WHERE { (?x p ?y):?_a0 . ?x q ?z GROUPBY(?x) COUNT(?z) AS ?n }",
        ],
    )
    def test_fresh_labels_avoid_every_query_variable(self, text):
        # ?_a0 is neither selected nor bindable outside its node, yet the
        # fresh label of `?x q ?z` must not reuse it.
        doc = parse_graph(
            "@domix temporal .\n(a p b) : {[1,5]} .\n(a q c) : {[3,9]} .\n(a p d) : {[10,12]} .\n"
        )
        graph = closure(doc.graph)

        def answers(query_text):
            query = rewrite_defaults(q(query_text), "fresh-vars", TEMPORAL)
            rows = evaluate_query(graph, query)
            return sorted(tuple(sorted((k, repr(v)) for k, v in r.items())) for r in rows)

        assert answers(text) == answers(text.replace("?_a0", "?u")) != []


class TestDomainMaximality:
    def test_prune_keeps_incomparable_and_duplicates(self):
        a = {"x": Term("iri", "a"), "l": tv("{[1,2]}")}
        b = {"x": Term("iri", "a"), "l": tv("{[1,5]}")}
        c = {"x": Term("iri", "a"), "l": tv("{[7,9]}")}
        assert prune_maximal([a, b, c]) == [b, c]
        assert prune_maximal([b, b]) == [b, b]

    def test_prune_respects_domains_and_terms(self):
        a = {"x": Term("iri", "a"), "l": tv("{[1,2]}")}
        b = {"x": Term("iri", "b"), "l": tv("{[1,5]}")}
        c = {"x": Term("iri", "a")}
        assert prune_maximal([a, b, c]) == [a, b, c]

    @pytest.mark.parametrize("seed", range(30))
    def test_bucketed_prune_equals_pairwise_oracle(self, seed):
        rows = random_rows(random.Random(8200 + seed))
        got = prune_maximal(rows)
        expected = prune_maximal_pairwise(rows)
        assert got == expected
        assert [id(r) for r in got] == [id(r) for r in expected]

    @pytest.mark.parametrize("seed", range(40))
    def test_every_operator_returns_maximal_rows(self, seed):
        # Keyed nodes skip the prune, and so do FILTER, ORDERBY and LIMIT
        # over any input (the keyed rule in the engine docstring).  These
        # random patterns never put two rows in one bucket, so a missing
        # prune shows only in the test below.
        rng = random.Random(9400 + seed)
        graph = AnnotatedGraph(TEMPORAL)
        for t in sorted(random_crisp_graph(rng, max_triples=40)):
            graph.insert(t, TEMPORAL.random_value(rng))
        graph.freeze()
        query = alg.SubSelect((), random_pattern(rng))
        stack = [rewrite_defaults(query, "fresh-vars", TEMPORAL).pattern]
        while stack:
            node = stack.pop()
            rows = eval_pattern(graph, node)
            assert prune_maximal(rows) == rows
            children = (getattr(node, f, None) for f in ("left", "right", "pattern"))
            stack.extend(child for child in children if child is not None)

    @pytest.mark.parametrize("seed", range(40))
    def test_rows_bind_what_bindings_says(self, seed):
        # A random pattern built from the graph's own triples, so that most
        # nodes return rows, sits under a projection, an ASSIGN that may
        # overwrite a bound variable and a GROUPBY: every node kind is checked.
        rng = random.Random(9700 + seed)
        graph = AnnotatedGraph(TEMPORAL)
        triples = sorted(random_crisp_graph(rng, max_triples=40))
        for t in triples:
            graph.insert(t, TEMPORAL.random_value(rng))
        graph.freeze()
        query = alg.SubSelect((), random_pattern(rng, anchors=triples))
        pattern = rewrite_defaults(query, "fresh-vars", TEMPORAL).pattern
        a, b, *rest = (alg.Var(name) for name in rng.sample("xyzuv", 5))
        # A third of the seeds keep every variable the pattern can bind.
        every = [alg.Var(name) for name in sorted(pattern.bindings.can - {a.name, b.name})]
        projected = alg.SubSelect((a, b, *[(), rest, every][seed % 3]), pattern)
        if seed % 3 == 2:
            assert projected.bindings == pattern.bindings
            assert eval_pattern(graph, projected) == eval_pattern(graph, pattern)
        assigned = alg.Assign(projected, "", (iri("a0"),), b)
        stack = [alg.GroupBy(assigned, (a,), (alg.Aggregate("COUNT", "", (b,), alg.Var("n")),))]
        while stack:
            node = stack.pop()
            rows = eval_pattern(graph, node)
            bound = node.bindings
            for row in rows:
                assert row.keys() <= bound.can, node
                assert bound.terms <= row.keys(), node
                assert not any(isinstance(row[k], AnnotationValue) for k in bound.terms), node
                assert all(isinstance(row.get(k), AnnotationValue) for k in bound.labels), node
                assert not bound.keyed or row.keys() == bound.can, node
            if bound.keyed:
                assert len({_signature(r) for r in rows}) == len(rows), node
            children = (getattr(node, f, None) for f in ("left", "right", "pattern"))
            stack.extend(child for child in children if child is not None)

    def test_each_node_computes_its_bindings_once(self, monkeypatch):
        # A chain 40 nodes deep over one-triple Baps: each node's
        # `bindings` is computed from its children's, once, and not again
        # for every ancestor that reads it or on a second evaluation.
        computed = []
        real = alg.bindings
        monkeypatch.setattr(alg, "bindings", lambda p: computed.append(p) or real(p))
        graph = parse_graph("@domix temporal .\n(a p b) : [0,10] .\n(a q b) : [2,4] .\n").graph
        x, y, l = alg.Var("x"), alg.Var("y"), alg.Var("l")
        bap = lambda p: alg.Bap((alg.TriplePattern(x, iri(p), y, l),))
        wrappers = [
            lambda acc: alg.Filter(acc, alg.Bound(x)),
            lambda acc: alg.Join(acc, bap("q")),
            lambda acc: alg.Optional(acc, bap("q")),
            lambda acc: alg.Union(acc, bap("p")),
            lambda acc: alg.SubSelect(None, acc, x),
            lambda acc: alg.SubSelect(None, acc, None, 5),
            lambda acc: alg.SubSelect((x, y, l), acc),
            lambda acc: alg.Assign(acc, "length", (l,), alg.Var("n")),
        ]
        tree, nodes = bap("p"), 1
        for depth in range(40):
            tree = wrappers[depth % len(wrappers)](tree)
            nodes += 1 + hasattr(tree, "right")
        assert eval_pattern(graph, tree)
        assert len(computed) == len({id(p) for p in computed}) == nodes
        eval_pattern(graph, tree)
        assert len(computed) == nodes

    @pytest.mark.parametrize("seed", range(12))
    def test_operators_that_can_create_dominated_rows_prune(self, seed):
        # One shape per node kind that can create a dominated row.  On
        # these dense graphs over p0 and p1 each shape puts two rows in
        # one bucket, so a kind that skipped its prune fails here.
        rng = random.Random(9600 + seed)
        graph = AnnotatedGraph(TEMPORAL)
        names = [iri(f"a{i}") for i in range(3)]
        for s, p, o in itertools.product(names, (iri("p0"), iri("p1")), names):
            if rng.random() < 0.8:
                graph.insert(Triple(s, p, o), TEMPORAL.random_value(rng))
        graph.freeze()
        x, y, z, w, label = (alg.Var(v) for v in ("x", "y", "z", "w", "l"))

        def bap(s, p, o):
            return alg.Bap((alg.TriplePattern(s, iri(p), o, label),))

        stack = [
            alg.Union(bap(x, "p0", y), bap(x, "p1", y)),
            # An extension that binds no new variable and shrinks ?l.
            alg.Optional(bap(x, "p0", y), bap(x, "p1", y)),
            alg.Join(alg.Optional(bap(x, "p0", z), bap(x, "p1", y)), bap(y, "p0", w)),
            alg.Assign(bap(x, "p0", y), "", (iri("a0"),), y),
            alg.GroupBy(bap(x, "p0", y), (label,), ()),
            alg.SubSelect((x, label), bap(x, "p0", y)),
        ]
        while stack:
            node = stack.pop()
            rows = eval_pattern(graph, node)
            assert prune_maximal_pairwise(rows) == rows, node
            if isinstance(node, alg.Bap):
                assert len({_signature(r) for r in rows}) == len(rows)
            children = (getattr(node, f, None) for f in ("left", "right", "pattern"))
            stack.extend(child for child in children if child is not None)

    @pytest.mark.parametrize("seed", range(20))
    def test_filter_of_a_pruned_union_stays_maximal(self, seed):
        # The random patterns above never put two rows in one bucket, so
        # here a UNION does: (x p0 y) and (x p1 y) both bind ?x ?y ?l.
        rng = random.Random(9500 + seed)
        graph = AnnotatedGraph(TEMPORAL)
        names = [iri(f"a{i}") for i in range(4)]
        for s, p, o in itertools.product(names, (iri("p0"), iri("p1")), names):
            if rng.random() < 0.7:
                graph.insert(Triple(s, p, o), TEMPORAL.random_value(rng))
        graph.freeze()
        x, y, label = alg.Var("x"), alg.Var("y"), alg.Var("l")
        union = alg.Union(
            *(alg.Bap((alg.TriplePattern(x, iri(p), y, label),)) for p in ("p0", "p1"))
        )
        rows = eval_pattern(graph, union)
        assert len({(r["x"], r["y"]) for r in rows}) < len(rows)
        kept = alg.Filter(union, alg.Not(alg.Eq(x, rng.choice(names))))
        assert prune_maximal(eval_pattern(graph, kept)) == eval_pattern(graph, kept)

    def test_join_prunes_rows_from_optional(self):
        # OPTIONAL returns two rows for ?x=a, one with ?y and one
        # without; each joins (b p c) into the binding x=a, y=b, and
        # the Join's prune drops the one with the smaller annotation.
        graph = parse_graph(
            "@domix temporal .\n(a type A) : [0,10] .\n"
            "(a hasY b) : [0,5] .\n(b p c) : [0,8] .\n"
        ).graph
        query = q(
            "SELECT ?x ?y ?l WHERE { { (?x type A):?l OPTIONAL { (?x hasY ?y):?l } }"
            " { (?y p c):?l } }"
        )
        assert len(eval_pattern(graph, query.pattern.left)) == 2
        assert evaluate_query(graph, query) == [
            {"x": iri("a"), "y": iri("b"), "l": tv("{[0,8]}")}
        ]

    def test_groupby_prunes_dominated_groups(self):
        # Grouping on the annotation gives one row per value with equal
        # counts, so the group of {[0,5]} is dominated by that of {[0,10]}.
        graph = parse_graph("@domix temporal .\n(a q b) : [0,10] .\n(c q d) : [0,5] .\n").graph
        query = q("SELECT ?l ?n WHERE { (?x q ?y):?l GROUPBY(?l) COUNT(?x) AS ?n }")
        assert evaluate_query(graph, query) == [{"l": tv("{[0,10]}"), "n": Fraction(1)}]

    def test_a_node_that_is_not_a_pattern_raises(self):
        with pytest.raises(TypeError, match="not a pattern: str"):
            alg.Join(alg.Bap(()), "?x")
        # A bare `Pattern()` was built by no constructor and has no `bindings`.
        with pytest.raises(TypeError, match="not a pattern: Pattern"):
            alg.Filter(alg.Pattern(), alg.Bound(alg.Var("x")))
        with pytest.raises(TypeError, match="not a pattern: Pattern"):
            eval_pattern(None, alg.Pattern())
        with pytest.raises(TypeError, match="not a filter expression: FilterExpr"):
            filter_eval(alg.FilterExpr(), {})

    def test_no_answer_binds_bottom(self, fig1_exx1_closure):
        query = q("SELECT ?p ?l WHERE { (?p type ebayEmp):?l (?p hasCar ?c):?l }")
        for row in evaluate_query(fig1_exx1_closure, query):
            assert not row["l"].is_bottom


class TestMeetCompatibility:
    def test_terms_must_agree(self):
        assert meet_compatible({"x": iri("a")}, {"x": iri("b")}) is None
        assert meet_compatible({"x": iri("a")}, {"x": iri("a"), "y": iri("b")}) == {
            "x": iri("a"),
            "y": iri("b"),
        }

    def test_empty_rows_merge_to_the_empty_row(self):
        # `{}` is a merged row, so callers must test `is not None`.
        assert meet_compatible({}, {}) == {}

    @pytest.mark.parametrize("seed", range(30))
    def test_right_partitions_keep_every_compatible_row(self, seed):
        # Most sides bind x to a term in every row, so the right rows are
        # partitioned on x; the others mix terms, annotations and no x.
        rng = random.Random(8300 + seed)
        left, right = (
            random_rows(rng, 1.0, 1.0) if rng.random() < 0.7 else random_rows(rng)
            for _ in range(2)
        )
        # The keys are what every row on both sides binds to a term, which
        # is what `alg.bindings` promises of the keys the engine passes.
        keys = [k for k in ("x", "y") if all(isinstance(r.get(k), Term) for r in left + right)]
        candidates = _right_partitions(keys, right)
        for row in left:
            assert [
                r for r in candidates(row) if meet_compatible(row, r) is not None
            ] == [r for r in right if meet_compatible(row, r) is not None]

    def test_query_mix_optional_partitions_on_p(self, monkeypatch):
        # The `optional` shape of the query-mix benchmark: ?p is the one
        # variable both sides bind to a term.
        seen = []
        real = engine._right_partitions
        monkeypatch.setattr(
            engine, "_right_partitions", lambda keys, rows: seen.append(keys) or real(keys, rows)
        )
        graph = parse_graph(
            "@domix temporal .\n(a type C3) : [0,10] .\n(a knows b) : [2,4] .\n"
        ).graph
        query = q(
            "SELECT ?p ?l ?c WHERE { (?p type C3):?l"
            " OPTIONAL {(?p knows ?c):?l2 FILTER (?l2 <= ?l)} }"
        )
        assert evaluate_query(graph, query) == [
            {"p": iri("a"), "l": tv("{[0,10]}"), "c": iri("b")}
        ]
        assert [tuple(keys) for keys in seen] == [("p",)]

    def test_annotations_must_not_meet_to_bottom(self):
        a = {"l": tv("{[1,2]}")}
        b = {"l": tv("{[5,6]}")}
        assert meet_compatible(a, b) is None
        c = {"l": tv("{[2,3]}")}
        assert meet_compatible(a, c) == {"l": tv("{[2,2]}")}


class TestDomainRule:
    """A query is evaluated in the graph's domain: `evaluate_query`
    rejects a constant of another domain in every position."""

    GRAPH = "@domix temporal .\n(a p b) : {[0,10]} .\n(a p c) : {[20,30]} .\n"

    # (query with a constant {c}, the constant in fuzzy:min, the constant
    # in temporal, the temporal answer)
    CASES = [
        ("SELECT ?o WHERE {{ (a p ?o):{c} }}", "0.5", "{[0,5]}", [{"o": iri("b")}]),
        (
            "SELECT ?o WHERE {{ (a p ?o):?l FILTER(?l <= {c}) }}",
            "0.5",
            "{[0,10]}",
            [{"o": iri("b")}],
        ),
        (
            "SELECT ?o WHERE {{ (a p ?o):?l FILTER(before(?l, {c})) }}",
            "0.5",
            "{[15,16]}",
            [{"o": iri("b")}],
        ),
        (
            "SELECT ?o ?j WHERE {{ (a p ?o):?l ASSIGN meet(?l, {c}) AS ?j }}",
            "1",
            "{[5,25]}",
            [{"o": iri("b"), "j": tv("{[5,10]}")}, {"o": iri("c"), "j": tv("{[20,25]}")}],
        ),
    ]

    @pytest.fixture()
    def graph(self):
        return closure(parse_graph(self.GRAPH).graph)

    @pytest.mark.parametrize("template, foreign, native, expected", CASES)
    def test_foreign_constant_raises(self, graph, template, foreign, native, expected):
        query = q(template.format(c=foreign), get_domain("fuzzy:min"))
        with pytest.raises(DomainMismatchError, match="fuzzy:min"):
            evaluate_query(graph, query)

    @pytest.mark.parametrize("template, foreign, native, expected", CASES)
    def test_native_constant_answers(self, graph, template, foreign, native, expected):
        query = q(template.format(c=native))
        assert rows_as_set(evaluate_query(graph, query)) == rows_as_set(expected)

    def test_eval_pattern_guards_a_foreign_label(self, graph):
        # Below the entry point the annotation values themselves refuse
        # to compare across domains: no row is dropped in silence.
        query = q("SELECT ?o WHERE { (a p ?o):0.5 }", get_domain("fuzzy:min"))
        with pytest.raises(DomainMismatchError):
            eval_pattern(graph, query.pattern)

    def test_join_meets_each_shared_binding_once(self, monkeypatch):
        graph = parse_graph(
            "@domix temporal .\n(a p b) : {[0,10]} .\n(a p c) : {[5,30]} .\n"
            "(d q e) : {[8,20]} .\n"
        ).graph
        calls = []
        meet = AnnotationValue.meet

        def counted(self, other):
            calls.append((self, other))
            return meet(self, other)

        monkeypatch.setattr(AnnotationValue, "meet", counted)
        # Two rows on the left, one on the right, both pairs compatible.
        left = alg.Bap((alg.TriplePattern(iri("a"), iri("p"), alg.Var("o"), alg.Var("l")),))
        right = alg.Bap((alg.TriplePattern(iri("d"), iri("q"), iri("e"), alg.Var("l")),))
        rows = eval_pattern(graph, alg.Join(left, right))
        assert rows_as_set(rows) == rows_as_set(
            [{"o": iri("b"), "l": tv("{[8,10]}")}, {"o": iri("c"), "l": tv("{[8,20]}")}]
        )
        assert len(calls) == 2


class TestQueryModifiers:
    """A query is one SubSelect that sorts, projects, prunes and then
    cuts: the rows, in order, of three single-job nodes, a sort, a
    projection and a cut, nested as a group's modifiers nest them."""

    @staticmethod
    def nested(select, pattern, order_by, limit) -> alg.Pattern:
        node = pattern if order_by is None else alg.SubSelect(None, pattern, order_by)
        node = alg.SubSelect(select, node)
        return node if limit is None else alg.SubSelect(None, node, None, limit)

    @pytest.mark.parametrize("seed", range(60))
    def test_one_node_gives_the_nested_rows_in_order(self, seed):
        # A dense graph over p0 and p1, and a projection that keeps every
        # label and drops most term variables, so that some projected rows
        # are dominated and the prune must come before the cut.
        rng = random.Random(9900 + seed)
        graph = AnnotatedGraph(TEMPORAL)
        names = [iri(f"a{i}") for i in range(3)]
        triples = [
            Triple(s, p, o)
            for s, p, o in itertools.product(names, (iri("p0"), iri("p1")), names)
            if rng.random() < 0.8
        ]
        for t in triples:
            graph.insert(t, TEMPORAL.random_value(rng))
        graph.freeze()
        pattern = rewrite_defaults(
            alg.SubSelect((), random_pattern(rng, anchors=triples)), "fresh-vars", TEMPORAL
        ).pattern
        bound = sorted(pattern.bindings.can)
        select = tuple(alg.Var(n) for n in bound if n.startswith("_a") or rng.random() < 0.3)
        order_by = rng.choice([None, *(alg.Var(n) for n in bound)])
        limit = rng.choice([None, 0, 1, 2, 3])
        query = alg.SubSelect(select, pattern, order_by, limit)
        assert query.depth == pattern.depth + 1
        expected = eval_pattern(graph, self.nested(select, pattern, order_by, limit))
        assert eval_pattern(graph, query) == expected

    def test_the_prune_comes_before_the_cut(self):
        # Sorted by ?y, (a p b) comes first; projected onto ?x ?l its row
        # is dominated by the (a p c) row, so LIMIT 1 keeps the (a p c) row.
        graph = parse_graph("@domix temporal .\n(a p b) : {[1,2]} .\n(a p c) : {[1,5]} .\n").graph
        x, y, label = alg.Var("x"), alg.Var("y"), alg.Var("l")
        pattern = alg.Bap((alg.TriplePattern(x, iri("p"), y, label),))
        rows = eval_pattern(graph, alg.SubSelect((x, label), pattern, y, 1))
        assert rows == [{"x": iri("a"), "l": tv("{[1,5]}")}]
        assert rows == eval_pattern(graph, self.nested((x, label), pattern, y, 1))
        # Cut first, as a group's LIMIT under the projection would, and
        # the (a p b) row takes the place.
        cut = alg.SubSelect(None, alg.SubSelect(None, pattern, y), None, 1)
        assert eval_pattern(graph, alg.SubSelect((x, label), cut)) == [
            {"x": iri("a"), "l": tv("{[1,2]}")}
        ]


class TestDepthRule:
    """No node deeper than `MAX_DEPTH` levels can be built, and a query is
    its outermost SubSelect, the tree `evaluate_query` walks, so every
    query that can be built, parsed or not, rewrites and evaluates."""

    GRAPH = "@domix temporal .\n(a p b) : {[0,10]} .\n"

    @staticmethod
    @contextlib.contextmanager
    def frame_budget():
        # The recursion limit two frames a level, and 40 more, above the
        # caller's stack: the budget behind `MAX_DEPTH`.  The caller's
        # frame is two up, past this generator and `__enter__`.
        caller, frame = 0, sys._getframe(2)
        while frame is not None:
            caller, frame = caller + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(caller + 2 * alg.MAX_DEPTH + 40)
        try:
            yield
        finally:
            sys.setrecursionlimit(limit)

    @staticmethod
    def query(depth: int, shape: str) -> alg.SubSelect:
        # A Bap under a chain of Filters, or under one Filter whose
        # expression is a chain of `&&`, under the query's SubSelect;
        # either is `depth` levels.
        x = alg.Var("x")
        pattern = alg.Bap((alg.TriplePattern(x, iri("p"), alg.Var("y"), alg.Var("l")),))
        if shape == "filters":
            for _ in range(depth - 2):
                pattern = alg.Filter(pattern, alg.Bound(x))
        else:
            expr = alg.Bound(x)
            for _ in range(depth - 3):
                expr = alg.And(expr, alg.Bound(x))
            pattern = alg.Filter(pattern, expr)
        query = alg.SubSelect((x,), pattern)
        assert query.depth == depth
        return query

    @pytest.mark.parametrize("shape", ["filters", "conjunctions"])
    def test_a_pattern_one_level_past_the_bound_is_refused(self, shape):
        graph = closure(parse_graph(self.GRAPH).graph)
        at_bound = self.query(alg.MAX_DEPTH, shape)
        rewritten = rewrite_defaults(at_bound, "fresh-vars", TEMPORAL)
        assert evaluate_query(graph, rewritten) == [{"x": iri("a")}]
        with pytest.raises(AnrdfError, match=f"query nested deeper than {alg.MAX_DEPTH} levels"):
            self.query(alg.MAX_DEPTH + 1, shape)

    def test_no_node_past_the_bound_can_be_built(self):
        x = alg.Var("x")
        pattern, expr = alg.Bap((alg.TriplePattern(x, iri("p"), iri("o")),)), alg.Bound(x)
        for _ in range(alg.MAX_DEPTH - 1):
            pattern, expr = alg.Filter(pattern, alg.Bound(x)), alg.Not(expr)
        assert pattern.depth == expr.depth == alg.MAX_DEPTH
        under = pattern.pattern  # MAX_DEPTH - 1 levels
        # A query is one level over its pattern, with or without ORDERBY and LIMIT.
        assert alg.SubSelect((x,), under, x, 1).depth == alg.MAX_DEPTH
        assert alg.SubSelect((x,), under.pattern, None, 1).depth == alg.MAX_DEPTH - 1
        message = f"query nested deeper than {alg.MAX_DEPTH} levels"
        for build in (
            lambda: alg.Filter(pattern, alg.Bound(x)),
            lambda: alg.Not(expr),
            lambda: alg.SubSelect((x,), pattern),
            lambda: alg.SubSelect((x,), pattern, x, 1),
        ):
            with pytest.raises(AnrdfError, match=message):
                build()

    def test_a_query_at_the_bound_compares_hashes_and_prints(self):
        # In the frame budget that evaluation keeps.
        text = "SELECT ?x WHERE { (?x p ?y):?l " + "FILTER(BOUND(?x)) " * 351 + "} ORDERBY ?x LIMIT 1"
        query, again = parse_query(text, TEMPORAL), parse_query(text, TEMPORAL)
        assert query.depth == alg.MAX_DEPTH
        with self.frame_budget():
            assert query == again and hash(query) == hash(again)
            printed = repr(query)
        assert printed.count("Filter(pattern=") == 351
        assert query != parse_query(text.replace("LIMIT 1", "LIMIT 2"), TEMPORAL)

    # Query texts `n` levels deep: as evaluated (the query's `depth`) for
    # the chains, the nested OPTIONALs and the sub-SELECTs; in the text
    # (the parser's count) for the groups and parentheses, which build no
    # node, the WHERE group's `{` the first of them.
    T = "(?x p ?y):?l "
    AT_DEPTH = {
        "filters": lambda n: "SELECT ?x WHERE { " + TestDepthRule.T + "FILTER(BOUND(?x)) " * (n - 2) + "}",
        "ordered-filters": lambda n: (
            "SELECT ?x WHERE { " + TestDepthRule.T + "FILTER(BOUND(?x)) " * (n - 2) + "} ORDERBY ?x LIMIT 1"
        ),
        "optionals": lambda n: (
            "SELECT ?x WHERE { " + TestDepthRule.T + "OPTIONAL { (?x p ?y):?l } " * (n - 2) + "}"
        ),
        "nested-optionals": lambda n: (
            "SELECT ?x WHERE { " + TestDepthRule.T
            + "OPTIONAL { (?x p ?y):?l " * (n - 2) + "}" * (n - 2) + " }"
        ),
        "sub-selects": lambda n: (
            "SELECT ?x WHERE { " + "SELECT ?x { " * (n - 2) + TestDepthRule.T + "}" * (n - 1)
        ),
        "groups": lambda n: "SELECT ?x WHERE " + "{ " * n + TestDepthRule.T + "}" * n,
        "parentheses": lambda n: (
            "SELECT ?x WHERE { " + TestDepthRule.T
            + "FILTER(" + "(" * (n - 1) + "?x = a" + ")" * n + " }"
        ),
    }

    @pytest.mark.parametrize("shape", AT_DEPTH)
    def test_a_query_at_the_bound_takes_two_frames_a_level(self, shape, tracer):
        # Parsed, rewritten and evaluated under the benchmark's tracer in
        # the frame budget; one level deeper, `parse_query` refuses it.
        graph = closure(parse_graph(self.GRAPH).graph)
        make = self.AT_DEPTH[shape]
        with self.frame_budget():
            query = parse_query(make(alg.MAX_DEPTH), TEMPORAL)
            rewritten = rewrite_defaults(query, "fresh-vars", TEMPORAL)
            assert evaluate_query(graph, rewritten) == [{"x": iri("a")}]
        assert (query.depth == alg.MAX_DEPTH) == (shape not in ("groups", "parentheses"))
        with pytest.raises(ParseError, match=f"query nested deeper than {alg.MAX_DEPTH} levels"):
            parse_query(make(alg.MAX_DEPTH + 1), TEMPORAL)

    def test_every_node_is_a_level_above_its_deepest_child(self):
        x = alg.Var("x")
        bap, test = alg.Bap((alg.TriplePattern(x, iri("p"), iri("o")),)), alg.Bound(x)
        pattern, expr = alg.Filter(bap, test), alg.Not(test)  # each 2 deep
        leaves = [
            bap,
            test,
            alg.IsKind(IRI, x),
            alg.Eq(x, iri("o")),
            alg.AnnLeq(x, x),
            alg.BuiltinCall("before", (x, x)),
        ]
        parents = [
            alg.Not(expr),
            alg.And(expr, test),
            alg.And(test, expr),
            alg.Or(expr, test),
            alg.Or(test, expr),
            alg.Join(pattern, bap),
            alg.Join(bap, pattern),
            alg.Union(pattern, bap),
            alg.Union(bap, pattern),
            alg.Optional(pattern, bap),
            alg.Optional(bap, pattern),
            alg.Optional(bap, bap, expr),
            alg.Filter(pattern, test),
            alg.Filter(bap, expr),
            alg.Assign(pattern, "", (x,), alg.Var("y")),
            alg.GroupBy(pattern, (x,), ()),
            alg.SubSelect(None, pattern, x),
            alg.SubSelect(None, pattern, None, 1),
            alg.SubSelect((x,), pattern),
            alg.SubSelect((x,), pattern, x, 1),
        ]
        assert [node.depth for node in leaves] == [1] * len(leaves)
        assert [node.depth for node in parents] == [3] * len(parents)
        kinds = {type(node) for node in leaves + parents}
        assert kinds == set(alg.Pattern.__subclasses__()) | set(alg.FilterExpr.__subclasses__())


class TestBapAgainstClosureAnswering:
    """BAP solutions coincide with direct query answering over the
    closure: ground every regular variable from the graph universe,
    require each pattern triple to be stored, bind each annotation
    variable to the meet of the stored values of its carriers, and keep
    maximal rows."""

    @staticmethod
    def _universe(closed):
        terms = set()
        for t, _ in closed.statements():
            terms.update((t.subject, t.predicate, t.object))
        return sorted(terms)

    def _direct_answers(self, closed, patterns):
        regular = sorted(
            {
                slot.name
                for tp in patterns
                for slot in (tp.subject, tp.predicate, tp.object)
                if isinstance(slot, alg.Var)
            }
        )
        universe = self._universe(closed)
        rows = []
        for combo in itertools.product(universe, repeat=len(regular)):
            binding = dict(zip(regular, combo))

            def ground(slot):
                return binding[slot.name] if isinstance(slot, alg.Var) else slot

            annotations: dict[str, object] = {}
            ok = True
            for tp in patterns:
                try:
                    triple = Triple(ground(tp.subject), ground(tp.predicate), ground(tp.object))
                except Exception:
                    ok = False
                    break
                stored = closed.get(triple)
                if stored is None:
                    ok = False
                    break
                label = closed.domain.top if tp.annotation is None else tp.annotation
                if isinstance(label, alg.Var):
                    held = annotations.get(label.name)
                    annotations[label.name] = (
                        stored if held is None else held.meet(stored)
                    )
                elif not label.leq(stored):
                    ok = False
                    break
            if ok and all(not v.is_bottom for v in annotations.values()):
                rows.append({**binding, **annotations})
        return prune_maximal_pairwise(rows)

    @pytest.mark.parametrize("seed", range(60))
    def test_matches_direct_answering(self, fig1_closure, seed):
        # Up to three patterns over the term variables x, y and z.  Each
        # pattern is a stored triple, most often one sharing a term with
        # the triples before it, whose terms are mostly replaced by the
        # variable chosen for that term, so most Baps join and answer.  A
        # label is a new annotation variable, the first pattern's `l0`, a
        # constant (the triple's value, a value under it, or one over it)
        # or absent.
        rng = random.Random(7000 + seed)
        statements = fig1_closure.statements()
        anchors = [rng.choice(statements)]
        for _ in range(rng.randint(0, 2)):
            seen = {term for t, _ in anchors for term in t}
            linked = [st for st in statements if seen.intersection(st[0])]
            anchors.append(rng.choice(linked if rng.random() < 0.8 else statements))
        variables = [alg.Var(v) for v in "xyz"]
        terms = sorted({term for t, _ in anchors for term in t})
        chosen = dict(zip(rng.sample(terms, min(3, len(terms))), variables))
        patterns = []
        for i, (t, stored) in enumerate(anchors):
            slots = [
                rng.choice(variables)
                if rng.random() < 0.1
                else chosen[term] if term in chosen and rng.random() < 0.8 else term
                for term in t
            ]
            roll = rng.random()
            if roll < 0.2:
                annotation = alg.Var(f"l{i}")
            elif roll < 0.6:
                annotation = alg.Var("l0")
            elif roll < 0.9:
                annotation = rng.choice(
                    [stored, stored.meet(tv("{[2004,2006]}")), stored.join(tv("{[1990,1991]}"))]
                )
            else:
                annotation = None
            patterns.append(alg.TriplePattern(*slots, annotation))
        got = eval_pattern(fig1_closure, alg.Bap(tuple(patterns)))
        expected = self._direct_answers(fig1_closure, patterns)
        assert rows_as_set(got) == rows_as_set(expected)


class TestSparqlConservativity:
    @pytest.mark.parametrize("seed", range(20))
    def test_sampled_equivalence(self, seed):
        rng = random.Random(4000 + seed)
        triples = random_crisp_graph(rng, max_triples=14)
        pattern = random_pattern(rng)
        reference = sparql_eval(triples, pattern)
        annotated = top_annotated(triples, BOOLEAN).freeze()
        got = eval_pattern(annotated, pattern)
        assert Counter(
            frozenset((k, v) for k, v in row.items() if isinstance(v, Term))
            for row in got
        ) == Counter(frozenset(row.items()) for row in reference)


class TestSparqlConservativityLarger:
    """The SPARQL oracle on graphs ten times larger than above."""

    # Seeds in LARGER_SEEDS whose pattern has a Join or an OPTIONAL node
    # with rows on both sides; most random patterns match nothing here.
    LIVE_JOIN_SEEDS = (72, 80, 84, 105, 143)
    LIVE_OPTIONAL_SEEDS = (11, 17, 84)
    LARGER_SEEDS = (*range(40), 72, 80, 84, 105, 143)
    # The same, with every triple pattern drawn from a stored triple.  The
    # anchors come in the order `random_crisp_graph` drew them, so these
    # seeds do not depend on how the generator names terms.
    ANCHORED_LIVE_JOIN_SEEDS = (
        31, 35, 37, 38, 48, 72, 84, 99, 101, 119, 142, 143, 165, 166, 173, 174
    )
    ANCHORED_LIVE_OPTIONAL_SEEDS = (
        16, 29, 32, 35, 48, 59, 97, 99, 114, 121, 122, 157
    )
    # Further cases, whose anchored patterns reach no live Join or OPTIONAL.
    FORMER_LIVE_SEEDS = (46, 52, 81, 102, 116, 144)
    ANCHORED_SEEDS = tuple(
        sorted(
            {
                *range(20),
                *ANCHORED_LIVE_JOIN_SEEDS,
                *ANCHORED_LIVE_OPTIONAL_SEEDS,
                *FORMER_LIVE_SEEDS,
            }
        )
    )

    @staticmethod
    def _case(seed, anchored=False):
        rng = random.Random(9100 + seed)
        triples = random_crisp_graph(rng, max_triples=300, vocabulary=2)
        return triples, random_pattern(rng, anchors=triples if anchored else ())

    @pytest.mark.parametrize("seed", LARGER_SEEDS)
    def test_sampled_equivalence(self, seed):
        self._assert_equivalent(*self._case(seed))

    @pytest.mark.parametrize("seed", ANCHORED_SEEDS)
    def test_anchored_equivalence(self, seed):
        self._assert_equivalent(*self._case(seed, anchored=True))

    @staticmethod
    def _assert_equivalent(triples, pattern):
        reference = sparql_eval(triples, pattern)
        got = eval_pattern(top_annotated(triples, BOOLEAN).freeze(), pattern)
        assert Counter(
            frozenset((k, v) for k, v in row.items() if isinstance(v, Term))
            for row in got
        ) == Counter(frozenset(row.items()) for row in reference)

    @staticmethod
    def _live_nodes(triples, pattern):
        for field in ("left", "right", "pattern"):
            child = getattr(pattern, field, None)
            if child is not None:
                yield from TestSparqlConservativityLarger._live_nodes(triples, child)
        if isinstance(pattern, (alg.Join, alg.Optional)):
            if sparql_eval(triples, pattern.left) and sparql_eval(triples, pattern.right):
                yield type(pattern)

    def test_live_seeds_reach_join_and_optional(self):
        for anchored, kind, seeds in (
            (False, alg.Join, self.LIVE_JOIN_SEEDS),
            (False, alg.Optional, self.LIVE_OPTIONAL_SEEDS),
            (True, alg.Join, self.ANCHORED_LIVE_JOIN_SEEDS),
            (True, alg.Optional, self.ANCHORED_LIVE_OPTIONAL_SEEDS),
        ):
            for seed in seeds:
                case = self._case(seed, anchored)
                assert kind in set(self._live_nodes(*case)), (anchored, kind, seed)
