"""Closure engine: paper regressions, oracle equivalence, termination."""

from __future__ import annotations

import functools
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from anrdf import apply_defaults, closure, get_domain, iri, literal, parse_graph
from anrdf.domains.compound import CompoundDomain
from anrdf.errors import AnrdfError, ClosureIterationError, DomainMismatchError
from anrdf.model import DOM, RANGE, SC, SP, TYPE, AnnotatedGraph, Triple, skolem
from anrdf.reasoner import (
    DEFAULT_MAX_FIRINGS,
    ClosureStats,
    _agenda_loop,
    _consequences,
    _tables_apply,
)
from oracles import (
    brute_force_closure,
    crisp_closure,
    entails,
    minimal_witnesses,
    random_crisp_graph,
    top_annotated,
)

TEMPORAL = get_domain("temporal")
BOOLEAN = get_domain("boolean")


def tv(text: str):
    return TEMPORAL.parse(text)


class TestMatch:
    TERMS = [iri(x) for x in "abc"] + [TYPE, SC]

    @classmethod
    def _statements(cls) -> list[tuple[Triple, object]]:
        terms, rng = cls.TERMS, random.Random(5)
        return [
            (
                Triple(rng.choice(terms[:3]), rng.choice(terms), rng.choice(terms[:3])),
                tv(f"{{[{rng.randint(0, 5)},9]}}"),
            )
            for _ in range(40)
        ]

    @classmethod
    def _graph(cls) -> AnnotatedGraph:
        g = AnnotatedGraph(TEMPORAL)
        for t, value in cls._statements():
            g.insert(t, value)
        return g

    def _assert_every_pattern_matches_a_scan(self, g: AnnotatedGraph) -> None:
        slots = [None, *self.TERMS]
        for s in slots:
            for p in slots:
                for o in slots:
                    expected = [
                        (t, v)
                        for t, v in g.statements()
                        if (s is None or t.subject == s)
                        and (p is None or t.predicate == p)
                        and (o is None or t.object == o)
                    ]
                    assert list(g.match(s, p, o)) == expected, (s, p, o)

    def test_every_binding_pattern_matches_a_scan_in_order(self):
        self._assert_every_pattern_matches_a_scan(self._graph())

    def test_a_built_graph_matches_a_scan_before_and_after_inserts(self):
        # A graph from `from_values` builds its indexes on the first
        # `match`, and `insert` keeps them up to date from then on.
        statements = self._statements()
        g = AnnotatedGraph.from_values(TEMPORAL, dict(statements[:15]))
        self._assert_every_pattern_matches_a_scan(g)
        size = len(g)
        for t, value in statements[15:]:
            g.insert(t, value)
        assert len(g) > size
        self._assert_every_pattern_matches_a_scan(g)

    def test_a_built_graph_shares_no_index_with_its_source(self):
        g = self._graph()
        before = list(g.match(iri("a"), TYPE, None))
        clone = AnnotatedGraph.from_values(g.domain, dict(g.items()))
        assert list(clone.match(iri("a"), TYPE, None)) == before
        clone.insert(Triple(iri("a"), TYPE, iri("z")), tv("{[1,2]}"))
        clone.insert(Triple(iri("z"), TYPE, iri("a")), tv("{[1,2]}"))
        assert list(g.match(iri("a"), TYPE, None)) == before
        assert Triple(iri("a"), TYPE, iri("z")) in [t for t, _ in clone.match(iri("a"), TYPE, None)]
        assert list(g.match(None, TYPE, iri("a"))) == [
            (t, v) for t, v in g.statements() if t.predicate == TYPE and t.object == iri("a")
        ]


class TestLookupContract:
    """The store's one lookup contract: for each of the 8 bound/unbound
    combinations of (s, p, o), `match` equals a brute-force filter of
    `sorted(graph.items())`, order included, whether the graph is frozen
    or grew by `insert` after its first `match` (which updates the
    indexes in place).  `statements()` keeps nothing between calls."""

    SUBJECTS = [iri(x) for x in "abcd"] + [skolem("b")]
    PREDICATES = [iri("p"), iri("q"), TYPE, SC]
    OBJECTS = SUBJECTS + [literal("a")]
    # Lookups also ask for terms the graph may not hold.
    PROBES = SUBJECTS + PREDICATES + [literal("a"), iri("z")]

    statement_lists = st.lists(
        st.tuples(
            st.sampled_from(SUBJECTS),
            st.sampled_from(PREDICATES),
            st.sampled_from(OBJECTS),
            st.integers(0, 6),
            st.integers(0, 3),
        ),
        max_size=40,
    )

    @staticmethod
    def _values(statements) -> list[tuple[Triple, object]]:
        return [
            (Triple(s, p, o), tv(f"{{[{start},{start + width}]}}"))
            for s, p, o, start, width in statements
        ]

    def _assert_contract(self, g: AnnotatedGraph) -> None:
        ordered = sorted(g.items())
        slots = [None, *self.PROBES]
        for s, p, o in itertools.product(slots, repeat=3):
            expected = [
                (t, v)
                for t, v in ordered
                if (s is None or t.subject == s)
                and (p is None or t.predicate == p)
                and (o is None or t.object == o)
            ]
            assert g.match(s, p, o) == expected, (s, p, o)
        first, second = g.statements(), g.statements()
        assert first == second == ordered and first is not second

    @settings(max_examples=40, deadline=None)
    @given(statements=statement_lists)
    def test_a_frozen_graph_matches_a_brute_force_filter(self, statements):
        g = AnnotatedGraph.from_values(TEMPORAL, dict(self._values(statements))).freeze()
        self._assert_contract(g)

    @settings(max_examples=40, deadline=None)
    @given(statements=statement_lists, split=st.integers(0, 40), first=st.sampled_from(PROBES))
    def test_a_graph_grown_after_its_first_match_matches_a_brute_force_filter(
        self, statements, split, first
    ):
        values = self._values(statements)
        g = AnnotatedGraph(TEMPORAL)
        for t, value in values[:split]:
            g.insert(t, value)
        # The first lookup binds only `s`, so the indexes come from the
        # unbound-predicate path; every later insert updates them.
        g.match(first, None, None)
        for t, value in values[split:]:
            g.insert(t, value)
        self._assert_contract(g)

    def test_statements_is_a_new_list_on_every_call(self):
        t = Triple(iri("a"), iri("p"), iri("b"))
        g = AnnotatedGraph.from_values(TEMPORAL, {t: tv("{[1,2]}")}).freeze()
        first = g.statements()
        first.clear()
        assert g.statements() == [(t, tv("{[1,2]}"))]
        assert g.statements() is not g.statements()


class TestTerms:
    def test_literal_predicate_is_rejected(self):
        with pytest.raises(AnrdfError, match=r'^predicate must not be a literal: "p"$'):
            Triple(iri("a"), literal("p"), iri("b"))

    def test_literal_predicate_is_written_as_a_term(self):
        with pytest.raises(AnrdfError) as info:
            Triple(iri("a"), literal('q"x\ty'), iri("b"))
        assert str(info.value) == 'predicate must not be a literal: "q\\"x\\ty"'

    def test_repr_of_a_skolem_term_is_its_blank_node(self):
        assert repr(skolem("b1")) == "_:b1"

    def test_make_and_replace_check_the_predicate(self):
        with pytest.raises(AnrdfError, match="predicate must not be a literal"):
            Triple._make((iri("a"), literal("p"), iri("b")))
        with pytest.raises(AnrdfError, match="predicate must not be a literal"):
            Triple(iri("a"), iri("p"), iri("b"))._replace(predicate=literal("p"))

    @pytest.mark.parametrize("seed", range(20))
    def test_tuple_order_is_the_per_position_kind_lexical_order(self, seed):
        # `serialize_graph`, `statements()` and `match` sort triples by
        # their own tuple order; this pins it to (kind, lexical) per
        # position, the order every digest was recorded in.
        rng = random.Random(9500 + seed)
        makers = (iri, literal, skolem)
        lexicals = ["", "a", "a.b", "ab", "b", "A", "_:a", "http://e/a", "1", "10", "é"]

        def term():
            return rng.choice(makers)(rng.choice(lexicals))

        triples = []
        for _ in range(rng.randint(0, 60)):
            triples.append(Triple(term(), rng.choice((iri, skolem))(rng.choice(lexicals)), term()))
        triples += rng.sample(triples, len(triples) // 4)  # some repeat

        def old_key(t):
            return tuple((x.kind, x.lexical) for x in (t.subject, t.predicate, t.object))

        assert sorted(triples) == sorted(triples, key=old_key)
        terms = [x for t in triples for x in t]
        assert sorted(terms) == sorted(terms, key=lambda x: (x.kind, x.lexical))


class TestInsert:
    def test_merge_on_duplicate(self):
        g = AnnotatedGraph(TEMPORAL)
        t = Triple(iri("a"), iri("p"), iri("b"))
        assert g.insert(t, tv("{[2000,2006]}"))
        assert g.insert(t, tv("{[2003,2008]}"))
        assert g.get(t) == tv("{[2000,2008]}")

    def test_subsumed_insert_reports_no_change(self):
        g = AnnotatedGraph(TEMPORAL)
        t = Triple(iri("a"), iri("p"), iri("b"))
        value = tv("{[1,9]}")
        assert g.insert(t, value)
        assert not g.insert(t, value)
        assert not g.insert(t, tv("{[2,3]}"))

    def test_bottom_is_never_stored(self):
        g = AnnotatedGraph(TEMPORAL)
        t = Triple(iri("a"), iri("p"), iri("b"))
        assert not g.insert(t, TEMPORAL.bottom)
        assert t not in g

    def test_domain_mismatch(self):
        g = AnnotatedGraph(TEMPORAL)
        with pytest.raises(DomainMismatchError):
            g.insert(Triple(iri("a"), iri("p"), iri("b")), BOOLEAN.top)

    def test_from_values_drops_bottom(self):
        t, u = Triple(iri("a"), iri("p"), iri("b")), Triple(iri("a"), iri("p"), iri("c"))
        g = AnnotatedGraph.from_values(TEMPORAL, {t: TEMPORAL.bottom, u: tv("{[1,2]}")})
        assert t not in g
        assert g.statements() == [(u, tv("{[1,2]}"))]

    def test_from_values_domain_mismatch(self):
        t = Triple(iri("a"), iri("p"), iri("b"))
        with pytest.raises(DomainMismatchError, match="graph over temporal got a boolean value"):
            AnnotatedGraph.from_values(TEMPORAL, {t: BOOLEAN.top})


class TestEntailment:
    def test_subsumption(self, fig1_closure):
        t = Triple(iri("chadHurley"), TYPE, iri("googleEmp"))
        assert entails(fig1_closure, t, tv("{[2007,2008]}"))
        assert not entails(fig1_closure, t, tv("{[1990,1991]}"))

    def test_bottom_always_entailed(self, fig1_closure):
        anything = Triple(iri("no"), iri("such"), iri("triple"))
        assert entails(fig1_closure, anything, TEMPORAL.bottom)


class TestPaperClosures:
    def test_temporal_example(self, fig1_closure):
        t = Triple(iri("chadHurley"), TYPE, iri("googleEmp"))
        assert fig1_closure.get(t) == tv("{[2006,2010]}")

    def test_duplicate_schema_rows_merge(self, fig1_closure):
        t = Triple(iri("SkypeCollab"), SC, iri("EbayCollab"))
        assert fig1_closure.get(t) == tv("{[2005,2011]}")

    def test_subproperty_application(self, fig1_closure):
        t = Triple(iri("niklasZennstrom"), iri("worksFor"), iri("skype"))
        assert fig1_closure.get(t) == tv("{[2003,2007]}")

    def test_provenance_example(self, provenance_closure):
        prov = get_domain("provenance")
        agent = Triple(iri("chadHurley"), TYPE, iri("Agent"))
        assert provenance_closure.get(agent) == prov.parse("(chad ^ foaf)")
        person = Triple(iri("chadHurley"), TYPE, iri("Person"))
        assert provenance_closure.get(person) == prov.parse("chad")

    def test_fuzzy_example(self, data_dir):
        doc = parse_graph((data_dir / "fuzzy_collab.anrdf").read_text())
        closed = closure(doc.graph)
        fp = get_domain("fuzzy:product")
        t = Triple(iri("toivo"), TYPE, iri("EbayCollab"))
        assert closed.get(t) == fp.parse("0.15")

    def test_implicit_typing_rules(self):
        # dom on a superproperty types subjects of the subproperty.  The
        # superproperty is a literal, so (chad "A" youtube) is never
        # materialised and only the implicit rule reaches the answer.
        doc = parse_graph(
            "@domix temporal .\n"
            '("A" dom Person) : {[1,9]} .\n'
            '(worksFor sp "A") : {[2,8]} .\n'
            "(chad worksFor youtube) : {[3,7]} .\n"
        )
        closed = closure(doc.graph)
        assert closed.get(Triple(iri("chad"), TYPE, iri("Person"))) == tv("{[3,7]}")

    # Implicit typing with each of its three premises derived, for dom
    # and range, under the literal superproperty "A".
    @pytest.mark.parametrize(
        "statements, typed",
        [
            (  # (worksFor sp "A") derived by sp-application over (q sp sp)
                ['("A" dom C) : {[1,9]}', "(q sp sp) : {[2,8]}",
                 '(worksFor q "A") : {[3,9]}', "(chad worksFor yt) : {[0,7]}"],
                "chad type C",
            ),
            (
                ['("A" range C) : {[1,9]}', "(q sp sp) : {[2,8]}",
                 '(worksFor q "A") : {[3,9]}', "(chad worksFor yt) : {[0,7]}"],
                "yt type C",
            ),
            (  # ("A" dom C) derived by sp-application over (r sp dom)
                ['("A" r C) : {[1,7]}', "(r sp dom) : {[2,9]}",
                 '(worksFor sp "A") : {[3,9]}', "(chad worksFor yt) : {[0,8]}"],
                "chad type C",
            ),
            (
                ['("A" r C) : {[1,7]}', "(r sp range) : {[2,9]}",
                 '(worksFor sp "A") : {[3,9]}', "(chad worksFor yt) : {[0,8]}"],
                "yt type C",
            ),
            (  # the data triple (x type D) derived by domain typing
                ['("A" dom C) : {[1,9]}', '(type sp "A") : {[2,8]}',
                 "(worksFor dom D) : {[3,9]}", "(x worksFor y) : {[0,7]}"],
                "x type C",
            ),
            (
                ['("A" range C) : {[1,9]}', '(type sp "A") : {[2,8]}',
                 "(worksFor dom D) : {[3,9]}", "(x worksFor y) : {[0,7]}"],
                "D type C",
            ),
        ],
        ids=["sp-dom", "sp-range", "dom-dom", "dom-range", "data-dom", "data-range"],
    )
    def test_implicit_typing_with_a_derived_premise(self, statements, typed):
        doc = parse_graph("@domix temporal .\n" + "".join(f"{s} .\n" for s in statements))
        closed = closure(doc.graph)
        (t,) = parse_graph(f"{typed} .\n", domain="temporal").plain
        assert closed.get(t) == tv("{[3,7]}")
        assert dict(closed.statements()) == brute_force_closure(doc.graph)


# Pools of (nodes, vocabulary, most triples) for random graphs.  Nodes
# fill the subject and object positions; nodes that are not literals and
# the vocabulary fill the predicate position.  The wide pool adds dom,
# range, the vocabulary as nodes, and a literal node, which can be a
# superproperty but never a predicate.
NARROW_POOL = ([iri(x) for x in "abcd"], [SP, SC, TYPE], 8)
WIDE_VOCABULARY = [SP, SC, TYPE, DOM, RANGE]
WIDE_POOL = (
    [iri(x) for x in "abcd"] + WIDE_VOCABULARY + [literal("l")],
    WIDE_VOCABULARY,
    12,
)
BRUTE_FORCE_DOMAINS = [
    get_domain(name)
    for name in ("temporal", "provenance", "fuzzy:min", "compound(temporal,fuzzy:product)")
]
# The table pool has no rho-df node, so its graphs take the table path
# in every domain whose meet distributes over join.  Its few nodes and
# many triples give classes that two schema paths reach.
TABLE_POOL = ([iri(x) for x in "abcd"] + [literal("l")], WIDE_VOCABULARY, 24)
TABLE_DOMAINS = [
    get_domain(name)
    for name in (
        "temporal", "provenance", "fuzzy:min", "fuzzy:product", "boolean",
        "compound(temporal,provenance)",
    )
]


def _random_graph(domain, pool, rng: random.Random) -> AnnotatedGraph:
    """Up to `pool`'s triple count of random triples over its nodes and
    vocabulary, each with a random non-bottom value of `domain`."""
    nodes, vocabulary, max_triples = pool
    properties = [n for n in nodes if n.kind != "literal"] + vocabulary
    graph = AnnotatedGraph(domain)
    for _ in range(rng.randint(1, max_triples)):
        s = rng.choice(nodes)
        p = rng.choice(properties)
        o = rng.choice(nodes)
        value = domain.value(domain.random_payload(rng))
        if not value.is_bottom:
            graph.insert(Triple(s, p, o), value)
    return graph


def _loop_closure(
    graph: AnnotatedGraph,
    max_firings: int = DEFAULT_MAX_FIRINGS,
    stats: ClosureStats | None = None,
) -> AnnotatedGraph:
    """The closure of `graph` by the agenda loop, whichever path `closure`
    would take; `stats`, if given, receives the loop's counts."""
    out = AnnotatedGraph(graph.domain)
    _agenda_loop(out, graph.statements(), max_firings, stats or ClosureStats())
    return out


class _ShuffledGraph(AnnotatedGraph):
    """A copy of `graph` whose `statements()` and `items()` come in an
    order shuffled by `rng`, so that `closure` takes its seeds in that
    order."""

    def __init__(self, graph: AnnotatedGraph, rng: random.Random):
        super().__init__(graph.domain)
        for t, value in graph.statements():
            self.insert(t, value)
        self._rng = rng

    def statements(self):
        out = list(super().statements())
        self._rng.shuffle(out)
        return out

    def items(self):
        return self.statements()


# Each rho-df rule as (premises, conclusion).  "A" is a literal, so it is
# never a predicate and sp-application cannot stand in for the implicit
# rules.
RULES = {
    "sp-transitivity": (["a sp b", "b sp c"], "a sp c"),
    "sp-application": (["d sp e", "x d y"], "x e y"),
    "sc-transitivity": (["a sc b", "b sc c"], "a sc c"),
    "type-propagation": (["a sc b", "x type a"], "x type b"),
    "domain-typing": (["d dom b", "x d y"], "x type b"),
    "range-typing": (["d range b", "x d y"], "y type b"),
    "implicit-domain-typing": (['"A" dom b', 'd sp "A"', "x d y"], "x type b"),
    "implicit-range-typing": (['"A" range b', 'd sp "A"', "x d y"], "y type b"),
}


class TestClosureProperties:
    def test_monotone_and_idempotent(self, fig1_closure, data_dir):
        doc = parse_graph((data_dir / "fig1.anrdf").read_text())
        for t, value in doc.graph.statements():
            assert value.leq(fig1_closure.get(t))
        again = closure(AnnotatedGraph.from_values(fig1_closure.domain, dict(fig1_closure.items())))
        assert dict(again.statements()) == dict(fig1_closure.statements())

    @pytest.mark.parametrize(
        "pool, seed",
        [pytest.param(NARROW_POOL, seed, id=str(seed)) for seed in range(12)]
        + [pytest.param(WIDE_POOL, seed, id=f"wide-{seed}") for seed in range(300)],
    )
    def test_matches_brute_force_on_small_graphs(self, pool, seed):
        # One graph per domain from the same seed.  The compound's meet
        # does not distribute (`meet_distributes` False), and the wide
        # pool uses rho-df terms as data, so most graphs take the loop.
        for domain in BRUTE_FORCE_DOMAINS:
            base = _random_graph(domain, pool, random.Random(seed))
            fast = dict(closure(base).statements())
            slow = brute_force_closure(base)
            assert fast == slow, domain.name

    def test_matches_brute_force_on_a_benchmark_document(self, workloads):
        # The `infer-temporal` workload's shape (a class hierarchy, sp
        # chains, one interval set per individual) at a quarter of its
        # size, read through `parse_graph` as `anrdf infer` reads it.
        doc = parse_graph(workloads.temporal_document(1, 100))
        graph, _ = apply_defaults(doc.graph, doc.plain, "top")
        fast = dict(closure(graph).statements())
        assert (len(graph), len(fast)) == (244, 644)
        assert fast == brute_force_closure(graph)

    @pytest.mark.parametrize("domain", TABLE_DOMAINS, ids=lambda d: d.name)
    def test_table_path_equals_the_loop_and_the_brute_force(self, domain):
        for seed in range(150):
            graph = _random_graph(domain, TABLE_POOL, random.Random(seed))
            assert _tables_apply(graph) is not None, seed
            tables = dict(closure(graph).statements())
            assert tables == dict(_loop_closure(graph).statements()), seed
            assert tables == brute_force_closure(graph), seed

    # Graphs on the table path whose data triples fill a table's
    # placeholders in each way, and the triples their closures add.
    PLACEHOLDERS = {
        "subject-is-object": (
            ["a p a", "p dom C", "p range D", "p sp q", "C sc E"],
            ["a type C", "a type D", "a type E", "a q a"],
        ),
        "class-and-predicate": (  # p is a data predicate and a class
            ["a p b", "c type p", "p sc C", "p dom D", "q dom p", "x q y"],
            ["a type D", "c type C", "x type p", "x type C"],
        ),
        "literal-superproperty": (  # (a "L" b) is not a triple; its typing is
            ["a p b", 'p sp "L"', '"L" dom C', '"L" range D', "C sc E"],
            ["a type C", "a type E", "b type D"],
        ),
        "class-without-superclass": (["a type A", "b type B", "B sc C"], ["b type C"]),
    }
    # The value of the i-th statement of a graph, by domain.
    VALUES = {"temporal": "{{[{i},{j}]}}", "provenance": "w{i}"}

    @pytest.mark.parametrize("name", ["temporal", "provenance"])
    @pytest.mark.parametrize("case", PLACEHOLDERS)
    def test_placeholders_take_each_data_triples_terms(self, case, name):
        domain = get_domain(name)
        statements, added = (
            parse_graph("".join(f"{t} .\n" for t in lines), domain="temporal").plain
            for lines in self.PLACEHOLDERS[case]
        )
        graph = AnnotatedGraph(domain)
        for i, t in enumerate(statements):
            graph.insert(t, domain.parse(self.VALUES[name].format(i=i, j=20 - i)))
        assert _tables_apply(graph) is not None
        closed = dict(closure(graph).statements())
        assert closed == dict(_loop_closure(graph).statements())
        assert closed == brute_force_closure(graph)
        assert closed.keys() - graph.triple_set() == set(added)

    def test_the_closed_schema_replaces_the_input_schema(self):
        # The table path lays the closed schema over the input, so its `sc`
        # statements are those of the loop's closure of the schema alone.
        # There (A sc C) is raised to the join of its own value and the
        # path through B, and (A sc D) and (B sc D) are derived.
        schema = (
            "@domix temporal .\n(A sc B) : {[0,5]} .\n(B sc C) : {[0,10]} .\n"
            "(A sc C) : {[6,8]} .\n(C sc D) : {[0,10]} .\n"
        )
        graph = parse_graph(schema + "(x type A) : {[1,2]} .\n").graph
        assert _tables_apply(graph) is not None
        closed_schema = _loop_closure(parse_graph(schema).graph)
        a_c, a_d, b_d = parse_graph("A sc C .\nA sc D .\nB sc D .\n", domain="temporal").plain
        assert closed_schema.get(a_c) == tv("{[0,5],[6,8]}")
        assert a_d not in graph and a_d in closed_schema
        assert b_d not in graph and b_d in closed_schema
        sc = [(t, v) for t, v in closure(graph).statements() if t.predicate == SC]
        assert sc == closed_schema.statements()

    # Each graph takes the agenda loop for the reason its id names, and
    # `derived` is a conclusion that the tables would get wrong.
    @pytest.mark.parametrize(
        "text, derived, value",
        [
            pytest.param(
                # (x type B) joins [0,1] from domain typing and [4,5] from
                # propagation; the meet of the join with (B sc C) exceeds
                # the join of the two meets in this domain.
                "@domix compound(temporal,fuzzy:product) .\n"
                "(x P y) : {<{[0,1]},1>} .\n"
                "(P dom B) : {<{[0,10]},1>} .\n"
                "(x type A) : {<{[4,5]},1>} .\n"
                "(A sc A1) : {<{[0,10]},1>} .\n"
                "(A1 sc A2) : {<{[0,10]},1>} .\n"
                "(A2 sc B) : {<{[0,10]},1>} .\n"
                "(B sc C) : {<{[0,1],[4,5]},1/2>} .\n",
                "x type C",
                "{<{[0,1],[4,5]},1/2>}",
                id="meet-does-not-distribute",
            ),
            pytest.param(
                # type has a superproperty, so type triples are sp-applied.
                "@domix temporal .\n(type sp rel) : {[0,9]} .\n(x type A) : {[2,5]} .\n",
                "x rel A",
                "{[2,5]}",
                id="rho-df-subject",
            ),
            pytest.param(
                # manages triples conclude type triples, which sc propagates.
                "@domix temporal .\n(manages sp type) : {[0,9]} .\n"
                "(alice manages Boss) : {[2,12]} .\n(Boss sc Person) : {[0,20]} .\n",
                "alice type Person",
                "{[2,9]}",
                id="rho-df-object",
            ),
        ],
    )
    def test_each_fallback_condition_takes_the_loop(self, text, derived, value):
        graph = parse_graph(text).graph
        assert _tables_apply(graph) is None
        closed = closure(graph)
        (t,) = parse_graph(f"{derived} .\n", domain="temporal").plain
        assert closed.get(t) == graph.domain.parse(value)
        assert dict(closed.statements()) == brute_force_closure(graph)

    @pytest.mark.parametrize("domain", BRUTE_FORCE_DOMAINS, ids=lambda d: d.name)
    def test_agenda_order_does_not_change_the_closure(self, domain):
        # `closure` seeds its agenda in the order of `items()` or of
        # `statements()`, by its path; three shuffles of it reach the same
        # least fixpoint as the unshuffled order.
        for seed in range(150):
            rng = random.Random(seed)
            base = _random_graph(domain, WIDE_POOL, rng)
            expected = closure(base).statements()
            for _ in range(3):
                shuffled = _ShuffledGraph(base, random.Random(rng.random()))
                assert closure(shuffled).statements() == expected, seed

    # A premise can reach its final value after every other premise of
    # the rule was last used as a seed, so the rule must fire from each.
    @pytest.mark.parametrize(
        "rule, seed",
        [
            pytest.param(rule, i, id=f"{rule}-{i + 1}")
            for rule, (premises, _) in RULES.items()
            for i in range(len(premises))
        ],
    )
    def test_every_premise_seeds_its_rule(self, rule, seed):
        premises, conclusion = RULES[rule]
        text = "".join(f"{t} .\n" for t in [*premises, conclusion])
        *triples, derived = parse_graph(text, domain="temporal").plain
        values = [tv(f"{{[{i},{20 - i}]}}") for i in range(len(triples))]
        graph = AnnotatedGraph(TEMPORAL)
        for t, value in zip(triples, values):
            graph.insert(t, value)
        expected = functools.reduce(lambda a, b: a.meet(b), values)
        assert (derived, expected) in _consequences(graph, triples[seed], values[seed])

    def test_raises_before_a_seed_leaves_or_their_flags(self):
        # In the agenda loop, (x type A) is raised by domain typing ([5,6])
        # and then, before it leaves the agenda, by type propagation from
        # (x type A0) ([1,2]).  It must still be propagated through
        # (A sc B).
        doc = parse_graph(
            "@domix temporal .\n"
            "(A sc B) : {[0,10]} .\n"
            "(A0 sc A) : {[0,10]} .\n"
            "(P dom A) : {[0,10]} .\n"
            "(x P y) : {[5,6]} .\n"
            "(x type A0) : {[1,2]} .\n"
        )
        closed = _loop_closure(doc.graph)
        assert closed.get(Triple(iri("x"), TYPE, iri("B"))) == tv("{[1,2],[5,6]}")
        assert dict(closed.statements()) == brute_force_closure(doc.graph)

    def test_few_firings_are_subsumed(self):
        # The shape of the benchmark's temporal graph: a subclass tree of
        # depth 3 (class i's parent is (i-1)//3), two subproperty edges,
        # dom and range typing, and individuals with one type and one
        # property triple each.
        rng = random.Random(8)
        lines = [f"(C{i} sc C{(i - 1) // 3}) : {{[0,100]}} ." for i in range(1, 40)]
        lines += ["(p0 sp p1) : {[0,90]} .", "(p2 sp p3) : {[10,100]} ."]
        lines += ["(p1 dom C0) : {[0,80]} .", "(p1 range Org) : {[20,100]} ."]
        lines += ["(p3 dom C1) : {[0,100]} ."]
        for i in range(80):
            a, b = sorted(rng.sample(range(100), 2))
            lines.append(f"(x{i} type C{rng.randrange(40)}) : {{[{a},{b}]}} .")
            a, b = sorted(rng.sample(range(100), 2))
            lines.append(f"(x{i} p{rng.randrange(4)} x{rng.randrange(80)}) : {{[{a},{b}]}} .")
        graph = parse_graph("@domix temporal .\n" + "\n".join(lines) + "\n").graph
        stats = ClosureStats()
        closure(graph, stats=stats)
        assert stats.subsumed < 0.2 * (stats.firings - stats.bottom)

    def test_each_combination_of_premises_fires_once(self):
        # Lookups see only the processed triples, so the rule fires from
        # whichever of its two premises leaves the agenda last.  The table
        # path fires it once from the data triple, its one seed beside
        # the schema triple.
        doc = parse_graph("@domix temporal .\n(A sc B) : {[0,10]} .\n(x type A) : {[2,5]} .\n")
        derived = Triple(iri("x"), TYPE, iri("B"))
        stats = ClosureStats()
        assert _loop_closure(doc.graph, stats=stats).get(derived) == tv("{[2,5]}")
        assert stats == ClosureStats(firings=1, new=1, raised=0, subsumed=0, bottom=0, seeds=3)
        assert closure(doc.graph, stats=stats).get(derived) == tv("{[2,5]}")
        assert stats == ClosureStats(firings=1, new=1, raised=0, subsumed=0, bottom=0, seeds=2)

    def test_stats_count_each_outcome(self):
        # Every firing concludes (x type B).  In the agenda loop, from
        # (x type A) it raises the pending value of that input triple; from
        # (x type C), once stored, it raises it in place and puts it back
        # on the agenda; from (x type D) it is bottom, and from (x type E)
        # subsumed.  The table path has the same outcomes, and its seeds
        # are the four schema triples and the five data triples.
        doc = parse_graph(
            "@domix temporal .\n"
            "(A sc B) : {[0,10]} .\n(C sc B) : {[0,10]} .\n"
            "(D sc B) : {[20,30]} .\n(E sc B) : {[0,10]} .\n"
            "(x type A) : {[1,2]} .\n(x type B) : {[0,0]} .\n"
            "(x type C) : {[1,2],[5,6]} .\n(x type D) : {[1,2]} .\n"
            "(x type E) : {[1,1]} .\n"
        )
        derived = Triple(iri("x"), TYPE, iri("B"))
        stats = ClosureStats()
        assert _loop_closure(doc.graph, stats=stats).get(derived) == tv("{[0,0],[1,2],[5,6]}")
        assert stats == ClosureStats(firings=4, new=0, raised=2, subsumed=1, bottom=1, seeds=10)
        assert closure(doc.graph, stats=stats).get(derived) == tv("{[0,0],[1,2],[5,6]}")
        assert stats == ClosureStats(firings=4, new=0, raised=2, subsumed=1, bottom=1, seeds=9)

    @pytest.mark.parametrize(
        "document, by_closure, by_loop",
        [
            ("temporal", "2110/1458/561/91/0/907", "3247/1458/523/1266/0/2321"),
            ("compound", "529/381/0/148/0/253", "764/381/0/383/0/608"),
            ("fallback", "3/2/1/0/0/7", "3/2/1/0/0/7"),
        ],
    )
    def test_stats_of_the_sample_documents(self, workloads, data_dir, document, by_closure, by_loop):
        # firings/new/raised/subsumed/bottom/seeds through `closure` and
        # through the agenda loop alone, for the benchmark's seed-1
        # documents and the sample that takes the loop.  A change to the
        # firings or to where an outcome is counted shows here.
        text = {
            "temporal": lambda: workloads.temporal_document(1),
            "compound": lambda: workloads.compound_document(1),
            "fallback": lambda: (data_dir / "fallback_sample.anrdf").read_text(),
        }[document]()
        doc = parse_graph(text)
        graph, _ = apply_defaults(doc.graph, doc.plain)
        for close, expected in ((closure, by_closure), (_loop_closure, by_loop)):
            stats = ClosureStats()
            close(graph, stats=stats)
            got = (stats.firings, stats.new, stats.raised, stats.subsumed, stats.bottom, stats.seeds)
            assert "/".join(map(str, got)) == expected, close.__name__
        assert (_tables_apply(graph) is None) == (document == "fallback")

    @pytest.mark.parametrize("name", ["fig1.anrdf", "fallback_sample.anrdf"])
    def test_stats_hold_one_finished_closure(self, data_dir, name):
        # A `stats` given to two closures holds the counts of one, not
        # their sum, and a closure stopped by its cap leaves it as it was.
        graph = parse_graph((data_dir / name).read_text()).graph
        once = ClosureStats()
        closure(graph, stats=once)
        stats = ClosureStats()
        closure(graph, stats=stats)
        closure(graph, stats=stats)
        assert stats == once
        with pytest.raises(ClosureIterationError) as caught:
            closure(graph, max_firings=once.firings - 1, stats=stats)
        assert caught.value.stats.firings == once.firings - 1
        assert stats == once

    def test_plain_schema_meets_skip_the_compound_kernel(self, monkeypatch):
        # A plain schema gets top from `apply_defaults`, so every rule
        # meets a data annotation with top, or top with top: the value
        # level decides each meet without the pair-set kernel.
        lines = ["C1 sc C0 .", "C2 sc C0 .", "C3 sc C1 .", "p dom C0 .", "q sp p ."]
        rng = random.Random(5)
        for i in range(3):
            a, b = sorted(rng.sample(range(20), 2))
            lines.append(f"(x{i} type C{rng.randrange(1, 4)}) : {{<{{[{a},{b}]}},s{i}>}} .")
            lines.append(f"(x{i} q x{(i + 1) % 3}) : {{<{{[{b},{b + 5}]}},s{i % 2}>}} .")
        doc = parse_graph(
            "@domix compound(temporal,provenance) .\n" + "\n".join(lines) + "\n"
        )
        graph, _ = apply_defaults(doc.graph, doc.plain)
        meets = []
        kernel = CompoundDomain.meet_payload

        def counted(self, a, b):
            meets.append((a, b))
            return kernel(self, a, b)

        monkeypatch.setattr(CompoundDomain, "meet_payload", counted)
        closed = closure(graph)
        monkeypatch.undo()
        assert meets == []
        assert len(closed) > len(graph)
        assert dict(closed.statements()) == brute_force_closure(graph)

    @pytest.mark.parametrize("seed", range(25))
    def test_crisp_conservativity_sample(self, seed):
        rng = random.Random(1000 + seed)
        triples = random_crisp_graph(rng)
        annotated = closure(top_annotated(triples, BOOLEAN))
        assert annotated.triple_set() == crisp_closure(triples)

    @pytest.mark.parametrize("seed", range(6))
    def test_crisp_conservativity_larger(self, seed):
        # Ten times the triples above, over a vocabulary twenty times as
        # large so the closure derives new triples without saturating.
        rng = random.Random(9000 + seed)
        triples = random_crisp_graph(rng, max_triples=300, vocabulary=20)
        annotated = closure(top_annotated(triples, BOOLEAN))
        assert annotated.triple_set() == crisp_closure(triples)

    def test_provenance_closure_carries_minimal_witnesses(self):
        # Label input triple i with the atom t<i> and close in provenance:
        # each closure triple must carry exactly the minimal sets of input
        # triples whose crisp closure holds it (its why-provenance).  The
        # oracle shares no rule code with `closure`.
        prov = get_domain("provenance")
        for seed in range(300):
            triples = sorted(random_crisp_graph(random.Random(2000 + seed), max_triples=10))
            graph = AnnotatedGraph(prov)
            for i, t in enumerate(triples):
                graph.insert(t, prov.value(frozenset({frozenset({f"t{i}"})})))
            expected = {
                t: frozenset(frozenset(f"t{i}" for i in witness) for witness in witnesses)
                for t, witnesses in minimal_witnesses(triples).items()
            }
            got = {t: value.payload for t, value in closure(graph).statements()}
            assert got == expected, seed

    def test_fuzzy_cycles_terminate(self):
        fp = get_domain("fuzzy:product")
        g = AnnotatedGraph(fp)
        g.insert(Triple(iri("a"), SC, iri("b")), fp.parse("0.9"))
        g.insert(Triple(iri("b"), SC, iri("a")), fp.parse("0.9"))
        g.insert(Triple(iri("x"), TYPE, iri("a")), fp.parse("0.8"))
        closed = closure(g)
        assert closed.get(Triple(iri("x"), TYPE, iri("b"))) == fp.parse("0.72")
        # the cycle produces reflexive subclass edges at degree 0.81
        assert closed.get(Triple(iri("a"), SC, iri("a"))) == fp.parse("0.81")

    def test_iteration_cap(self, data_dir):
        doc = parse_graph((data_dir / "fig1.anrdf").read_text())
        with pytest.raises(ClosureIterationError, match="exceeded 3 rule firings") as caught:
            closure(doc.graph, max_firings=3)
        stats = caught.value.stats
        assert stats.firings == 3
        assert stats.new + stats.raised + stats.subsumed + stats.bottom == 3

    def test_every_cap_stops_at_its_firing_on_both_paths(self):
        # The table path fires its schema loop (sp and sc transitivity)
        # before its table conclusions; each cap below the total stops at
        # that firing, in either phase and in the loop alone.
        doc = parse_graph(
            "@domix temporal .\n"
            "(A sc B) : {[0,10]} .\n(B sc C) : {[0,10]} .\n"
            "(p sp q) : {[0,10]} .\n(q sp r) : {[0,10]} .\n(q dom A) : {[0,10]} .\n"
            "(x p y) : {[1,5]} .\n(z type A) : {[2,3]} .\n"
        )
        assert _tables_apply(doc.graph) is not None
        for close in (closure, _loop_closure):
            stats = ClosureStats()
            close(doc.graph, stats=stats)
            for cap in range(stats.firings):
                with pytest.raises(ClosureIterationError) as caught:
                    close(doc.graph, max_firings=cap)
                got = caught.value.stats
                assert got.firings == cap
                assert got.new + got.raised + got.subsumed + got.bottom == cap
            close(doc.graph, max_firings=stats.firings)

    def test_zero_cap_stops_at_the_first_firing(self, data_dir):
        doc = parse_graph((data_dir / "fig1.anrdf").read_text())
        with pytest.raises(ClosureIterationError, match="exceeded 0 rule firings") as caught:
            closure(doc.graph, max_firings=0)
        assert caught.value.stats.firings == 0

    def test_negative_cap_rejected(self, data_dir):
        doc = parse_graph((data_dir / "fig1.anrdf").read_text())
        with pytest.raises(ValueError, match="at least 0, got -1"):
            closure(doc.graph, max_firings=-1)

    def test_closure_output_is_frozen(self, fig1_closure):
        from anrdf.model import FrozenGraphError

        with pytest.raises(FrozenGraphError):
            fig1_closure.insert(Triple(iri("a"), iri("p"), iri("b")), tv("{[1,2]}"))


class TestDefaults:
    def test_top_mode(self, data_dir):
        doc = parse_graph((data_dir / "fig1.anrdf").read_text())
        plain = [Triple(iri("skype"), TYPE, iri("Company"))]
        merged, side = apply_defaults(doc.graph, plain, "top")
        assert side is None
        assert merged.get(plain[0]) == TEMPORAL.top
        assert doc.graph.get(plain[0]) is None  # input untouched

    def test_unknown_mode_rejected(self, data_dir):
        doc = parse_graph((data_dir / "fig1.anrdf").read_text())
        with pytest.raises(ValueError, match="'bottom'"):
            apply_defaults(doc.graph, [], "bottom")

    def test_segregate_mode(self, data_dir):
        doc = parse_graph((data_dir / "fig1.anrdf").read_text())
        plain = [Triple(iri("skype"), TYPE, iri("Company"))]
        merged, side = apply_defaults(doc.graph, plain, "segregate")
        assert plain[0] not in merged
        assert side is not None and side.domain.name == "boolean"
        assert side.get(plain[0]) == BOOLEAN.top

    def test_annotated_statements_unaffected(self, data_dir):
        doc = parse_graph((data_dir / "fig1.anrdf").read_text())
        merged, _ = apply_defaults(doc.graph, [], "top")
        assert dict(merged.statements()) == dict(doc.graph.statements())
