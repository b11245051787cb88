"""Provenance formulas: canonical monotone DNF against truth tables."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from anrdf.domains import get_domain
from anrdf.domains.provenance import (
    FALSE,
    MAX_NESTING,
    TRUE,
    minimize_clauses,
    prov_join,
    prov_leq,
    prov_meet,
)
from anrdf.errors import AnnotationSyntaxError
from oracles import dnf_implies_by_truth_table

PROV = get_domain("provenance")


def pv(text: str):
    return PROV.parse_payload(text)


# A formula is an atom or `(op, operands)` with `op` one of `^` and `v`.
FORMULAS = st.recursive(
    st.sampled_from(["a", "b", "c", "d", "true", "false"]),
    lambda inner: st.tuples(st.sampled_from("^v"), st.lists(inner, min_size=1, max_size=3)),
    max_leaves=12,
)


def truth(formula) -> set:
    """The formula as a DNF, by distribution alone: no clause is dropped."""
    if formula == "true":
        return {frozenset()}
    if formula == "false":
        return set()
    if isinstance(formula, str):
        return {frozenset({formula})}
    op, operands = formula
    dnfs = [truth(operand) for operand in operands]
    if op == "v":
        return set().union(*dnfs)
    clauses = {frozenset()}
    for dnf in dnfs:
        clauses = {c1 | c2 for c1 in clauses for c2 in dnf}
    return clauses


class TestCanonicalForm:
    def test_absorption_from_the_paper(self):
        merged = prov_join(pv("(chad ^ foaf ^ workont)"), pv("(chad ^ foaf)"))
        assert merged == pv("(chad ^ foaf)")

    def test_meet_absorption(self):
        # wikipedia AND (wikipedia OR wrong) is wikipedia again
        assert prov_meet(pv("wikipedia"), pv("(wikipedia v wrong)")) == pv("wikipedia")

    def test_false_neutral_for_join(self):
        assert prov_join(pv("p"), FALSE) == pv("p")

    def test_true_and_false_are_distinguished(self):
        assert pv("true") == TRUE
        assert pv("false") == FALSE
        assert prov_meet(TRUE, pv("a")) == pv("a")
        assert prov_join(TRUE, pv("a")) == TRUE

    def test_clause_ordering_is_by_size_then_lex(self):
        value = pv("((b ^ a) v c)")
        assert PROV.format_payload(value) == "(c v (a ^ b))"


class TestOrder:
    def test_examples(self):
        assert prov_leq(pv("(chad ^ foaf)"), pv("chad"))
        assert prov_leq(FALSE, pv("p"))
        assert not prov_leq(pv("chad"), pv("(chad ^ foaf)"))

    def test_agrees_with_truth_tables(self):
        rng = random.Random(23)
        atoms = "abcd"

        def random_dnf():
            roll = rng.random()
            if roll < 0.08:
                return FALSE
            if roll < 0.16:
                return TRUE
            clauses = [
                tuple(rng.sample(atoms, rng.randint(1, 3)))
                for _ in range(rng.randint(1, 3))
            ]
            return minimize_clauses(clauses)

        for _ in range(400):
            a, b = random_dnf(), random_dnf()
            assert prov_leq(a, b) == dnf_implies_by_truth_table(a, b), (a, b)
            # join/meet are truth-functionally correct too
            join = prov_join(a, b)
            assert dnf_implies_by_truth_table(a, join)
            assert dnf_implies_by_truth_table(b, join)
            meet = prov_meet(a, b)
            assert dnf_implies_by_truth_table(meet, a)
            assert dnf_implies_by_truth_table(meet, b)


class TestCodec:
    @pytest.mark.parametrize(
        "text",
        ["chad", "(a ^ b)", "(a v b)", "((a ^ b) v c)", "true", "false", "(a ^ b ^ c)"],
    )
    def test_round_trip(self, text):
        value = PROV.parse(text)
        assert PROV.parse(value.serialize()) == value

    @pytest.mark.parametrize(
        "bad",
        ["", "(a ^", "(a ^ b v c)", "a b", "(v)", "()", "(a ^ b))", "a $", "v", "(a vb)", "((a)"],
    )
    def test_malformed(self, bad):
        with pytest.raises(AnnotationSyntaxError):
            PROV.parse(bad)

    def test_groups_nest_up_to_the_limit(self):
        def nested(depth):
            return "(" * depth + "a" + ")" * depth

        assert PROV.parse(nested(MAX_NESTING)) == PROV.parse("a")
        for depth in (MAX_NESTING + 1, 1200):
            message = f"deeper than {MAX_NESTING} at position {MAX_NESTING} "
            with pytest.raises(AnnotationSyntaxError, match=message):
                PROV.parse(nested(depth))

    @given(st.randoms(use_true_random=False))
    def test_parse_reads_what_format_writes(self, rng):
        value = PROV.random_payload(rng)
        assert pv(PROV.format_payload(value)) == value

    @given(FORMULAS, st.data())
    def test_parse_means_the_formula(self, formula, data):
        # The formula is written with random spacing and redundant
        # parentheses; `v` needs a space where it touches an atom.
        def space(required=False):
            return data.draw(st.sampled_from(["", " ", "  ", "\t", "\n"])) or " " * required

        def write(node):
            if isinstance(node, str):
                text = node
            else:
                op, operands = node
                text = write(operands[0])
                for operand in map(write, operands[1:]):
                    left = space(op == "v" and not text.endswith(")"))
                    right = space(op == "v" and not operand.startswith("("))
                    text += left + op + right + operand
                text = "(" + space() + text + space() + ")"
            for _ in range(data.draw(st.integers(0, 2))):
                text = "(" + space() + text + space() + ")"
            return text

        text = space() + write(formula) + space()
        value, meaning = pv(text), truth(formula)
        assert dnf_implies_by_truth_table(value, meaning), text
        assert dnf_implies_by_truth_table(meaning, value), text

