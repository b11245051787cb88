"""The command-line front end: commands, flags, exit codes, determinism."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import anrdf
from anrdf.cli import main
from anrdf.reasoner import _tables_apply

DATA = Path(__file__).resolve().parent.parent / "data"
SAMPLE_QUERIES = sorted(query.stem for query in (DATA / "queries").glob("*.anql"))


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestInfer:
    def test_closure_contains_derived_triple(self, capsys, data_dir, tmp_path):
        out = tmp_path / "closure.anrdf"
        code, _, _ = run(
            capsys, "infer", "--domain", "temporal",
            "-i", str(data_dir / "fig1.anrdf"), "-o", str(out),
        )
        assert code == 0
        assert "(chadHurley type googleEmp) : {[2006,2010]} ." in out.read_text()

    def test_provenance_closure(self, capsys, data_dir):
        code, stdout, _ = run(capsys, "infer", "-i", str(data_dir / "provenance_chad.anrdf"))
        assert code == 0
        assert "(chadHurley type Agent) : (chad ^ foaf) ." in stdout

    def test_compound_sample_closes_to_the_checked_in_closure(self, capsys, data_dir):
        # Two non-top compound values meet in the closure: the 2-pair
        # worksFor annotation and the annotated dom and sc triples.
        code, stdout, _ = run(capsys, "infer", "-i", str(data_dir / "compound_sample.anrdf"))
        assert code == 0
        assert stdout == (data_dir / "compound_sample.closed.anrdf").read_text()

    def test_fallback_sample_closes_to_the_checked_in_closure(self, capsys, data_dir):
        # manages is a subproperty of type, so the closure runs the agenda
        # loop.
        code, stdout, _ = run(capsys, "infer", "-i", str(data_dir / "fallback_sample.anrdf"))
        assert code == 0
        assert stdout == (data_dir / "fallback_sample.closed.anrdf").read_text()

    def test_empty_input(self, capsys, tmp_path):
        src = tmp_path / "empty.anrdf"
        src.write_text("@domix temporal .\n")
        code, stdout, _ = run(capsys, "infer", "-i", str(src))
        assert code == 0
        assert stdout == "@domix temporal .\n"

    def test_deterministic_output(self, capsys, data_dir):
        first = run(capsys, "infer", "-i", str(data_dir / "fig1.anrdf"))
        second = run(capsys, "infer", "-i", str(data_dir / "fig1.anrdf"))
        assert first == second

    def test_parse_error_exit_2(self, capsys, tmp_path):
        src = tmp_path / "bad.anrdf"
        src.write_text("@domix temporal .\n(a p b) : nonsense .\n")
        code, _, stderr = run(capsys, "infer", "-i", str(src))
        assert code == 2
        assert "error" in stderr

    def test_deeply_nested_provenance_literal_exit_2(self, capsys, tmp_path):
        src = tmp_path / "deep.anrdf"
        src.write_text("@domix provenance .\n(x p y) : " + "(" * 1200 + "a" + ")" * 1200 + " .\n")
        code, stdout, stderr = run(capsys, "infer", "-i", str(src))
        assert (code, stdout) == (2, "")
        assert stderr.startswith("error: 2:11: groups nested deeper than")

    @pytest.mark.parametrize("override", [[], ["--domain", "temporal"]])
    def test_late_domix_exit_2(self, capsys, tmp_path, override):
        src = tmp_path / "late.anrdf"
        src.write_text("@domix fuzzy:min .\n(a p b) : 1 .\n@domix temporal .\n(a p c) : 1 .\n")
        code, stdout, stderr = run(capsys, "infer", "-i", str(src), *override)
        assert (code, stdout) == (2, "")
        assert "3:1: a document has at most one @domix line" in stderr

    def test_iteration_cap_exit_3(self, capsys, data_dir):
        code, _, stderr = run(
            capsys, "infer", "-i", str(data_dir / "fig1.anrdf"), "--max-iterations", "2"
        )
        assert code == 3
        assert "firings" in stderr

    @pytest.mark.parametrize("command", ["infer", "query"])
    def test_negative_iteration_cap_exit_2(self, capsys, data_dir, command):
        # A negative cap would be no cap at all.
        query = [str(data_dir / "queries" / "exx1.anql")] if command == "query" else []
        with pytest.raises(SystemExit) as info:
            main([command, "-i", str(data_dir / "fig1.anrdf"), *query,
                  "--max-iterations", "-1"])
        assert info.value.code == 2
        assert "--max-iterations: must be at least 0, got -1" in capsys.readouterr().err

    def test_saturation_cap_exit_3(self, capsys, tmp_path, monkeypatch):
        import anrdf.domains.compound as compound

        monkeypatch.setattr(compound, "_FAST_SATURATE_CAP", 1)
        src = tmp_path / "compound.anrdf"
        src.write_text(
            "@domix compound(temporal,provenance) .\n"
            "(a type C) : {<{[1,5]},s1>,<{[3,8]},s2>} .\n"
        )
        code, stdout, stderr = run(capsys, "infer", "-i", str(src))
        assert code == 3
        assert stdout == ""
        assert "cap of 1 steps" in stderr

    def test_segregate_keeps_plain_triples(self, capsys, tmp_path):
        src = tmp_path / "mixed.anrdf"
        src.write_text(
            "@domix temporal .\n"
            "(worker sc person) : {[1,9]} .\n"
            "alice type worker .\n"
            "worker sc person .\n"
        )
        code, stdout, _ = run(
            capsys, "infer", "-i", str(src), "--default-annotation", "segregate"
        )
        assert code == 0
        assert "alice type person .\n" in stdout  # crisp closure of the side graph
        assert "(alice type person)" not in stdout
        # Plain lines and annotated lines are ordered together, by triple.
        assert stdout == (
            "@domix temporal .\n"
            "alice type person .\n"
            "alice type worker .\n"
            "(worker sc person) : {[1,9]} .\n"
            "worker sc person .\n"
        )

    def test_top_default_folds_plain_triples(self, capsys, tmp_path):
        src = tmp_path / "mixed.anrdf"
        src.write_text(
            "@domix temporal .\n(worker sc person) : {[1,9]} .\nalice type worker .\n"
        )
        code, stdout, _ = run(capsys, "infer", "-i", str(src))
        assert code == 0
        assert "(alice type person) : {[1,9]} ." in stdout
        assert "(alice type worker) : {[-inf,+inf]} ." in stdout


class TestDomainHeader:
    """`@domix` and `--domain` give the same exit code for the same id."""

    @pytest.mark.parametrize(
        "domain, code, message",
        [
            ("no-such", 2, "error: 1:8: unknown domain 'no-such'"),
            ("compound(fuzzy:product,temporal)", 4, "error: compound domains need a lattice"),
        ],
    )
    def test_bad_domain(self, capsys, tmp_path, domain, code, message):
        src = tmp_path / "doc.anrdf"
        src.write_text(f"@domix {domain} .\n(a p b) : top .\n")
        header_code, stdout, stderr = run(capsys, "infer", "-i", str(src))
        assert (header_code, stdout) == (code, "")
        assert stderr.startswith(message)
        src.write_text("(a p b) : top .\n")
        assert run(capsys, "infer", "--domain", domain, "-i", str(src))[0] == code


class TestQuery:
    def test_exx1_tsv(self, capsys, data_dir):
        code, stdout, _ = run(
            capsys, "query", "-i", str(data_dir / "exx1_minimal.anrdf"),
            str(data_dir / "queries" / "exx1.anql"),
        )
        assert code == 0
        lines = stdout.splitlines()
        assert lines[0] == "?p\t?l\t?c"
        assert sorted(lines[1:]) == sorted(
            [
                "toivo\t{[2002,2009]}\t",
                "toivo\t{[2002,2005]}\tpeugeot",
                "toivo\t{[2005,2009]}\trenault",
            ]
        )

    def test_json_format(self, capsys, data_dir):
        code, stdout, _ = run(
            capsys, "query", "-i", str(data_dir / "exx1_minimal.anrdf"),
            str(data_dir / "queries" / "exx1.anql"), "--format", "json",
        )
        assert code == 0
        doc = json.loads(stdout)
        assert doc["vars"] == ["p", "l", "c"]
        assert len(doc["bindings"]) == 3

    def test_before_all_gives_no_rows(self, capsys, data_dir):
        code, stdout, _ = run(
            capsys, "query", "-i", str(data_dir / "fig1_interval_sets.anrdf"),
            str(data_dir / "queries" / "before_all.anql"),
        )
        assert code == 0
        assert stdout.splitlines() == ["?p"]

    def test_before_any_returns_chad(self, capsys, data_dir):
        code, stdout, _ = run(
            capsys, "query", "-i", str(data_dir / "fig1_interval_sets.anrdf"),
            str(data_dir / "queries" / "before_any.anql"),
        )
        assert code == 0
        assert "chadHurley" in stdout

    @pytest.mark.parametrize(
        "mode,expected_rows",
        [("shared-var", 3), ("fresh-vars", 2), ("top", 0)],
    )
    def test_rewrite_defaults_modes(self, capsys, data_dir, mode, expected_rows):
        code, stdout, _ = run(
            capsys, "query", "-i", str(data_dir / "exx1_minimal.anrdf"),
            str(data_dir / "queries" / "non_annotated.anql"),
            "--rewrite-defaults", mode,
        )
        assert code == 0
        assert len(stdout.splitlines()) - 1 == expected_rows

    @pytest.mark.parametrize("mode", ["shared-var", "fresh-vars"])
    @pytest.mark.parametrize("fmt", ["tsv", "json"])
    def test_rewrite_mode_answers_match_the_checked_in_files(self, capsys, data_dir, mode, fmt):
        code, stdout, _ = run(
            capsys, "query", "-i", str(data_dir / "exx1_minimal.anrdf"),
            str(data_dir / "queries" / "non_annotated.anql"),
            "--rewrite-defaults", mode, "--format", fmt,
        )
        assert code == 0
        assert stdout == (data_dir / "answers" / f"non_annotated.{mode}.{fmt}").read_text()

    def test_limit_zero_yields_header_only(self, capsys, data_dir, tmp_path):
        query = tmp_path / "limited.anql"
        query.write_text("SELECT ?p WHERE { (?p type ebayEmp):?l } LIMIT 0")
        code, stdout, _ = run(
            capsys, "query", "-i", str(data_dir / "exx1_minimal.anrdf"), str(query)
        )
        assert code == 0
        assert stdout == "?p\n"

    @pytest.mark.parametrize("mode", ["top", "segregate"])
    def test_segregated_plain_triples_are_reported(self, capsys, tmp_path, mode):
        src = tmp_path / "mixed.anrdf"
        src.write_text(
            "@domix temporal .\n"
            "(alice worksFor globex) : {[1,9]} .\n"
            "bob worksFor acme .\n"
        )
        query = tmp_path / "acme.anql"
        query.write_text("SELECT ?p WHERE { ?p worksFor acme }")
        code, stdout, stderr = run(
            capsys, "query", "-i", str(src), str(query), "--default-annotation", mode
        )
        assert code == 0
        if mode == "top":
            assert stdout.splitlines() == ["?p", "bob"]
            assert stderr == ""
        else:
            assert stdout.splitlines() == ["?p"]
            assert stderr == (
                "warning: 1 plain triple(s) segregated; the query does not see them\n"
            )

    def test_deep_query_exit_2(self, capsys, data_dir, tmp_path):
        # Its pattern would be 2,002 levels deep, past the bound of
        # `anrdf.anql.algebra`, so `parse_query` refuses it at the 352nd
        # FILTER, whose node is the first to reach 353 levels and leaves
        # the query's SELECT no room.
        deep = tmp_path / "deep.anql"
        head, filter_ = "SELECT ?x WHERE { (?x p ?y):?l ", "FILTER(BOUND(?x)) "
        deep.write_text(f"{head}{filter_ * 2000}GROUPBY(?x) COUNT(?y) AS ?n }}")
        code, stdout, stderr = run(
            capsys, "query", "-i", str(data_dir / "fig1_exx1.anrdf"), str(deep)
        )
        assert (code, stdout) == (2, "")
        column = len(head) + 351 * len(filter_) + 1
        assert stderr == f"error: 1:{column}: query nested deeper than 353 levels\n"

    @pytest.mark.parametrize(
        "condition, modifiers",
        [
            ("FILTER(BOUND(?p)) " * 300 + "GROUPBY(?p) COUNT(?c) AS ?n", ""),
            ("FILTER(" + " || ".join(["?c = nobody"] * 2000 + ["?c = ebayEmp"]) + ")", ""),
            ("FILTER(BOUND(?p)) " * 351, "ORDERBY ?p LIMIT 1"),
        ],
        ids=["300-filters", "2001-alternatives", "351-filters-ordered"],
    )
    def test_long_flat_query_runs(self, capsys, data_dir, tmp_path, condition, modifiers):
        # Text that nests nothing stays inside the depth bound: 300 FILTERs
        # are 303 levels with the GROUPBY and the query's SubSelect, 351
        # under ORDERBY and LIMIT are 353, and a run of `||` is balanced.
        flat = tmp_path / "flat.anql"
        flat.write_text(f"SELECT ?p WHERE {{ (?p type ?c):?l {condition} }} {modifiers}")
        code, stdout, stderr = run(
            capsys, "query", "-i", str(data_dir / "fig1_exx1.anrdf"), str(flat)
        )
        assert (code, stderr) == (0, "")
        assert "chadHurley" in stdout.splitlines()

    def test_query_parse_error_exit_2(self, capsys, data_dir, tmp_path):
        bad = tmp_path / "bad.anql"
        bad.write_text("SELECT ?x WHERE { }")
        code, _, stderr = run(
            capsys, "query", "-i", str(data_dir / "fig1.anrdf"), str(bad)
        )
        assert code == 2
        assert "error" in stderr

    @pytest.mark.parametrize(
        "clause, message",
        [
            ("FILTER(before(?l))", "1:42: before takes 2 arguments, not 1"),
            ("ASSIGN length(?l, ?l) AS ?n", "1:42: length takes 1 argument, not 2"),
            ("GROUPBY(?x) SUM(nosuch(?l)) AS ?n", "1:51: unknown built-in 'nosuch'"),
        ],
    )
    def test_bad_builtin_call_exit_2(self, capsys, data_dir, tmp_path, clause, message):
        # Reported at parse time, before a FILTER could read it as false.
        query = tmp_path / "call.anql"
        query.write_text(f"SELECT ?x WHERE {{ (?x type ?c):?l {clause} }}")
        code, stdout, stderr = run(
            capsys, "query", "-i", str(data_dir / "fig1_exx1.anrdf"), str(query)
        )
        assert (code, stdout, stderr) == (2, "", f"error: {message}\n")

    def test_query_is_parsed_before_the_closure(self, capsys, data_dir, tmp_path):
        # With a firing cap the closure cannot reach, the syntax error
        # is still what is reported.
        bad = tmp_path / "bad.anql"
        bad.write_text("SELECT ?x WHERE { (?x p\n")
        code, stdout, stderr = run(
            capsys, "query", "-i", str(data_dir / "fig1_exx1.anrdf"), str(bad),
            "--max-iterations", "2",
        )
        assert (code, stdout, stderr) == (2, "", "error: 2:1: expected a term\n")

    @pytest.mark.parametrize("fmt", ["tsv", "json"])
    def test_assigning_a_test_exit_2(self, capsys, data_dir, tmp_path, fmt):
        query = tmp_path / "assign.anql"
        query.write_text("SELECT ?x ?t WHERE { (?x type ?c):?l ASSIGN isTEMPORAL(?l) AS ?t }")
        code, stdout, stderr = run(
            capsys, "query", "-i", str(data_dir / "fig1_exx1.anrdf"), str(query),
            "--format", fmt,
        )
        assert (code, stdout) == (2, "")
        assert stderr == (
            "error: 1:45: isTEMPORAL is a test, not a function: ASSIGN cannot bind it to ?t\n"
        )

    def test_aggregating_a_test_exit_2(self, capsys, data_dir, tmp_path):
        query = tmp_path / "count.anql"
        query.write_text(
            "SELECT ?c ?n WHERE { (?x type ?c):?l GROUPBY(?c) COUNT(before(?l, [2007])) AS ?n }"
        )
        code, stdout, stderr = run(
            capsys, "query", "-i", str(data_dir / "fig1_exx1.anrdf"), str(query)
        )
        assert (code, stdout) == (2, "")
        assert stderr == (
            "error: 1:56: before is a test, not a function: COUNT cannot aggregate it into ?n\n"
        )

    @pytest.mark.parametrize(
        "aggregate, message",
        [
            ("COUNT(?x) AS ?x", "1:63: aggregate target ?x already occurs in the pattern"),
            ("COUNT(?c) AS ?n", "1:56: aggregate argument ?c is a grouping key"),
        ],
    )
    def test_groupby_rule_exit_2_before_the_closure(
        self, capsys, data_dir, tmp_path, aggregate, message
    ):
        # A firing cap the closure cannot meet: the rule is reported first.
        query = tmp_path / "group.anql"
        query.write_text(f"SELECT ?c ?x WHERE {{ (?x type ?c):?l GROUPBY(?c) {aggregate} }}")
        code, stdout, stderr = run(
            capsys, "query", "-i", str(data_dir / "fig1_exx1.anrdf"), str(query),
            "--max-iterations", "2",
        )
        assert (code, stdout, stderr) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "condition, message",
        [
            ("length(?l)", "1:45: length is a function"),
            ("!join(?l)", "1:46: join is a function"),
        ],
    )
    def test_function_as_filter_condition_exit_2_before_the_closure(
        self, capsys, data_dir, tmp_path, condition, message
    ):
        # A value is no truth value; under a firing cap the closure cannot
        # meet, the parse error is what is reported.
        query = tmp_path / "condition.anql"
        query.write_text(f"SELECT ?p ?l WHERE {{ (?p type ?c):?l FILTER({condition}) }}")
        code, stdout, stderr = run(
            capsys, "query", "-i", str(data_dir / "fig1_exx1.anrdf"), str(query),
            "--max-iterations", "2",
        )
        assert (code, stdout) == (2, "")
        assert stderr == (
            f"error: {message}, not a test: FILTER cannot read it as a condition\n"
        )

    def test_ordered_filter_tsv(self, capsys, data_dir):
        code, stdout, _ = run(
            capsys, "query", "-i", str(data_dir / "fig1_exx1.anrdf"),
            str(data_dir / "queries" / "ordered_filter.anql"),
        )
        assert code == 0
        assert stdout.splitlines() == ["?p\t?c", "chadHurley\t", "jawedKarim\t", "toivo\tpeugeot"]

    def test_ordered_filter_json(self, capsys, data_dir):
        code, stdout, _ = run(
            capsys, "query", "-i", str(data_dir / "fig1_exx1.anrdf"),
            str(data_dir / "queries" / "ordered_filter.anql"), "--format", "json",
        )
        assert code == 0
        bindings = json.loads(stdout)["bindings"]
        assert [{k: v["value"] for k, v in b.items()} for b in bindings] == [
            {"p": "chadHurley"}, {"p": "jawedKarim"}, {"p": "toivo", "c": "peugeot"},
        ]

    @pytest.mark.parametrize("name", SAMPLE_QUERIES)
    def test_sample_answers_match_the_checked_in_tsv(self, capsys, data_dir, name):
        # Row order without ORDERBY is what a user sees, so it is pinned too.
        code, stdout, _ = run(
            capsys, "query", "-i", str(data_dir / "fig1_exx1.anrdf"),
            str(data_dir / "queries" / f"{name}.anql"),
        )
        assert code == 0
        assert stdout == (data_dir / "answers" / f"{name}.tsv").read_text()

    @pytest.mark.parametrize("name", SAMPLE_QUERIES)
    def test_sample_answers_match_the_checked_in_json(self, capsys, data_dir, name):
        code, stdout, _ = run(
            capsys, "query", "-i", str(data_dir / "fig1_exx1.anrdf"),
            str(data_dir / "queries" / f"{name}.anql"), "--format", "json",
        )
        assert code == 0
        assert stdout == (data_dir / "answers" / f"{name}.json").read_text()

    def test_a_query_diagnostic_is_a_warning_line(self, capsys, tmp_path):
        # Every ?l is unbounded, so no group has a defined length.
        data = tmp_path / "unbounded.anrdf"
        data.write_text("@domix temporal .\n(a type C) : {[2000,+inf]} .\n(b type C) : {[-inf,5]} .\n")
        query = tmp_path / "longest.anql"
        query.write_text("SELECT ?x ?m WHERE { (?x type C):?l GROUPBY(?x) MAX(length(?l)) AS ?m }\n")
        code, stdout, stderr = run(capsys, "query", "-i", str(data), str(query))
        assert code == 0
        assert stdout == "?x\t?m\n"
        # Each warning names its group, so the two dropped groups differ.
        assert stderr == (
            "warning: MAX: no defined values in group ?x=a; group dropped\n"
            "warning: MAX: no defined values in group ?x=b; group dropped\n"
        )

    def test_a_tab_in_a_literal_keeps_one_tsv_field_per_variable(self, capsys, tmp_path):
        data = tmp_path / "tab.anrdf"
        data.write_text('@domix temporal .\n(a name "x\\ty") : {[1,2]} .\n(b name c) : {[1,2]} .\n')
        query = tmp_path / "names.anql"
        query.write_text("SELECT ?s ?n WHERE { (?s name ?n):?l }")
        code, stdout, _ = run(capsys, "query", "-i", str(data), str(query))
        assert code == 0
        lines = stdout.splitlines()
        assert len(lines) == 3
        assert all(len(line.split("\t")) == 2 for line in lines)
        assert 'a\t"x\\ty"' in lines

        once = tmp_path / "once.anrdf"
        assert run(capsys, "convert", "-i", str(data), "-o", str(once))[0] == 0
        code, twice, _ = run(capsys, "convert", "-i", str(once))
        assert code == 0
        assert twice == once.read_text()
        assert '(a name "x\\ty") : {[1,2]} .' in twice.splitlines()


    def test_a_carriage_return_in_a_literal_survives_a_file(self, capsys, tmp_path):
        # Files are read in text mode, where a raw carriage return would
        # read back as a line break, so the writer escapes it.
        temporal = anrdf.get_domain("temporal")
        graph = anrdf.AnnotatedGraph(temporal)
        triple = anrdf.Triple(anrdf.iri("a"), anrdf.iri("name"), anrdf.literal("x\ry"))
        graph.insert(triple, temporal.parse("[1,2]"))
        data = tmp_path / "cr.anrdf"
        with open(data, "w", newline="") as out:
            out.write(anrdf.serialize_graph(graph))
        code, once, _ = run(capsys, "convert", "-i", str(data))
        assert code == 0
        assert once == data.read_bytes().decode()
        assert '(a name "x\\ry") : {[1,2]} .' in once.splitlines()
        assert anrdf.parse_graph(once).graph.get(triple) == temporal.parse("[1,2]")


class TestBadNumbers:
    """A malformed number is a parse error at its position, not a crash."""

    @pytest.mark.parametrize(
        "domain, statement, message",
        [
            ("fuzzy:min", "(a p b) : 1/0 .", "zero denominator: '1/0'"),
            ("temporal", "(a p b) : [1/0,2] .", "malformed interval: '[1/0,2]'"),
            (
                "compound(temporal,provenance)",
                "(a p b) : <{[1,2]},a> .",
                "compound literal must be {...}: '<{[1,2]},a>'",
            ),
        ],
    )
    def test_data_literal_exit_2(self, capsys, tmp_path, domain, statement, message):
        src = tmp_path / "bad.anrdf"
        src.write_text(f"@domix {domain} .\n{statement}\n")
        code, stdout, stderr = run(capsys, "infer", "-i", str(src))
        assert (code, stdout) == (2, "")
        assert stderr == f"error: 2:11: {message}\n"

    @pytest.mark.parametrize("operand", ["1.5/2", "1/0"])
    def test_filter_operand_exit_2(self, capsys, data_dir, tmp_path, operand):
        # A `<=` operand is an annotation literal, so the domain reports
        # it as it reports the same literal in a data document.
        query = tmp_path / "bad.anql"
        query.write_text(f"SELECT ?x WHERE {{ (?x type ?c):?l FILTER(?l <= {operand}) }}")
        code, stdout, stderr = run(capsys, "query", "-i", str(data_dir / "fig1.anrdf"), str(query))
        assert (code, stdout) == (2, "")
        assert stderr == f"error: 1:48: malformed temporal literal: {operand!r}\n"

    @pytest.mark.parametrize(
        "domain, text, message",
        [
            ("fuzzy:min", "1/0", "zero denominator: '1/0'"),
            (
                "compound(temporal,provenance)",
                "<{[1,2]},a>",
                "compound literal must be {...}: '<{[1,2]},a>'",
            ),
            (
                "compound(temporal,provenance)",
                "{{[1,2]},a}",
                "compound pair must be <...>: '{[1,2]}'",
            ),
            (
                "compound(temporal,provenance)",
                "{<{[1,2]}>}",
                "compound pair needs two components: <{[1,2]}>",
            ),
            ("boolean", "maybe", "boolean literal must be true/false, got 'maybe'"),
            (
                "compound(temporal,nope)",
                "{}",
                "unknown primitive domain 'nope' (compound components must be primitive)",
            ),
        ],
    )
    def test_normalize_annotation_exit_2(self, capsys, domain, text, message):
        # The literal is an argument, not a line of a document, so the
        # message carries no position.
        code, stdout, stderr = run(capsys, "normalize-annotation", "--domain", domain, text)
        assert (code, stdout) == (2, "")
        assert stderr == f"error: {message}\n"


class TestCheckDomain:
    def test_fuzzy_product_passes(self, capsys):
        code, stdout, _ = run(
            capsys, "check-domain", "--domain", "fuzzy:product", "--samples", "150"
        )
        assert code == 0
        assert "[pass]" in stdout and "[FAIL]" not in stdout

    def test_compound_runs_extra_suites(self, capsys):
        code, stdout, _ = run(
            capsys, "check-domain", "--domain", "compound(temporal,provenance)",
            "--samples", "40",
        )
        assert code == 0
        assert "quasihomomorphism bounds" in stdout

    def test_non_idempotent_compound_reports_distributivity(self, capsys):
        # Documented limitation: this compound fails one semiring axiom.
        code, stdout, _ = run(
            capsys, "check-domain", "--domain", "compound(temporal,fuzzy:product)",
            "--samples", "200",
        )
        assert code == 1
        assert "[FAIL] meet distributes over join" in stdout
        passed = [l for l in stdout.splitlines() if "[pass]" in l]
        assert len(passed) >= 14  # everything else holds

    def test_non_lattice_first_component_exit_4(self, capsys):
        code, _, stderr = run(
            capsys, "check-domain", "--domain", "compound(fuzzy:product,temporal)"
        )
        assert code == 4
        assert "lattice" in stderr

    def test_unknown_domain_exit_2(self, capsys):
        code, _, _ = run(capsys, "check-domain", "--domain", "no-such")
        assert code == 2

    @pytest.mark.parametrize("samples", ["0", "-3", "many"])
    def test_samples_below_one_exit_2(self, capsys, samples):
        # With no samples every law would pass vacuously.
        with pytest.raises(SystemExit) as info:
            main(["check-domain", "--domain", "compound(temporal,fuzzy:product)",
                  "--samples", samples])
        assert info.value.code == 2
        assert "--samples" in capsys.readouterr().err


class TestNormalizeAnnotation:
    def test_reduce_example(self, capsys):
        code, stdout, _ = run(
            capsys, "normalize-annotation",
            "--domain", "compound(temporal,fuzzy:product)",
            "{<{[2000,2005]},0.7>,<{[2002,2008]},0.5>}",
        )
        assert code == 0
        assert stdout.strip() == (
            "{<{[2000,2005]},0.7>,<{[2000,2008]},0.35>,<{[2002,2008]},0.5>}"
        )

    def test_time_provenance_example(self, capsys):
        code, stdout, _ = run(
            capsys, "normalize-annotation",
            "--domain", "compound(temporal,provenance)",
            "{<{[1998,2006]},wikipedia>,<{[2001,2011]},wrong>}",
        )
        assert code == 0
        assert stdout.strip() == (
            "{<{[1998,2006]},wikipedia>,<{[1998,2011]},(wikipedia ^ wrong)>,"
            "<{[2001,2006]},(wikipedia v wrong)>,<{[2001,2011]},wrong>}"
        )

    def test_a_degree_with_no_finite_decimal_prints_as_a_fraction(self, capsys):
        code, stdout, _ = run(capsys, "normalize-annotation", "--domain", "fuzzy:min", "1/3")
        assert (code, stdout) == (0, "1/3\n")

    def test_bad_literal_exit_2(self, capsys):
        code, _, _ = run(
            capsys, "normalize-annotation", "--domain", "temporal", "{[5,1]}"
        )
        assert code == 2


class TestConvert:
    def test_canonicalises(self, capsys, tmp_path):
        src = tmp_path / "messy.anrdf"
        src.write_text(
            "@domix temporal .\n(b q d) : 2005 .\n(a p c) : {[4,6],[2,5]} .\n"
        )
        code, stdout, _ = run(capsys, "convert", "-i", str(src))
        assert code == 0
        assert stdout == (
            "@domix temporal .\n"
            "(a p c) : {[2,6]} .\n"
            "(b q d) : {[2005,2005]} .\n"
        )

    def test_top_materialisation(self, capsys, tmp_path):
        src = tmp_path / "mixed.anrdf"
        src.write_text("@domix temporal .\na p b .\n")
        code, stdout, _ = run(
            capsys, "convert", "-i", str(src), "--default-annotation", "top"
        )
        assert code == 0
        assert "(a p b) : {[-inf,+inf]} ." in stdout


class TestHashSeedIndependence:
    """Provenance and compound values are sets, which iterate in hash
    order; no command may let that order reach its output, and no
    saturation, join, meet or closure may let it change the work done."""

    COMPOUND = (
        "@domix compound(temporal,provenance) .\n"
        "(worker sc person) : {<{[1,9]},hr>,<{[3,12]},(hr ^ audit)>} .\n"
        "(person sc agent) : {<{[0,20]},(org v wiki)>} .\n"
        "(alice type worker) : {<{[2,6]},wiki>,<{[5,11]},(crm ^ hr)>} .\n"
        "(bob type worker) : {<{[4,8]},(ax v bx)>,<{[0,3]},(cx ^ dx)>} .\n"
    )

    # Its meet does not distribute over its join, so it closes by the
    # agenda loop.
    NOT_DISTRIBUTIVE = (
        "@domix compound(temporal,fuzzy:product) .\n"
        "(worker sc person) : {<{[1,9]},0.9>,<{[3,12]},0.5>} .\n"
        "(person sc agent) : {<{[0,20]},0.8>} .\n"
        "(alice type worker) : {<{[2,6]},0.7>,<{[5,11]},0.6>} .\n"
        "(bob type worker) : {<{[4,8]},0.5>} .\n"
    )

    # Raw compound(temporal,provenance) pairs, not normalised.
    RAW_PAIRS = [
        [["{[1,9]}", "(a ^ b)"], ["{[3,12]}", "(c v d)"], ["{[0,4],[8,15]}", "e"],
         ["{[5,20]}", "(a v (b ^ e))"], ["{[2,6]}", "(d ^ e)"], ["{[7,11],[14,18]}", "(b v c)"]],
        [["{[-4,2]}", "(a v c)"], ["{[0,10]}", "((a ^ d) v (b ^ e))"], ["{[3,5],[9,16]}", "b"],
         ["{[6,14]}", "(c ^ d ^ e)"], ["{[-inf,3]}", "(d v e)"], ["{[12,+inf]}", "(a ^ b ^ c)"]],
        [["{[2,8],[10,13]}", "(b ^ d)"], ["{[4,16]}", "(a v e)"], ["{[0,3],[6,9]}", "(c v (a ^ d))"],
         ["{[1,11]}", "(e ^ (b v c))"], ["{[7,20]}", "a"], ["{[-2,5],[15,17]}", "(b v d v e)"]],
        [["{[0,6]}", "((a ^ b) v (c ^ d))"], ["{[3,9],[12,14]}", "(a ^ e)"], ["{[5,18]}", "(b v d)"],
         ["{[-3,1],[8,10]}", "c"], ["{[2,13]}", "(d ^ e)"], ["{[9,16]}", "(a v (b ^ c ^ e))"]],
    ]

    # Saturates each list of RAW_PAIRS (JSON in argv[1]) and prints the
    # combinations it formed, then the result.
    SATURATE = (
        "import json, sys\n"
        "from anrdf.domains import get_domain\n"
        "from anrdf.domains.compound import saturate_fast\n"
        "from oracles import Recording, combinations\n"
        "T, PV = get_domain('temporal'), get_domain('provenance')\n"
        "CP = get_domain('compound(temporal,provenance)')\n"
        "for literals in json.loads(sys.argv[1]):\n"
        "    pairs = [(T.parse_payload(x), PV.parse_payload(y)) for x, y in literals]\n"
        "    rec1, rec2 = Recording(T, 'meet_payload'), Recording(PV, 'join_payload')\n"
        "    out = saturate_fast(rec1, rec2, pairs)\n"
        "    print(len(combinations(rec1, rec2)), CP.format_payload(out))\n"
    )

    # Normalises each list of RAW_PAIRS (JSON in argv[1]), given as a
    # set, then joins and meets every ordered pair of the results; after
    # each it prints the D1 meet and D2 join calls made, and the value.
    JOIN_MEET = (
        "import json, sys\n"
        "from anrdf.domains import get_domain\n"
        "from anrdf.domains.compound import CompoundDomain\n"
        "from oracles import Recording\n"
        "T, PV = get_domain('temporal'), get_domain('provenance')\n"
        "rec1, rec2 = Recording(T, 'meet_payload'), Recording(PV, 'join_payload')\n"
        "CP = CompoundDomain(rec1, rec2)\n"
        "def report(payload):\n"
        "    print(len(rec1.calls), len(rec2.calls), CP.format_payload(payload))\n"
        "    rec1.calls.clear(), rec2.calls.clear()\n"
        "    return payload\n"
        "values = [\n"
        "    report(CP.validate_payload(frozenset(\n"
        "        (T.parse_payload(x), PV.parse_payload(y)) for x, y in literals\n"
        "    )))\n"
        "    for literals in json.loads(sys.argv[1])\n"
        "]\n"
        "for a in values:\n"
        "    for b in values:\n"
        "        report(CP.join_payload(a, b)), report(CP.meet_payload(a, b))\n"
    )

    # Closes each document of argv[1:] and prints its `ClosureStats`
    # and the closed graph.
    CLOSE = (
        "import sys\n"
        "from anrdf import apply_defaults, closure, parse_graph, serialize_graph\n"
        "from anrdf.reasoner import ClosureStats\n"
        "for text in sys.argv[1:]:\n"
        "    doc = parse_graph(text)\n"
        "    stats = ClosureStats()\n"
        "    closed = closure(apply_defaults(doc.graph, doc.plain, 'top')[0], stats=stats)\n"
        "    print(stats)\n"
        "    print(serialize_graph(closed), end='')\n"
    )

    def outputs(self, argv: list[str], seed: str) -> str:
        """The output of `python argv` under the hash seed `seed`, with
        `src` and `tests` on the path."""
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            [
                str(Path(anrdf.__file__).resolve().parents[1]),
                str(Path(__file__).resolve().parent),
                env.get("PYTHONPATH", ""),
            ]
        )
        proc = subprocess.run(
            [sys.executable, *argv],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        return proc.stdout

    def test_output_is_the_same_under_two_hash_seeds(self, data_dir, tmp_path):
        compound = tmp_path / "compound.anrdf"
        compound.write_text(self.COMPOUND)
        commands = [
            ["infer", "-i", str(data_dir / "provenance_chad.anrdf")],
            ["infer", "-i", str(compound)],
            ["check-domain", "--domain", "compound(temporal,provenance)", "--samples", "50"],
        ]
        for argv in commands:
            argv = ["-m", "anrdf.cli", *argv]
            assert self.outputs(argv, "0") == self.outputs(argv, "1"), argv

    def test_saturation_does_the_same_work_under_three_hash_seeds(self):
        # The step cap counts formed combinations, so their number, not
        # only the result, decides whether a literal normalises.
        argv = ["-c", self.SATURATE, json.dumps(self.RAW_PAIRS)]
        runs = [self.outputs(argv, seed) for seed in ("0", "1", "2")]
        assert runs[0] == runs[1] == runs[2]

    def test_joins_and_meets_do_the_same_work_under_three_hash_seeds(self):
        # A join's or meet's operands are sets; the step cap counts the
        # combinations, so the work, not only the result, must repeat.
        # Three pairs of each list keep the three runs near 2.5 s.
        argv = ["-c", self.JOIN_MEET, json.dumps([pairs[:3] for pairs in self.RAW_PAIRS])]
        runs = [self.outputs(argv, seed) for seed in ("0", "1", "2")]
        assert len(runs[0].splitlines()) == 4 + 2 * 4 * 4
        assert runs[0] == runs[1] == runs[2]

    def test_closures_do_the_same_work_under_three_hash_seeds(self, workloads, data_dir):
        documents = [
            self.COMPOUND,
            workloads.temporal_document(1, 40),
            (data_dir / "fallback_sample.anrdf").read_text(),
            self.NOT_DISTRIBUTIVE,
        ]
        assert [_tables_apply(anrdf.parse_graph(text).graph) is None for text in documents] == [
            False, False, True, True
        ]
        argv = ["-c", self.CLOSE, *documents]
        runs = [self.outputs(argv, seed) for seed in ("0", "1", "2")]
        assert runs[0].count("ClosureStats(") == 4
        assert runs[0] == runs[1] == runs[2]
