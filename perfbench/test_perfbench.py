"""Tests of the benchmark itself: generators, recorded outputs, tracing
hooks and the repeatability of traced counts.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import pytest

import run
import workloads

run.load_program()

import tracing  # noqa: E402  (needs the program on the import path)

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# Small sizes keep the hook checks quick; every layer still does work.
SMALL = {"infer-temporal": 40, "query-mix": 40, "infer-compound": 12}

# Frames each workload must record (the layer table in README.md).  A
# rename in the program that bypasses a wrapper makes its layer read 0.
USES = {
    "infer-temporal": [
        "model.match", "model.insert", "model.statements",
        "reasoner.closure", "reasoner.apply_defaults",
        "domains.temporal.join", "domains.temporal.meet",
        "syntax.parse_graph", "syntax.serialize_graph",
    ],
    "query-mix": [
        "model.match", "domains.temporal.meet", "domains.temporal.leq",
        "anql.op.Bap", "anql.op.Optional", "anql.op.Filter", "anql.op.Union",
        "anql.op.GroupBy", "anql.op.SubSelect", "anql.prune",
        "anql.dominates", "anql.compat",
        "syntax.parse_query", "syntax.serialize_answers",
    ],
    "infer-compound": [
        "model.match", "model.insert", "reasoner.closure",
        "domains.compound.join", "domains.compound.meet", "domains.normalise",
        "syntax.parse_graph", "syntax.serialize_graph",
    ],
}


def _triples(text: str) -> list[str]:
    return [line for line in text.splitlines() if not line.startswith("@")]


@pytest.mark.parametrize("make", [workloads.temporal_document, workloads.compound_document])
def test_generators_are_seeded(make):
    first, again, other = make(7), make(7), make(8)
    assert first == again
    assert first != other
    assert len(_triples(first)) == len(_triples(other))
    # Stated ranges: one interval per temporal annotation, 1-2 pairs per
    # compound annotation.
    for line in _triples(first):
        if ":" not in line:
            continue
        label = line.split(" : ", 1)[1]
        if make is workloads.temporal_document:
            assert label.count("[") == 1
        else:
            assert 1 <= label.count("<") <= 2


def test_query_terms_exist_at_both_sizes():
    # The query shapes are fixed text; the terms they name must be in the
    # graph at full size and at the quarter size of the growth report.
    for size in (workloads.TEMPORAL_INDIVIDUALS, workloads.TEMPORAL_INDIVIDUALS // 4):
        text = workloads.temporal_document(3, size)
        for term in ("(p17 type", "C0)", "C3)", "C5)", "C7)", " knows ", " worksFor "):
            assert term in text


def test_default_seed_outputs_match_recorded_digests():
    recorded = json.loads(run.DIGESTS.read_text())
    for name in run.WORKLOADS:
        session = run.open_session(name, run.DEFAULT_SEED)
        try:
            got = {part: session.run_part(part)[1] for part in session.parts}
        finally:
            session.close()
        assert got == recorded[name][str(run.DEFAULT_SEED)], name


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_hooks_record_the_layers_each_workload_uses(name):
    session = run.open_session(name, 5, SMALL[name])
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        loop = run.Loop(session, None)
        tracer.span("cli.op", loop.once)
    finally:
        uninstall()
        session.close()
    assert loop.failed == 0
    missing = [frame for frame in USES[name] if tracer.calls[frame] < 1]
    assert not missing, missing
    assert not tracer.stack
    assert tracer.counts["model.match_rows"] > 0


def test_uninstall_restores_the_program():
    import anrdf.anql.engine as engine
    import anrdf.cli as cli
    import anrdf.model as model

    before = (model.AnnotatedGraph.match, engine.prune_maximal, cli.closure)
    tracing.install(tracing.Tracer())()
    assert (model.AnnotatedGraph.match, engine.prune_maximal, cli.closure) == before


def test_benchmark_json_names_every_reported_metric():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == tracing.PER_LAYER
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(run.WORKLOADS)


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_counts_repeat_exactly(name):
    command = [sys.executable, str(run.HERE / "run.py"), "--workload", name,
               "--seed", "4", "--seconds", "0.01", "--trace", "1"]
    results = [
        _last_json(subprocess.run(command, capture_output=True, text=True, check=True, timeout=300).stdout)
        for _ in range(2)
    ]
    for out in results:
        assert out["correct"] and out["failed"] == 0
        assert [m for m in out["metrics"]] == [name for name, _ in tracing.PER_LAYER]
    counts = [
        {k: v["value"] for k, v in out["metrics"].items() if v["unit"] == "count"}
        for out in results
    ]
    assert counts[0] == counts[1]
    assert counts[0]["model.match_calls"] > 0


def test_timed_run_reports_every_end_to_end_metric():
    command = [sys.executable, str(run.HERE / "run.py"), "--workload", "infer-compound",
               "--seed", "2", "--seconds", "0.01", "--trace", "0"]
    proc = subprocess.run(command, capture_output=True, text=True, check=True, timeout=300)
    out = _last_json(proc.stdout)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 2
    for metric in BENCHMARK["end_to_end"]:
        reported = out["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"] and reported["value"] > 0
    assert re.search(r"^failed_ratio\s+0 ratio", proc.stdout, re.M)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "query-mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
