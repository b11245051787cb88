from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from anrdf import closure, parse_graph

ROOT = Path(__file__).resolve().parent.parent
DATA_DIR = ROOT / "data"


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA_DIR


def perfbench_module(name: str):
    """`perfbench/<name>.py`, loaded from the benchmark's script
    directory (not a package)."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def workloads():
    """`perfbench/workloads.py`, the benchmark's seeded document generators."""
    return perfbench_module("workloads")


@pytest.fixture
def tracer():
    """The benchmark's per-layer tracer (`perfbench/tracing.py`),
    installed around the program for one test."""
    tracing = perfbench_module("tracing")
    undo = tracing.install(tracing.Tracer())
    yield
    undo()


def load_closure(name: str):
    doc = parse_graph((DATA_DIR / name).read_text())
    return closure(doc.graph)


@pytest.fixture(scope="session")
def fig1_closure():
    return load_closure("fig1.anrdf")


@pytest.fixture(scope="session")
def fig1_exx1_closure():
    return load_closure("fig1_exx1.anrdf")


@pytest.fixture(scope="session")
def exx1_minimal_closure():
    return load_closure("exx1_minimal.anrdf")


@pytest.fixture(scope="session")
def provenance_closure():
    return load_closure("provenance_chad.anrdf")
