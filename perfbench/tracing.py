"""Per-layer tracing by wrapping the program's public functions.

The benchmark installs wrappers around each layer's entry points where
their callers look them up (module globals and class attributes), so no
file of the program changes.  Every wrapped call is a frame on one stack:
on exit its duration is charged to its name, its self time is the
duration minus the time its child frames cover, and the frame is kept as
a span (name, start, end, parent) in memory.  Call counts and row counts
are taken at the same boundaries.

`install` returns a function that restores every original attribute.
"""

from __future__ import annotations

import functools
import math
import statistics
import time
import weakref
from collections import Counter, defaultdict

import anrdf.anql.engine as engine
import anrdf.cli as cli
import anrdf.domains.base as domain_base
import anrdf.domains.compound as compound
import anrdf.model as model
import anrdf.reasoner as reasoner
import anrdf.syntax as syntax

# The query operators the per-layer report names; others are traced too.
OPERATORS = ("Bap", "Join", "Optional", "Filter", "Union", "GroupBy", "SubSelect")
DOMAIN_KINDS = ("temporal", "provenance", "compound")
DOMAIN_OPS = ("join", "meet", "leq")

_clock = time.perf_counter


class Frame:
    __slots__ = ("name", "start", "child", "rows_in", "index")

    def __init__(self, name: str, start: float, index: int):
        self.name = name
        self.start = start
        self.child = 0.0
        self.rows_in = 0
        self.index = index


class Tracer:
    """Frames, spans and counters for one traced operation."""

    def __init__(self):
        self.stack: list[Frame] = []
        self.spans: list[tuple[str, float, float, int]] = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()

    def reset(self) -> None:
        self.__init__()

    def enter(self, name: str) -> Frame:
        frame = Frame(name, _clock(), len(self.spans))
        self.spans.append((name, frame.start, 0.0, -1))
        self.stack.append(frame)
        return frame

    def exit(self, frame: Frame, rows_out: int | None = None) -> None:
        end = _clock()
        self.stack.pop()
        duration = end - frame.start
        parent = self.stack[-1] if self.stack else None
        self.spans[frame.index] = (
            frame.name,
            frame.start,
            end,
            parent.index if parent else -1,
        )
        self.calls[frame.name] += 1
        self.total_s[frame.name] += duration
        self.self_s[frame.name] += duration - frame.child
        if parent is not None:
            parent.child += duration
            # Rows flow into an operator from its child operators and,
            # for a basic pattern, from the store's `match`.
            if rows_out is not None and parent.name.startswith("anql.op."):
                if frame.name.startswith("anql.op.") or frame.name == "model.match":
                    parent.rows_in += rows_out
        if frame.name.startswith("anql.op."):
            self.counts[frame.name + ".rows_in"] += frame.rows_in
            self.counts[frame.name + ".rows_out"] += rows_out or 0

    def span(self, name: str, fn, *args, **kwargs):
        frame = self.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.exit(frame)


def _patch(undo: list, owner, attr: str, wrapper) -> None:
    undo.append((owner, attr, getattr(owner, attr)))
    setattr(owner, attr, wrapper)


def install(tracer: Tracer):
    """Wrap every layer's entry points; returns a function that undoes it."""
    undo: list = []

    def timed(name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.span(name, fn, *args, **kwargs)

        return wrapper

    # -- syntax ------------------------------------------------------------
    orig_parse_graph = syntax.parse_graph

    @functools.wraps(orig_parse_graph)
    def parse_graph(*args, **kwargs):
        frame = tracer.enter("syntax.parse_graph")
        try:
            doc = orig_parse_graph(*args, **kwargs)
        finally:
            tracer.exit(frame)
        tracer.counts["syntax.statements"] += len(doc.graph) + len(doc.plain)
        return doc

    for owner in (syntax, cli):
        _patch(undo, owner, "parse_graph", parse_graph)
    wrapped_serialize_graph = timed("syntax.serialize_graph", syntax.serialize_graph)
    wrapped_parse_query = timed("syntax.parse_query", syntax.parse_query)
    wrapped_serialize_tsv = timed("syntax.serialize_answers", syntax.serialize_answers_tsv)
    for owner in (syntax, cli):
        _patch(undo, owner, "serialize_graph", wrapped_serialize_graph)
        _patch(undo, owner, "parse_query", wrapped_parse_query)
        _patch(undo, owner, "serialize_answers_tsv", wrapped_serialize_tsv)

    # -- reasoner ----------------------------------------------------------
    orig_closure = reasoner.closure

    @functools.wraps(orig_closure)
    def closure(graph, *args, **kwargs):
        frame = tracer.enter("reasoner.closure")
        try:
            out = orig_closure(graph, *args, **kwargs)
        finally:
            tracer.exit(frame)
        tracer.counts["reasoner.triples_in"] += len(graph)
        tracer.counts["reasoner.triples_out"] += len(out)
        return out

    wrapped_defaults = timed("reasoner.apply_defaults", reasoner.apply_defaults)
    for owner in (reasoner, cli):
        _patch(undo, owner, "closure", closure)
        _patch(undo, owner, "apply_defaults", wrapped_defaults)

    # -- model -------------------------------------------------------------
    Graph = model.AnnotatedGraph
    orig_match, orig_insert = Graph.match, Graph.insert
    # Triples per predicate of each live graph, kept up to date by `insert`
    # and filled by one scan the first time a graph is seen, so the size of
    # the bucket a predicate lookup walks is known without store internals.
    buckets: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def bucket_of(graph) -> Counter:
        counter = buckets.get(graph)
        if counter is None:
            counter = Counter(t.predicate for t in graph.triple_set())
            buckets[graph] = counter
        return counter

    @functools.wraps(orig_match)
    def match(self, s, p, o):
        examined = bucket_of(self)[p] if p is not None else len(self)
        frame = tracer.enter("model.match")
        rows = None
        try:
            rows = list(orig_match(self, s, p, o))
        finally:
            tracer.exit(frame, len(rows) if rows is not None else None)
        tracer.counts["model.match_rows"] += len(rows)
        tracer.counts["model.match_examined"] += examined
        return iter(rows)

    @functools.wraps(orig_insert)
    def insert(self, t, value):
        counter = bucket_of(self)
        new = t not in self
        frame = tracer.enter("model.insert")
        try:
            grew = orig_insert(self, t, value)
        finally:
            tracer.exit(frame)
        if grew:
            tracer.counts["model.insert_useful"] += 1
            if new:
                counter[t.predicate] += 1
        return grew

    _patch(undo, Graph, "match", match)
    _patch(undo, Graph, "insert", insert)
    _patch(undo, Graph, "statements", timed("model.statements", Graph.statements))

    # -- domains -----------------------------------------------------------
    Value = domain_base.AnnotationValue

    def domain_op(op: str, fn):
        names = {kind: f"domains.{kind}.{op}" for kind in DOMAIN_KINDS}

        @functools.wraps(fn)
        def wrapper(self, other):
            kind = self.domain.name.split("(", 1)[0]
            frame = tracer.enter(names.get(kind, f"domains.{kind}.{op}"))
            try:
                return fn(self, other)
            finally:
                tracer.exit(frame)

        return wrapper

    for op in DOMAIN_OPS:
        _patch(undo, Value, op, domain_op(op, getattr(Value, op)))

    orig_normalise = compound.normalise

    @functools.wraps(orig_normalise)
    def normalise(d1, d2, pairs):
        pairs = list(pairs)
        frame = tracer.enter("domains.normalise")
        try:
            out = orig_normalise(d1, d2, pairs)
        finally:
            tracer.exit(frame)
        tracer.counts["domains.normalise_pairs_in"] += len(pairs)
        tracer.counts["domains.normalise_pairs_out"] += len(out)
        return out

    _patch(undo, compound, "normalise", normalise)

    # -- anql --------------------------------------------------------------
    orig_eval_pattern = engine.eval_pattern

    @functools.wraps(orig_eval_pattern)
    def eval_pattern(graph, pattern, diagnostics=None):
        frame = tracer.enter(f"anql.op.{type(pattern).__name__}")
        rows = None
        try:
            rows = orig_eval_pattern(graph, pattern, diagnostics)
        finally:
            tracer.exit(frame, len(rows) if rows is not None else None)
        return rows

    orig_prune = engine.prune_maximal

    @functools.wraps(orig_prune)
    def prune_maximal(solutions):
        frame = tracer.enter("anql.prune")
        try:
            out = orig_prune(solutions)
        finally:
            tracer.exit(frame)
        tracer.counts["anql.prune_rows_in"] += len(solutions)
        tracer.counts["anql.prune_rows_out"] += len(out)
        return out

    def counted(name: str, fn):
        # Called once per pair of rows: a count is enough, and a frame per
        # call would cost more than the call itself.
        @functools.wraps(fn)
        def wrapper(*args):
            tracer.calls[name] += 1
            return fn(*args)

        return wrapper

    _patch(undo, engine, "eval_pattern", eval_pattern)
    _patch(undo, engine, "prune_maximal", prune_maximal)
    _patch(undo, engine, "dominates", counted("anql.dominates", engine.dominates))
    _patch(undo, engine, "meet_compatible", counted("anql.compat", engine.meet_compatible))

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


# -- per-layer figures -----------------------------------------------------------

# (metric, unit) in report order; `summarise` adds the growth exponents.
LAYER_METRICS: list[tuple[str, str]] = [
    ("model.match_calls", "count"),
    ("model.match_rows", "count"),
    ("model.match_s", "s"),
    ("model.examined_per_row", "ratio"),
    ("model.insert_calls", "count"),
    ("model.insert_s", "s"),
    ("model.insert_useful_ratio", "ratio"),
    ("model.statements_s", "s"),
    ("reasoner.closure_s", "s"),
    ("reasoner.triples_in", "count"),
    ("reasoner.triples_out", "count"),
    ("reasoner.derived_per_s", "1/s"),
    ("reasoner.apply_defaults_s", "s"),
    *[
        (f"domains.{kind}.{op}_{what}", unit)
        for kind in DOMAIN_KINDS
        for what, unit in (("calls", "count"), ("s", "s"))
        for op in DOMAIN_OPS
    ],
    ("domains.normalise_calls", "count"),
    ("domains.normalise_s", "s"),
    ("domains.normalise_pairs_in", "count"),
    ("domains.normalise_pairs_out", "count"),
    *[
        (f"anql.{op}.{what}", unit)
        for op in OPERATORS
        for what, unit in (("self_s", "s"), ("rows_in", "count"), ("rows_out", "count"))
    ],
    ("anql.prune_s", "s"),
    ("anql.prune_rows_in", "count"),
    ("anql.prune_rows_out", "count"),
    ("anql.dominates_calls", "count"),
    ("anql.compat_calls", "count"),
    ("syntax.parse_graph_s", "s"),
    ("syntax.statements", "count"),
    ("syntax.serialize_graph_s", "s"),
    ("syntax.parse_query_s", "s"),
    ("syntax.serialize_answers_s", "s"),
    ("cli.op_s", "s"),
]

# growth metric -> the self time whose growth it reports
GROWTH = {
    "growth.reasoner.closure": "reasoner.closure_s",
    "growth.model.match": "model.match_s",
    "growth.anql.prune": "anql.prune_s",
    "growth.domains.normalise": "domains.normalise_s",
}

# Every per-layer metric a traced run reports, with its unit.
PER_LAYER: list[tuple[str, str]] = [
    *LAYER_METRICS,
    ("trace.overhead_ratio", "ratio"),
    *[(name, "exponent") for name in GROWTH],
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(t: Tracer) -> dict[str, float]:
    """The per-layer figures of the one operation `t` has traced."""
    calls, self_s, counts = t.calls, t.self_s, t.counts
    derived = counts["reasoner.triples_out"] - counts["reasoner.triples_in"]
    m = {
        "model.match_calls": calls["model.match"],
        "model.match_rows": counts["model.match_rows"],
        "model.match_s": self_s["model.match"],
        "model.examined_per_row": _ratio(counts["model.match_examined"], counts["model.match_rows"]),
        "model.insert_calls": calls["model.insert"],
        "model.insert_s": self_s["model.insert"],
        "model.insert_useful_ratio": _ratio(counts["model.insert_useful"], calls["model.insert"]),
        "model.statements_s": self_s["model.statements"],
        "reasoner.closure_s": self_s["reasoner.closure"],
        "reasoner.triples_in": counts["reasoner.triples_in"],
        "reasoner.triples_out": counts["reasoner.triples_out"],
        "reasoner.derived_per_s": _ratio(derived, t.total_s["reasoner.closure"]),
        "reasoner.apply_defaults_s": self_s["reasoner.apply_defaults"],
        "domains.normalise_calls": calls["domains.normalise"],
        "domains.normalise_s": self_s["domains.normalise"],
        "domains.normalise_pairs_in": counts["domains.normalise_pairs_in"],
        "domains.normalise_pairs_out": counts["domains.normalise_pairs_out"],
        "anql.prune_s": self_s["anql.prune"],
        "anql.prune_rows_in": counts["anql.prune_rows_in"],
        "anql.prune_rows_out": counts["anql.prune_rows_out"],
        "anql.dominates_calls": calls["anql.dominates"],
        "anql.compat_calls": calls["anql.compat"],
        "syntax.parse_graph_s": self_s["syntax.parse_graph"],
        "syntax.statements": counts["syntax.statements"],
        "syntax.serialize_graph_s": self_s["syntax.serialize_graph"],
        "syntax.parse_query_s": self_s["syntax.parse_query"],
        "syntax.serialize_answers_s": self_s["syntax.serialize_answers"],
        "cli.op_s": t.total_s["cli.op"],
    }
    for kind in DOMAIN_KINDS:
        for op in DOMAIN_OPS:
            m[f"domains.{kind}.{op}_calls"] = calls[f"domains.{kind}.{op}"]
            m[f"domains.{kind}.{op}_s"] = self_s[f"domains.{kind}.{op}"]
    for op in OPERATORS:
        m[f"anql.{op}.self_s"] = self_s[f"anql.op.{op}"]
        m[f"anql.{op}.rows_in"] = counts[f"anql.op.{op}.rows_in"]
        m[f"anql.{op}.rows_out"] = counts[f"anql.op.{op}.rows_out"]
    return m


def adjust(figures: dict[str, float], factor: float) -> dict[str, float]:
    """Divide every time by the machine-speed factor (rates multiply)."""
    units = dict(LAYER_METRICS)
    scale = {"s": 1 / factor, "1/s": factor}
    return {name: value * scale.get(units[name], 1.0) for name, value in figures.items()}


def summarise(
    full: list[dict[str, float]], small: list[dict[str, float]], factor: int, untraced_s: float
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, in PER_LAYER order, from the traced
    operations at full size and at 1/factor size.

    Counts come from the first traced operation (every operation of a run
    does the same work), times and rates are medians over all of them,
    the overhead is the traced over the untraced operation median, and
    each growth exponent is log(self-time ratio) / log(size ratio)."""
    out = {}
    for name, unit in LAYER_METRICS:
        if unit == "count" or name in ("model.examined_per_row", "model.insert_useful_ratio"):
            out[name] = (float(full[0][name]), unit)
        else:
            out[name] = (statistics.median(f[name] for f in full), unit)
    out["trace.overhead_ratio"] = (out["cli.op_s"][0] / untraced_s, "ratio")
    for name, metric in GROWTH.items():
        big = statistics.median(f[metric] for f in full)
        little = statistics.median(f[metric] for f in small)
        exponent = math.log(big / little) / math.log(factor) if big > 0 and little > 0 else 0.0
        out[name] = (exponent, "exponent")
    return out


def write_spans(spans: list[tuple[str, float, float, int]], path) -> None:
    """One traced operation's spans as TSV: name, start and end in
    microseconds from the first span, and the parent's row (-1: root)."""
    origin = spans[0][1] if spans else 0.0
    with open(path, "w") as out:
        out.write("name\tstart_us\tend_us\tparent\n")
        for name, start, end, parent in spans:
            out.write(f"{name}\t{(start - origin) * 1e6:.1f}\t{(end - origin) * 1e6:.1f}\t{parent}\n")
