"""anrdf benchmark: three seeded workloads, timed or traced.

    python3 perfbench/run.py --workload infer-temporal --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Each workload is a closed loop with one client, one operation at a time,
in this process and on one thread, driving the program's public entry
points with generated `.anrdf` / `.anql` text.  `--trace 0` reports the
end-to-end metrics; `--trace 1` wraps each layer's entry points
(`tracing.py`) and reports per-layer counts and self times.  The last line
of standard output is one JSON object; the lines before it name every
metric with its unit and sample count.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from itertools import islice
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_out"
DIGESTS = HERE / "digests.json"

WORKLOADS = ("infer-temporal", "query-mix", "infer-compound")
DEFAULT_SEED = 1
SETUP_REPEATS = 3
GROWTH_FACTOR = 4

_clock = time.perf_counter


class ProgramMissing(Exception):
    pass


def load_program() -> None:
    """Put the checkout's `src/` first on the import path.

    The benchmark measures the program in the checkout it runs from and
    never an installed copy, so it stops when `src/anrdf` is absent.
    """
    src = ROOT / "src"
    if not (src / "anrdf" / "__init__.py").is_file():
        raise ProgramMissing(f"no program source at {src / 'anrdf'}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import anrdf

    if Path(anrdf.__file__).resolve().parent != (src / "anrdf").resolve():
        raise ProgramMissing(f"imported anrdf from {anrdf.__file__}, not {src}")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# -- sessions: one workload at one size, set up and ready to run ---------------


class OperationFailed(Exception):
    pass


class InferSession:
    """`anrdf infer` in-process on one generated document."""

    def __init__(self, name: str, seed: int, individuals: int):
        make = workloads.temporal_document if name == "infer-temporal" else workloads.compound_document
        WORK.mkdir(exist_ok=True)
        stem = f"{name}-{seed}-{individuals}-{os.getpid()}"
        self.input = WORK / f"{stem}.anrdf"
        self.output = WORK / f"{stem}.out.anrdf"
        self.input.write_text(make(seed, individuals))
        self.parts = ("infer",)

    def run_part(self, part: str) -> tuple[float, str]:
        from anrdf import cli

        start = _clock()
        code = cli.main(["infer", "-i", str(self.input), "-o", str(self.output)])
        elapsed = _clock() - start
        if code != 0:
            raise OperationFailed(f"anrdf infer exited with {code}")
        return elapsed, sha256(self.output.read_bytes())

    def recheck(self) -> str | None:
        """Close the last output once more: nothing may be added or grow."""
        from anrdf import reasoner, syntax

        doc = syntax.parse_graph(self.output.read_text())
        graph, _ = reasoner.apply_defaults(doc.graph, doc.plain, "top")
        again = reasoner.closure(graph)
        if len(again) != len(graph):
            return f"closing the output added {len(again) - len(graph)} triples"
        grown = sum(1 for t, v in again.statements() if graph.get(t) != v)
        return f"closing the output grew {grown} annotations" if grown else None

    def close(self) -> None:
        for path in (self.input, self.output):
            path.unlink(missing_ok=True)


class QuerySession:
    """The six query shapes over one closed temporal graph."""

    def __init__(self, seed: int, individuals: int):
        from anrdf import reasoner, syntax

        doc = syntax.parse_graph(workloads.temporal_document(seed, individuals))
        graph, _ = reasoner.apply_defaults(doc.graph, doc.plain, "top")
        self.domain = doc.domain
        self.closed = reasoner.closure(graph)
        self.parts = tuple(workloads.QUERY_SHAPES)

    def run_part(self, shape: str) -> tuple[float, str]:
        from anrdf import syntax
        from anrdf.anql.engine import evaluate_query
        from anrdf.anql.rewrite import rewrite_defaults

        start = _clock()
        query = syntax.parse_query(workloads.QUERY_SHAPES[shape], self.domain)
        query = rewrite_defaults(query, "top", self.domain)
        rows = evaluate_query(self.closed, query, [])
        tsv = syntax.serialize_answers_tsv(query.select, rows)
        return _clock() - start, sha256(tsv.encode())

    def close(self) -> None:
        pass


def open_session(name: str, seed: int, individuals: int | None = None):
    if individuals is None:
        individuals = full_size(name)
    if name == "query-mix":
        return QuerySession(seed, individuals)
    return InferSession(name, seed, individuals)


def full_size(name: str) -> int:
    if name == "infer-compound":
        return workloads.COMPOUND_INDIVIDUALS
    return workloads.TEMPORAL_INDIVIDUALS


# -- machine speed ----------------------------------------------------------------


class Speed:
    """How fast the machine runs right now, from a fixed reference loop.

    On a shared host the same operation can take up to twice as long for
    tens of seconds at a time, in CPU time as much as in wall time, which
    no median within one run removes.  So every time the JSON result
    reports is divided by `factor()`: the reference loop's wall time on
    both sides of the timed interval over NOMINAL_S.  A figure then reads
    as seconds at the loop's nominal speed.  Raw wall times are printed
    beside them.
    """

    NOMINAL_S = 0.04

    def __init__(self):
        # Dict stores, an in-place sort and Fraction compares over about a
        # megabyte, like the program's own work.  The loop reuses its
        # buffers, so the program's heap does not make it cheaper or dearer.
        rng = random.Random(0)
        self._items = [
            (f"k{rng.randrange(10**6)}", Fraction(rng.randrange(100), 7)) for _ in range(10_000)
        ]
        self._table = dict(self._items)
        self._buffer = list(self._items)
        self._last = self._loop()

    def _loop(self) -> float:
        items, table, buffer = self._items, self._table, self._buffer
        start = _clock()
        for _ in range(3):
            for key, value in items:
                table[key] = value
            buffer[:] = items
            buffer.sort()
            sum(1 for a, b in zip(buffer, islice(buffer, 1, None)) if a[1] < b[1])
        return _clock() - start

    def factor(self) -> float:
        """The speed factor of the interval since the previous call."""
        now = self._loop()
        factor = (self._last + now) / (2 * self.NOMINAL_S)
        self._last = now
        return factor


# -- the closed loop -----------------------------------------------------------


class Loop:
    """Runs operations, checks every output digest, counts failures.

    An operation is one `infer`, or one query of a `query-mix` pass.
    """

    def __init__(self, session, reference: dict[str, str] | None):
        self.session = session
        self.reference = dict(reference or {})
        self.attempted = 0
        self.failed = 0

    def _fail(self, message: str) -> None:
        self.failed += 1
        if self.failed <= 5:
            print(f"error: {message}", file=sys.stderr)

    def _check(self, part: str, digest: str) -> None:
        expected = self.reference.setdefault(part, digest)
        if digest != expected:
            self._fail(f"{part}: output digest {digest[:12]} != reference {expected[:12]}")

    def once(self) -> dict[str, float] | None:
        """One operation (one pass for query-mix); its part times, or
        None when any part failed."""
        times: dict[str, float] = {}
        for part in self.session.parts:
            self.attempted += 1
            try:
                times[part], digest = self.session.run_part(part)
            except Exception:  # a failed operation is counted, not fatal
                self._fail(f"{part}: {traceback.format_exc(limit=3)}")
                return None
            self._check(part, digest)
        return times

    def recheck(self) -> None:
        """For infer, one more untimed operation: close the last output again."""
        if isinstance(self.session, InferSession):
            self.attempted += 1
            message = self.session.recheck()
            if message:
                self._fail(message)


def until(seconds: float, step) -> None:
    """Call `step` at least once, and until `seconds` have passed."""
    deadline = _clock() + seconds
    step()
    while _clock() < deadline:
        step()


def recorded_digests(name: str, seed: int) -> dict[str, str] | None:
    if not DIGESTS.is_file():
        return None
    return json.loads(DIGESTS.read_text()).get(name, {}).get(str(seed))


def timed_setup(name: str, seed: int, speed: Speed) -> tuple[list[float], list[float], object]:
    """Set the workload up SETUP_REPEATS times; speed-adjusted and raw
    times, and the last session."""
    adjusted, raw, session = [], [], None
    speed.factor()
    for _ in range(SETUP_REPEATS):
        if session is not None:
            session.close()
        start = _clock()
        session = open_session(name, seed)
        raw.append(_clock() - start)
        adjusted.append(raw[-1] / speed.factor())
    return adjusted, raw, session


def adjusted_ops(loop: Loop, speed: Speed, seconds: float) -> tuple[list[dict[str, float]], list[float]]:
    """Untraced operations for `seconds`: speed-adjusted part times of
    each, and raw wall times."""
    samples, raw = [], []
    speed.factor()

    def step() -> None:
        times = loop.once()
        factor = speed.factor()
        if times is not None:
            samples.append({part: t / factor for part, t in times.items()})
            raw.append(sum(times.values()))

    until(seconds, step)
    return samples, raw


# -- reporting ------------------------------------------------------------------


def describe(values: list[float]) -> str:
    """Median, plus the highest percentile with ten samples beyond it."""
    text = f"median {statistics.median(values):.6g}"
    if len(values) > 20:
        q = 1 - 10 / len(values)
        text += f"  p{100 * q:.0f} {sorted(values)[math.ceil(q * len(values)) - 1]:.6g}"
    return text


def line(label: str, values: list[float], unit: str) -> None:
    print(f"{label:<34} {describe(values)} {unit}  (n={len(values)})")


def result(correct: bool, loop: Loop, metrics: dict[str, tuple[float, str]]) -> dict:
    return {
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


# -- timed run ------------------------------------------------------------------


def timed_run(name: str, seed: int, seconds: float) -> dict:
    speed = Speed()
    setup_times, setup_raw, session = timed_setup(name, seed, speed)
    try:
        loop = Loop(session, recorded_digests(name, seed))
        loop.once()  # untimed: warms up and, for a new seed, sets the reference
        samples, raw = adjusted_ops(loop, speed, seconds)
        loop.recheck()
    finally:
        session.close()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    op = [sum(s.values()) for s in samples] or [math.nan]
    op_label = "mix_s" if name == "query-mix" else "infer_s"

    print(f"# {name} seed={seed} seconds={seconds} trace=0 (times speed-adjusted)")
    line("setup_s", setup_times, "s")
    line(f"op_s ({op_label})", op, "s")
    if name == "query-mix":
        for shape in workloads.QUERY_SHAPES:
            line(f"query.{shape}_s", [s[shape] for s in samples], "s")
    line("peak_rss_mib", [peak_rss_mib], "MiB")
    print(f"{'failed_ratio':<34} {loop.failed / loop.attempted:.6g} ratio  "
          f"({loop.failed} of n={loop.attempted} operations)")
    line("raw setup wall time", setup_raw, "s")
    line("raw op wall time", raw or [math.nan], "s")
    return result(
        loop.failed == 0 and bool(samples),
        loop,
        {
            "setup_s": (statistics.median(setup_times), "s"),
            "op_s": (statistics.median(op), "s"),
            "peak_rss_mib": (peak_rss_mib, "MiB"),
        },
    )


# -- traced run -----------------------------------------------------------------


def traced_ops(loop: Loop, tracer, speed: Speed, seconds: float) -> tuple[list[dict[str, float]], list]:
    """Traced operations for `seconds`: the speed-adjusted per-layer
    figures of each, and the spans of the first."""
    from tracing import adjust, layer_metrics

    figures, spans = [], []
    speed.factor()

    def step() -> None:
        tracer.reset()
        times = tracer.span("cli.op", loop.once)
        factor = speed.factor()
        if times is not None:
            figures.append(adjust(layer_metrics(tracer), factor))
            if not spans:
                spans.extend(tracer.spans)

    until(seconds, step)
    return figures, spans


def traced_run(name: str, seed: int, seconds: float) -> dict:
    import tracing

    speed = Speed()
    session = open_session(name, seed)
    quarter = None
    try:
        loop = Loop(session, recorded_digests(name, seed))
        loop.once()
        samples, _ = adjusted_ops(loop, speed, seconds / 4)
        plain = [sum(s.values()) for s in samples]
        tracer = tracing.Tracer()
        uninstall = tracing.install(tracer)
        try:
            full, spans = traced_ops(loop, tracer, speed, seconds / 2)
            quarter = open_session(name, seed, full_size(name) // GROWTH_FACTOR)
            small_loop = Loop(quarter, None)
            small, _ = traced_ops(small_loop, tracer, speed, seconds / 4)
        finally:
            uninstall()
        loop.recheck()
        loop.attempted += small_loop.attempted
        loop.failed += small_loop.failed
    finally:
        session.close()
        if quarter is not None:
            quarter.close()

    metrics = tracing.summarise(full, small, GROWTH_FACTOR, statistics.median(plain))
    print(f"# {name} seed={seed} seconds={seconds} trace=1, times speed-adjusted "
          f"(traced ops n={len(full)}, quarter-size ops n={len(small)}, untraced n={len(plain)})")
    for key, (value, unit) in metrics.items():
        print(f"{key:<34} {value:.6g} {unit}")
    WORK.mkdir(exist_ok=True)
    tracing.write_spans(spans, WORK / f"spans-{name}-{seed}.tsv")
    return result(loop.failed == 0, loop, metrics)


# -- entry point -----------------------------------------------------------------


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is its own."""
    code = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            check=False,
        )
        code = code or proc.returncode
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        load_program()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    run = traced_run if args.trace else timed_run
    out = run(args.workload, args.seed, args.seconds)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    # String hashing is salted per process, and set iteration order inside
    # the domains follows it.  A fixed salt makes every run of a seed do
    # the same work, so traced counts repeat exactly.
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": "0"})
    sys.exit(main())
