"""Runs one workload: set-up, warm-up, timed rounds, checks, and the trace.

Timing runs (``trace=False``) have no wrapper installed and report the
end-to-end metrics. A traced run (``trace=True``) sets up once under the
set-up tracer, runs rounds under the op tracer, replays its first round
untraced to show the traced attributions are bit-identical and to measure
the tracing overhead, and reports the per-layer metrics.
"""

from __future__ import annotations

import json
import resource
import shutil
import statistics
import tempfile
import time
from pathlib import Path

from cafa.errors import CafaError

import layers
from tracer import span_cost

SETUP_REPEATS = 3
ROUND_SPAN = "round"


class Run:
    """Tally of attempted and failed operations, and why they failed."""

    def __init__(self, log):
        self.attempted = 0
        self.failed = 0
        self.problems = []  # run-level failures: the run's outputs are wrong
        self.rounds = []
        self.wall = []  # every round that ran, for the run-length budget
        self.per_instance = []  # rounds whose checks passed
        self.log = log

    def record(self, w, ctx, inputs, run_round, out_dir):
        """Time one round of ``w``, check it, and count its operations."""
        self.attempted += w.ops_per_round
        t0 = time.perf_counter()
        try:
            rnd = run_round()
        except CafaError as exc:
            self.failed += w.ops_per_round
            self.log(f"round {inputs} failed: {type(exc).__name__}: {exc}")
            return None
        dt = time.perf_counter() - t0
        self.wall.append(dt)
        fails = w.check_round(ctx, rnd, out_dir)
        bad = [f for f in fails if f]
        self.failed += len(bad)
        for f in bad:
            self.log(f"round {inputs} check failed: {'; '.join(f)}")
        if not bad:
            self.per_instance.append(dt / w.ops_per_round)
        self.rounds.append(rnd)
        return rnd, dt

    def more(self, seconds: float) -> bool:
        """Start another round only if it is expected to end within the run."""
        if not self.wall:
            return self.attempted == 0
        return sum(self.wall) + statistics.median(self.wall) <= seconds


def run(w, seed: int, seconds: float, trace: bool, out_root: Path, log=print) -> dict:
    out_root.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=out_root))
    try:
        if trace:
            return _traced(w, seed, seconds, work, out_root, log)
        return _timed(w, seed, seconds, work, log)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _warm(w, ctx, rounds, work, run_state):
    warm = w.warmup(ctx, next(rounds), work / "warmup")
    for f in w.check_round(ctx, warm, work / "warmup", warmup=True):
        if f:
            run_state.problems.append("warm-up: " + "; ".join(f))


def _timed(w, seed, seconds, work, log) -> dict:
    setup_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        ctx = w.setup()
        setup_s.append(time.perf_counter() - t0)
    rounds = w.rounds(ctx, seed)
    r = Run(log)
    _warm(w, ctx, rounds, work, r)
    while r.more(seconds):
        inputs = next(rounds)
        r.record(w, ctx, inputs, lambda: w.run_round(ctx, inputs, work), work)
    if not r.per_instance:
        r.problems.append("no round passed its checks")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    log(f"{w.name}: setup {['%.3f' % s for s in setup_s]} s, "
        f"per instance {['%.3f' % s for s in r.per_instance]} s")
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "explain_s": (statistics.median(r.per_instance) if r.per_instance else 0.0, "s"),
        "peak_rss_mb": (peak, "MiB"),
    }
    return _result(r, metrics)


def _traced(w, seed, seconds, work, out_root, log) -> dict:
    st = layers.setup_tracer()
    with st.installed():
        ctx = w.setup()
    rounds = w.rounds(ctx, seed)
    r = Run(log)
    _warm(w, ctx, rounds, work, r)

    ot = layers.op_tracer()
    first = None

    def traced_round(inputs):
        with ot.installed():
            ot.instance += 1
            with ot.span(ROUND_SPAN):
                return w.run_round(ctx, inputs, work / "traced")

    while r.more(seconds):
        inputs = next(rounds)
        done = r.record(w, ctx, inputs, lambda: traced_round(inputs), work / "traced")
        if first is None and done is not None:
            first = (inputs, *done)

    if first is None:
        r.problems.append("no traced round completed")
        metrics = {}
    else:
        inputs, traced, traced_s = first
        t0 = time.perf_counter()
        plain = w.run_round(ctx, inputs, work / "plain")
        plain_s = time.perf_counter() - t0
        if w.fingerprint(plain) != w.fingerprint(traced):
            r.problems.append("traced attributions differ from the untraced replay")
        wrapped = len(ot.spans) * span_cost()
        traced_total = sum(r.wall)
        log(f"tracing overhead: first round {traced_s:.3f} s traced, {plain_s:.3f} s "
            f"untraced ({100.0 * (traced_s / plain_s - 1.0):+.2f}%, mostly host noise); "
            f"{len(ot.spans)} spans over {len(r.rounds)} rounds cost {wrapped:.4f} s "
            f"({100.0 * wrapped / traced_total:.3f}% of traced time)")
        n = sum(len(rnd.results) for rnd in r.rounds)
        metrics = {**layers.setup_metrics(st), **layers.op_metrics(ot, n, ROUND_SPAN)}
        log("stage shares of traced instance time: "
            f"forest.predict under explain {metrics['explain.predict_share'][0]:.3f}, "
            f"forest.fit_surrogate {metrics['forest.fit_surrogate_share'][0]:.3f}")
    trace_file = out_root / f"trace-{w.name}-seed{seed}.json"
    with open(trace_file, "w", encoding="utf-8") as fh:
        json.dump({"setup": st.records(), "ops": ot.records()}, fh)
        fh.write("\n")
    log(f"spans written to {trace_file}")
    return _result(r, metrics)


def _result(r: Run, metrics: dict) -> dict:
    for p in r.problems:
        r.log("incorrect: " + p)
    return {
        "correct": not r.problems,
        "attempted": r.attempted,
        "failed": r.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
