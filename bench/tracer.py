"""Span tracing of the ouphase layers from outside the package.

The tracer replaces the module attributes that callers look up at call time
(``ouphase.experiment.run_trial``, ``ouphase.experiment.simulate_ou``, ...)
with wrappers that record one span per call: name, start, end, span id,
parent id, process id and a few counts. ``uninstall`` puts the originals
back, so untraced runs execute the package unchanged.

Pool workers are forked while the wrappers are installed, so they inherit
both the wrappers and the open-span stack of the parent (their first span's
parent is the ``experiment.pool`` span that forked them). A worker appends
its spans to ``<spool>/<pid>.jsonl`` each time its outermost span ends; the
parent reads them back with ``collect``.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import resource
import time
from pathlib import Path

import ouphase.analytics
import ouphase.cli
import ouphase.experiment
import ouphase.stochastic

# Spans that only call other layers: their main-process self time (outside
# the pool spans, which are the named pool gap) is wall time that no layer
# accounts for.
CONTAINERS = ("bench.rep", "experiment.run_ensemble", "experiment.sweep", "cli.dispatch")


def _draws(args, kwargs):
    return {"draws": args[1] if len(args) > 1 else kwargs["n"]}


def _trial_samples(args, kwargs):
    config = args[0] if args else kwargs["config"]
    return {"samples": config.grid.n_steps}


def _ensemble_shape(args, kwargs):
    config = args[0] if args else kwargs["config"]
    workers = args[1] if len(args) > 1 else kwargs.get("workers", 1)
    return {"trials": config.trials, "samples": config.trials * config.grid.n_steps,
            "workers": workers}


class Tracer:
    """Records spans of the wrapped calls in this process and its forks."""

    def __init__(self, spool: Path):
        self.spool = spool
        self.pid = os.getpid()
        self.owner = self.pid
        self.spans: list[dict] = []
        self.stack: list[str] = []
        self._count = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------

    def open(self, name: str, attrs: dict | None = None) -> dict:
        if os.getpid() != self.pid:
            # first span in a forked worker: drop the parent's buffered spans
            # (the parent reports them) but keep its open-span stack
            self.pid = os.getpid()
            self.spans = []
        self._count += 1
        span = {"name": name, "id": f"{self.pid}:{self._count}",
                "parent": self.stack[-1] if self.stack else None,
                "pid": self.pid, "attrs": dict(attrs or {})}
        self.stack.append(span["id"])
        span["start"] = time.perf_counter_ns()
        return span

    def close(self, span: dict):
        span["end"] = time.perf_counter_ns()
        self.stack.pop()
        self.spans.append(span)
        if self.pid != self.owner and not (span["parent"] or "").startswith(f"{self.pid}:"):
            with open(self.spool / f"{self.pid}.jsonl", "a", encoding="utf-8") as fh:
                fh.writelines(json.dumps(s) + "\n" for s in self.spans)
            self.spans = []

    def wrap(self, fn, name: str, attrs=None, faults: bool = False):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name, attrs(args, kwargs) if attrs else None)
            flt0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt if faults else 0
            try:
                return fn(*args, **kwargs)
            finally:
                if faults:
                    span["attrs"]["minflt"] = (
                        resource.getrusage(resource.RUSAGE_SELF).ru_minflt - flt0)
                tracer.close(span)

        return traced

    # -- installation -----------------------------------------------------

    def _patch(self, owner, attr: str, replacement):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self):
        ex, an = ouphase.experiment, ouphase.analytics
        layers = (
            (ex, "run_trial", "experiment.run_trial", _trial_samples, True),
            (ex, "run_ensemble", "experiment.run_ensemble", _ensemble_shape, False),
            (ex, "simulate_ou", "stochastic.simulate_ou", None, False),
            (ex, "run_adaptive_loop", "detection.run_adaptive_loop", None, False),
            (ex, "run_dual_homodyne", "detection.run_dual_homodyne", None, False),
            (ex, "apply_estimators", "estimators.apply_estimators", None, False),
            (ouphase.stochastic.NoiseStream, "normals", "stochastic.normals", _draws, False),
            (ouphase.cli, "sweep", "experiment.sweep", None, False),
            (ouphase.cli, "dispatch", "cli.dispatch", None, False),
        )
        for owner, attr, name, attrs, faults in layers:
            self._patch(owner, attr, self.wrap(getattr(owner, attr), name, attrs, faults))
        for fn in an.__all__:
            if inspect.isfunction(getattr(an, fn)):
                self._patch(an, fn, self.wrap(getattr(an, fn), f"analytics.{fn}"))
        self._patch(ex, "ProcessPoolExecutor", _traced_pool(self, ex.ProcessPoolExecutor))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def collect(self) -> list[dict]:
        """Spans recorded so far in this process and in its workers; clears both."""
        spans, self.spans = self.spans, []
        for path in sorted(self.spool.glob("*.jsonl")):
            with open(path, encoding="utf-8") as fh:
                spans.extend(json.loads(line) for line in fh)
            path.unlink()
        return spans


def _traced_pool(tracer: Tracer, base):
    class TracedPool(base):
        """Process pool whose lifetime, from creation to shutdown, is a span."""

        def __init__(self, *args, **kwargs):
            self._span = tracer.open("experiment.pool", {"workers": kwargs.get("max_workers")})
            super().__init__(*args, **kwargs)

        def shutdown(self, *args, **kwargs):
            try:
                super().shutdown(*args, **kwargs)
            finally:
                if self._span is not None:
                    tracer.close(self._span)
                    self._span = None

    return TracedPool


# -- per-layer metrics ------------------------------------------------------


def self_times(spans: list[dict]) -> dict[str, int]:
    """Span id -> duration minus the durations of its same-process children.

    Children in other processes (pool workers) run concurrently with their
    parent, so they are not subtracted: the parent's self time is its wait.
    """
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        parent = by_id.get(s["parent"])
        if parent is not None and parent["pid"] == s["pid"]:
            own[parent["id"]] -= s["end"] - s["start"]
    return own


def tail_percentile(count: int) -> float:
    """Highest of the standard percentiles with at least 10 samples beyond it."""
    best = 50.0
    for pct in (75.0, 90.0, 95.0, 99.0, 99.9):
        if count * (1.0 - pct / 100.0) >= 10:
            best = pct
    return best


def percentile(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = (len(ordered) - 1) * pct / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def layer_metrics(spans: list[dict], reps: int, main_pid: int) -> dict[str, float]:
    """Per-layer figures from the spans of ``reps`` traced repetitions."""
    own = self_times(spans)
    named: dict[str, list[dict]] = {}
    for s in spans:
        named.setdefault(s["name"], []).append(s)

    def self_ns(name):
        return sum(own[s["id"]] for s in named.get(name, ()))

    def count(name):
        return len(named.get(name, ()))

    ensembles = named.get("experiment.run_ensemble", [])
    samples = sum(s["attrs"]["samples"] for s in ensembles)
    trials = sum(s["attrs"]["trials"] for s in ensembles)
    draws = sum(s["attrs"]["draws"] for s in named.get("stochastic.normals", ()))
    trial_spans = named.get("experiment.run_trial", [])
    trial_ms = [(s["end"] - s["start"]) / 1e6 for s in trial_spans]
    trial_samples = sum(s["attrs"]["samples"] for s in trial_spans)
    tail = tail_percentile(len(trial_ms))

    pools = named.get("experiment.pool", [])
    first_start: dict[str, int] = {}
    for s in trial_spans:
        if s["parent"] is not None:
            first_start[s["parent"]] = min(first_start.get(s["parent"], s["start"]), s["start"])
    startup_ms = [(first_start[p["id"]] - p["start"]) / 1e6 for p in pools if p["id"] in first_start]
    capacity = sum(s["attrs"]["workers"] * (s["end"] - s["start"]) for s in ensembles)
    busy = sum(s["end"] - s["start"] for s in trial_spans)

    roots = named.get("bench.rep", [])
    wall = sum(s["end"] - s["start"] for s in roots)
    pool_wait = sum(own[p["id"]] for p in pools if p["pid"] == main_pid)
    analytics = [n for n in named if n.startswith("analytics.")]
    dispatch = named.get("cli.dispatch", [])

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "stochastic.normals.ns_per_draw": ratio(self_ns("stochastic.normals"), draws),
        "stochastic.normals.draws_per_sample": ratio(draws, samples),
        "stochastic.simulate_ou.ns_per_sample": ratio(self_ns("stochastic.simulate_ou"), samples),
        "detection.run_adaptive_loop.ns_per_sample": ratio(
            self_ns("detection.run_adaptive_loop"), samples),
        "detection.run_adaptive_loop.calls": count("detection.run_adaptive_loop"),
        "detection.run_dual_homodyne.ns_per_sample": ratio(
            self_ns("detection.run_dual_homodyne"), samples),
        "detection.run_dual_homodyne.calls": count("detection.run_dual_homodyne"),
        "estimators.apply_estimators.ns_per_sample": ratio(
            self_ns("estimators.apply_estimators"), samples),
        "estimators.passes_per_trajectory": ratio(
            count("estimators.apply_estimators"), count("stochastic.simulate_ou")),
        "experiment.run_trial.self_ns_per_sample": ratio(self_ns("experiment.run_trial"), samples),
        "experiment.run_trial.ms_p50": percentile(trial_ms, 50.0),
        "experiment.run_trial.ms_tail": percentile(trial_ms, tail),
        "experiment.run_trial.tail_pct": tail,
        "experiment.run_trial.count": len(trial_ms),
        "experiment.run_trial.minor_faults_per_sample": ratio(
            sum(s["attrs"]["minflt"] for s in trial_spans), trial_samples),
        "experiment.trajectories_per_requested_trial": ratio(count("stochastic.simulate_ou"), trials),
        "experiment.pool.pools_started": len(pools) / reps,
        "experiment.pool.startup_ms": percentile(startup_ms, 50.0),
        "experiment.pool.parallel_efficiency": ratio(busy, capacity),
        "experiment.pool.gap_pct": 100.0 * ratio(pool_wait, wall),
        "analytics.ms": ratio(sum(self_ns(n) for n in analytics) / 1e6, len(ensembles)),
        "analytics.calls_per_trial": ratio(sum(count(n) for n in analytics), trials),
        "cli.self_ms": ratio(self_ns("cli.dispatch") / 1e6, len(dispatch)),
        "trace.unattributed_pct": 100.0 * ratio(
            sum(own[s["id"]] for name in CONTAINERS for s in named.get(name, ())
                if s["pid"] == main_pid), wall),
    }


def blocking_path(spans: list[dict], main_pid: int) -> dict[str, float]:
    """Self time by span name in the main process, in ms; sums to the traced wall."""
    own = self_times(spans)
    totals: dict[str, float] = {}
    for s in spans:
        if s["pid"] == main_pid:
            totals[s["name"]] = totals.get(s["name"], 0.0) + own[s["id"]] / 1e6
    return dict(sorted(totals.items(), key=lambda kv: -kv[1]))
