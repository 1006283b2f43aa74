"""ouphase benchmark: one workload per process, end-to-end or traced.

    python3 bench/run.py --workload ensemble_adaptive --seed 424242 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` and the finite-dt oracles from ``tests/oracles.py``. The run

1. times ``SETUP_PROBES`` fresh processes that each import the package,
   build the workload's configuration and run two warm-up trials
   (``setup_s`` is their median; skipped with ``--trace 1``);
2. warms up in-process, then runs reps until ``--seconds`` is used up;
3. checks the outputs (finite MSEs, a parseable sweep CSV, rep 0 rerun
   serially reproducing the run's own output exactly, and each pooled
   condition against its exact finite-dt expectation) and prints one JSON
   line last.

With ``--trace 1`` reps alternate between untraced and traced; the traced
ones give the per-layer metrics and the difference gives the overhead.
``failed``/``attempted`` in the result line count conditions whose pooled
|z| against the finite-dt expectation exceeds 3.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import ouphase.experiment  # noqa: E402

import workloads  # noqa: E402

SETUP_PROBES = 3
Z_GATE = 3.0
# A pooled |z| this large has probability below 1e-8 for a correct program,
# so it marks the run incorrect rather than merely failed.
Z_BROKEN = 6.0


def _cpu_seconds() -> float:
    self_ = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return self_.ru_utime + self_.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def _warm_up(workload, seed: int):
    """Two trials of the rep-0 configuration."""
    config = workload.trial_config(seed)
    ouphase.experiment.run_trial(config, 0)
    ouphase.experiment.run_trial(config, 1)


def _setup_seconds(args) -> float:
    """Median wall time of fresh processes doing import, config and warm-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _measure(workload, args, workdir, tracer):
    """Run reps until the time is used; returns per-rep records and spans."""
    reps, spans = [], []
    t_start = time.perf_counter()
    # traced runs alternate untraced and traced reps after a first untraced
    # one that is left out of the overhead, being often slower
    min_reps = 3 if tracer else 1
    while True:
        traced = tracer is not None and len(reps) % 2 == 1
        if traced:
            tracer.install()
            root = tracer.open("bench.rep")
        cpu0, t0 = _cpu_seconds(), time.perf_counter()
        try:
            conditions = workload.run_rep(args.seed, len(reps), workdir)
        finally:
            wall = time.perf_counter() - t0
            cpu = _cpu_seconds() - cpu0
            if traced:
                tracer.close(root)
                tracer.uninstall()
                spans.extend(tracer.collect())
        reps.append({"wall": wall, "cpu": cpu, "traced": traced, "conditions": conditions})
        elapsed = time.perf_counter() - t_start
        typical = statistics.median(r["wall"] for r in reps)
        # stop once another rep would more likely end past --seconds than not
        if len(reps) >= min_reps and elapsed + typical / 2 > args.seconds:
            return reps, spans


def _gate(pooled):
    """Human-readable rows, failures and hard errors of the pooled conditions."""
    lines, failed, broken = [], 0, []
    for c in pooled:
        # a non-finite trial MSE makes its condition's mean non-finite, so
        # this check covers every trial of every rep
        if not (math.isfinite(c.mc_mse) and math.isfinite(c.mc_stderr) and c.mc_stderr > 0):
            broken.append(f"non-finite or degenerate condition {c.key}")
            failed += 1
            continue
        z = (c.mc_mse - c.expected_mse) / c.mc_stderr
        z_cont = (c.mc_mse - c.analytic_mse) / c.mc_stderr
        if abs(z) > Z_GATE:
            failed += 1
        if abs(z) > Z_BROKEN:
            broken.append(f"condition {c.key} is {z:+.1f} stderr from its finite-dt value")
        scheme, mode, chi = c.key
        lines.append(f"# {scheme:<14}{mode:<9} chi={chi:<12.6g} mc={c.mc_mse:.6g} "
                     f"+- {c.mc_stderr:.3g} finite_dt={c.expected_mse:.6g} z={z:+.2f} "
                     f"(continuous z={z_cont:+.2f})")
    return lines, failed, broken


def _e2e_metrics(reps, pooled, samples, setup_s):
    walls = [r["wall"] for r in reps]
    cpus = [r["cpu"] for r in reps]
    # over every reported condition, backward included: its per-trial MSE is
    # nearly uncorrelated with the filtered one, which roughly halves the
    # run-to-run spread of this metric on fine_dual
    rel_var = statistics.fmean((c.mc_stderr / c.mc_mse) ** 2 for c in pooled)
    return {
        "ns_per_sample": (statistics.median(walls) * 1e9 / samples, "ns"),
        "cpu_ns_per_sample": (statistics.median(cpus) * 1e9 / samples, "ns"),
        "cost_per_precision": (sum(walls) * rel_var, "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
        "setup_s": (setup_s, "s"),
    }


def _layer_metrics(reps, spans, trial_bytes):
    import tracer as tracing

    traced = [r for r in reps if r["traced"]]
    plain = [r for r in reps[1:] if not r["traced"]]
    metrics = tracing.layer_metrics(spans, len(traced), os.getpid())
    metrics["experiment.run_trial.alloc_peak_bytes_per_sample"] = trial_bytes
    metrics["trace.overhead_pct"] = 100.0 * (
        statistics.median(r["wall"] for r in traced)
        / statistics.median(r["wall"] for r in plain) - 1.0)
    units = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    return {name: (value, units[name]) for name, value in metrics.items()}


def _alloc_peak_per_sample(workload, seed: int) -> float:
    """tracemalloc peak of one untraced trial, per sample."""
    config = workload.trial_config(seed)
    tracemalloc.start()
    try:
        ouphase.experiment.run_trial(config, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / config.grid.n_steps


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=424242)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tenfold shorter trials")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workload = workloads.build(args.workload, smoke=args.smoke)
    if args.setup_probe:
        _warm_up(workload, args.seed)
        return 0

    setup_s = None if args.trace else _setup_seconds(args)
    _warm_up(workload, args.seed)
    # the gate's finite-dt oracles, loaded here rather than inside the first rep
    import oracles  # noqa: F401
    import tracer as tracing

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=ROOT / ".bench_work"))
    try:
        tracer = tracing.Tracer(workdir) if args.trace else None
        reps, spans = _measure(workload, args, workdir, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    errors = workload.replay(args.seed, reps[0]["conditions"])
    pooled = workloads.pool_conditions([r["conditions"] for r in reps])
    lines, failed, broken = _gate(pooled)
    errors += broken

    if args.trace:
        metrics = _layer_metrics(reps, spans, _alloc_peak_per_sample(workload, args.seed))
        lines.append("# blocking path, main-process self time (ms): " + ", ".join(
            f"{k}={v:.1f}" for k, v in tracing.blocking_path(spans, os.getpid()).items()))
    else:
        metrics = _e2e_metrics(reps, pooled, workload.samples_per_rep, setup_s)
    lines.append(f"# reps={len(reps)} failed_frac={failed}/{len(pooled)}"
                 + "".join(f" error: {e}" for e in errors))
    for name, (value, unit) in metrics.items():
        lines.append(f"# {name:<52} {value:>14.6g} {unit}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": not errors,
        "attempted": len(pooled),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
