"""Repeat the benchmark over seeds and record its spread and environment.

    python3 bench/collect.py --runs 10 --out bench/results/baseline.json

Runs ``bench/run.py`` ``--runs`` times per workload (trace off, seeds
``--seed-base`` upwards, workloads interleaved) and reports, per end-to-end
metric, the median, the quartiles from ``statistics.quantiles(n=4)`` and the
spread (q3 - q1) / median against the bound in BENCHMARK.json. Unless
``--no-extra`` is given it also makes one untraced and one traced run per
workload at the default seed and at a held-out seed that no tuning used.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import env  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 424242
HOLDOUT_SEED = 20261017


def run_once(name: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result.update(seed=seed, trace=trace, process_s=time.perf_counter() - t0)
    result["report"] = [line for line in proc.stdout.splitlines() if line.startswith("#")]
    print(f"{name} seed={seed} trace={trace} correct={result['correct']} "
          f"failed={result['failed']}/{result['attempted']} {result['process_s']:.1f} s",
          flush=True)
    return result


def summarise(runs: list[dict], spec: dict) -> dict:
    out = {}
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        out[metric["name"]] = {
            "median": median, "q1": q1, "q3": q3, "spread": spread,
            "bound": metric["bound"], "below_third_of_bound": spread < metric["bound"] / 3,
            "values": values,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--out", required=True)
    parser.add_argument("--no-extra", action="store_true")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    runs = {name: [] for name in workloads.NAMES}
    for i in range(args.runs):
        for name in workloads.NAMES:
            runs[name].append(run_once(name, args.seed_base + i, seconds, 0))

    shapes = {}
    for name in workloads.NAMES:
        w = workloads.build(name)
        workers = (workloads.SWEEP_WORKERS if isinstance(w, workloads.SweepWorkload)
                   else workloads.ENSEMBLE_WORKERS)
        shapes[name] = (w.trial_config(DEFAULT_SEED).grid.n_steps, workers)
    record = {
        "environment": env.environment(ROOT, shapes),
        "run_seconds": seconds,
        "workloads": {},
    }
    for name in workloads.NAMES:
        entry = {"seeds": [r["seed"] for r in runs[name]],
                 "all_correct": all(r["correct"] for r in runs[name]),
                 "failed": sum(r["failed"] for r in runs[name]),
                 "attempted": sum(r["attempted"] for r in runs[name]),
                 "runs": runs[name],
                 "end_to_end": summarise(runs[name], spec) if len(runs[name]) > 1 else {}}
        if not args.no_extra:
            entry["single_runs"] = [run_once(name, seed, seconds, trace)
                                    for seed in (DEFAULT_SEED, HOLDOUT_SEED) for trace in (0, 1)]
        record["workloads"][name] = entry
        for metric, s in entry["end_to_end"].items():
            print(f"{name:<20} {metric:<20} median={s['median']:.6g} "
                  f"spread={s['spread']:.4f} bound={s['bound']}"
                  f"{'' if s['below_third_of_bound'] else '  (not below a third)'}")

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
