"""Writes tests/golden.json, the committed record of result bytes that
tests/test_golden.py checks.

The record holds the three MSEs (``float.hex``) of trials 0-2 of each
detector config at one block and at three blocks, the sha256 of the --out
files of a few small CLI runs, and the numpy and scipy versions they were
made with. A change that moves results on purpose regenerates it from the
repository root with

    PYTHONPATH=src python tests/make_golden.py

and names every entry that moved in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import tempfile
from dataclasses import astuple
from pathlib import Path

import numpy
import scipy

from ouphase import EstimatorParams, ExperimentConfig, ProcessParams, SimGrid, run_trial
from ouphase.cli import dispatch

from oracles import AP

GOLDEN = Path(__file__).with_name("golden.json")
SEED = 7
# one block (50 000 samples) and three (300 000 samples, blocks of 2**17)
DURATIONS = {"1ms": 1e-3, "6ms": 6e-3}
# (estimator source, scheme, dual_mode) of each detector config
DETECTORS = {
    "adaptive-theta": ("theta", "adaptive", "linearized"),
    "adaptive-phihat": ("phihat", "adaptive", "linearized"),
    "dual-linearized": ("theta", "dual_homodyne", "linearized"),
    "dual-arg": ("theta", "dual_homodyne", "arg"),
}
RUN = ["--trials", "30", "--duration", "2e-3", "--seed", str(SEED)]
COMMANDS = {
    "simulate": ["simulate", "--format", "json"],
    "simulate-weights": ["simulate", "--w-minus", "0.3", "--w-plus", "0.7", "--format", "json"],
    "sweep-chi": ["sweep-chi", "--relative", "--values", "1.8,3", "--workers", "2"],
    "compare-arg": ["compare", "--dual-mode", "arg"],
    "analytic": ["analytic"],
}


def versions() -> dict:
    return {"numpy": numpy.__version__, "scipy": scipy.__version__}


def trial_mses() -> dict:
    """The (filtered, smoothed, backward) MSEs of trials 0-2 of each detector
    config at each duration, as ``float.hex``; the estimator has unequal
    rates and weights."""
    mses = {}
    for name, (source, scheme, dual_mode) in DETECTORS.items():
        for label, duration in DURATIONS.items():
            config = ExperimentConfig(
                params=ProcessParams(**AP), grid=SimGrid(dt=2e-8, duration=duration),
                estimator=EstimatorParams(2e5, 4e5, w_minus=0.3, w_plus=0.7, source=source),
                scheme=scheme, dual_mode=dual_mode, trials=30, master_seed=SEED)
            mses[f"{name}@{label}"] = [[float.hex(mse) for mse in astuple(run_trial(config, i))]
                                       for i in range(3)]
    return mses


def out_hashes(directory: Path) -> dict:
    """The sha256 of the --out file of each of COMMANDS, written in ``directory``."""
    hashes = {}
    for name, command in COMMANDS.items():
        out = directory / f"{name}.out"
        with contextlib.redirect_stdout(io.StringIO()):
            code = dispatch([*command, *RUN, "--out", str(out)])
        if code != 0:
            raise RuntimeError(f"{name} exited {code}")
        hashes[name] = hashlib.sha256(out.read_bytes()).hexdigest()
    return hashes


def main():
    with tempfile.TemporaryDirectory() as directory:
        record = {"versions": versions(), "trial_mses": trial_mses(),
                  "out_sha256": out_hashes(Path(directory))}
    GOLDEN.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
