"""The benchmark workloads, driven through the package's public functions.

A workload runs in repetitions ("reps"). A rep is one ensemble, or for the
CLI sweep one ``ouphase sweep-chi`` invocation over five ensembles. Rep 0
uses the benchmark seed as its master seed; later reps use seeds derived
from (seed, rep), so the same --seed always gives the same inputs and every
rep draws fresh trials.

Each rep returns its reported conditions. The correctness gate pools a
condition over the reps of a run and compares it with the exact finite-dt
expectation from ``tests/oracles.py``; the continuous formulas the package
reports are shown beside it but do not gate, because at dt = 2e-8 s they are
several stderr off at the largest swept chi.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from dataclasses import dataclass, replace

import numpy as np

import ouphase.cli
import ouphase.experiment
from ouphase import EstimatorParams, ExperimentConfig, ProcessParams, SimGrid, optimal_chi
from ouphase.analytics import effective_flux

AP = ProcessParams(kappa=1.5868e4, lam=6.1451e4, flux=1.3499e6)
TRIALS = 30  # run_ensemble's minimum; more reps per run beat bigger ensembles
SWEEP_VALUES = (0.3, 0.6, 1.0, 1.8, 3.0)
SWEEP_DT = 2e-8
ENSEMBLE_WORKERS = 1
SWEEP_WORKERS = 2
# the sweep point whose ensemble is replayed serially against the CSV
REPLAY_POINT = 2
CSV_HEADER = ["scheme", "mode", "chi", "flux", "trials", "mc_mse", "mc_stderr",
              "analytic_mse", "z_score"]


class CheckFailed(Exception):
    """The program produced output that is wrong independently of chance."""


def rep_seed(seed: int, rep: int) -> int:
    if rep == 0:
        return seed
    return int(np.random.SeedSequence([seed, rep]).generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class Condition:
    """One reported (ensemble, mode) cell, with its finite-dt expectation."""

    key: tuple
    mc_mse: float
    mc_stderr: float
    analytic_mse: float
    expected_mse: float


def _expected(mode: str, scheme: str, params: ProcessParams, est: EstimatorParams, dt: float):
    import oracles  # only the gate needs scipy.integrate, not the set-up probes
    flux = params.flux if scheme == "adaptive" else params.flux / 2.0
    k, lam = params.kappa, params.lam
    if mode == "filtered":
        return oracles.discrete_filtered_mse(k, lam, flux, est.chi_minus, dt)
    if mode == "backward":
        return oracles.discrete_filtered_mse(k, lam, flux, est.chi_plus, dt)
    return oracles.discrete_combined_mse(
        k, lam, flux, est.chi_minus, est.chi_plus, est.w_minus, est.w_plus, dt)


@dataclass(frozen=True)
class EnsembleWorkload:
    """``run_ensemble`` on one configuration, one ensemble per rep."""

    name: str
    config: ExperimentConfig

    @property
    def samples_per_rep(self) -> int:
        return self.config.trials * self.config.grid.n_steps

    def trial_config(self, seed: int) -> ExperimentConfig:
        """The ensemble configuration of rep 0."""
        return replace(self.config, master_seed=rep_seed(seed, 0))

    def run_rep(self, seed: int, rep: int, workdir) -> list[Condition]:
        config = replace(self.config, master_seed=rep_seed(seed, rep))
        return self._conditions(ouphase.experiment.run_ensemble(config, ENSEMBLE_WORKERS))

    def replay(self, seed: int, rep0: list[Condition]) -> list[str]:
        """Rep 0 rerun serially; names the conditions it does not reproduce exactly."""
        report = ouphase.experiment.run_ensemble(self.trial_config(seed), workers=1)
        return [f"{c.key} of rep 0 is {(c.mc_mse, c.mc_stderr)} serially, "
                f"{(r.mc_mse, r.mc_stderr)} in the run"
                for c, r in zip(self._conditions(report), rep0)
                if (c.mc_mse, c.mc_stderr) != (r.mc_mse, r.mc_stderr)]

    @staticmethod
    def _conditions(report) -> list[Condition]:
        config = report.config
        out = []
        for c in report.conditions + (report.backward,):
            expected = _expected(c.mode, c.scheme, config.params, config.estimator, config.grid.dt)
            out.append(Condition((c.scheme, c.mode, c.chi), c.mc_mse, c.mc_stderr,
                                 c.analytic_mse, expected))
        return out


@dataclass(frozen=True)
class SweepWorkload:
    """``ouphase sweep-chi`` through ``ouphase.cli.dispatch``, one sweep per rep."""

    name: str
    duration: float

    @property
    def n_steps(self) -> int:
        return SimGrid(SWEEP_DT, self.duration).n_steps

    @property
    def samples_per_rep(self) -> int:
        return len(SWEEP_VALUES) * TRIALS * self.n_steps

    @property
    def chis(self) -> list[float]:
        """The swept rates, computed as ``sweep-chi --relative`` computes them."""
        scale = 2.0 * math.sqrt(AP.kappa * effective_flux(AP, "adaptive"))
        return [v * scale for v in SWEEP_VALUES]

    def trial_config(self, seed: int, point: int = 0) -> ExperimentConfig:
        """The ensemble configuration the CLI builds for one point of rep 0."""
        chi = self.chis[point]
        return ExperimentConfig(params=AP, grid=SimGrid(SWEEP_DT, self.duration),
                                estimator=EstimatorParams(chi, chi), trials=TRIALS,
                                master_seed=rep_seed(seed, 0))

    def argv(self, seed: int, out: str) -> list[str]:
        return ["sweep-chi", "--relative", "--values", ",".join(map(str, SWEEP_VALUES)),
                "--dt", repr(SWEEP_DT), "--duration", repr(self.duration),
                "--trials", str(TRIALS), "--workers", str(SWEEP_WORKERS),
                "--seed", str(seed), "--out", out]

    def replay(self, seed: int, rep0: list[Condition]) -> list[str]:
        """One point of rep 0 rerun serially, against its CSV rows (written to 9 digits)."""
        report = ouphase.experiment.run_ensemble(self.trial_config(seed, REPLAY_POINT), workers=1)
        chi = self.chis[REPLAY_POINT]
        rows = {c.key: c for c in rep0}
        errors = []
        for c in report.conditions:
            row = rows[("adaptive", c.mode, chi)]
            serial = (format(c.mc_mse, ".9g"), format(c.mc_stderr, ".9g"))
            written = (format(row.mc_mse, ".9g"), format(row.mc_stderr, ".9g"))
            if serial != written:
                errors.append(f"{row.key} of rep 0 is {serial} serially, {written} in the CSV")
        return errors

    def run_rep(self, seed: int, rep: int, workdir) -> list[Condition]:
        out = str(workdir / f"sweep-{rep}.csv")
        with contextlib.redirect_stdout(io.StringIO()):
            status = ouphase.cli.dispatch(self.argv(rep_seed(seed, rep), out))
        if status != 0:
            raise CheckFailed(f"sweep-chi exited with status {status}")
        return self.parse_csv(out)

    def parse_csv(self, path: str) -> list[Condition]:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        expected_rows = [(mode, chi) for mode in ("filtered", "smoothed") for chi in self.chis]
        if rows[0] != CSV_HEADER or len(rows) != 1 + len(expected_rows):
            raise CheckFailed(f"sweep CSV has header {rows[0]} and {len(rows) - 1} rows")
        out = []
        for row, (mode, chi) in zip(rows[1:], expected_rows):
            rec = dict(zip(CSV_HEADER, row))
            if (rec["scheme"], rec["mode"], int(rec["trials"])) != ("adaptive", mode, TRIALS):
                raise CheckFailed(f"unexpected sweep CSV row {row}")
            if rec["chi"] != format(chi, ".9g"):
                raise CheckFailed(f"sweep CSV chi {rec['chi']} != {chi:.9g}")
            if not math.isclose(float(rec["flux"]), AP.flux, rel_tol=1e-8):
                raise CheckFailed(f"sweep CSV flux {rec['flux']} != {AP.flux:.9g}")
            est = EstimatorParams(chi, chi)
            out.append(Condition(("adaptive", mode, chi), float(rec["mc_mse"]),
                                 float(rec["mc_stderr"]), float(rec["analytic_mse"]),
                                 _expected(mode, "adaptive", AP, est, SWEEP_DT)))
        return out


def _ensemble(scheme: str, dt: float, duration: float) -> ExperimentConfig:
    chi = optimal_chi(AP, "smoothed", scheme).chi_star
    return ExperimentConfig(
        params=AP, grid=SimGrid(dt, duration), estimator=EstimatorParams(chi, chi),
        scheme=scheme, beta="auto" if scheme == "adaptive" else None, trials=TRIALS)


def build(name: str, smoke: bool = False):
    """The named workload; ``smoke`` shortens every trial tenfold."""
    scale = 0.1 if smoke else 1.0
    if name == "ensemble_adaptive":
        return EnsembleWorkload(name, _ensemble("adaptive", 2e-8, 1e-2 * scale))
    if name == "fine_dual":
        return EnsembleWorkload(name, _ensemble("dual_homodyne", 5e-9, 1e-2 * scale))
    if name == "sweep_chi_parallel":
        return SweepWorkload(name, duration=2e-3 * scale)
    raise ValueError(f"unknown workload: {name}")


NAMES = ("ensemble_adaptive", "fine_dual", "sweep_chi_parallel")


def pool_conditions(reps: list[list[Condition]]) -> list[Condition]:
    """Each condition pooled over reps of equal trial count."""
    pooled = []
    for cells in zip(*reps):
        r = len(cells)
        pooled.append(Condition(
            cells[0].key,
            sum(c.mc_mse for c in cells) / r,
            math.sqrt(sum(c.mc_stderr ** 2 for c in cells)) / r,
            cells[0].analytic_mse,
            cells[0].expected_mse,
        ))
    return pooled
