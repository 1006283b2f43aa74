"""Monte Carlo orchestration: trials, ensembles, parameter sweeps and the
four-technique scheme comparison.

A trial is a pure function of (config, trial_index): per-trial noise streams
make ensembles independent of execution order and degree of parallelism.
Error bars follow the across-trial convention: each trial yields one MSE
sample, the ensemble reports their mean and standard error.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import analytics
from .detection import FeedbackParams, linearized_theta, run_adaptive_loop, run_dual_homodyne
from .errors import ConfigurationError, ParameterError, StatisticsError
from .errors import check_index, check_real_fields
from .estimators import EstimatorParams, _check_rate, apply_estimators, retained_window
from .stochastic import SEED_BITS, NoiseStream, ProcessParams, Role, SimGrid
from .stochastic import simulate_ou, wiener_increments

__all__ = [
    "ExperimentConfig",
    "TrialResult",
    "Condition",
    "VarianceReport",
    "GainComparison",
    "run_trial",
    "run_trials",
    "run_ensemble",
    "run_ensembles",
    "sweep",
    "compare_schemes",
    "default_edge_discard",
]

MIN_TRIALS_FOR_STDERR = 30
TRIAL_CHUNK = 8  # trial indices per pool task


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete description of one ensemble.

    ``beta`` is "auto" (resolve to sqrt(8*chi*N)) or a positive number for the
    adaptive scheme, and None for the dual scheme, where no feedback runs.
    ``noise_scale`` scales all noise streams and exists for deterministic
    noise-free runs in tests; production runs leave it at 1. ``omega0`` is
    checked as ``FeedbackParams`` for the adaptive scheme. ``dual_mode``, the
    dual detector's model, is "linearized" or (dual scheme only) "arg".
    """

    params: ProcessParams
    grid: SimGrid
    estimator: EstimatorParams
    scheme: str = "adaptive"
    beta: float | str | None = "auto"
    omega0: float = 100.0
    trials: int = 200
    master_seed: int = 424242
    noise_scale: float = 1.0
    dual_mode: str = "linearized"

    def __post_init__(self):
        if self.scheme not in analytics.SCHEMES:
            raise ParameterError(f"unknown scheme: {self.scheme!r}")
        if isinstance(self.trials, bool) or not isinstance(self.trials, int) or self.trials < 1:
            raise ParameterError("trials must be an integer >= 1")
        check_index("master_seed", self.master_seed, SEED_BITS)
        check_real_fields(self, "noise_scale", at_least=0.0)
        if self.dual_mode not in ("linearized", "arg"):
            raise ParameterError(f"unknown dual_mode: {self.dual_mode!r}")
        if self.scheme == "adaptive" and self.dual_mode != "linearized":
            raise ParameterError(f"dual_mode applies to the dual_homodyne scheme only: {self.dual_mode!r}")
        if self.scheme != "adaptive":
            if self.beta is not None:
                raise ParameterError(f"beta applies to the adaptive scheme only, got {self.beta!r}")
        elif self.beta is None:
            raise ParameterError("adaptive scheme requires a feedback gain beta")
        elif self.beta != "auto":
            check_real_fields(self, "beta", above=0.0)
        if self.scheme != "adaptive" and self.estimator.source == "phihat":
            raise ParameterError("source='phihat' requires the adaptive scheme")
        # fail early on too coarse a grid for either rate, bad loop constants,
        # an unstable loop or an over-long edge discard
        for chi in (self.estimator.chi_minus, self.estimator.chi_plus):
            _check_rate(chi, self.grid.dt)
        self.feedback()
        self.resolved_edge_discard()

    def feedback(self) -> FeedbackParams | None:
        """The feedback loop's constants (adaptive scheme), else None."""
        beta = self.resolved_beta()
        if beta is None:
            return None
        return FeedbackParams(beta=beta, omega0=self.omega0)

    def resolved_beta(self) -> float | None:
        if self.scheme != "adaptive":
            return None
        if self.beta == "auto":
            chi_ref = max(self.estimator.chi_minus, self.estimator.chi_plus)
            beta = analytics.optimal_beta(chi_ref, self.params.flux)
        else:
            beta = float(self.beta)
        if beta * self.grid.dt >= 0.5:
            raise ConfigurationError(
                f"resolved beta*dt = {beta * self.grid.dt:.3g} >= 0.5 (unstable loop)"
            )
        return beta

    def resolved_edge_discard(self) -> float:
        span = self.grid.duration - self.grid.warmup
        chi_min = min(self.estimator.chi_minus, self.estimator.chi_plus)
        if self.estimator.edge_discard is not None:
            edge = self.estimator.edge_discard
            if edge < 5.0 / chi_min:
                raise ParameterError(
                    "edge_discard must be >= 5/min(chi_minus, chi_plus) "
                    "when statistics are requested"
                )
        else:
            edge = default_edge_discard(chi_min, self.resolved_beta(), self.params.lam, span)
        if 2.0 * edge >= span:
            raise ConfigurationError(
                f"edge discard 2*{edge:.3g} s leaves no data in a {span:.3g} s window"
            )
        return edge


def default_edge_discard(chi_min: float, beta: float | None, lam: float, span: float) -> float:
    """Default symmetric discard: max(5/chi, 5/beta, 3/lam).

    The 3/lam term removes spans correlated with the trajectory ends; it only
    applies when it fits within a quarter of the retained span per side,
    otherwise the run is shorter than the phase coherence time (effectively
    pure diffusion) and the term is meaningless.
    """
    edge = 5.0 / chi_min
    if beta is not None:
        edge = max(edge, 5.0 / beta)
    if lam > 0 and 3.0 / lam <= span / 4.0:
        edge = max(edge, 3.0 / lam)
    return edge


@dataclass(frozen=True)
class TrialResult:
    """Per-trial mean-square errors over the retained window."""

    filtered_mse: float
    smoothed_mse: float
    backward_mse: float


def run_trial(config: ExperimentConfig, trial_index: int) -> TrialResult:
    """One trial's three MSE samples: ``run_trials`` with one config."""
    return run_trials([config], trial_index)[0]


def _check_shared(configs) -> list[ExperimentConfig]:
    """``configs`` as a list, if it is not empty and its configs can share trials."""
    configs = list(configs)
    shared = {(c.params.kappa, c.params.lam, c.grid, c.trials, c.master_seed, c.noise_scale)
              for c in configs}
    if len(shared) != 1:
        raise ParameterError("need one or more configs that agree in kappa, lambda, "
                             "grid, trials, seed and noise_scale")
    return configs


def run_trials(configs, trial_index: int) -> list[TrialResult]:
    """One trial index under configs that share its draws (they must agree in
    kappa, lambda, grid, trials, seed and noise scale); result ``k`` is
    configs[k]'s three MSE samples.

    Deterministic in (master_seed, trial_index); trials of an ensemble may run
    in any order or in parallel without changing any result. phi is drawn
    once. Linearized theta (``linearized_theta``) is built once for each
    consecutive run of configs with the same (scheme, N'); the feedback loop
    (``source="phihat"``) and the dual arg model run once per config.

    No smoothed series is built: its MSE is the quadratic form
    w_minus**2*ff + w_plus**2*bb + 2*w_minus*w_plus*fb in the window moments of
    the forward and backward errors. Per sample this differs from the direct
    smoothed error by at most |w_minus + w_plus - 1|*|phi|, within WEIGHT_SUM_TOL.
    """
    configs = _check_shared(configs)
    c0 = configs[0]
    phase, meas1, meas2 = (NoiseStream(c0.master_seed, trial_index, r, c0.noise_scale) for r in Role)
    grid = c0.grid
    phi = simulate_ou(c0.params, grid, phase, init="stationary" if c0.params.lam > 0 else 0.0)

    results, held, source = [], None, None
    for config in configs:
        # the previous config's errors go before this one's arrays are built;
        # the last config's go at return, after phi and source (freed before
        # them, they leave one more array per trial to fault in again)
        f = b = None
        flux = analytics.effective_flux(config.params, config.scheme)
        per_config = config.estimator.source == "phihat" or config.dual_mode == "arg"
        key = None if per_config else (config.scheme, flux)
        if key is None or key != held:
            source = None  # free the previous input before building this one
            if config.estimator.source == "phihat":
                source = run_adaptive_loop(phi, config.params, config.feedback(), grid, meas1).phihat
            elif config.dual_mode == "arg":  # the dual scheme only
                source = run_dual_homodyne(phi, config.params, grid, (meas1, meas2))
            else:
                meas = meas1 if config.scheme == "adaptive" else meas2
                # dW is not bound to a name, so it is freed before the estimators run
                source = linearized_theta(phi, wiener_increments(meas, grid.n_steps, grid.dt),
                                          flux, grid.dt)
        held = key
        i0, i1 = retained_window(grid, config.resolved_edge_discard())
        f, b = (x[i0:i1] for x in apply_estimators(source, config.estimator, grid))
        wm, wp = config.estimator.w_minus, config.estimator.w_plus
        with np.errstate(over="ignore", invalid="ignore"):
            f -= phi[i0:i1]
            b -= phi[i0:i1]
            # einsum's own loop, not BLAS: a BLAS dot would start its worker threads
            ff, bb, fb = (float(np.einsum("i,i->", x, y)) / f.size
                          for x, y in ((f, f), (b, b), (f, b)))
        mses = {"filtered": ff, "smoothed": wm * wm * ff + wp * wp * bb + 2.0 * wm * wp * fb,
                "backward": bb}
        for mode, value in mses.items():
            if not math.isfinite(value):
                raise StatisticsError(f"non-finite {mode} MSE in trial {trial_index}")
        results.append(TrialResult(mses["filtered"], mses["smoothed"], mses["backward"]))
    return results


@dataclass(frozen=True)
class Condition:
    """One (scheme, mode) cell of a report: MC estimate against theory."""

    scheme: str
    mode: str
    chi: float
    flux: float
    trials: int
    mc_mse: float
    mc_stderr: float
    analytic_mse: float
    z_score: float


@dataclass(frozen=True)
class VarianceReport:
    """Ensemble result: filtered and smoothed conditions plus the backward
    (retrodiction) condition kept separately for symmetry checks."""

    config: ExperimentConfig
    conditions: tuple[Condition, ...]
    backward: Condition

    def condition(self, mode: str) -> Condition:
        for c in self.conditions + (self.backward,):
            if c.mode == mode:
                return c
        raise ParameterError(f"report has no condition with mode {mode!r}")


def _condition(config, mode, chi, samples, analytic) -> Condition:
    mc = float(np.mean(samples))
    stderr = float(np.std(samples, ddof=1) / math.sqrt(len(samples)))
    if not (math.isfinite(mc) and math.isfinite(stderr)):
        raise StatisticsError(f"non-finite {mode} ensemble: mean {mc}, stderr {stderr}")
    if stderr == 0.0:
        raise StatisticsError("degenerate ensemble: no variation across trials")
    return Condition(
        scheme=config.scheme,
        mode=mode,
        chi=chi,
        flux=config.params.flux,
        trials=config.trials,
        mc_mse=mc,
        mc_stderr=stderr,
        analytic_mse=analytic,
        z_score=(mc - analytic) / stderr,
    )


def run_ensemble(config: ExperimentConfig, workers: int = 1) -> VarianceReport:
    """``config.trials`` independent trials as one report: ``run_ensembles``."""
    return run_ensembles([config], workers)[0]


def run_ensembles(configs, workers: int = 1) -> list[VarianceReport]:
    """One VarianceReport per config, from one pass over the trial indices that
    the configs share (``run_trials``): common random numbers across them.

    ``workers > 1`` maps the trial indices over one process pool of
    min(workers, ceil(trials / 8), CPU count) processes; results are
    identical to a serial run because aggregation folds in trial-index order.
    """
    configs = _check_shared(configs)
    if isinstance(workers, bool) or not isinstance(workers, int) or workers < 1:
        raise ParameterError(f"workers must be an integer >= 1, got {workers!r}")
    trials = configs[0].trials
    if trials < MIN_TRIALS_FOR_STDERR:
        raise StatisticsError(f"{trials} trials < {MIN_TRIALS_FOR_STDERR}: too few for error bars")
    task = partial(_run_index, configs)
    if workers > 1:
        # a fork pool starts all its processes at once: no more than can get work
        size = min(workers, math.ceil(trials / TRIAL_CHUNK), os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=size) as pool:
            rows = list(pool.map(task, range(trials), chunksize=TRIAL_CHUNK))
    else:
        rows = [task(i) for i in range(trials)]
    return [_report(config, [row[k] for row in rows]) for k, config in enumerate(configs)]


def _run_index(configs: list[ExperimentConfig], trial_index: int) -> list[TrialResult]:
    # one config calls run_trial by its global name, which bench/tracer.py wraps
    if len(configs) == 1:
        return [run_trial(configs[0], trial_index)]
    return run_trials(configs, trial_index)


def _report(config: ExperimentConfig, results: list[TrialResult]) -> VarianceReport:
    filt = np.array([r.filtered_mse for r in results])
    smth = np.array([r.smoothed_mse for r in results])
    back = np.array([r.backward_mse for r in results])

    p, e = config.params, config.estimator
    analytic_f = analytics.filtered_mse(p, e.chi_minus, config.scheme)
    analytic_b = analytics.filtered_mse(p, e.chi_plus, config.scheme)
    analytic_s = analytics.combined_mse(
        analytics.TheoryPoint(
            params=p, chi_minus=e.chi_minus, chi_plus=e.chi_plus,
            w_minus=e.w_minus, w_plus=e.w_plus, scheme=config.scheme,
        )
    )
    return VarianceReport(
        config=config,
        conditions=(
            _condition(config, "filtered", e.chi_minus, filt, analytic_f),
            _condition(config, "smoothed", e.chi_minus, smth, analytic_s),
        ),
        backward=_condition(config, "backward", e.chi_plus, back, analytic_b),
    )


def _check_sweep_values(values) -> np.ndarray:
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 1 or vals.size == 0:
        raise ParameterError("sweep values must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(vals)) or np.any(vals <= 0):
        raise ParameterError("sweep values must be positive and finite")
    if np.any(np.diff(vals) <= 0):
        raise ParameterError("sweep values must be strictly ascending")
    return vals


def sweep(
    config: ExperimentConfig, axis: str, values, workers: int = 1
) -> list[VarianceReport]:
    """One report per value of the swept axis, all from one ``run_ensembles``.

    axis="chi": both averaging rates are set to the value and, for the
    adaptive scheme, beta follows sqrt(8*chi*N) per point. axis="flux": chi is
    re-optimized per point and per mode (each mode is measured at its own
    exact optimal rate), beta likewise, so the sweep traces the optimal MSEs.
    Every point's config is built, and so checked, before any trial runs.
    """
    vals = _check_sweep_values(values)
    if axis not in ("chi", "flux"):
        raise ParameterError(f"unknown sweep axis: {axis!r}")
    beta = "auto" if config.scheme == "adaptive" else None
    # a flux point measures each mode at its own rate; a chi point is one config
    modes = ("filtered", "smoothed") if axis == "flux" else (None,)
    configs = []
    for value in map(float, vals):
        params = replace(config.params, flux=value) if axis == "flux" else config.params
        for mode in modes:
            chi = analytics.optimal_chi(params, mode, config.scheme).chi_star if mode else value
            est = replace(config.estimator, chi_minus=chi, chi_plus=chi)
            configs.append(replace(config, params=params, estimator=est, beta=beta))
    reports = run_ensembles(configs, workers)
    k = len(modes)
    return [VarianceReport(config=f.config,
                           conditions=(f.condition("filtered"), s.condition("smoothed")),
                           backward=f.backward)
            for f, s in zip(reports[::k], reports[k - 1::k])]


@dataclass(frozen=True)
class GainComparison:
    """MC improvement ratios with propagated standard errors."""

    smoothing_gain: float
    smoothing_gain_stderr: float
    adaptive_gain: float
    adaptive_gain_stderr: float
    total_gain: float
    total_gain_stderr: float


def _ratio(num: Condition, den: Condition) -> tuple[float, float]:
    r = num.mc_mse / den.mc_mse
    rel = math.hypot(num.mc_stderr / num.mc_mse, den.mc_stderr / den.mc_mse)
    return r, r * rel


def compare_schemes(adaptive: VarianceReport, dual: VarianceReport) -> GainComparison:
    """Four-technique comparison from an adaptive and a dual-homodyne report.

    The total gain is the analytic standard quantum limit of the adaptive
    report's parameters over the MC smoothed adaptive error.
    """
    schemes = (adaptive.config.scheme, dual.config.scheme)
    if schemes != ("adaptive", "dual_homodyne"):
        raise ParameterError(
            f"comparison needs an adaptive and a dual_homodyne report, got {schemes}"
        )
    ap_f = adaptive.condition("filtered")
    ap_s = adaptive.condition("smoothed")
    dh_f = dual.condition("filtered")

    smoothing, smoothing_err = _ratio(ap_f, ap_s)
    adaptive_gain, adaptive_err = _ratio(dh_f, ap_f)
    sql = analytics.sql_mse(adaptive.config.params)
    total = sql / ap_s.mc_mse
    total_err = total * ap_s.mc_stderr / ap_s.mc_mse
    return GainComparison(
        smoothing_gain=smoothing,
        smoothing_gain_stderr=smoothing_err,
        adaptive_gain=adaptive_gain,
        adaptive_gain_stderr=adaptive_err,
        total_gain=total,
        total_gain_stderr=total_err,
    )
