"""Monte Carlo orchestration: trials, ensembles, parameter sweeps and the
four-technique scheme comparison.

A trial is a pure function of (config, trial_index): per-trial noise streams
make ensembles independent of execution order and degree of parallelism.
Error bars follow the across-trial convention: each trial yields one MSE
sample, the ensemble reports their mean and standard error.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from contextvars import ContextVar
from dataclasses import astuple, dataclass, field, replace
from functools import lru_cache, partial, reduce
from operator import add, attrgetter
from pathlib import Path

import numpy as np

from . import analytics
from .detection import FeedbackParams, arg_theta, feedback_estimate, linearized_theta
from .detection import run_adaptive_loop, run_dual_homodyne  # noqa: F401  bench/tracer.py wraps them
from .errors import ParameterError, StatisticsError
from .errors import check_count, check_index, check_real, check_real_fields
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
    "compare",
    "default_edge_discard",
]

MIN_TRIALS_FOR_STDERR = 30
TRIAL_CHUNK = 8  # trial indices per pool task
MIN_BLOCK = 2 ** 17  # samples per block of a trial longer than that
SUM_CHUNK = 8192  # samples per buffer of einsum's sums, whatever np.getbufsize() says
CARRY_DECAYS = 45.0  # backward-average time constants a block's carry reaches: exp(-45) past them
CPU_QUOTA = (("/sys/fs/cgroup/cpu.max",),  # cgroup v2's, else v1's "<quota> <period>"
             ("/sys/fs/cgroup/cpu/cpu.cfs_quota_us", "/sys/fs/cgroup/cpu/cpu.cfs_period_us"))
_THETA_KEY = attrgetter("scheme", "dual_mode", "n_eff")  # configs with one key share theta
_pipeline = ContextVar("pipeline", default=None)  # the _DrawPipeline of the loop at hand


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete description of one ensemble, checked and resolved when built.

    ``beta`` left unset (None) gives the adaptive scheme the loop gain
    sqrt(8*chi*N) and the dual scheme, where no feedback runs, no loop; it
    may also be "auto" (that same gain) or a positive number, both for the
    adaptive scheme only. ``omega0`` is >= 0, and below beta for the adaptive
    scheme. ``dual_mode``, the dual detector's model, is "linearized" or (dual
    scheme only) "arg".

    What every trial needs is derived when the config is built (``replace``
    derives it again) and kept in read-only attributes that are not init
    arguments and stay out of ``==``, ``repr`` and hashing: ``loop``, the
    feedback loop (``FeedbackParams``, None for the dual scheme),
    ``edge_discard``, the resolved span dropped from both ends, ``n_eff``, the
    effective flux N', and ``window``, the retained sample range.
    """

    params: ProcessParams
    grid: SimGrid
    estimator: EstimatorParams
    scheme: str = "adaptive"
    beta: float | str | None = None
    omega0: float = 100.0
    trials: int = 200
    master_seed: int = 424242
    dual_mode: str = "linearized"
    loop: FeedbackParams | None = field(init=False, repr=False, compare=False)
    edge_discard: float = field(init=False, repr=False, compare=False)
    n_eff: float = field(init=False, repr=False, compare=False)
    window: tuple[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        flux = analytics.effective_flux(self.params, self.scheme)  # checks the scheme
        check_count("trials", self.trials)
        check_index("master_seed", self.master_seed, SEED_BITS)
        if self.dual_mode not in ("linearized", "arg"):
            raise ParameterError(f"unknown dual_mode: {self.dual_mode!r}")
        if self.scheme == "adaptive" and self.dual_mode != "linearized":
            raise ParameterError(f"dual_mode applies to the dual_homodyne scheme only: {self.dual_mode!r}")
        est, dt = self.estimator, self.grid.dt
        if self.scheme != "adaptive":
            if self.beta is not None:
                raise ParameterError(f"beta applies to the adaptive scheme only, got {self.beta!r}")
            if est.source == "phihat":
                raise ParameterError("source='phihat' requires the adaptive scheme")
        for chi in (est.chi_minus, est.chi_plus):
            _check_rate(chi, dt)
        loop = None
        if self.scheme == "adaptive":
            beta, auto = self.beta, self.beta in ("auto", None)
            if auto:
                chi = max(est.chi_minus, est.chi_plus)
                beta = analytics.optimal_beta(chi, self.params.flux)
            try:
                loop = FeedbackParams(beta=beta, omega0=self.omega0)  # checks beta and omega0
            except ParameterError as exc:
                if not auto:
                    raise
                raise ParameterError(f"{exc}; the automatic beta is sqrt(8*chi*N) = {beta:.6g} "
                                     f"at chi = {chi:.6g}, N = {self.params.flux:.6g}") from None
            loop.check_step(dt)
            object.__setattr__(self, "omega0", loop.omega0)  # the checked float
        else:
            check_real_fields(self, "omega0", at_least=0.0)
        chi_min = min(est.chi_minus, est.chi_plus)
        edge = est.edge_discard
        if edge is None:
            edge = default_edge_discard(chi_min, loop and loop.beta, self.params.lam,
                                        self.grid.duration - self.grid.warmup)
        elif edge < 5.0 / chi_min:
            raise ParameterError(
                "edge_discard must be >= 5/min(chi_minus, chi_plus) "
                "when statistics are requested"
            )
        for name, value in (("loop", loop), ("edge_discard", edge), ("n_eff", flux),
                            ("window", retained_window(self.grid, edge))):
            object.__setattr__(self, name, value)


def default_edge_discard(chi_min: float, beta: float | None, lam: float, span: float) -> float:
    """Default symmetric discard: max(5/chi, 5/beta, 3/lam).

    The 3/lam term removes spans correlated with the trajectory ends; it only
    applies when it fits within a quarter of the retained span per side,
    otherwise the run is shorter than the phase coherence time (effectively
    pure diffusion) and the term is meaningless. Rates are finite, lam >= 0.
    """
    edge = 5.0 / check_real("chi_min", chi_min, above=0.0)
    if beta is not None:
        edge = max(edge, 5.0 / check_real("beta", beta, above=0.0))
    lam = check_real("lam", lam, at_least=0.0)
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
    """``configs`` as a list, if it is not empty and its configs can share
    trials: they agree in what a trial's draws depend on, and in their count."""
    configs = list(configs)
    shared = {(c.params.kappa, c.params.lam, c.grid, c.master_seed, c.trials) for c in configs}
    if len(shared) != 1:
        raise ParameterError("need one or more configs that agree in kappa, lambda, "
                             "grid, seed and trials")
    return configs


def run_trials(configs, trial_index: int) -> list[TrialResult]:
    """One trial index under configs that share its draws (they must agree in
    kappa, lambda, grid, seed and trials; no trial reads ``trials``); result
    ``k`` is configs[k]'s three MSE samples.

    Deterministic in (master_seed, trial_index); trials of an ensemble may run
    in any order or in parallel without changing any result. theta is built
    once for each consecutive run of configs with the same (scheme,
    dual_mode, N'), by ``linearized_theta`` or (arg model) ``arg_theta``, from
    the increments of the measurement streams it reads (meas1 for the
    adaptive scheme, meas2 for the linearized dual one, both for the arg
    model); ``source="phihat"`` filters it (``feedback_estimate``).

    No smoothed series is built: its MSE is ``EstimatorParams.combine`` of the
    window moments ff, bb and fb of the forward and backward errors. Per sample
    this differs from the direct smoothed error by at most
    |w_minus + w_plus - 1|*|phi|, within WEIGHT_SUM_TOL.

    The trial runs in blocks of B = min(n, MIN_BLOCK) samples whatever its
    rates, the last one the rest (``_draw_lengths``), so its memory grows
    neither with n nor with 1/chi_plus. Each block draws, filters and holds
    only its own samples; each recursion carries its state to the next
    block, each config's in its ``_ConfigTrial``, and the backward average's
    back from the last block, exactly. phi and the theta of the run at hand
    are the rows of one array.

    The trial is the one reader of each noise stream: it draws each once per
    block by one generator, and every run that reads a stream reads that draw
    without writing it. The draws come from the draw pipeline
    (``_DrawPipeline``) of the loop the trial is part of, else from one of its
    own, on a helper thread where a CPU is free for one: the same draws, so
    the same results, either way. The thread ends with the loop, also on error.
    """
    pipeline = _pipeline.get()
    if pipeline is None:  # a trial of its own, with a pipeline of its own
        with _DrawPipeline():
            return run_trials(configs, trial_index)
    configs = _check_shared(configs)
    c0 = configs[0]
    grid, params = c0.grid, c0.params
    n, dt = grid.n_steps, grid.dt
    block = min(n, MIN_BLOCK)
    phase, meas1, meas2 = (NoiseStream(c0.master_seed, trial_index, r) for r in Role)
    init = "stationary" if params.lam > 0 else 0.0
    trials = [_ConfigTrial(config) for config in configs]
    # the runs of consecutive configs with one theta key
    runs = [list(run) for _, run in itertools.groupby(trials, key=lambda t: _THETA_KEY(t.config))]
    # each run's theta model and the measurement streams it reads (in the model's
    # argument order), and the last run that reads each stream
    models = [(arg_theta, (meas1, meas2)) if c.dual_mode == "arg" else
              (linearized_theta, (meas1 if c.scheme == "adaptive" else meas2,))
              for c in (run[0].config for run in runs)]
    last = {stream: i for i, (_, read) in enumerate(models) for stream in read}

    held, noise = pipeline.trial(trial_index, [phase, *last], _draw_lengths(n, block), block)
    for s in range(0, n, block):
        size = min(block, n - s)
        phi, theta = held[0, :size], held[1, :size]
        phi[:] = simulate_ou(params, grid, phase, init, noise[phase], size,
                             None if s == 0 else float(held[0, block - 1]))  # the phase before
        noise[phase].done()
        dW = {}  # each measurement stream's increments over the block
        for i, (run, (model, read)) in enumerate(zip(runs, models)):
            for stream in read:
                if stream not in dW:
                    dW[stream] = wiener_increments(stream, size, dt, noise[stream])
            theta[:] = model(phi, *map(dW.get, read), run[0].config.n_eff, dt)
            for stream in read:
                if last[stream] == i:  # freed before the estimators run
                    del dW[stream]
                    noise[stream].done()
            for trial in run:
                trial.block(theta, phi, s)
    return [trial.result(trial_index) for trial in trials]


class _ConfigTrial:
    """One config's part of a trial, fed block by block: the starts of its
    forward recursions, ff, bb and fb, the window sums of products of its
    forward and backward errors, and each block's carry.

    A block [s, e) starts its backward average b_loc from 0 past e (the last
    block from its last sample); the trial's is b_loc + g*c, g[k] = a**(e-k),
    a = exp(-chi_plus*dt), c the trial's average at e. ``result`` carries c
    back from the last block and adds each block's terms in c to bb and fb.

    The window sums add the sums of its chunks of SUM_CHUNK samples in turn,
    as one einsum over the window does whatever np.getbufsize() says: a chunk
    that a block boundary cut is joined first, laid out in memory as in one
    piece, and a block's whole chunks are the rows of one einsum per product.
    So the sums do not depend on the blocks.
    """

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self.forward_start = None  # the forward average at the sample before the block
        self.loop_start = 0.0      # phihat at the block's first sample
        self.sums = [0.0, 0.0, 0.0]
        self.cut = None  # the errors of the chunk the last block boundary cut
        self.carries = []  # each block's b_loc[s], a**(e-s), sum(g*b_loc), sum(g*f), sum(g*g)

    def block(self, source: np.ndarray, phi: np.ndarray, s: int):
        """The block of samples from s: ``source`` is theta over them and
        ``phi`` the phase. Its arrays are freed on return."""
        config, est, size = self.config, self.config.estimator, len(source)
        dt, last = config.grid.dt, s + size == config.grid.n_steps
        if est.source == "phihat":
            loop, theta = config.loop, source
            source = feedback_estimate(theta, loop, dt, self.loop_start)
            # phihat after the block: one more step of the loop, as its filter takes it
            self.loop_start = (loop.beta * dt * float(theta[-1])
                               + (1.0 - (loop.omega0 + loop.beta) * dt) * float(source[-1]))
        f, b = apply_estimators(source, est, config.grid, self.forward_start, None if last else 0.0)
        self.forward_start = float(f[-1])
        a = math.exp(-est.chi_plus * dt)
        reach = min(math.ceil(CARRY_DECAYS / (est.chi_plus * dt)), size)  # g > exp(-45) there
        self.carries.append([float(b[0]), a ** size, 0.0, 0.0, 0.0])
        i0, i1 = config.window
        lo, hi = max(i0, s) - s, min(i1, s + size) - s
        if lo < hi:
            f, b, truth = f[lo:hi], b[lo:hi], phi[lo:hi]
            with np.errstate(over="ignore", invalid="ignore"):
                f -= truth
                b -= truth
                self._moments(f, b, last=hi == i1 - s)
                k = max(lo, size - reach)
                if not last and k < hi:
                    g = _powers(a, reach)[k - size + reach:hi - size + reach]
                    self.carries[-1][2:] = (float(np.einsum("i,i->", g, x))
                                            for x in (b[k - lo:], f[k - lo:], g))

    def result(self, trial_index: int) -> TrialResult:
        i0, i1 = self.config.window
        ff, bb, fb = self.sums
        c = 0.0  # the trial's backward average past the block at hand, 0 past the last
        for head, decay, gb, gf, gg in reversed(self.carries):
            bb, fb, c = bb + 2.0 * c * gb + c * c * gg, fb + c * gf, head + decay * c
        ff, bb, fb = (total / (i1 - i0) for total in (ff, bb, fb))
        mses = {"filtered": ff, "smoothed": self.config.estimator.combine(ff, bb, fb),
                "backward": bb}
        for mode, value in mses.items():
            if not math.isfinite(value):
                raise StatisticsError(f"non-finite {mode} MSE in trial {trial_index}")
        return TrialResult(mses["filtered"], mses["smoothed"], mses["backward"])

    def _moments(self, f, b, last: bool):
        """The errors of the window's next samples; ``last`` if they end it."""
        if self.cut is not None:
            k = SUM_CHUNK - len(self.cut[0])
            (f_cut, b_cut), self.cut = self.cut, None
            f_cut, b_cut, f, b = _joined(f_cut, f[:k]), _joined(b_cut, b[:k]), f[k:], b[k:]
            if len(f_cut) < SUM_CHUNK and not last:
                self.cut = f_cut, b_cut
                return
            self._add(f_cut[None], b_cut[None])
        whole = len(f) - len(f) % SUM_CHUNK
        self._add(f[:whole].reshape(-1, SUM_CHUNK), b[:whole].reshape(-1, SUM_CHUNK))
        f, b = f[whole:], b[whole:]
        if len(f) and last:  # the tail: one more row at the window's end, else the next cut
            self._add(f[None], b[None])
        elif len(f):
            self.cut = _joined(f[:0], f), _joined(b[:0], b)

    def _add(self, f, b):
        """Adds the sums of the rows of f and b, in turn."""
        # einsum's own loop, not BLAS: a BLAS dot would start its worker threads
        self.sums = [reduce(add, np.einsum("ij,ij->i", x, y).tolist(), total)
                     for total, (x, y) in zip(self.sums, ((f, f), (b, b), (f, b)))]


def _joined(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A new array of a's samples then b's, laid out in memory the way b runs."""
    if b.strides[0] < 0:
        return np.concatenate((b[::-1], a[::-1]))[::-1]
    return np.concatenate((a, b))


@lru_cache(maxsize=8)
def _powers(a: float, count: int) -> np.ndarray:
    """a**count, ..., a: g over a block's last ``count`` samples, shared per chi_plus."""
    g = a ** np.arange(count, 0, -1, dtype=float)
    g.flags.writeable = False
    return g


def _draw_lengths(n: int, block: int) -> list[int]:
    """The samples each block of a trial draws: ``block`` each, the last block the rest."""
    return [min(block, n - s) for s in range(0, n, block)]


def _cpus() -> int:
    """The CPUs this process may use: its affinity mask (else the CPU count), at most
    floor(quota/period) of a cgroup CPU quota (none: "max", -1), but at least one."""
    count = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    for paths in CPU_QUOTA:
        try:
            quota, period = " ".join(Path(path).read_text() for path in paths).split()
            return count if quota in ("max", "-1") else max(1, min(count, int(quota) // int(period)))
        except (OSError, ValueError, ZeroDivisionError):
            continue
    return count


class _DrawPipeline:
    """The draws of a loop over consecutive trial indices: a serial pass of
    ``run_ensembles``, one pool task of it, or a trial of its own. It holds
    the helper thread, the ``held`` rows and one ``_StreamAhead`` per noise
    stream; within the ``with`` block it is the pipeline that ``run_trials``
    draws from.

    A trial's streams chain on to the indices that follow it below ``stop``
    (none by default): the loop runs those under the same configs, so with the
    same streams and blocks, and each stream's last draw of a trial is
    followed by the next trial's first, into the same buffer row. The helper
    starts with the first trial of more blocks that has a CPU free for it (the
    usable CPUs, ``_cpus()``, are at least twice ``processes``, the processes
    running trials at once), and ends with the ``with`` block, also on error.
    """

    def __init__(self, stop: int = 0, processes: int = 1):
        self._stop = stop
        self._processes = processes
        self._helper = None
        self._held = np.empty((0, 0))
        self._noise = []  # each stream's _StreamAhead
        self._next = None  # the index whose draws are under way

    def __enter__(self):
        self._token = _pipeline.set(self)
        return self

    def __exit__(self, *exc):
        _pipeline.reset(self._token)
        if self._helper:
            self._helper.shutdown(wait=True, cancel_futures=True)

    def trial(self, trial_index: int, streams, lengths: list[int], width: int):
        """The held rows, of ``width`` samples, and each of ``streams``' draws
        for trial ``trial_index``. phi (row 0) and the theta of the run at hand
        (row 1) over a block; a trial of more blocks has a row more per stream,
        the buffer its draws go to, so glibc, whose trim threshold is twice the
        largest chunk it has unmapped, keeps the pages from block to block and
        trial to trial. A trial of one block allocates its draws."""
        if self._next != trial_index:  # none of its draws under way
            blocks = len(lengths)
            rows = 2 + (len(streams) if blocks > 1 else 0)
            if self._held.shape != (rows, width):
                self._held = np.empty((rows, width))
            if blocks > 1 and not self._helper and _cpus() >= 2 * self._processes:
                self._helper = ThreadPoolExecutor(max_workers=1)
            indices = [trial_index, *range(trial_index + 1, self._stop)]
            self._noise = [_StreamAhead(_draws(stream, indices, lengths), self._helper, buffer)
                           for stream, buffer in itertools.zip_longest(streams, self._held[2:])]
        self._next = trial_index + 1 if trial_index + 1 < self._stop else None
        return self._held, dict(zip(streams, self._noise))


def _draws(stream: NoiseStream, indices: list[int], lengths: list[int]):
    """Each draw of ``stream``'s role over trials ``indices``, in turn: its
    stream, its generator's ``standard_normal`` and its length."""
    for index in indices:
        stream = replace(stream, trial_index=index)
        draw = stream.generator().standard_normal
        for length in lengths:
            yield stream, draw, length


class _StreamAhead:
    """One noise stream's draws, one per block and trial after trial
    (``draws``, from ``_draws``): ``standard_normal(n)`` is the draw at hand,
    and ``done()``, once the trial is done with it, starts the next, which
    after a trial's last block is the next trial's first. The first draw
    starts when this is built.

    Each draw goes to ``buffer``, or, with none (a trial of one block), to a
    new array. With a ``helper``, its one thread draws the next block while
    the trial runs the block at hand, by the raw ``Generator.standard_normal``,
    which releases the GIL and which a tracer of ``NoiseStream.normals`` does
    not see; otherwise the trial's thread draws it when the trial reads it.
    """

    def __init__(self, draws, helper: ThreadPoolExecutor | None, buffer: np.ndarray | None):
        self._draws = draws
        self._helper = helper
        self._buffer = buffer
        self.done()

    def standard_normal(self, n: int) -> np.ndarray:
        drawn = self._next()
        if len(drawn) != n:
            raise RuntimeError(f"{self._stream} drew {len(drawn)} normals for a block "
                               f"that reads {n}")
        return drawn

    def done(self):
        self._stream, draw, length = next(self._draws, (None, None, 0))
        self._next = None  # the chain's last draw is read
        if length:
            if self._buffer is not None and length > len(self._buffer):
                raise RuntimeError(f"{self._stream} draws {length} normals for a block "
                                   f"whose buffer row holds {len(self._buffer)}")
            out = None if self._buffer is None else self._buffer[:length]
            draw = partial(draw, length, out=out)
            self._next = self._helper.submit(draw).result if self._helper else draw


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


def _condition(config: ExperimentConfig, mode: str, samples, analytic: float) -> Condition:
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
        mc = float(np.mean(samples))
        stderr = float(np.std(samples, ddof=1) / math.sqrt(len(samples)))
    if not (math.isfinite(mc) and math.isfinite(stderr)):
        raise StatisticsError(f"non-finite {mode} ensemble: mean {mc}, stderr {stderr}")
    if stderr == 0.0:
        raise StatisticsError("degenerate ensemble: no variation across trials")
    return Condition(
        scheme=config.scheme,
        mode=mode,
        chi=config.estimator.chi_plus if mode == "backward" else config.estimator.chi_minus,
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

    The configs share one ``trials``: every trial index runs under every
    config, and each report equals ``run_ensemble`` of its config.

    The pool size is min(workers, count of chunks of TRIAL_CHUNK consecutive
    indices, usable CPUs (``_cpus()``)). A pool of one is the serial run, one
    loop over the trial indices; a larger one maps the chunks over a process
    pool, each chunk a loop of its own, and joins the chunks' ``_run_indices``
    arrays in index order: the samples, so the results, are identical either
    way. Each loop owns one draw pipeline (``_DrawPipeline``), built in a pool
    task from the pool's size. Each config's theory and trials are checked first.
    """
    configs = _check_shared(configs)
    check_count("workers", workers)
    theories = [{mode: analytics.analytic_mse(config, mode)
                 for mode in ("filtered", "smoothed", "backward")} for config in configs]
    trials = configs[0].trials
    if trials < MIN_TRIALS_FOR_STDERR:
        raise StatisticsError(f"{trials} trials < {MIN_TRIALS_FOR_STDERR}: too few for error bars")
    chunks = [range(i, min(i + TRIAL_CHUNK, trials)) for i in range(0, trials, TRIAL_CHUNK)]
    # a fork pool starts all its processes at once: no more than can get work
    size = min(workers, len(chunks), _cpus())
    if size > 1:
        with ProcessPoolExecutor(max_workers=size) as pool:
            task = partial(_run_indices, configs, processes=size)
            samples = np.concatenate(list(pool.map(task, chunks)), axis=2)
    else:
        samples = _run_indices(configs, range(trials))
    return [_report(config, rows, theory)
            for config, rows, theory in zip(configs, samples, theories)]


def _run_indices(configs: list[ExperimentConfig], indices: range,
                 processes: int = 1) -> np.ndarray:
    """Trials ``indices`` as one float64 array of shape (configs, 3, indices): [k, :, j]
    is configs[k]'s filtered, smoothed and backward MSE at indices[j]. One draw pipeline
    serves them all; ``processes``, the processes running trials at once (the pool's
    size, 1 serially), sets its CPU rule."""
    samples = np.empty((len(configs), 3, len(indices)))
    with _DrawPipeline(indices.stop, processes):
        for j, i in enumerate(indices):
            # one config calls run_trial by its global name, which bench/tracer.py wraps
            results = [run_trial(configs[0], i)] if len(configs) == 1 else run_trials(configs, i)
            samples[:, :, j] = list(map(astuple, results))
    return samples


def _report(config: ExperimentConfig, rows: np.ndarray, theory: dict[str, float]) -> VarianceReport:
    filtered, smoothed, backward = (_condition(config, mode, row, analytic)
                                    for row, (mode, analytic) in zip(rows, theory.items()))
    return VarianceReport(config=config, conditions=(filtered, smoothed), backward=backward)


def _check_sweep_values(values) -> np.ndarray:
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 1 or vals.size == 0:
        raise ParameterError("sweep values must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(vals)) or np.any(vals <= 0):
        raise ParameterError("sweep values must be positive and finite")
    if np.any(np.diff(vals) <= 0):
        raise ParameterError("sweep values must be strictly ascending")
    return vals


def _check_beta_per_point(config: ExperimentConfig, who: str) -> None:
    if config.beta not in ("auto", None):
        raise ParameterError(f"{who} sets beta from chi at every point: "
                             f"beta must be 'auto', got {config.beta!r}")


def _at_chi(config: ExperimentConfig, chi: float, source: str | None = None,
            **changes) -> ExperimentConfig:
    """``config`` with both averaging rates at ``chi``, ``source`` if given, and ``changes``."""
    est = replace(config.estimator, chi_minus=chi, chi_plus=chi,
                  source=source or config.estimator.source)
    return replace(config, estimator=est, **changes)


def sweep(
    config: ExperimentConfig, axis: str, values, workers: int = 1
) -> list[VarianceReport]:
    """One report per value of the swept axis, all from one ``run_ensembles``.

    axis="chi": both averaging rates are set to the value and, for the
    adaptive scheme, beta follows sqrt(8*chi*N) per point. axis="flux": chi is
    re-optimized per point and per mode (each mode is measured at its own
    exact optimal rate), beta likewise, so the sweep traces the optimal MSEs
    (a numeric beta, checked after the values, or a flux whose optimum is
    chi -> 0, is an error). Every point's config is built, and so checked,
    before any trial runs.
    """
    vals = _check_sweep_values(values)
    if axis not in ("chi", "flux"):
        raise ParameterError(f"unknown sweep axis: {axis!r}")
    _check_beta_per_point(config, f"a {axis} sweep")
    # a flux point measures each mode at its own rate; a chi point is one config
    modes = ("filtered", "smoothed") if axis == "flux" else (None,)
    configs = []
    for value in map(float, vals):
        params = replace(config.params, flux=value) if axis == "flux" else config.params
        for mode in modes:
            opt = analytics.optimal_chi(params, mode, config.scheme) if mode else None
            if opt and opt.at_boundary:
                raise ParameterError(f"flux {value:g} has no interior {mode} optimum: chi* -> 0")
            configs.append(_at_chi(config, opt.chi_star if opt else value, params=params))
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


def compare(config: ExperimentConfig, dual_mode: str = "linearized",
            workers: int = 1) -> tuple[list[VarianceReport], GainComparison]:
    """The four-technique comparison on shared trials: the adaptive and the
    dual-homodyne report (in that order, from one ``run_ensembles``) and
    their gains.

    Each scheme runs ``config`` at its own limit rate 2*sqrt(kappa*N'). The
    adaptive run keeps the config's source, and beta follows chi, so a
    numeric beta is an error; the dual run reads theta through the
    ``dual_mode`` detector. The total gain is the analytic standard quantum
    limit over the MC smoothed adaptive error.
    """
    _check_beta_per_point(config, "compare")
    chi = partial(analytics.limit_chi, config.params)
    adaptive, dual = reports = run_ensembles(
        [_at_chi(config, chi("adaptive"), scheme="adaptive", dual_mode="linearized"),
         _at_chi(config, chi("dual_homodyne"), "theta", scheme="dual_homodyne", beta=None,
                 dual_mode=dual_mode)], workers)
    ap_f = adaptive.condition("filtered")
    ap_s = adaptive.condition("smoothed")
    dh_f = dual.condition("filtered")

    smoothing, smoothing_err = _ratio(ap_f, ap_s)
    adaptive_gain, adaptive_err = _ratio(dh_f, ap_f)
    sql = analytics.sql_mse(adaptive.config.params)
    total = sql / ap_s.mc_mse
    total_err = total * ap_s.mc_stderr / ap_s.mc_mse
    return reports, GainComparison(smoothing, smoothing_err, adaptive_gain, adaptive_err,
                                   total, total_err)
