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
from dataclasses import dataclass, field, replace
from functools import partial
from operator import attrgetter

import numpy as np

from . import analytics
from .detection import FeedbackParams, arg_theta, feedback_estimate, linearized_theta
from .detection import run_adaptive_loop, run_dual_homodyne  # noqa: F401  bench/tracer.py wraps them
from .errors import ParameterError, StatisticsError
from .errors import check_index, check_real_fields
from .estimators import EstimatorParams, _check_rate, apply_estimators, retained_window
from .stochastic import SEED_BITS, TRIAL_BITS, NoiseStream, ProcessParams, Role, SimGrid
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
MIN_BLOCK = 2 ** 17  # samples per block of a trial, at least
LOOKAHEAD_DECAYS = 40.0  # backward-average time constants each block looks ahead
_THETA_KEY = attrgetter("scheme", "dual_mode", "n_eff")  # configs with one key share theta
_processes = 1  # processes running trials at once: a pool's initializer sets its size
_pipeline = ContextVar("pipeline", default=None)  # the _DrawPipeline of the loop at hand


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete description of one ensemble, checked and resolved when built.

    ``beta`` left unset (None) gives the adaptive scheme the loop gain
    sqrt(8*chi*N) and the dual scheme, where no feedback runs, no loop; it
    may also be "auto" (that same gain) or a positive number, both for the
    adaptive scheme only. ``omega0`` is >= 0, and below beta for the adaptive
    scheme. ``dual_mode``, the dual detector's model, is "linearized" or (dual
    scheme only) "arg". ``trials`` is at most 2**TRIAL_BITS, the trial indices
    the noise streams key.

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
        if isinstance(self.trials, bool) or not isinstance(self.trials, int) or self.trials < 1:
            raise ParameterError("trials must be an integer >= 1")
        if self.trials > 2**TRIAL_BITS:
            raise ParameterError(f"trials must be at most 2**{TRIAL_BITS}: "
                                 "the noise streams key no higher trial index")
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
    """``configs`` as a list, if it is not empty and its configs can share
    trials: they agree in what a trial's draws depend on."""
    configs = list(configs)
    shared = {(c.params.kappa, c.params.lam, c.grid, c.master_seed) for c in configs}
    if len(shared) != 1:
        raise ParameterError("need one or more configs that agree in kappa, lambda, "
                             "grid and seed")
    return configs


def run_trials(configs, trial_index: int) -> list[TrialResult]:
    """One trial index under configs that share its draws (they must agree in
    kappa, lambda, grid and seed; ``trials`` is not read); result ``k`` is
    configs[k]'s three MSE samples.

    Deterministic in (master_seed, trial_index); trials of an ensemble may run
    in any order or in parallel without changing any result. phi is drawn
    once, and so are the increments dW of each measurement stream that a
    config reads: meas1 for the adaptive scheme, meas2 for the linearized
    dual one, both for the arg model. theta is built once for each
    consecutive run of configs with the same (scheme, dual_mode, N'), by
    ``linearized_theta`` or (arg model) ``arg_theta``, from those shared
    increments; ``source="phihat"`` filters it (``feedback_estimate``).

    No smoothed series is built: its MSE is ``EstimatorParams.combine`` of the
    window moments ff, bb and fb of the forward and backward errors. Per sample
    this differs from the direct smoothed error by at most
    |w_minus + w_plus - 1|*|phi|, within WEIGHT_SUM_TOL.

    The trial runs in blocks (``blocking``), so its memory does not grow
    with its length; a trial of at most B samples is one block with no
    lookahead. Blocks start every B samples below n - L, and every block
    draws: the last one takes the tail, up to B + L samples
    (``_draw_lengths``). Each recursion carries its state from block to
    block, each config's in its ``_ConfigTrial``; only the backward averages
    of a block that is not the last one see a finite lookahead. phi and the
    theta of the run at hand are the rows of one array, and each run keeps
    only its theta over the lookahead for the next block.

    The trial is the one reader of each noise stream: it draws each once per
    block by one generator (``_StreamAhead``), and every run that reads a
    stream reads that draw without writing it; a stream's increments are
    freed after the last run that reads them. The draws come from the draw
    pipeline (``_DrawPipeline``) of the loop the trial is part of: a serial
    pass of ``run_ensembles`` or one pool task of it, or else one of the
    trial's own. With a CPU free for it (the CPU count is at least twice the
    number of processes running trials), a trial of more blocks draws the
    next block on the pipeline's helper thread while it runs the block at
    hand, and its last block draws the first block of the loop's next trial
    if that trial runs the same configs; otherwise a block's draw runs when
    the trial reads it. The draws, so the results, are the same either way.
    The thread ends when the loop does, also on error: a trial of its own
    ends it before this returns.
    """
    pipeline = _pipeline.get()
    if pipeline is None:  # a trial of its own, with a pipeline of its own
        with _DrawPipeline():
            return run_trials(configs, trial_index)
    configs = _check_shared(configs)
    c0 = configs[0]
    grid, params = c0.grid, c0.params
    n, dt = grid.n_steps, grid.dt
    block, lookahead = blocking(configs)
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

    held, noise = pipeline.trial(configs, trial_index, [phase, *last],
                                 _draw_lengths(n, block, lookahead), block + lookahead)
    phi, theta = held[0], held[1]
    theta_ahead = np.empty((len(runs), lookahead))  # each run's theta over the lookahead
    ahead = 0
    for s in range(0, n - lookahead, block):
        drawn = ahead  # the previous block's lookahead
        e, ahead = (n, 0) if s + block + lookahead >= n else (s + block, lookahead)
        size = e + ahead - s
        phi[:drawn] = phi[block:block + drawn]  # moves to the front
        new = slice(drawn, size)
        phi[new] = simulate_ou(params, grid, phase, init, noise[phase], size - drawn,
                               None if s == 0 else float(phi[drawn - 1]))
        noise[phase].done()
        dW = {}  # each measurement stream's increments over the block's new samples
        for i, (run, (model, read), kept) in enumerate(zip(runs, models, theta_ahead)):
            theta[:drawn] = kept[:drawn]
            for stream in read:
                if stream not in dW:
                    dW[stream] = wiener_increments(stream, size - drawn, dt, noise[stream])
            theta[new] = model(phi[new], *map(dW.get, read), run[0].config.n_eff, dt)
            for stream in read:
                if last[stream] == i:  # freed before the estimators run
                    del dW[stream]
                    noise[stream].done()
            kept[:ahead] = theta[e - s:size]
            for trial in run:
                trial.block(theta[:size], phi, s, e, ahead)
    return [trial.result(trial_index) for trial in trials]


class _ConfigTrial:
    """One config's part of a trial, fed block by block: the starts its
    recursions carry across blocks, and ff, bb and fb, the sums of products
    of its forward and backward errors over the window.

    One einsum over a window adds the sums of its consecutive chunks of
    np.getbufsize() samples in turn. The blocks are summed chunk for chunk in
    the same way, and a chunk that a block boundary cuts is joined first, laid
    out in memory as in one piece, so the sums do not depend on the blocks.
    """

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self.forward_start = None  # the forward average at the sample before the block
        self.loop_start = 0.0      # phihat at the block's first sample
        self.sums = [0.0, 0.0, 0.0]
        self.started = False
        self.cut = None  # the errors of the chunk the last block boundary cut

    def block(self, source: np.ndarray, phi: np.ndarray, s: int, e: int, ahead: int):
        """Samples s to e, and ``ahead`` more of lookahead: ``source`` is theta
        over them and phi the phase from s. Its arrays are freed on return."""
        config = self.config
        if config.estimator.source == "phihat":
            source = feedback_estimate(source, config.loop, config.grid.dt, self.loop_start)
            self.loop_start = float(source[e - s]) if ahead else None
        f, b = apply_estimators(source, config.estimator, config.grid, self.forward_start, ahead)
        self.forward_start = float(f[-1])
        i0, i1 = config.window
        lo, hi = max(i0, s) - s, min(i1, e) - s
        if lo < hi:
            f, b, truth = f[lo:hi], b[lo:hi], phi[lo:hi]
            with np.errstate(over="ignore", invalid="ignore"):
                f -= truth
                b -= truth
                self._moments(f, b, last=hi == i1 - s)

    def result(self, trial_index: int) -> TrialResult:
        i0, i1 = self.config.window
        ff, bb, fb = (total / (i1 - i0) for total in self.sums)
        mses = {"filtered": ff, "smoothed": self.config.estimator.combine(ff, bb, fb),
                "backward": bb}
        for mode, value in mses.items():
            if not math.isfinite(value):
                raise StatisticsError(f"non-finite {mode} MSE in trial {trial_index}")
        return TrialResult(mses["filtered"], mses["smoothed"], mses["backward"])

    def _moments(self, f, b, last: bool):
        """The errors of the window's next samples; ``last`` if they end it."""
        if last and not self.started:
            self._add(f, b)  # the whole window: one einsum, as in one block
            return
        self.started = True
        chunk = np.getbufsize()
        if self.cut is not None:
            k = chunk - len(self.cut[0])
            (f_cut, b_cut), self.cut = self.cut, None
            f_cut, b_cut, f, b = _joined(f_cut, f[:k]), _joined(b_cut, b[:k]), f[k:], b[k:]
            if len(f_cut) < chunk and not last:
                self.cut = f_cut, b_cut
                return
            self._add(f_cut, b_cut)
        for i in range(0, len(f), chunk):
            if len(f) - i < chunk and not last:
                self.cut = _joined(f[:0], f[i:]), _joined(b[:0], b[i:])
                return
            self._add(f[i:i + chunk], b[i:i + chunk])

    def _add(self, f, b):
        # einsum's own loop, not BLAS: a BLAS dot would start its worker threads
        self.sums = [total + float(np.einsum("i,i->", x, y))
                     for total, (x, y) in zip(self.sums, ((f, f), (b, b), (f, b)))]


def _joined(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A new array of a's samples then b's, laid out in memory the way b runs."""
    if b.strides[0] < 0:
        return np.concatenate((b[::-1], a[::-1]))[::-1]
    return np.concatenate((a, b))


def blocking(configs) -> tuple[int, int]:
    """(B, L): the block length and the lookahead of a trial of ``configs``.

    L is LOOKAHEAD_DECAYS time constants of the slowest backward average,
    ceil(40/(chi_plus*dt)): a sample that far ahead weighs exp(-40), below
    one ulp. B = max(MIN_BLOCK, 4*L) keeps the lookahead a small share of a
    block. A trial of n <= B samples is one block, (n, 0).
    """
    dt, n = configs[0].grid.dt, configs[0].grid.n_steps
    lookahead = max(math.ceil(LOOKAHEAD_DECAYS / (c.estimator.chi_plus * dt)) for c in configs)
    block = max(MIN_BLOCK, 4 * lookahead)
    return (n, 0) if n <= block else (block, lookahead)


def _draw_lengths(n: int, block: int, lookahead: int) -> list[int]:
    """The samples each block of a trial draws. Blocks start every B samples
    below n - L, and each draws up to its lookahead's end, min(start + B + L, n):
    the last one takes the tail, so every block draws."""
    ends = [min(s + block + lookahead, n) for s in range(0, n - lookahead, block)]
    return [end - start for start, end in zip([0, *ends], ends)]


class _DrawPipeline:
    """The draws of a loop over consecutive trial indices: a serial pass of
    ``run_ensembles``, one pool task of it, or a trial of its own. It holds
    the helper thread, the ``held`` rows and one ``_StreamAhead`` per noise
    stream; within the ``with`` block it is the pipeline that ``run_trials``
    draws from.

    A trial's streams chain on to the indices that follow it below ``stop``
    (none by default) while every config of the trial counts them (has more
    trials): the loop runs those under the same configs, so with the same
    streams and ``_draw_lengths``, and each stream's last draw of a trial is
    followed by the next trial's first, into the same buffer row. The helper
    starts with the first trial of more blocks that has a CPU free for it,
    and ends when the ``with`` block does, also on error.
    """

    def __init__(self, stop: int = 0):
        self._stop = stop
        self._helper = None
        self._held = np.empty((0, 0))
        self._noise = []  # each stream's _StreamAhead
        self._end = 0  # the chain's end: the first index the streams do not reach
        self._next = None  # the configs and index whose draws are under way

    def __enter__(self):
        self._token = _pipeline.set(self)
        return self

    def __exit__(self, *exc):
        _pipeline.reset(self._token)
        if self._helper:
            self._helper.shutdown(wait=True, cancel_futures=True)

    def trial(self, configs, trial_index: int, streams, lengths: list[int], width: int):
        """The held rows, of ``width`` samples, and each of ``streams``' draws
        for trial ``trial_index`` of ``configs``. phi (row 0) and the theta of
        the run at hand (row 1) over a block and its lookahead; a trial of
        more blocks has a row more per stream, the buffer its draws go to, so
        glibc, whose trim threshold is twice the largest chunk it has
        unmapped, keeps the pages from block to block and trial to trial. A
        trial of one block allocates its draws."""
        if self._next != (configs, trial_index):  # none of its draws under way
            blocks = len(lengths)
            rows = 2 + (len(streams) if blocks > 1 else 0)
            if self._held.shape != (rows, width):
                self._held = np.empty((rows, width))
            if blocks > 1 and not self._helper and (os.cpu_count() or 1) >= 2 * _processes:
                self._helper = ThreadPoolExecutor(max_workers=1)
            self._end = min(self._stop, *(config.trials for config in configs))
            indices = [trial_index, *range(trial_index + 1, self._end)]
            helper = self._helper if blocks > 1 else None
            self._noise = [_StreamAhead(_draws(stream, indices, lengths), helper, buffer)
                           for stream, buffer in itertools.zip_longest(streams, self._held[2:])]
        self._next = (configs, trial_index + 1) if trial_index + 1 < self._end else None
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

    The configs may differ in ``trials``: trial index i runs under the configs
    with more than i trials, and each report folds its own config's first
    ``trials`` indices, so it equals ``run_ensemble`` of that config.

    A serial run is one loop over the trial indices; ``workers > 1`` maps
    chunks of TRIAL_CHUNK consecutive indices over one process pool of
    min(workers, chunk count, CPU count) processes, each chunk a loop of its
    own. Results are identical either way, because aggregation folds in
    trial-index order. Each loop owns one draw pipeline (``run_trials``): its
    helper thread draws ahead across the loop's trials, the next trial's
    first block during this one's last, and ends before the loop does, also
    on error. A pool worker starts one only if the CPU count is at least
    twice the pool's size. Each config's theory and trial count are checked
    before any trial runs.
    """
    configs = _check_shared(configs)
    if isinstance(workers, bool) or not isinstance(workers, int) or workers < 1:
        raise ParameterError(f"workers must be an integer >= 1, got {workers!r}")
    theories = [{mode: analytics.analytic_mse(config, mode)
                 for mode in ("filtered", "smoothed", "backward")} for config in configs]
    fewest = min(config.trials for config in configs)
    if fewest < MIN_TRIALS_FOR_STDERR:
        raise StatisticsError(f"{fewest} trials < {MIN_TRIALS_FOR_STDERR}: too few for error bars")
    trials = max(config.trials for config in configs)
    task = partial(_run_indices, configs)
    if workers > 1:
        chunks = [range(i, min(i + TRIAL_CHUNK, trials)) for i in range(0, trials, TRIAL_CHUNK)]
        # a fork pool starts all its processes at once: no more than can get work
        size = min(workers, len(chunks), os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=size, initializer=_share_cpus,
                                 initargs=(size,)) as pool:
            rows = list(itertools.chain.from_iterable(pool.map(task, chunks)))
    else:
        rows = task(range(trials))
    return [_report(config, results[:config.trials], theory)
            for config, results, theory in zip(configs, zip(*rows), theories)]


def _share_cpus(processes: int) -> None:
    """A pool worker's initializer: ``processes`` processes run trials at once."""
    global _processes
    _processes = processes


def _run_indices(configs: list[ExperimentConfig], indices: range) -> list[list[TrialResult | None]]:
    """Each trial of ``indices`` under the configs with more trials than its
    index, None in the place of each other config; one draw pipeline serves
    them all."""
    rows = []
    with _DrawPipeline(indices.stop):
        for i in indices:
            run = [config for config in configs if config.trials > i]
            # one config calls run_trial by its global name, which bench/tracer.py wraps
            results = iter([run_trial(run[0], i)] if len(run) == 1 else run_trials(run, i))
            rows.append([next(results) if config.trials > i else None for config in configs])
    return rows


def _report(config: ExperimentConfig, results, theory: dict[str, float]) -> VarianceReport:
    filtered, smoothed, backward = (
        _condition(config, mode, [getattr(r, f"{mode}_mse") for r in results], analytic)
        for mode, analytic in theory.items())
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
