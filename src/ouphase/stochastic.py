"""Seedable Wiener increments and exact Ornstein-Uhlenbeck trajectories.

Randomness is organized as keyed streams: a (master_seed, trial_index, role)
triple seeds its own SFC64 generator through a ``SeedSequence`` spawn key, so
every trial of an ensemble draws from its own statistically independent stream
and results never depend on execution order or thread scheduling.
"""

from __future__ import annotations

import enum
import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass

import numpy as np
import scipy
from numpy.random import SFC64, Generator, SeedSequence

from .errors import ParameterError, check_count, check_index, check_real, check_real_fields

__all__ = [
    "Role",
    "NoiseStream",
    "ProcessParams",
    "SimGrid",
    "wiener_increments",
    "simulate_ou",
]

SEED_BITS = 64
MAX_STEPS = sys.maxsize // 8  # the longest float64 array numpy can address


def _load_linear_filter():
    """scipy's compiled direct-form II filter, the C loop that
    ``scipy.signal.lfilter`` runs for a denominator of two or more terms.

    It is loaded from its extension module alone: importing ``scipy.signal``
    would also import ``scipy.stats`` and ``scipy.interpolate``, about 0.5 s
    of every process's start-up. As the symbol is private, the kernel must
    first run both recursions of ``_first_order`` right on a few dyadic
    samples, where every order of operations is exact.
    """
    signal = os.path.join(os.path.dirname(scipy.__file__), "signal")
    spec = importlib.machinery.PathFinder.find_spec("scipy.signal._sigtools", [signal])
    kernel = None
    if spec is not None:
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        kernel = getattr(module, "_linear_filter", None)
    if kernel is None:
        raise ImportError(f"scipy {scipy.__version__} has no compiled first-order filter "
                          "scipy.signal._sigtools._linear_filter")
    x, g, decay, state = [1.0, -0.5, 0.25, 2.0], 1.5, 0.5, 0.75
    gain, delayed = [state + g * x[0]], [state]  # the plain recursions
    for k in range(1, len(x)):
        gain.append(decay * gain[-1] + g * x[k])
        delayed.append(decay * delayed[-1] + g * x[k - 1])
    try:
        ok = all(_first_order(b, decay, x, state, kernel).tolist() == y
                 for b, y in (([g], gain), ([0.0, g], delayed)))
    except TypeError:
        ok = False
    if not ok:
        raise ImportError(f"scipy {scipy.__version__}: scipy.signal._sigtools._linear_filter "
                          "does not run the first-order recursion as expected")
    return kernel


def _first_order(b, decay: float, x, state: float, kernel=None) -> np.ndarray:
    """``lfilter(b, [1.0, -decay], x, zi=[state])[0]``, bit for bit: the same
    compiled loop on the same arguments, which releases the interpreter lock.

    With ``b = [g]`` it is ``y[k] = decay*y[k-1] + g*x[k]`` with
    ``decay*y[-1] = state``; with the delayed ``b = [0, g]`` it is
    ``y[k] = decay*y[k-1] + g*x[k-1]`` from ``y[0] = state``. ``kernel``
    stands in for the loaded one, as when it is checked.
    """
    return (kernel or _linear_filter)(np.atleast_1d(b), np.array([1.0, -decay]), np.asarray(x),
                                      -1, np.array([state]))[0]


_linear_filter = _load_linear_filter()


class Role(enum.IntEnum):
    """Which physical noise source a stream feeds."""

    PHASE_NOISE = 0          # drives the phase random walk
    MEASUREMENT_NOISE = 1    # shot noise of the (first) detector
    MEASUREMENT_NOISE_2 = 2  # shot noise of the second dual-homodyne arm


@dataclass(frozen=True)
class NoiseStream:
    """Identity of one reproducible standard-normal noise stream."""

    master_seed: int
    trial_index: int = 0
    role: Role = Role.PHASE_NOISE

    def __post_init__(self):
        check_index("master_seed", self.master_seed, SEED_BITS)
        check_index("trial_index", self.trial_index, SEED_BITS)
        object.__setattr__(self, "role", Role(self.role))

    def generator(self) -> Generator:
        """Fresh SFC64 generator for this stream, seeded by ``master_seed`` with
        the spawn key (trial_index, role); identical identity, identical draws."""
        seed = SeedSequence(self.master_seed, spawn_key=(self.trial_index, int(self.role)))
        return Generator(SFC64(seed))

    def normals(self, n: int, generator: Generator | None = None) -> np.ndarray:
        """First ``n`` standard-normal draws of the stream.

        Passing ``generator``, one ``self.generator()`` kept across calls, gives
        the stream's next ``n`` draws instead: a stream drawn in consecutive
        pieces gives the same values as one draw of their total length.
        """
        check_index("n", n, MAX_STEPS.bit_length())  # [0, MAX_STEPS]
        return (self.generator() if generator is None else generator).standard_normal(n)


@dataclass(frozen=True)
class ProcessParams:
    """Physical triple defining the signal and the measurement strength.

    kappa : phase diffusion rate [rad^2/s]
    lam   : mean-reversion rate of the phase [1/s]; 0 gives pure diffusion
    flux  : photon flux of the probe beam [1/s]
    """

    kappa: float
    lam: float
    flux: float

    def __post_init__(self):
        check_real_fields(self, "kappa", "flux", above=0.0)
        check_real_fields(self, "lam", at_least=0.0)

    @property
    def stationary_variance(self) -> float:
        if self.lam == 0:
            raise ParameterError("pure diffusion (lam = 0) has no stationary variance")
        return self.kappa / (2.0 * self.lam)


@dataclass(frozen=True)
class SimGrid:
    """Uniform time grid: step dt, total duration, and a warm-up span that
    is discarded before any statistics are taken."""

    dt: float
    duration: float
    warmup: float = 0.0

    def __post_init__(self):
        check_real_fields(self, "dt", "duration", above=0.0)
        check_real_fields(self, "warmup", at_least=0.0)
        if self.warmup >= self.duration:
            raise ParameterError("warmup must satisfy 0 <= warmup < duration")
        steps = self.duration / self.dt
        if not math.isfinite(steps) or self.n_steps > MAX_STEPS:
            raise ParameterError(f"grid too long: duration/dt = {steps:.3g} steps (at most {MAX_STEPS})")
        if self.n_steps < 2:
            raise ParameterError("grid must contain at least 2 steps")

    @property
    def n_steps(self) -> int:
        return int(round(self.duration / self.dt))


def wiener_increments(stream: NoiseStream, n: int, dt: float,
                      generator: Generator | None = None) -> np.ndarray:
    """``n`` independent Gaussian increments of mean 0 and variance ``dt``.

    Pure function of the stream identity: calling twice returns
    bit-identical arrays. ``dt = 0`` returns exact zeros. ``generator``
    continues earlier draws, as in ``NoiseStream.normals``.
    """
    dW = stream.normals(n, generator)
    dW *= math.sqrt(check_real("dt", dt, at_least=0.0))
    return dW


def simulate_ou(
    params: ProcessParams,
    grid: SimGrid,
    stream: NoiseStream,
    init: float | str = "stationary",
    generator: Generator | None = None,
    steps: int | None = None,
    last: float | None = None,
) -> np.ndarray:
    """Phase trajectory of the mean-reverting diffusion on the grid.

    Uses the exact one-step transition
        phi[k+1] = phi[k] * exp(-lam*dt) + sqrt(-kappa*expm1(-2*lam*dt)/(2*lam)) * z[k]
    so the sampled law has no discretization bias at any dt; expm1 keeps the
    step variance's digits where 2*lam*dt is small. For lam = 0 the same
    recursion runs with its limits, decay 1 and step sd sqrt(kappa*dt) (pure
    diffusion), and only a fixed initial value is allowed. A lam > 0 so small
    that exp(-lam*dt) rounds to 1 is refused: the grid cannot resolve its
    mean reversion.

    ``init`` is either the string "stationary" (draw phi[0] from the
    stationary Gaussian of variance kappa/(2*lam)) or a number.

    A trajectory can also be drawn in consecutive blocks, carrying the
    recursion's state instead of replaying the stream: every call gets the
    same ``generator`` (one ``stream.generator()``) and its block's length
    ``steps``, and every block after the first gets ``last``, the phase at
    the sample before it, in place of ``init``; a finite real. The blocks
    joined are the one-call trajectory, bit for bit.
    """
    if steps is not None:
        check_count("steps", steps)
    n = grid.n_steps if steps is None else steps
    dt = grid.dt
    stationary = isinstance(init, str)
    if stationary:
        if init != "stationary":
            raise ParameterError(f"unknown init mode: {init!r}")
        if params.lam == 0:
            raise ParameterError("stationary init undefined for lam = 0")
    else:
        init = check_real("fixed init", init)
    if last is not None:
        last = check_real("last", last)

    lam = params.lam
    decay = math.exp(-lam * dt)  # 1 for pure diffusion
    if lam > 0 and decay == 1.0:
        raise ParameterError(f"lambda*dt = {lam * dt:.3g} is too small for the grid to "
                             "resolve: exp(-lambda*dt) rounds to 1")
    step_sd = (math.sqrt(params.kappa * dt) if lam == 0 else
               math.sqrt(-params.kappa * math.expm1(-2.0 * lam * dt) / (2.0 * lam)))
    x = stream.normals(n, generator)
    if last is None:  # x[0] seeds the initial condition in stationary mode
        state = math.sqrt(params.stationary_variance) * x[0] if stationary else init
        x[0] = 0.0  # phi[0] comes in through the filter state; the gain scales the rest
    else:
        state = decay * last  # bit for bit the state the filter carries out of the block before
    return _first_order([step_sd], decay, x, state)
