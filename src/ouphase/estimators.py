"""Offline phase estimators: causal, anticausal and time-symmetric averaging.

The estimators are exponential-kernel weighted averages of an instantaneous
estimate series. The causal branch uses only past samples (filtering), the
anticausal branch only future samples (retrodiction), and their affine
combination w_minus*forward + w_plus*backward is the time-symmetric
(smoothed) estimate. No function here builds that series: a trial takes its
MSE from the window moments of the forward and backward errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ParameterError, StatisticsError
from .errors import check_real, check_real_fields
from .stochastic import SimGrid, _first_order

__all__ = [
    "EstimatorParams",
    "MseStats",
    "causal_exponential_average",
    "anticausal_exponential_average",
    "apply_estimators",
    "empirical_mse",
]

WEIGHT_SUM_TOL = 1e-12


@dataclass(frozen=True)
class EstimatorParams:
    """Averaging rates chi_minus, chi_plus > 0 (1/s) and finite combination
    weights summing to 1 (stored as floats), read by trials and theory alike.

    ``source`` selects which series of the trajectory is averaged: the
    instantaneous estimate ("theta") or the feedback loop's running estimate
    ("phihat"). ``edge_discard`` (seconds, both ends) is the span excluded
    from statistics; None selects the default policy of the experiment module.
    """

    chi_minus: float
    chi_plus: float
    w_minus: float = 0.5
    w_plus: float = 0.5
    source: str = "theta"
    edge_discard: float | None = None

    def __post_init__(self):
        check_real_fields(self, "chi_minus", "chi_plus", above=0.0)
        check_real_fields(self, "w_minus", "w_plus")
        if abs(self.w_minus + self.w_plus - 1.0) > WEIGHT_SUM_TOL:
            raise ParameterError("w_minus + w_plus must sum to 1")
        if self.source not in ("theta", "phihat"):
            raise ParameterError(f"unknown estimator source: {self.source!r}")
        if self.edge_discard is not None:
            check_real_fields(self, "edge_discard", at_least=0.0)

    def combine(self, ff: float, bb: float, fb: float) -> float:
        """MSE of w_minus*forward + w_plus*backward from the moments <ff>, <bb>
        and <fb> of the forward and backward errors: a trial's or the theory's."""
        wm, wp = self.w_minus, self.w_plus
        return wm * wm * ff + wp * wp * bb + 2.0 * wm * wp * fb


@dataclass(frozen=True)
class MseStats:
    """Mean-square error with a batch-means standard error over n_eff batches."""

    mse: float
    std_error: float
    n_eff: int


def _check_rate(chi: float, dt: float) -> tuple[float, float]:
    chi, dt = check_real("chi", chi, above=0.0), check_real("dt", dt, above=0.0)
    if chi * dt >= 0.5:
        raise ConfigurationError(
            f"chi*dt = {chi * dt:.3g} >= 0.5: grid too coarse for this averaging rate"
        )
    return chi, dt


def causal_exponential_average(series, chi: float, dt: float,
                               start: float | None = None) -> np.ndarray:
    """Exponentially weighted average over past samples.

    Discrete realization of chi * integral of exp(-chi*(t-s)) x(s) ds over
    s <= t, via the exact-decay recursion

        y[k] = a*y[k-1] + (1-a)*x[k],   a = exp(-chi*dt),   y[-1] = start,

    where ``start`` None means x[0], so that y[0] = x[0]. The (1-a) input
    weight makes the DC gain exactly 1 at any chi*dt. A series averaged in
    consecutive pieces, each started at its predecessor's last average, is
    the one-call average, bit for bit. A given ``start`` is a finite real.
    """
    chi, dt = _check_rate(chi, dt)
    if start is not None:
        start = check_real("start", start)
    x = np.asarray(series, dtype=float)
    if x.size == 0:
        return x.copy()
    a = math.exp(-chi * dt)
    return _first_order([1.0 - a], a, x, a * (x[0] if start is None else start))


def anticausal_exponential_average(series, chi: float, dt: float,
                                   start: float | None = None) -> np.ndarray:
    """Mirror image of the causal average: weights future samples, from
    y[n] = ``start`` (None means x[-1], so that y[-1] = x[-1]).

    Defined as reverse -> causal -> reverse, which makes the identity
    ``anticausal(x, start) == reverse(causal(reverse(x), start))`` hold
    bit-exactly, pieces started at the next piece's first average included.
    """
    x = np.asarray(series, dtype=float)
    return causal_exponential_average(x[::-1], chi, dt, start)[::-1]


def apply_estimators(series, params: EstimatorParams, grid: SimGrid, start: float | None = None,
                     end: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The (forward, backward) averages of one input series, at rates chi_minus
    and chi_plus. The smoothed estimate is w_minus*forward + w_plus*backward.

    For one block of a longer series: ``start`` is the forward average at the
    sample before the block and ``end`` the backward average at the sample
    after it, finite reals; None starts each from the block's own first or
    last sample. The backward average is linear in ``end``.
    """
    if end is not None:
        end = check_real("end", end)
    return (causal_exponential_average(series, params.chi_minus, grid.dt, start),
            anticausal_exponential_average(series, params.chi_plus, grid.dt, end))


def retained_window(grid: SimGrid, edge_discard: float) -> tuple[int, int]:
    """Index window [i0, i1) after dropping warmup and the edge spans."""
    edge_discard = check_real("edge_discard", edge_discard, at_least=0.0)
    span = grid.duration - grid.warmup
    if 2.0 * edge_discard >= span:
        raise ConfigurationError(
            f"edge discard 2*{edge_discard:.3g} s leaves no data in a {span:.3g} s window"
        )
    i0 = int(round((grid.warmup + edge_discard) / grid.dt))
    i1 = grid.n_steps - int(round(edge_discard / grid.dt))
    if i1 - i0 < 2:
        raise ParameterError("retained window is empty")
    return i0, i1


def empirical_mse(
    estimate,
    truth,
    grid: SimGrid,
    edge_discard: float,
    batch_time: float | None = None,
) -> MseStats:
    """Mean-square deviation over the retained window, with batch-means errors.

    The standard error comes from batch means so that autocorrelation of the
    deviation (timescales 1/chi and 1/lam for these estimators) is accounted
    for; pass ``batch_time`` of at least 10 correlation times. The default
    splits the retained window into 30 batches. Fewer than 10 batches raises
    StatisticsError.
    """
    e = np.asarray(estimate, dtype=float)
    t = np.asarray(truth, dtype=float)
    if e.shape != t.shape:
        raise ParameterError("estimate and truth must have equal length")
    if len(e) != grid.n_steps:
        raise ParameterError("series length must equal grid.n_steps")

    i0, i1 = retained_window(grid, edge_discard)
    sq = np.square(e[i0:i1] - t[i0:i1])
    mse = float(sq.mean())

    span = len(sq) * grid.dt
    if batch_time is None:
        batch_time = span / 30.0
    batch_time = check_real("batch_time", batch_time, above=0.0)
    n_batches = int(span / batch_time)
    if n_batches < 10:
        raise StatisticsError(
            f"only {n_batches} batches of {batch_time:.3g} s fit in {span:.3g} s; "
            "need >= 10 (run too short)"
        )
    batch_len = len(sq) // n_batches
    means = sq[: n_batches * batch_len].reshape(n_batches, batch_len).mean(axis=1)
    std_error = float(means.std(ddof=1) / math.sqrt(n_batches))
    return MseStats(mse=mse, std_error=std_error, n_eff=n_batches)
