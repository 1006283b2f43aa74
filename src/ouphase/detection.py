"""Measurement layer: feedback homodyne and dual homodyne detection.

Both detectors turn a true-phase trajectory into a per-sample instantaneous
phase estimate theta (the feedback loop also records its photocurrent and
running estimate). That estimate is an extremely noisy white series (its
per-sample variance diverges as 1/dt); the estimators module averages it into
useful estimates.

In the linearized model that estimate is ``linearized_theta`` for both
detectors: it does not depend on the feedback loop, only on the flux. The
loop's own estimate phihat is a low-pass filter of it (``feedback_estimate``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ParameterError, check_real, check_real_fields
from .stochastic import NoiseStream, ProcessParams, SimGrid, _first_order, wiener_increments

__all__ = [
    "FeedbackParams",
    "Trajectory",
    "run_adaptive_loop",
    "run_dual_homodyne",
    "arg_theta",
    "linearized_theta",
    "feedback_estimate",
]


@dataclass(frozen=True)
class FeedbackParams:
    """Feedback loop constants: gain ``beta`` and low-pass cutoff ``omega0``
    (both 1/s). The loop starts from the estimate 0.

    The loop operates in the regime omega0 << beta; omega0 >= beta is
    rejected. The sampled loop also needs ``beta*dt < 0.5`` (``check_step``),
    which an ExperimentConfig checks when it is built.
    """

    beta: float
    omega0: float = 0.0

    def __post_init__(self):
        check_real_fields(self, "beta", above=0.0)
        check_real_fields(self, "omega0")
        if not 0 <= self.omega0 < self.beta:
            raise ParameterError("omega0 must satisfy 0 <= omega0 < beta")

    def check_step(self, dt: float) -> None:
        """ConfigurationError unless the loop is stable at step dt: beta*dt < 0.5."""
        if self.beta * dt >= 0.5:
            raise ConfigurationError(f"feedback loop unstable: beta*dt = {self.beta * dt:.3g} >= 0.5")


@dataclass(frozen=True)
class Trajectory:
    """Time-aligned record of one feedback-loop run.

    phi     : true phase [rad]
    current : demodulated photocurrent samples
    phihat  : running feedback estimate [rad]
    theta   : instantaneous per-sample phase estimate [rad]
    """

    grid: SimGrid
    phi: np.ndarray
    current: np.ndarray
    phihat: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        if any(len(a) != self.grid.n_steps for a in (self.phi, self.current, self.phihat, self.theta)):
            raise ParameterError("trajectory arrays must all have grid.n_steps samples")


def _check_phi(phi, grid: SimGrid) -> np.ndarray:
    phi = np.asarray(phi, dtype=float)
    if phi.ndim != 1 or len(phi) != grid.n_steps:
        raise ParameterError(f"phi must be a 1-d array of length {grid.n_steps}")
    return phi


def _check_lengths(phi, **increments) -> None:
    """ParameterError unless each of ``increments`` has phi's shape."""
    for name, dW in increments.items():
        if np.shape(dW) != np.shape(phi):
            raise ParameterError(f"{name} must have phi's length: {name} has {np.size(dW)} "
                                 f"samples, phi {np.size(phi)}")


def linearized_theta(phi, dW, flux: float, dt: float) -> np.ndarray:
    """Instantaneous estimate of a linearized detector of effective flux N',
    ``theta[k] = phi[k] + dW[k] / (dt * 2*sqrt(N'))`` for equal-length arrays
    phi and dW (the Wiener increments).

    It is ``phihat + I/(2*sqrt(N'))`` with ``I = 2*sqrt(N')*(phi - phihat) + dW/dt``
    for any phihat: the loop estimate cancels. Adaptive detection (N' = N)
    and dual homodyne (N' = N/2, second arm's noise) differ only in N'.
    """
    _check_lengths(phi, dW=dW)
    root = 2.0 * math.sqrt(check_real("flux", flux, above=0.0))
    theta = dW / (check_real("dt", dt, above=0.0) * root)
    theta += phi
    return theta


def feedback_estimate(theta, fb: FeedbackParams, dt: float, start: float = 0.0) -> np.ndarray:
    """The loop's running estimate phihat from phihat[0] = ``start``. With
    I[k]/(2*sqrt(N)) = theta[k] - phihat[k], the loop update is a low-pass filter:

        phihat[k+1] = (1 - (omega0+beta)*dt) * phihat[k] + beta*dt * theta[k]

    A loop started at the first sample starts from 0. To continue a run whose
    phihat is known up to sample k, pass theta from sample k on and that
    run's phihat[k]: the result is the one-call phihat from k on, bit for bit.
    ``start`` is a finite real.
    """
    fb.check_step(dt)
    a = 1.0 - (fb.omega0 + fb.beta) * dt
    return _first_order([0.0, fb.beta * dt], a, theta, check_real("start", start))


def run_adaptive_loop(
    phi,
    params: ProcessParams,
    fb: FeedbackParams,
    grid: SimGrid,
    meas_stream: NoiseStream,
) -> Trajectory:
    """Closed-loop homodyne run over a given true-phase trajectory.

    Per step k (linearized photocurrent, explicit first-order loop update
    from phihat[0] = 0):

        I[k]        = 2*sqrt(N) * (phi[k] - phihat[k]) + dW[k]/dt
        theta[k]    = phihat[k] + I[k] / (2*sqrt(N))
        phihat[k+1] = phihat[k] + dt * (-omega0*phihat[k] + beta*I[k]/(2*sqrt(N)))

    phihat is ``feedback_estimate`` of ``linearized_theta``, and theta is
    computed from its defining identity, so
    ``theta == phihat + current/(2*sqrt(N))`` holds bit-exactly on the
    returned Trajectory. With omega0 = 0 the loop is a pure integrator.
    """
    phi = _check_phi(phi, grid)
    dW = wiener_increments(meas_stream, grid.n_steps, grid.dt)
    phihat = feedback_estimate(linearized_theta(phi, dW, params.flux, grid.dt), fb, grid.dt)
    root = 2.0 * math.sqrt(params.flux)
    current = root * (phi - phihat) + dW / grid.dt
    theta = phihat + current / root
    return Trajectory(grid=grid, phi=phi, current=current, phihat=phihat, theta=theta)


def arg_theta(phi, dW1, dW2, flux: float, dt: float) -> np.ndarray:
    """Instantaneous estimate of a dual detector whose arms each see flux N',
    with full trigonometric demodulation, for equal-length arrays phi, dW1
    and dW2 (the arms' Wiener increments):

        I+[k] = 2*sqrt(N')*cos(phi[k]) + dW1[k]/dt
        I-[k] = 2*sqrt(N')*sin(phi[k]) + dW2[k]/dt
        theta[k] = arg(I+[k] + i*I-[k])   wrapped to (-pi, pi]

    No phase unwrapping is performed; at the rms phase amplitudes of
    interest (~0.36 rad) wrapping events are rare but would contaminate
    variance statistics. Its small-angle form is ``linearized_theta`` at N'
    with the second arm's noise; trials of ``dual_mode="arg"`` run this one.
    """
    _check_lengths(phi, dW1=dW1, dW2=dW2)
    amp = 2.0 * math.sqrt(check_real("flux", flux, above=0.0))
    dt = check_real("dt", dt, above=0.0)
    plus = amp * np.cos(phi) + dW1 / dt
    minus = amp * np.sin(phi) + dW2 / dt
    theta = np.arctan2(minus, plus)
    theta[theta == -np.pi] = np.pi
    return theta


def run_dual_homodyne(
    phi,
    params: ProcessParams,
    grid: SimGrid,
    streams: tuple[NoiseStream, NoiseStream],
) -> np.ndarray:
    """Static dual-quadrature run over a given true-phase trajectory: the
    beam is split so each arm sees flux N/2, each arm draws its increments
    from its own stream, and theta is their ``arg_theta`` at N/2.
    """
    phi = _check_phi(phi, grid)
    s1, s2 = streams
    if s1 == s2:
        raise ParameterError("dual homodyne requires two independent measurement streams")
    n, dt = grid.n_steps, grid.dt
    return arg_theta(phi, wiener_increments(s1, n, dt), wiener_increments(s2, n, dt),
                     params.flux / 2.0, dt)
