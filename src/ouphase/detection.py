"""Measurement layer: feedback homodyne and dual homodyne detection.

Both detectors turn a true-phase trajectory into a per-sample instantaneous
phase estimate theta (the feedback loop also records its photocurrent and
running estimate). That estimate is an extremely noisy white series (its
per-sample variance diverges as 1/dt); the estimators module averages it into
useful estimates.

In the linearized model that estimate is ``linearized_theta`` for both
detectors: it does not depend on the feedback loop, only on the flux.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter

from .errors import ConfigurationError, ParameterError, check_real, check_real_fields
from .stochastic import NoiseStream, ProcessParams, SimGrid, wiener_increments

__all__ = [
    "FeedbackParams",
    "Trajectory",
    "run_adaptive_loop",
    "run_dual_homodyne",
    "linearized_theta",
]


@dataclass(frozen=True)
class FeedbackParams:
    """Feedback loop constants: gain ``beta`` and low-pass cutoff ``omega0``
    (both 1/s). The loop starts from the estimate 0.

    The loop operates in the regime omega0 << beta; omega0 >= beta is
    rejected. ``beta*dt < 0.5`` is checked when a run starts.
    """

    beta: float
    omega0: float = 0.0

    def __post_init__(self):
        check_real_fields(self, "beta", above=0.0)
        check_real_fields(self, "omega0")
        if not 0 <= self.omega0 < self.beta:
            raise ParameterError("omega0 must satisfy 0 <= omega0 < beta")


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


def linearized_theta(phi, dW, flux: float, dt: float) -> np.ndarray:
    """Instantaneous estimate of a linearized detector of effective flux N',
    ``theta[k] = phi[k] + dW[k] / (dt * 2*sqrt(N'))`` for equal-length arrays
    phi and dW (the Wiener increments).

    It is ``phihat + I/(2*sqrt(N'))`` with ``I = 2*sqrt(N')*(phi - phihat) + dW/dt``
    for any phihat: the loop estimate cancels. Adaptive detection (N' = N)
    and dual homodyne (N' = N/2, second arm's noise) differ only in N'.
    """
    root = 2.0 * math.sqrt(check_real("flux", flux, above=0.0))
    theta = dW / (check_real("dt", dt, above=0.0) * root)
    theta += phi
    return theta


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

    theta is computed from that defining identity, so
    ``theta == phihat + current/(2*sqrt(N))`` holds bit-exactly on the
    returned Trajectory. With omega0 = 0 the loop is a pure integrator.

    This is the detector's physical model; ensembles run it only for
    ``source="phihat"``, since phihat cancels from theta (``linearized_theta``).
    """
    phi = _check_phi(phi, grid)
    n, dt = grid.n_steps, grid.dt
    if fb.beta * dt >= 0.5:
        raise ConfigurationError(
            f"feedback loop unstable: beta*dt = {fb.beta * dt:.3g} >= 0.5"
        )
    root = 2.0 * math.sqrt(params.flux)

    dW = wiener_increments(meas_stream, n, dt)

    # phihat[k+1] = a*phihat[k] + u[k]  with  a = 1 - (omega0+beta)*dt
    a = 1.0 - (fb.omega0 + fb.beta) * dt
    u = (fb.beta * dt) * phi + (fb.beta / root) * dW
    phihat = np.zeros(n)
    phihat[1:] = lfilter([1.0], [1.0, -a], u[:-1])

    current = root * (phi - phihat) + dW / dt
    theta = phihat + current / root
    return Trajectory(grid=grid, phi=phi, current=current, phihat=phihat, theta=theta)


def run_dual_homodyne(
    phi,
    params: ProcessParams,
    grid: SimGrid,
    streams: tuple[NoiseStream, NoiseStream],
) -> np.ndarray:
    """Static dual-quadrature run with full trigonometric demodulation; the
    beam is split so each arm sees flux N/2. Returns theta:

        I+[k] = 2*sqrt(N/2)*cos(phi[k]) + dW1[k]/dt
        I-[k] = 2*sqrt(N/2)*sin(phi[k]) + dW2[k]/dt
        theta[k] = arg(I+[k] + i*I-[k])   wrapped to (-pi, pi]

    No phase unwrapping is performed; at the rms phase amplitudes of
    interest (~0.36 rad) wrapping events are rare but would contaminate
    variance statistics. The small-angle (linearized) dual detector is
    ``linearized_theta`` at N/2 with the second arm's noise, which is what
    ensembles run unless ``dual_mode="arg"``.
    """
    phi = _check_phi(phi, grid)
    s1, s2 = streams
    if (s1.master_seed, s1.trial_index, s1.role) == (s2.master_seed, s2.trial_index, s2.role):
        raise ParameterError("dual homodyne requires two independent measurement streams")

    n, dt = grid.n_steps, grid.dt
    amp = 2.0 * math.sqrt(params.flux / 2.0)
    plus = amp * np.cos(phi) + wiener_increments(s1, n, dt) / dt
    minus = amp * np.sin(phi) + wiener_increments(s2, n, dt) / dt
    theta = np.arctan2(minus, plus)
    theta[theta == -np.pi] = np.pi
    return theta
