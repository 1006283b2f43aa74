"""Independent oracles for the test suite.

Two families, both derived without reusing the package's formulas:

* spectral quadrature of the continuous-time transfer functions, used to
  verify the closed-form variance expressions in ouphase.analytics;
* exact closed forms for the discretely sampled model (AR(1) signal plus
  white measurement noise through the pinned averaging recursions), used to
  predict Monte Carlo means at finite dt, including their discretization
  offset from the continuous formulas;
* the errors of the optimal linear estimators of the continuous model
  (Kalman-Bucy filter, Wiener smoother), lower bounds for any averaging rate.
"""

import math

from scipy.integrate import quad

# shared parameter sets (adaptive and dual-homodyne calibrations, plus the
# near-pure-diffusion point used for the headline-ratio runs)
AP = dict(kappa=1.5868e4, lam=6.1451e4, flux=1.3499e6)
DH = dict(kappa=1.6218e4, lam=6.4593e4, flux=1.3235e6)
PURE_DIFF = dict(kappa=1.6e4, lam=1e2, flux=1.35e6)
CHI_OP = 2.92714e5


def _quad_inf(f, scale):
    # split at the natural corner frequency, map the tail through u = 1/w
    head = quad(f, 0.0, 10.0 * scale, limit=800)[0]
    tail = quad(lambda u: f(1.0 / u) / u**2, 1e-18, 1.0 / (10.0 * scale), limit=800)[0]
    return head + tail


def quad_filtered_mse(kappa, lam, flux, chi):
    """Causal-estimator MSE by direct integration of the error spectrum."""
    s_phi = lambda w: kappa / (lam * lam + w * w)
    s_noise = 1.0 / (4.0 * flux)
    sig = _quad_inf(lambda w: (w * w / (chi * chi + w * w)) * s_phi(w), chi) / math.pi
    noi = _quad_inf(lambda w: (chi * chi / (chi * chi + w * w)) * s_noise, chi) / math.pi
    return sig + noi


def quad_correlation(kappa, lam, chi_minus, chi_plus):
    """Forward/backward error cross-covariance by direct integration."""
    s_phi = lambda w: kappa / (lam * lam + w * w)

    def integrand(w):
        h_minus = chi_minus / (chi_minus + 1j * w)
        h_plus_conj = chi_plus / (chi_plus + 1j * w)
        return ((h_minus - 1.0) * (h_plus_conj - 1.0)).real * s_phi(w)

    return _quad_inf(integrand, max(chi_minus, chi_plus)) / math.pi


def quad_smoothed_mse(kappa, lam, flux, chi):
    """Symmetric-combination MSE by direct integration."""
    s_phi = lambda w: kappa / (lam * lam + w * w)
    s_noise = 1.0 / (4.0 * flux)

    def sig(w):
        h = chi * chi / (chi * chi + w * w)
        return (h - 1.0) ** 2 * s_phi(w)

    def noi(w):
        h_m = chi / (chi + 1j * w)
        h_p = chi / (chi - 1j * w)
        return abs(0.5 * (h_m + h_p)) ** 2 * s_noise

    return _quad_inf(sig, chi) / math.pi + _quad_inf(noi, chi) / math.pi


def discrete_filtered_mse(kappa, lam, flux, chi, dt):
    """Expected MSE of the discrete causal recursion on sampled data.

    The sampled signal is AR(1) with coefficient rho = exp(-lam*dt) and the
    per-sample measurement noise variance is 1/(4*flux*dt); the recursion
    weights are (1-a) a^j with a = exp(-chi*dt). Everything reduces to
    geometric sums evaluated here in closed form.
    """
    s = kappa / (2.0 * lam)
    rho = math.exp(-lam * dt)
    a = math.exp(-chi * dt)
    var_w = 1.0 / (4.0 * flux * dt)
    sig = s * ((1 - a) * (1 + a * rho) / ((1 + a) * (1 - a * rho)) - 2 * (1 - a) / (1 - a * rho) + 1)
    return sig + var_w * (1 - a) / (1 + a)


def discrete_kalman(kappa, lam, flux, dt):
    """Gain K and error P of the steady-state Kalman filter of the sampled
    model, x[k] = (1 - K)*rho*x[k-1] + K*y[k]: the phase is AR(1) with
    rho = exp(-lam*dt) and innovation variance q = s*(1 - rho^2), s =
    kappa/(2*lam), and y[k] is the phase plus white noise of variance r =
    1/(4*flux*dt). The prior error M solves the discrete Riccati equation
    M = rho^2*M*r/(M + r) + q, that is M^2 + (r*(1 - rho^2) - q)*M - q*r = 0;
    K = M/(M + r) and P = (1 - K)*M."""
    one_minus_rho2 = -math.expm1(-2.0 * lam * dt)
    q = kappa / (2.0 * lam) * one_minus_rho2
    r = 1.0 / (4.0 * flux * dt)
    b = r * one_minus_rho2 - q
    prior = 2.0 * q * r / (b + math.sqrt(b * b + 4.0 * q * r))  # the positive root
    gain = prior / (prior + r)
    return gain, (1.0 - gain) * prior


def discrete_combined_mse(kappa, lam, flux, chi_minus, chi_plus, w_minus, w_plus, dt):
    """Expected MSE of the discrete affine combination, including the shared
    current-sample noise term that both branches pick up at lag zero."""
    s = kappa / (2.0 * lam)
    rho = math.exp(-lam * dt)
    am = math.exp(-chi_minus * dt)
    ap = math.exp(-chi_plus * dt)
    var_w = 1.0 / (4.0 * flux * dt)

    def branch(a):
        sig = s * ((1 - a) * (1 + a * rho) / ((1 + a) * (1 - a * rho))
                   - 2 * (1 - a) / (1 - a * rho) + 1)
        return sig + var_w * (1 - a) / (1 + a)

    cross_signal = s * ((1 - am) / (1 - am * rho) - 1.0) * ((1 - ap) / (1 - ap * rho) - 1.0)
    cross_noise = (1 - am) * (1 - ap) * var_w
    return (w_minus**2 * branch(am) + w_plus**2 * branch(ap)
            + 2 * w_minus * w_plus * (cross_signal + cross_noise))


def discrete_dual_filtered_mse(kappa, lam, flux, chi, dt):
    """Dual-homodyne variant: per-sample noise variance 1/(2*flux*dt)."""
    return discrete_filtered_mse(kappa, lam, flux / 2.0, chi, dt)


def kalman_bucy_mse(kappa, lam, flux):
    """Stationary error of the optimal causal estimator, (gamma - lam)/(4*N)
    with gamma = sqrt(lam^2 + 4*kappa*N): the positive root of the Riccati
    equation 0 = kappa - 2*lam*P - 4*N*P^2 for measurement noise density 1/(4*N)."""
    return (math.sqrt(lam * lam + 4.0 * kappa * flux) - lam) / (4.0 * flux)


def wiener_smoother_mse(kappa, lam, flux):
    """Error of the optimal non-causal estimator, kappa/(2*gamma): the
    integral of S_phi*R/(S_phi + R) over frequency, R = 1/(4*N)."""
    return kappa / (2.0 * math.sqrt(lam * lam + 4.0 * kappa * flux))
