"""Closed-form error theory for the exponential-kernel phase estimators.

Every mean-square error, correlation, optimum and limit used to judge the
Monte Carlo results. All formulas assume the ideal shot-noise-limited
detector; the dual-homodyne scheme is the same algebra with the flux halved
(each arm of the split beam carries N/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterError, check_real
from .estimators import EstimatorParams
from .stochastic import ProcessParams

__all__ = [
    "SCHEMES",
    "OptimalChi",
    "ImprovementRatios",
    "effective_flux",
    "limit_chi",
    "filtered_mse",
    "forward_backward_correlation",
    "combined_mse",
    "smoothed_mse",
    "analytic_mse",
    "optimal_chi",
    "optimal_rate",
    "sql_mse",
    "optimal_beta",
    "xi",
    "improvement_ratios",
]

SCHEMES = ("adaptive", "dual_homodyne")


def effective_flux(params: ProcessParams, scheme: str) -> float:
    """Flux entering the error formulas: N for adaptive, N/2 (> 0) for dual homodyne."""
    if scheme not in SCHEMES:
        raise ParameterError(f"unknown scheme: {scheme!r}")
    if scheme == "adaptive":
        return params.flux
    return check_real("the dual homodyne flux/2", params.flux / 2.0, above=0.0)


def limit_chi(params: ProcessParams, scheme: str) -> float:
    """Limit-form (xi << 1) optimal averaging rate 2*sqrt(kappa*N'), the scale
    of the averaging rates."""
    return 2.0 * math.sqrt(params.kappa * effective_flux(params, scheme))


def _finite(name: str, value: float) -> float:
    """``value``, unless it is not finite: then ParameterError."""
    if not math.isfinite(value):
        raise ParameterError(f"{name} is not finite at these parameters")
    return value


def filtered_mse(params: ProcessParams, chi: float, scheme: str = "adaptive") -> float:
    """Stationary MSE of the causal (or anticausal) estimator:
    kappa/(2*(chi+lam)) + chi/(8*N')."""
    chi = check_real("chi", chi, above=0.0)
    n_eff = effective_flux(params, scheme)
    return _finite("filtered MSE", params.kappa / (2.0 * (chi + params.lam)) + chi / (8.0 * n_eff))


def forward_backward_correlation(
    params: ProcessParams, chi_minus: float, chi_plus: float
) -> float:
    """Error cross-covariance of the forward and backward estimators:
    kappa*lam/(2*(chi_minus+lam)*(chi_plus+lam)). Pure signal term, so it is
    scheme independent and vanishes for pure diffusion."""
    chi_minus = check_real("chi_minus", chi_minus, above=0.0)
    chi_plus = check_real("chi_plus", chi_plus, above=0.0)
    return _finite("forward-backward correlation", params.kappa * params.lam / (
        2.0 * (chi_minus + params.lam) * (chi_plus + params.lam)
    ))


def combined_mse(params: ProcessParams, estimator: EstimatorParams,
                 scheme: str = "adaptive") -> float:
    """MSE of w-*forward + w+*backward at the rates and weights of ``estimator``:
    ``EstimatorParams.combine`` of the two filtered MSEs and their covariance."""
    cm, cp = estimator.chi_minus, estimator.chi_plus
    return estimator.combine(filtered_mse(params, cm, scheme), filtered_mse(params, cp, scheme),
                             forward_backward_correlation(params, cm, cp))


def smoothed_mse(params: ProcessParams, chi: float, scheme: str = "adaptive") -> float:
    """MSE at the symmetric optimum (equal rates, weights 1/2):
    kappa*(chi+2*lam)/(4*(chi+lam)^2) + chi/(16*N')."""
    chi = check_real("chi", chi, above=0.0)
    n_eff = effective_flux(params, scheme)
    try:
        mse = params.kappa * (chi + 2.0 * params.lam) / (4.0 * (chi + params.lam) ** 2) + chi / (
            16.0 * n_eff
        )
    except OverflowError:  # (chi + lam)**2 beyond the float range
        mse = math.inf
    return _finite("smoothed MSE", mse)


def analytic_mse(config, mode: str) -> float:
    """Closed-form MSE of condition ``mode`` ("filtered" at chi_minus, "backward"
    at chi_plus, or "smoothed") of an ``ExperimentConfig``'s estimator. Every
    source gets the theta forms; those of ``source="phihat"`` are not derived yet."""
    p, e, scheme = config.params, config.estimator, config.scheme
    if mode == "filtered":
        return filtered_mse(p, e.chi_minus, scheme)
    if mode == "backward":
        return filtered_mse(p, e.chi_plus, scheme)
    if mode == "smoothed":
        return combined_mse(p, e, scheme)
    raise ParameterError(f"unknown condition mode: {mode!r}")


@dataclass(frozen=True)
class OptimalChi:
    """Minimizing averaging rate and its MSE; ``at_boundary`` flags the
    degenerate case where the stationary point falls at chi <= 0 and the
    infimum is approached as chi -> 0."""

    chi_star: float
    mse_star: float
    at_boundary: bool = False


def optimal_chi(params: ProcessParams, mode: str, scheme: str = "adaptive") -> OptimalChi:
    """Exact minimizer of the filtered or smoothed MSE over chi, in closed form.

    filtered: the stationary point is chi* = 2*sqrt(kappa*N') - lam. smoothed:
    u = chi* + lam solves u^3 - a*u - 2*a*lam = 0 with a = 4*kappa*N', whose one
    positive root (Descartes) is taken in trigonometric or hyperbolic form.
    ParameterError if the optimum's MSE is not finite.
    """
    chi_star = optimal_rate(params, mode, scheme)
    if chi_star == 0.0:  # the MSE already rises at chi -> 0: no interior minimum
        mse_star = _finite("boundary MSE", params.kappa / (2.0 * params.lam))
        return OptimalChi(chi_star=0.0, mse_star=mse_star, at_boundary=True)
    mse = filtered_mse if mode == "filtered" else smoothed_mse
    return OptimalChi(chi_star=chi_star, mse_star=mse(params, chi_star, scheme))


def optimal_rate(params: ProcessParams, mode: str, scheme: str = "adaptive") -> float:
    """``optimal_chi``'s chi*, without its MSE; 0 where there is no interior minimum."""
    n_eff = effective_flux(params, scheme)
    k, lam = params.kappa, params.lam
    if mode == "filtered":
        chi_star = limit_chi(params, scheme) - lam
    elif mode == "smoothed":
        s = math.sqrt(4.0 * k * n_eff / 3.0)
        arg = 3.0 * lam / s
        root = math.cos(math.acos(arg) / 3.0) if arg <= 1.0 else math.cosh(math.acosh(arg) / 3.0)
        chi_star = 2.0 * s * root - lam  # <= 0 iff lam^2 >= 12*kappa*N'
    else:
        raise ParameterError(f"unknown optimization mode: {mode!r}")
    return max(chi_star, 0.0)


def sql_mse(params: ProcessParams) -> float:
    """Standard quantum limit: ideal non-adaptive filtering in the small-xi
    limit, sqrt(kappa/(N/2))/2."""
    return math.sqrt(params.kappa / effective_flux(params, "dual_homodyne")) / 2.0


def optimal_beta(chi: float, flux: float) -> float:
    """Feedback gain minimizing the filtered error at averaging rate chi:
    sqrt(8*chi*N)."""
    chi, flux = check_real("chi", chi, above=0.0), check_real("flux", flux, above=0.0)
    return math.sqrt(8.0 * chi * flux)


def xi(params: ProcessParams) -> float:
    """Dimensionless regime parameter lam/(2*sqrt(kappa*N)); the limit-form
    optima hold for xi << 1."""
    chi = limit_chi(params, "adaptive")
    if chi == 0.0:  # kappa*N underflows
        raise ParameterError("xi is not finite at these parameters")
    return params.lam / chi


@dataclass(frozen=True)
class ImprovementRatios:
    """Headline gains of the scheme comparison.

    smoothing_gain   : filtered/smoothed MSE ratio at chi = 2*sqrt(kappa*N)
    adaptive_gain    : limit-form optimal dual/adaptive MSE ratio (= sqrt(2))
    total_gain_limit : SQL over the limit-form smoothed adaptive optimum (= 2*sqrt(2))
    total_gain_exact : SQL over the exact smoothed adaptive optimum
    """

    smoothing_gain: float
    adaptive_gain: float
    total_gain_limit: float
    total_gain_exact: float


def improvement_ratios(params: ProcessParams) -> ImprovementRatios:
    chi_lim = limit_chi(params, "adaptive")
    smoothing = filtered_mse(params, chi_lim) / smoothed_mse(params, chi_lim)
    limit_adaptive = math.sqrt(params.kappa / params.flux) / 2.0
    if limit_adaptive == 0.0:  # kappa/N underflows: the SQL over it is 0/0
        raise ParameterError("limit-form gains are not finite at these parameters")
    adaptive = sql_mse(params) / limit_adaptive  # the SQL is the limit-form dual optimum
    total_limit = sql_mse(params) / (math.sqrt(params.kappa / params.flux) / 4.0)
    exact_best = optimal_chi(params, "smoothed", "adaptive")
    total_exact = sql_mse(params) / exact_best.mse_star
    return ImprovementRatios(
        smoothing_gain=smoothing,
        adaptive_gain=adaptive,
        total_gain_limit=total_limit,
        total_gain_exact=total_exact,
    )
