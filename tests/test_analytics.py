import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ouphase import analytics
from ouphase import (
    EstimatorParams,
    ParameterError,
    ProcessParams,
    combined_mse,
    filtered_mse,
    forward_backward_correlation,
    improvement_ratios,
    optimal_beta,
    optimal_chi,
    smoothed_mse,
    sql_mse,
    xi,
)

from oracles import (
    CHI_OP,
    kalman_bucy_mse,
    quad_correlation,
    quad_filtered_mse,
    quad_smoothed_mse,
    wiener_smoother_mse,
)


def ulps_apart(a, b):
    return abs(a - b) / math.ulp(max(abs(a), abs(b)))


class TestFrozenValues:
    """Pinned evaluations at the headline parameter points."""

    def test_adaptive_point(self, ap_params):
        assert filtered_mse(ap_params, CHI_OP) == pytest.approx(0.04950714371153696, rel=1e-12)
        assert smoothed_mse(ap_params, CHI_OP) == pytest.approx(0.02669705095548721, rel=1e-12)
        assert forward_backward_correlation(ap_params, CHI_OP, CHI_OP) == pytest.approx(
            0.00388695819943746, rel=1e-12)
        assert sql_mse(ap_params) == pytest.approx(0.0766646750815743, rel=1e-12)
        assert xi(ap_params) == pytest.approx(0.20993607068505066, rel=1e-12)
        assert optimal_beta(CHI_OP, ap_params.flux) == pytest.approx(1777941.795672738, rel=1e-12)

    def test_dual_point(self, ap_params, dh_params):
        assert filtered_mse(ap_params, CHI_OP, "dual_homodyne") == pytest.approx(
            0.07661229964901381, rel=1e-12)
        assert sql_mse(dh_params) == pytest.approx(0.0782747478701577, rel=1e-12)
        assert xi(dh_params) == pytest.approx(0.22044225204782714, rel=1e-12)

    def test_asymmetric_combination(self, ap_params):
        estimator = EstimatorParams(2e5, 4e5, w_minus=0.3, w_plus=0.7)
        assert combined_mse(ap_params, estimator) == pytest.approx(0.03266956936834452, rel=1e-12)


class TestQuadratureOracle:
    """The closed forms equal direct integrals of the error spectra."""

    def test_filtered(self, ap_params):
        target = quad_filtered_mse(ap_params.kappa, ap_params.lam, ap_params.flux, CHI_OP)
        assert filtered_mse(ap_params, CHI_OP) == pytest.approx(target, rel=1e-7)

    def test_filtered_dual(self, ap_params):
        target = quad_filtered_mse(ap_params.kappa, ap_params.lam, ap_params.flux / 2, CHI_OP)
        assert filtered_mse(ap_params, CHI_OP, "dual_homodyne") == pytest.approx(target, rel=1e-7)

    def test_correlation(self, ap_params):
        target = quad_correlation(ap_params.kappa, ap_params.lam, 2e5, 4e5)
        assert forward_backward_correlation(ap_params, 2e5, 4e5) == pytest.approx(target, rel=1e-7)

    def test_smoothed(self, ap_params):
        target = quad_smoothed_mse(ap_params.kappa, ap_params.lam, ap_params.flux, CHI_OP)
        assert smoothed_mse(ap_params, CHI_OP) == pytest.approx(target, rel=1e-7)


params_strategy = st.builds(
    ProcessParams,
    kappa=st.floats(1e3, 1e5),
    lam=st.one_of(st.just(0.0), st.floats(0.0, 1e5)),
    flux=st.floats(1e5, 1e8),
)
chi_strategy = st.floats(1e4, 1e7)


class TestCombination:
    def test_degenerate_weights_recover_filtered_exactly(self, ap_params):
        estimator = EstimatorParams(2e5, 4e5, w_minus=1.0, w_plus=0.0)
        assert combined_mse(ap_params, estimator) == filtered_mse(ap_params, 2e5)

    @settings(max_examples=200, deadline=None)
    @given(params=params_strategy, chi=chi_strategy)
    def test_symmetric_combination_equals_smoothed(self, params, chi):
        combined = combined_mse(params, EstimatorParams(chi, chi))
        assert ulps_apart(combined, smoothed_mse(params, chi)) <= 4

    @settings(max_examples=200, deadline=None)
    @given(params=params_strategy, chi=chi_strategy)
    def test_smoothing_strictly_beats_filtering(self, params, chi):
        assert smoothed_mse(params, chi) < filtered_mse(params, chi)

    def test_correlation_symmetric_in_rates(self, ap_params):
        assert forward_backward_correlation(ap_params, 2e5, 4e5) == \
            forward_backward_correlation(ap_params, 4e5, 2e5)

    def test_correlation_vanishes_for_pure_diffusion(self):
        params = ProcessParams(kappa=1e4, lam=0.0, flux=1e6)
        assert forward_backward_correlation(params, 2e5, 4e5) == 0.0


class TestLimits:
    def test_filtered_noise_floor(self):
        # kappa -> 0: only the measurement term survives
        params = ProcessParams(kappa=1e-9, lam=6e4, flux=1.3499e6)
        assert filtered_mse(params, CHI_OP) == pytest.approx(CHI_OP / (8 * params.flux), rel=1e-4)

    def test_filtered_infinite_flux(self, ap_params):
        params = replace(ap_params, flux=1e18)
        assert filtered_mse(params, CHI_OP) == pytest.approx(
            ap_params.kappa / (2 * (CHI_OP + ap_params.lam)), rel=1e-6)

    def test_smoothed_infinite_flux(self, ap_params):
        params = replace(ap_params, flux=1e18)
        k, lam = ap_params.kappa, ap_params.lam
        assert smoothed_mse(params, CHI_OP) == pytest.approx(
            k * (CHI_OP + 2 * lam) / (4 * (CHI_OP + lam) ** 2), rel=1e-6)

    def test_pure_diffusion_smoothing_halves_filtering(self):
        params = ProcessParams(kappa=1.6e4, lam=0.0, flux=1.35e6)
        chi = 2 * math.sqrt(params.kappa * params.flux)
        assert smoothed_mse(params, chi) == pytest.approx(filtered_mse(params, chi) / 2, rel=1e-14)


class TestOptimalChi:
    def test_filtered_closed_form(self, ap_params):
        opt = optimal_chi(ap_params, "filtered")
        assert not opt.at_boundary
        assert opt.chi_star == pytest.approx(231261.91874462937, rel=1e-12)
        assert opt.mse_star == pytest.approx(0.04851978271439169, rel=1e-12)
        assert opt.mse_star == pytest.approx(
            math.sqrt(ap_params.kappa / ap_params.flux) / 2 - ap_params.lam / (8 * ap_params.flux),
            rel=1e-12)

    def test_filtered_golden_section_crosscheck(self, ap_params):
        from scipy.optimize import minimize_scalar
        res = minimize_scalar(lambda c: filtered_mse(ap_params, c),
                              bounds=(1e3, 3e6), method="bounded",
                              options={"xatol": 1e-3})
        opt = optimal_chi(ap_params, "filtered")
        assert opt.chi_star == pytest.approx(res.x, rel=1e-6)
        assert opt.mse_star == pytest.approx(res.fun, rel=1e-10)

    def test_filtered_pure_diffusion(self):
        params = ProcessParams(kappa=1.6e4, lam=0.0, flux=1.35e6)
        opt = optimal_chi(params, "filtered")
        assert opt.chi_star == pytest.approx(2 * math.sqrt(params.kappa * params.flux), rel=1e-14)
        assert opt.mse_star == pytest.approx(math.sqrt(params.kappa / params.flux) / 2, rel=1e-14)

    def test_smoothed_root_and_crosscheck(self, ap_params):
        from scipy.optimize import minimize_scalar
        opt = optimal_chi(ap_params, "smoothed")
        assert opt.chi_star == pytest.approx(279912.13364135736, rel=1e-9)
        # stationarity condition residual
        k, lam, n = ap_params.kappa, ap_params.lam, ap_params.flux
        residual = (opt.chi_star + lam) ** 3 - 4 * k * n * (opt.chi_star + 3 * lam)
        assert abs(residual) <= 1e-6 * (opt.chi_star + lam) ** 3
        res = minimize_scalar(lambda c: smoothed_mse(ap_params, c),
                              bounds=(1e3, 3e6), method="bounded",
                              options={"xatol": 1e-3})
        assert opt.chi_star == pytest.approx(res.x, rel=1e-6)

    def test_smoothed_pure_diffusion_limit(self):
        params = ProcessParams(kappa=1.6e4, lam=0.0, flux=1.35e6)
        opt = optimal_chi(params, "smoothed")
        assert opt.chi_star == pytest.approx(2 * math.sqrt(params.kappa * params.flux), rel=1e-9)
        assert opt.mse_star == pytest.approx(math.sqrt(params.kappa / params.flux) / 4, rel=1e-9)

    def test_boundary_flag_for_strong_reversion(self):
        # lam so large that averaging cannot beat the prior: chi* <= 0
        params = ProcessParams(kappa=1.0, lam=1e4, flux=1e4)
        for mode in ("filtered", "smoothed"):
            opt = optimal_chi(params, mode)
            assert opt.at_boundary
            assert opt.chi_star == 0.0
            assert opt.mse_star == pytest.approx(params.kappa / (2 * params.lam), rel=1e-12)

    @pytest.mark.parametrize("lam", [0.0, 1e4, 6.1451e4, 3e5])
    @pytest.mark.parametrize("scheme", ["adaptive", "dual_homodyne"])
    def test_smoothed_root_solves_the_cubic(self, lam, scheme):
        # u = chi* + lam solves u^3 - a*u - 2*a*lam = 0, a = 4*kappa*N'; the
        # points span the trigonometric (lam < 0.19 sqrt(a)) and hyperbolic forms
        params = ProcessParams(kappa=1.5868e4, lam=lam, flux=1.3499e6)
        opt = optimal_chi(params, "smoothed", scheme)
        assert not opt.at_boundary
        a = 4 * params.kappa * analytics.effective_flux(params, scheme)
        u = opt.chi_star + lam
        assert abs(u**3 - a * u - 2 * a * lam) <= 1e-13 * (u**3 + a * u + 2 * a * lam)

    @pytest.mark.parametrize("scheme", ["adaptive", "dual_homodyne"])
    def test_smoothed_boundary_at_lam_squared_twelve_kappa_n(self, scheme):
        kappa, flux = 1.0, 1e4
        n_eff = analytics.effective_flux(ProcessParams(kappa=kappa, lam=1.0, flux=flux), scheme)
        edge = math.sqrt(12 * kappa * n_eff)
        for factor, at_boundary in ((0.999, False), (1.001, True)):
            params = ProcessParams(kappa=kappa, lam=factor * edge, flux=flux)
            opt = optimal_chi(params, "smoothed", scheme)
            assert opt.at_boundary == at_boundary, factor
            assert (opt.chi_star > 0) != at_boundary

    @pytest.mark.parametrize("scheme", ["adaptive", "dual_homodyne"])
    def test_optimal_estimators_bound_the_optima(self, scheme):
        # no averaging rate beats the Kalman-Bucy filter (filtered) or the Wiener
        # smoother (smoothed); lam/sqrt(kappa*N) up to 100 puts boundary optima
        # on the grid, and at lam = 0 the exponential kernels are optimal
        bounds = {"filtered": kalman_bucy_mse, "smoothed": wiener_smoother_mse}
        rng = np.random.default_rng(20090)
        boundary = 0
        for kappa, flux, ratio in 10.0 ** rng.uniform([2, 3, -3], [6, 8, 2], size=(300, 3)):
            lam = ratio * math.sqrt(kappa * flux)
            for lam_k in (lam, 0.0):
                params = ProcessParams(kappa=kappa, lam=lam_k, flux=flux)
                n_eff = analytics.effective_flux(params, scheme)
                for mode, bound in bounds.items():
                    opt = optimal_chi(params, mode, scheme)
                    floor = bound(kappa, lam_k, n_eff)
                    assert opt.mse_star >= floor * (1 - 1e-12), (mode, kappa, lam_k, flux)
                    if lam_k == 0.0:
                        assert opt.mse_star == pytest.approx(floor, rel=1e-12)
                    boundary += opt.at_boundary
        assert boundary > 0

    def test_unknown_mode(self, ap_params):
        with pytest.raises(ParameterError):
            optimal_chi(ap_params, "retrodicted")

    def test_u_shape_on_standard_sweep_grid(self, ap_params):
        # the filtered curve over {0.3, 0.6, 1, 1.8, 3} x 2 sqrt(kappa N) falls
        # then rises, with the interior optimum between the second and third point
        grid = np.array([0.3, 0.6, 1.0, 1.8, 3.0]) * CHI_OP
        values = [filtered_mse(ap_params, c) for c in grid]
        assert values[0] > values[1] > values[2] < values[3] < values[4]
        opt = optimal_chi(ap_params, "filtered")
        assert grid[1] < opt.chi_star < grid[2]

    def test_interior_minimum_on_sampled_grid(self, ap_params):
        # convexity: the returned optimum beats a dense local grid
        for mode, func in (("filtered", filtered_mse), ("smoothed", smoothed_mse)):
            opt = optimal_chi(ap_params, mode)
            grid = np.linspace(0.2 * opt.chi_star, 5 * opt.chi_star, 1000)
            values = np.array([func(ap_params, c) for c in grid])
            assert opt.mse_star <= values.min() + 1e-15
            assert np.all(np.diff(values, 2) > -1e-12 * values.max())


class TestScalingsAndRatios:
    def test_sql_quadruple_flux_halves(self, ap_params):
        assert sql_mse(replace(ap_params, flux=4 * ap_params.flux)) == pytest.approx(
            sql_mse(ap_params) / 2, rel=1e-14)

    def test_beta_scalings(self):
        assert optimal_beta(1e-300, 1e6) == pytest.approx(0.0, abs=1e-140)
        assert optimal_beta(2e5, 4e6) == pytest.approx(2 * optimal_beta(2e5, 1e6), rel=1e-14)
        with pytest.raises(ParameterError):
            optimal_beta(-1.0, 1e6)
        with pytest.raises(ParameterError):
            optimal_beta(1e5, 0.0)

    def test_xi_pure_diffusion(self):
        assert xi(ProcessParams(kappa=1e4, lam=0.0, flux=1e6)) == 0.0

    def test_xi_whose_rate_underflows_is_refused(self):
        with pytest.raises(ParameterError, match="xi is not finite"):
            xi(ProcessParams(kappa=5e-324, lam=6.1451e4, flux=0.1))  # 2*sqrt(kappa*N) = 0

    def test_sql_whose_half_flux_underflows_is_refused(self):
        with pytest.raises(ParameterError, match="flux/2"):
            sql_mse(ProcessParams(kappa=1e4, lam=0.0, flux=5e-324))  # N/2 = 0

    def test_improvement_ratios(self, ap_params):
        r = improvement_ratios(ap_params)
        assert r.total_gain_limit == pytest.approx(2 * math.sqrt(2), abs=1e-14)
        assert r.adaptive_gain == pytest.approx(math.sqrt(2), abs=1e-14)
        # evaluated at the exact 2*sqrt(kappa*N), not the rounded sweep point
        assert r.smoothing_gain == pytest.approx(1.8544040492807614, rel=1e-12)
        assert r.total_gain_exact == pytest.approx(2.8742542464390737, rel=1e-9)

    def test_smoothing_gain_is_two_for_pure_diffusion(self):
        r = improvement_ratios(ProcessParams(kappa=1.6e4, lam=0.0, flux=1.35e6))
        assert r.smoothing_gain == pytest.approx(2.0, rel=1e-14)

    @settings(max_examples=100, deadline=None)
    @given(params=params_strategy)
    def test_total_gain_limit_universal(self, params):
        assert improvement_ratios(params).total_gain_limit == pytest.approx(
            2 * math.sqrt(2), rel=1e-12)


class TestSchemeConsistency:
    def test_dual_equals_adaptive_at_half_flux(self, ap_params):
        halved = replace(ap_params, flux=ap_params.flux / 2)
        for chi in (1e5, CHI_OP, 8e5):
            assert filtered_mse(ap_params, chi, "dual_homodyne") == filtered_mse(halved, chi)
            assert smoothed_mse(ap_params, chi, "dual_homodyne") == smoothed_mse(halved, chi)

    def test_limit_chi_is_exact_rate_scale(self, ap_params):
        k, n, lam = ap_params.kappa, ap_params.flux, ap_params.lam
        assert analytics.limit_chi(ap_params, "adaptive") == 2.0 * math.sqrt(k * n)
        assert analytics.limit_chi(ap_params, "dual_homodyne") == 2.0 * math.sqrt(k * n / 2.0)
        dual_star = optimal_chi(ap_params, "filtered", "dual_homodyne").chi_star
        assert dual_star == 2.0 * math.sqrt(k * n / 2.0) - lam

    def test_unknown_scheme_rejected(self, ap_params):
        with pytest.raises(ParameterError):
            filtered_mse(ap_params, CHI_OP, "heterodyne")
        with pytest.raises(ParameterError):
            combined_mse(ap_params, EstimatorParams(1e5, 1e5), "heterodyne")

    def test_chi_validation(self, ap_params):
        for chi in (0.0, -1.0, float("nan")):
            with pytest.raises(ParameterError):
                filtered_mse(ap_params, chi)


class TestNonFiniteResults:
    # a result that overflows or is not finite is refused, never returned or raised raw
    def test_overflowing_smoothed_mse(self):
        params = ProcessParams(kappa=1.5868e4, lam=1e200, flux=1.3499e6)
        with pytest.raises(ParameterError, match="smoothed MSE is not finite"):
            smoothed_mse(params, 2.9e5)

    @pytest.mark.parametrize("scheme", ["adaptive", "dual_homodyne"])
    def test_infinite_smoothed_optimum(self, scheme):
        params = ProcessParams(kappa=1e300, lam=6.1451e4, flux=1.3499e6)
        assert math.isfinite(optimal_chi(params, "filtered", scheme).mse_star)
        with pytest.raises(ParameterError, match="smoothed MSE is not finite"):
            optimal_chi(params, "smoothed", scheme)

    def test_infinite_over_infinite_correlation(self):
        params = ProcessParams(kappa=1.5868e4, lam=1.7e308, flux=1.3499e6)
        with pytest.raises(ParameterError, match="forward-backward correlation is not finite"):
            forward_backward_correlation(params, 2.9e5, 2.9e5)

    def test_gain_over_an_underflowed_limit(self):
        # sqrt(kappa/N) underflows to 0: the SQL over the limit-form optimum is 0/0
        params = ProcessParams(kappa=5e-324, lam=6.1451e4, flux=1.3499e6)
        with pytest.raises(ParameterError, match="limit-form gains are not finite"):
            improvement_ratios(params)

    def test_infinite_filtered_mse(self):
        params = ProcessParams(kappa=1e308, lam=1e-300, flux=1.3499e6)
        with pytest.raises(ParameterError, match="filtered MSE is not finite"):
            filtered_mse(params, 1e-300)
