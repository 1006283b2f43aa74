import math

import numpy as np
import pytest

from ouphase import (
    ConfigurationError,
    EstimatorParams,
    FeedbackParams,
    NoiseStream,
    ParameterError,
    Role,
    SimGrid,
    StatisticsError,
    anticausal_exponential_average,
    apply_estimators,
    causal_exponential_average,
    empirical_mse,
    run_adaptive_loop,
    simulate_ou,
)

from oracles import CHI_OP


def rng(seed=0):
    return np.random.default_rng(seed)


class TestCausalAverage:
    def test_constant_input_dc_gain_one(self):
        y = causal_exponential_average(np.full(5000, 0.37), 1e3, 1e-6)
        assert np.allclose(y, 0.37, rtol=1e-12, atol=0)

    def test_step_transient_decay_envelope(self):
        chi, dt, m = 1e3, 1e-6, 200
        x = np.concatenate([np.zeros(m), np.ones(20_000)])
        y = causal_exponential_average(x, chi, dt)
        k = np.arange(m, len(x))
        bound = np.exp(-chi * (k - m + 1) * dt)
        # envelope is exact in real arithmetic; leave a few ulps of float slack
        assert np.all(np.abs(y[m:] - 1.0) <= bound * (1 + 1e-9) + 1e-13)

    def test_ramp_lag(self):
        chi, dt = 1e3, 5e-7
        t = np.arange(24_000) * dt
        y = causal_exponential_average(t, chi, dt)
        settled = t >= 10.0 / chi
        assert np.max(np.abs(y[settled] - (t[settled] - 1.0 / chi))) <= 1e-3 / chi

    def test_white_noise_variance(self):
        chi, dt = 1e3, 1e-5  # chi*dt = 0.01
        v = 1.0
        x = rng(7).normal(0.0, math.sqrt(v), 10**6)
        y = causal_exponential_average(x, chi, dt)
        a = math.exp(-chi * dt)
        target = v * (1 - a) / (1 + a)
        skip = round(10 / chi / dt)
        assert y[skip:].var() == pytest.approx(target, rel=0.05)

    def test_matches_explicit_recursion(self):
        chi, dt = 2.9e5, 2e-8
        x = rng(3).normal(size=3000)
        y = causal_exponential_average(x, chi, dt)
        a = math.exp(-chi * dt)
        ref = np.empty_like(x)
        ref[0] = x[0]
        for k in range(1, len(x)):
            ref[k] = a * ref[k - 1] + (1 - a) * x[k]
        assert np.allclose(y, ref, rtol=1e-12, atol=1e-14)

    def test_pieces_started_at_the_last_average_are_one_call(self):
        x = rng(5).normal(size=50000)
        pieces, start = [], None
        for a, b in ((0, 1), (1, 20000), (20000, 50000)):
            pieces.append(causal_exponential_average(x[a:b], CHI_OP, 2e-8, start))
            start = pieces[-1][-1]
        assert np.array_equal(np.concatenate(pieces), causal_exponential_average(x, CHI_OP, 2e-8))

    def test_decimation_bias_guard(self):
        with pytest.raises(ConfigurationError):
            causal_exponential_average(np.zeros(10), 1e6, 1e-6)  # chi*dt = 1

    @pytest.mark.parametrize("chi,dt", [(0.0, 1e-6), (-1.0, 1e-6), (1e3, 0.0), (1e3, -1e-6)])
    def test_parameter_validation(self, chi, dt):
        with pytest.raises(ParameterError):
            causal_exponential_average(np.zeros(10), chi, dt)

    def test_empty_series(self):
        assert causal_exponential_average(np.array([]), 1e3, 1e-6).size == 0

    @pytest.mark.parametrize("start", [math.nan, math.inf, -math.inf, "a", True])
    def test_start_is_a_finite_real(self, start):
        with pytest.raises(ParameterError, match="start"):
            causal_exponential_average(np.zeros(10), 1e3, 1e-6, start)


class TestAnticausalAverage:
    def test_definitional_identity_bit_exact(self):
        x = rng(11).normal(size=5000)
        direct = anticausal_exponential_average(x, 1e3, 1e-6)
        mirrored = causal_exponential_average(x[::-1], 1e3, 1e-6)[::-1]
        assert np.array_equal(direct, mirrored)

    def test_ramp_lead(self):
        chi, dt = 1e3, 5e-7
        t = np.arange(24_000) * dt
        y = anticausal_exponential_average(t, chi, dt)
        settled = t <= t[-1] - 10.0 / chi
        assert np.max(np.abs(y[settled] - (t[settled] + 1.0 / chi))) <= 1e-3 / chi

    def test_constant_input(self):
        y = anticausal_exponential_average(np.full(2000, -1.2), 1e3, 1e-6)
        assert np.allclose(y, -1.2, rtol=1e-12, atol=0)

    def test_pieces_started_at_the_next_first_average_are_one_call(self):
        x = rng(5).normal(size=50000)
        pieces, start = [], None
        for a, b in ((30000, 50000), (1, 30000), (0, 1)):
            pieces.insert(0, anticausal_exponential_average(x[a:b], CHI_OP, 2e-8, start))
            start = pieces[0][0]
        assert np.array_equal(np.concatenate(pieces),
                              anticausal_exponential_average(x, CHI_OP, 2e-8))

    @pytest.mark.parametrize("start", [math.nan, math.inf, -math.inf, "a", True])
    def test_start_is_a_finite_real(self, start):
        with pytest.raises(ParameterError, match="start"):
            anticausal_exponential_average(np.zeros(10), 1e3, 1e-6, start)

    def test_start_none_is_the_last_sample_and_zero_is_zero(self):
        x = np.full(10, -1.5)
        a = math.exp(-1e3 * 1e-6)
        assert anticausal_exponential_average(x, 1e3, 1e-6)[-1] == -1.5
        assert anticausal_exponential_average(x, 1e3, 1e-6, 0.0)[-1] == (1.0 - a) * -1.5


class TestCombine:
    def test_ramp_lag_cancellation(self):
        chi, dt = 1e3, 5e-7
        t = np.arange(24_000) * dt
        f = causal_exponential_average(t, chi, dt)
        b = anticausal_exponential_average(t, chi, dt)
        s = 0.5 * f + 0.5 * b
        interior = (t >= 10.0 / chi) & (t <= t[-1] - 10.0 / chi)
        assert np.allclose(s[interior], t[interior], rtol=1e-9, atol=1e-9 * t[-1])

    def test_weight_sum_enforced(self):
        # checked once, when the frozen EstimatorParams is built
        for w_plus in (0.6, float("nan")):
            with pytest.raises(ParameterError):
                EstimatorParams(1e3, 1e3, w_minus=0.6, w_plus=w_plus)


class TestEstimatorParams:
    @pytest.mark.parametrize("kwargs", [
        dict(chi_minus=0.0, chi_plus=1e3),
        dict(chi_minus=1e3, chi_plus=-1.0),
        dict(chi_minus=1e3, chi_plus=1e3, source="psi"),
        dict(chi_minus=1e3, chi_plus=1e3, edge_discard=-1e-3),
        dict(chi_minus=True, chi_plus=True),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ParameterError):
            EstimatorParams(**kwargs)


class TestAffineInvariance:
    def test_estimators_commute_with_affine_maps(self):
        x = rng(23).normal(size=4000)
        chi, dt = 1e3, 1e-6
        scale, shift = -2.5, 0.75
        for op in (causal_exponential_average, anticausal_exponential_average):
            lhs = op(scale * x + shift, chi, dt)
            rhs = scale * op(x, chi, dt) + shift
            assert np.allclose(lhs, rhs, rtol=1e-11, atol=1e-12)


class TestApplyEstimators:
    def test_forward_and_backward_at_their_own_rates(self):
        g = SimGrid(dt=1e-6, duration=4e-3)
        x = rng(9).normal(size=g.n_steps)
        params = EstimatorParams(2e3, 3e3, w_minus=0.3, w_plus=0.7)
        forward, backward = apply_estimators(x, params, g)
        assert np.array_equal(forward, causal_exponential_average(x, 2e3, g.dt))
        assert np.array_equal(backward, anticausal_exponential_average(x, 3e3, g.dt))

    def test_block_started_from_both_ends_is_one_call(self):
        # the forward average continues from the sample before the block and
        # the backward one from the sample after it, both bit for bit
        g = SimGrid(dt=1e-6, duration=1e-2)
        x = rng(9).normal(size=g.n_steps)
        params = EstimatorParams(2e3, 1e4)
        forward, backward = apply_estimators(x, params, g)
        f, b = apply_estimators(x[1000:2000], params, g, forward[999], backward[2000])
        assert np.array_equal(f, forward[1000:2000])
        assert np.array_equal(b, backward[1000:2000])

    def test_backward_average_is_linear_in_its_end(self):
        # a block averaged from 0 past its end e, plus a**(e-k) times the
        # one-call average at e, is the one-call average; the input stays near
        # 1, so no average is near 0, where a relative bound means nothing
        chi, g = 2.5e5, SimGrid(dt=1e-6, duration=4e-3)
        x = 1.0 + 0.1 * rng(13).normal(size=g.n_steps)
        params = EstimatorParams(chi, chi)
        _, backward = apply_estimators(x, params, g)
        e = 2500
        f, local = apply_estimators(x[:e], params, g, None, 0.0)
        carried = local + math.exp(-chi * g.dt) ** np.arange(e, 0, -1.0) * backward[e]
        assert carried == pytest.approx(backward[:e], rel=1e-15, abs=0)
        assert np.array_equal(f, apply_estimators(x[:e], params, g)[0])

    @pytest.mark.parametrize("end", [math.nan, math.inf, -math.inf, "a", True])
    def test_end_is_a_finite_real(self, end):
        g = SimGrid(dt=1e-6, duration=1e-4)
        with pytest.raises(ParameterError, match="end must be"):
            apply_estimators(np.zeros(100), EstimatorParams(2e3, 1e4), g, None, end)

    def test_end_none_starts_from_the_last_sample_and_zero_from_zero(self):
        g = SimGrid(dt=1e-6, duration=1e-4)
        x = np.full(100, 2.0)
        _, from_last = apply_estimators(x, EstimatorParams(2e3, 1e4), g)
        _, from_zero = apply_estimators(x, EstimatorParams(2e3, 1e4), g, None, 0.0)
        assert from_last[-1] == 2.0
        assert from_zero[-1] == pytest.approx(2.0 * -math.expm1(-1e4 * g.dt), rel=1e-12)
        assert np.all(from_zero < from_last)


class TestEmpiricalMse:
    def test_perfect_estimate(self):
        g = SimGrid(dt=1e-6, duration=1e-2)
        x = rng(2).normal(size=g.n_steps)
        stats = empirical_mse(x, x, g, edge_discard=1e-4)
        assert stats.mse == 0.0
        assert stats.std_error == 0.0

    def test_constant_offset(self):
        g = SimGrid(dt=1e-6, duration=1e-2)
        truth = rng(3).normal(size=g.n_steps)
        stats = empirical_mse(truth + 0.2, truth, g, edge_discard=0.0)
        assert stats.mse == pytest.approx(0.04, rel=1e-12)

    def test_iid_noise_within_three_stderr(self):
        g = SimGrid(dt=1e-6, duration=5e-2)
        v = 0.09
        truth = np.zeros(g.n_steps)
        est = rng(4).normal(0.0, math.sqrt(v), g.n_steps)
        stats = empirical_mse(est, truth, g, edge_discard=0.0)
        assert abs(stats.mse - v) <= 3 * stats.std_error
        assert stats.n_eff == 30  # default batching

    def test_too_few_batches(self):
        g = SimGrid(dt=1e-6, duration=1e-3)
        with pytest.raises(StatisticsError):
            empirical_mse(np.zeros(g.n_steps), np.zeros(g.n_steps), g,
                          edge_discard=0.0, batch_time=2e-4)

    def test_edge_discard_precondition(self):
        g = SimGrid(dt=1e-6, duration=1e-3)
        with pytest.raises(ParameterError):
            empirical_mse(np.zeros(g.n_steps), np.zeros(g.n_steps), g, edge_discard=5e-4)

    def test_length_checks(self):
        g = SimGrid(dt=1e-6, duration=1e-3)
        with pytest.raises(ParameterError):
            empirical_mse(np.zeros(g.n_steps), np.zeros(g.n_steps - 1), g, 0.0)
        with pytest.raises(ParameterError):
            empirical_mse(np.zeros(g.n_steps + 4), np.zeros(g.n_steps + 4), g, 0.0)


class TestSourceChoice:
    def test_theta_and_phihat_smoothed_agree_within_five_percent(self, ap_params):
        # with beta = sqrt(8 chi N) >> chi the loop's own averaging barely
        # moves the smoothed error
        g = SimGrid(dt=2e-8, duration=5e-3)
        beta = math.sqrt(8 * CHI_OP * ap_params.flux)
        fb = FeedbackParams(beta=beta, omega0=1e2)
        edge = 5.0 / CHI_OP
        ratios = []
        for trial in range(3):
            phi = simulate_ou(ap_params, g,
                              NoiseStream(61, trial, Role.PHASE_NOISE))
            traj = run_adaptive_loop(phi, ap_params, fb, g,
                                     NoiseStream(61, trial, Role.MEASUREMENT_NOISE))
            params = EstimatorParams(CHI_OP, CHI_OP)
            mses = {}
            for name, series in (("theta", traj.theta), ("phihat", traj.phihat)):
                forward, backward = apply_estimators(series, params, g)
                smoothed = params.w_minus * forward + params.w_plus * backward
                mses[name] = empirical_mse(smoothed, phi, g, edge).mse
            ratios.append(mses["phihat"] / mses["theta"])
        assert abs(np.mean(ratios) - 1.0) < 0.05
