import math

import numpy as np
import pytest

from ouphase import (
    ConfigurationError,
    FeedbackParams,
    NoiseStream,
    ParameterError,
    ProcessParams,
    Role,
    SimGrid,
    causal_exponential_average,
    empirical_mse,
    linearized_theta,
    run_adaptive_loop,
    run_dual_homodyne,
    simulate_ou,
    wiener_increments,
)

from oracles import CHI_OP

BETA_OP = 1777941.795672738  # sqrt(8 * CHI_OP * 1.3499e6)


def silent(role=Role.MEASUREMENT_NOISE):
    return NoiseStream(master_seed=1, role=role, scale=0.0)


def noisy(role=Role.MEASUREMENT_NOISE, trial=0, seed=13):
    return NoiseStream(master_seed=seed, trial_index=trial, role=role)


class TestFeedbackParams:
    def test_validation(self):
        with pytest.raises(ParameterError):
            FeedbackParams(beta=0.0)
        with pytest.raises(ParameterError):
            FeedbackParams(beta=1e5, omega0=-1.0)
        with pytest.raises(ParameterError):
            FeedbackParams(beta=1e5, omega0=1e5)  # must stay below beta


class TestAdaptiveLoop:
    def test_noise_free_fixed_point(self, ap_params):
        g = SimGrid(dt=2e-8, duration=5e-5)
        fb = FeedbackParams(beta=BETA_OP)
        traj = run_adaptive_loop(np.zeros(g.n_steps), ap_params, fb, g, silent())
        assert np.array_equal(traj.current, np.zeros(g.n_steps))
        assert np.array_equal(traj.phihat, np.zeros(g.n_steps))
        assert np.array_equal(traj.theta, np.zeros(g.n_steps))

    def test_noise_free_constant_phase_convergence(self, ap_params):
        # first-order loop: |phihat(t) - c| <= |c| exp(-beta t (1 - beta dt))
        c, beta = 0.2, BETA_OP
        g = SimGrid(dt=2e-8, duration=8e-6)
        fb = FeedbackParams(beta=beta, omega0=0.0)
        traj = run_adaptive_loop(np.full(g.n_steps, c), ap_params, fb, g, silent())
        k = round(5.0 / beta / g.dt)
        t = k * g.dt
        bound = abs(c) * math.exp(-beta * t * (1.0 - beta * g.dt))
        assert abs(traj.phihat[k] - c) <= bound * (1 + 1e-12)
        assert abs(traj.phihat[-1] - c) < abs(traj.phihat[k] - c)

    def test_defining_identity_bit_exact(self, ap_params):
        g = SimGrid(dt=2e-8, duration=2e-4)
        phi = simulate_ou(ap_params, g, noisy(Role.PHASE_NOISE))
        fb = FeedbackParams(beta=BETA_OP, omega0=1e2)
        traj = run_adaptive_loop(phi, ap_params, fb, g, noisy())
        root = 2.0 * math.sqrt(ap_params.flux)
        assert np.array_equal(traj.theta, traj.phihat + traj.current / root)

    def test_theta_matches_linearized_identity(self, ap_params):
        # phihat cancels from theta: any loop gives phi + dW/(2 sqrt(N) dt) to rounding
        g = SimGrid(dt=2e-8, duration=2e-4)
        phi = simulate_ou(ap_params, g, noisy(Role.PHASE_NOISE))
        stream = noisy()
        dW = stream.normals(g.n_steps) * math.sqrt(g.dt)
        expected = linearized_theta(phi, dW, ap_params.flux, g.dt)
        for beta, omega0 in ((BETA_OP, 1e2), (BETA_OP / 4, 0.0)):
            traj = run_adaptive_loop(phi, ap_params, FeedbackParams(beta, omega0), g, stream)
            assert np.allclose(traj.theta, expected, rtol=0, atol=1e-12)

    def test_matches_explicit_recursion(self, ap_params):
        g = SimGrid(dt=2e-8, duration=4000 * 2e-8)
        phi = simulate_ou(ap_params, g, noisy(Role.PHASE_NOISE))
        fb = FeedbackParams(beta=BETA_OP, omega0=1e2)
        stream = noisy()
        traj = run_adaptive_loop(phi, ap_params, fb, g, stream)
        dW = stream.normals(g.n_steps) * math.sqrt(g.dt)
        root = 2.0 * math.sqrt(ap_params.flux)
        ref = np.empty(g.n_steps)
        ref[0] = 0.0
        for k in range(g.n_steps - 1):
            I_k = root * (phi[k] - ref[k]) + dW[k] / g.dt
            ref[k + 1] = ref[k] + g.dt * (-fb.omega0 * ref[k] + fb.beta * I_k / root)
        assert np.allclose(traj.phihat, ref, rtol=1e-10, atol=1e-12)

    def test_pure_integrator_averages_theta(self, ap_params):
        # omega0 = 0: phihat[k+1] == (1 - beta dt) phihat[k] + beta dt theta[k]
        g = SimGrid(dt=2e-8, duration=1e-4)
        phi = simulate_ou(ap_params, g, noisy(Role.PHASE_NOISE))
        fb = FeedbackParams(beta=BETA_OP, omega0=0.0)
        traj = run_adaptive_loop(phi, ap_params, fb, g, noisy())
        lhs = traj.phihat[1:]
        rhs = (1 - fb.beta * g.dt) * traj.phihat[:-1] + fb.beta * g.dt * traj.theta[:-1]
        assert np.allclose(lhs, rhs, rtol=1e-9, atol=1e-12)

    def test_instability_rejected(self, ap_params):
        g = SimGrid(dt=1e-6, duration=1e-3)
        fb = FeedbackParams(beta=6e5)  # beta*dt = 0.6
        with pytest.raises(ConfigurationError):
            run_adaptive_loop(np.zeros(g.n_steps), ap_params, fb, g, silent())

    def test_length_mismatch_rejected(self, ap_params):
        g = SimGrid(dt=2e-8, duration=1e-5)
        fb = FeedbackParams(beta=BETA_OP)
        with pytest.raises(ParameterError):
            run_adaptive_loop(np.zeros(g.n_steps - 1), ap_params, fb, g, silent())

    def test_omega0_insensitivity_downstream(self, ap_params):
        # phihat-sourced filtered error changes by far less than 1% between
        # omega0 = 0 and 100 (same noise realization)
        g = SimGrid(dt=2e-8, duration=5e-3)
        phi = simulate_ou(ap_params, g, noisy(Role.PHASE_NOISE))
        mses = []
        for omega0 in (0.0, 1e2):
            fb = FeedbackParams(beta=BETA_OP, omega0=omega0)
            traj = run_adaptive_loop(phi, ap_params, fb, g, noisy())
            filt = causal_exponential_average(traj.phihat, CHI_OP, g.dt)
            stats = empirical_mse(filt, phi, g, edge_discard=5.0 / CHI_OP)
            mses.append(stats.mse)
        assert abs(mses[1] / mses[0] - 1.0) < 0.01

    def test_closed_loop_boundedness(self, ap_params):
        # tracking error variance is stationary: first and second half of the
        # 10-segment means agree within 5 combined standard errors
        g = SimGrid(dt=2e-8, duration=5e-3)
        phi = simulate_ou(ap_params, g, noisy(Role.PHASE_NOISE, seed=29))
        fb = FeedbackParams(beta=BETA_OP, omega0=1e2)
        traj = run_adaptive_loop(phi, ap_params, fb, g, noisy(seed=29))
        sq = np.square(phi - traj.phihat)
        sq = sq[: 10 * (len(sq) // 10)].reshape(10, -1).mean(axis=1)
        first, second = sq[:5], sq[5:]
        se = math.hypot(first.std(ddof=1) / math.sqrt(5), second.std(ddof=1) / math.sqrt(5))
        assert abs(first.mean() - second.mean()) <= 5 * se


class TestDualHomodyne:
    def test_noise_free_arg_recovers_phase(self, ap_params):
        g = SimGrid(dt=2e-8, duration=1e-5)
        phi = np.full(g.n_steps, 0.3)
        theta = run_dual_homodyne(phi, ap_params, g,
                                  (silent(Role.MEASUREMENT_NOISE), silent(Role.MEASUREMENT_NOISE_2)))
        assert np.allclose(theta, 0.3, rtol=0, atol=1e-12)

    def test_same_stream_rejected(self, ap_params):
        g = SimGrid(dt=2e-8, duration=1e-5)
        s = noisy(Role.MEASUREMENT_NOISE)
        with pytest.raises(ParameterError):
            run_dual_homodyne(np.zeros(g.n_steps), ap_params, g, (s, s))

    def test_linearized_noise_floor(self, ap_params):
        # phi = 0: the chi-averaged estimate carries variance chi/(8 Ns) = chi/(4 N)
        g = SimGrid(dt=2e-8, duration=1e-2)
        dW2 = wiener_increments(noisy(Role.MEASUREMENT_NOISE_2, seed=41), g.n_steps, g.dt)
        theta = linearized_theta(np.zeros(g.n_steps), dW2, ap_params.flux / 2.0, g.dt)
        filt = causal_exponential_average(theta, CHI_OP, g.dt)
        stats = empirical_mse(filt, np.zeros(g.n_steps), g, edge_discard=5.0 / CHI_OP,
                              batch_time=30.0 / CHI_OP)
        target = CHI_OP / (4.0 * ap_params.flux)
        assert abs(stats.mse - target) <= 3 * stats.std_error

    def test_linearized_theta_definition(self, ap_params):
        g = SimGrid(dt=2e-8, duration=1e-5)
        phi = simulate_ou(ap_params, g, noisy(Role.PHASE_NOISE))
        dW2 = noisy(Role.MEASUREMENT_NOISE_2).normals(g.n_steps) * math.sqrt(g.dt)
        expected = phi + dW2 / (g.dt * 2.0 * math.sqrt(ap_params.flux / 2.0))
        assert np.array_equal(linearized_theta(phi, dW2, ap_params.flux / 2.0, g.dt), expected)

    def test_arg_agrees_with_linearized(self, dh_params):
        # coarse sampling so each sample resolves the phasor (SNR ~ 3), where
        # the trigonometric and the linearized estimates must agree
        g = SimGrid(dt=4e-6, duration=0.8)
        chi = 5e4
        phi = simulate_ou(dh_params, g, noisy(Role.PHASE_NOISE, seed=51))
        s1, s2 = noisy(Role.MEASUREMENT_NOISE, seed=51), noisy(Role.MEASUREMENT_NOISE_2, seed=51)
        linearized = linearized_theta(phi, wiener_increments(s2, g.n_steps, g.dt),
                                      dh_params.flux / 2.0, g.dt)
        mses = []
        for theta in (linearized, run_dual_homodyne(phi, dh_params, g, (s1, s2))):
            filt = causal_exponential_average(theta, chi, g.dt)
            stats = empirical_mse(filt, phi, g, edge_discard=5.0 / chi)
            mses.append(stats.mse)
        assert abs(mses[1] / mses[0] - 1.0) < 0.10

    def test_wrap_range(self, ap_params):
        g = SimGrid(dt=2e-8, duration=1e-5)
        phi = np.linspace(-4.0, 4.0, g.n_steps)  # runs outside (-pi, pi]
        theta = run_dual_homodyne(phi, ap_params, g,
                                  (silent(Role.MEASUREMENT_NOISE), silent(Role.MEASUREMENT_NOISE_2)))
        assert np.all(theta > -np.pi)
        assert np.all(theta <= np.pi)

