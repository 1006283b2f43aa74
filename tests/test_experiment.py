import math
import os
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ouphase
import ouphase.analytics
import ouphase.experiment
from ouphase import (
    ConfigurationError,
    EstimatorParams,
    ExperimentConfig,
    FeedbackParams,
    NoiseStream,
    ParameterError,
    ProcessParams,
    Role,
    SimGrid,
    StatisticsError,
    apply_estimators,
    causal_exponential_average,
    compare,
    filtered_mse,
    improvement_ratios,
    optimal_beta,
    optimal_chi,
    run_adaptive_loop,
    run_dual_homodyne,
    run_ensemble,
    run_ensembles,
    run_trial,
    run_trials,
    simulate_ou,
    sweep,
    wiener_increments,
)
from ouphase.analytics import analytic_mse
from ouphase.detection import feedback_estimate
from ouphase.estimators import retained_window
from ouphase.experiment import MIN_BLOCK, default_edge_discard

from conftest import WORKERS, count_draws
from oracles import AP, CHI_OP, discrete_combined_mse, discrete_filtered_mse, discrete_kalman
from test_golden import SAME_VERSIONS


def reference_series(config, trial_index):
    """(phi, estimator input) of a trial through the detectors' physical
    models: the feedback loop for the adaptive scheme, both dual-homodyne arms
    for the dual arg mode, and the explicit small-angle formula at N/2 for
    the dual linearized mode."""
    phase, meas1, meas2 = (NoiseStream(config.master_seed, trial_index, role) for role in Role)
    phi = simulate_ou(config.params, config.grid, phase)
    if config.scheme == "adaptive":
        traj = run_adaptive_loop(phi, config.params, config.loop, config.grid, meas1)
        series = traj.phihat if config.estimator.source == "phihat" else traj.theta
    elif config.dual_mode == "arg":
        series = run_dual_homodyne(phi, config.params, config.grid, (meas1, meas2))
    else:
        dt = config.grid.dt
        dW2 = wiener_increments(meas2, config.grid.n_steps, dt)
        series = phi + dW2 / (dt * 2.0 * math.sqrt(config.params.flux / 2.0))
    return phi, series


def reference_trial(config, trial_index):
    """The three MSEs of ``reference_series``."""
    phi, series = reference_series(config, trial_index)
    forward, backward = apply_estimators(series, config.estimator, config.grid)
    i0, i1 = retained_window(config.grid, config.edge_discard)
    # series -> MSEs by the moment rule: errors in place over the window (the
    # backward one a reversed view), smoothed from the forward/backward moments
    f, b = forward[i0:i1], backward[i0:i1]
    f -= phi[i0:i1]
    b -= phi[i0:i1]
    ff, bb, fb = (float(np.einsum("i,i->", x, y)) / f.size for x, y in ((f, f), (b, b), (f, b)))
    wm, wp = config.estimator.w_minus, config.estimator.w_plus
    return [ff, wm * wm * ff + wp * wp * bb + 2.0 * wm * wp * fb, bb]


def peak_bytes(run):
    """Traced peak allocation of ``run()`` above what was live before it; a
    first, untraced call keeps imports and caches outside the measurement."""
    run()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def make_config(duration=1e-3, dt=2e-8, trials=30, seed=99, chi=CHI_OP, **kwargs):
    defaults = dict(
        params=ProcessParams(**AP),
        grid=SimGrid(dt=dt, duration=duration),
        estimator=EstimatorParams(chi, chi),
        trials=trials,
        master_seed=seed,
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


PHIHAT = EstimatorParams(CHI_OP, CHI_OP, source="phihat")
# 300001 samples at dt = 2e-8 s: more than two blocks of 2**17, the last one
# partial, with the retained window starting and ending inside blocks
MULTI_BLOCK = 6.00002e-3


class TestConfigValidation:
    def test_auto_beta_requires_adaptive(self):
        est = EstimatorParams(CHI_OP, CHI_OP)
        with pytest.raises(ParameterError):
            make_config(scheme="dual_homodyne", beta="auto", estimator=est)

    def test_unset_beta_is_auto_for_adaptive_and_no_loop_for_dual(self):
        for chi in (CHI_OP, 2e5):
            assert make_config(chi=chi).loop == make_config(chi=chi, beta="auto").loop
            assert make_config(chi=chi, beta=None).loop.beta == optimal_beta(chi, AP["flux"])
        dual = ExperimentConfig(ProcessParams(**AP), SimGrid(dt=2e-8, duration=1e-3),
                                EstimatorParams(CHI_OP, CHI_OP), scheme="dual_homodyne")
        assert dual.beta is None and dual.loop is None

    def test_dual_scheme_rejects_numeric_beta(self):
        # the dual scheme runs no feedback loop: beta must be left unset
        for beta in (1e6, 0.5, -1.0, float("nan")):
            with pytest.raises(ParameterError, match="adaptive scheme only"):
                make_config(scheme="dual_homodyne", beta=beta)

    def test_adaptive_scheme_rejects_arg_mode(self):
        # arg mode is a dual-homodyne detector model; the adaptive scheme has none
        with pytest.raises(ParameterError, match="dual_homodyne scheme only"):
            make_config(dual_mode="arg")
        assert make_config(scheme="dual_homodyne", dual_mode="arg").dual_mode == "arg"

    def test_unknown_dual_mode_rejected(self):
        with pytest.raises(ParameterError, match="unknown dual_mode: 'bogus'"):
            make_config(scheme="dual_homodyne", dual_mode="bogus")

    def test_unknown_condition_mode_rejected(self):
        with pytest.raises(ParameterError, match="unknown condition mode: 'bogus'"):
            analytic_mse(make_config(), "bogus")

    def test_coarse_grid_rejected_at_construction(self):
        # chi*dt >= 0.5 for either rate fails when the config is built, not in a trial
        for chi_minus, chi_plus in ((3e7, CHI_OP), (CHI_OP, 3e7)):
            with pytest.raises(ConfigurationError, match="grid too coarse"):
                make_config(estimator=EstimatorParams(chi_minus, chi_plus))

    def test_phihat_source_requires_adaptive(self):
        est = EstimatorParams(CHI_OP, CHI_OP, source="phihat")
        with pytest.raises(ParameterError):
            make_config(scheme="dual_homodyne", estimator=est)

    def test_resolved_beta_auto_uses_larger_rate(self):
        cfg = make_config(estimator=EstimatorParams(2e5, 4e5, w_minus=0.3, w_plus=0.7))
        assert cfg.loop.beta == optimal_beta(4e5, cfg.params.flux)

    def test_unstable_resolved_beta_rejected(self):
        # one check, one message: when a config is built and when the loop filters
        unstable = "feedback loop unstable: beta\\*dt = 0.6 >= 0.5"
        with pytest.raises(ConfigurationError, match=unstable):
            make_config(dt=5e-7, beta=1.2e6)
        with pytest.raises(ConfigurationError, match=unstable):
            feedback_estimate(np.zeros(4), FeedbackParams(1.2e6), 5e-7)

    def test_trials_and_seed_validation(self):
        with pytest.raises(ParameterError):
            make_config(trials=0)
        with pytest.raises(ParameterError):
            make_config(seed=-1)

    def test_bool_trials_rejected(self):
        # a bool is an int; the manifest would echo "trials": true
        for trials in (True, False):
            with pytest.raises(ParameterError, match="trials"):
                make_config(trials=trials)

    def test_feedback_constants_checked_at_construction(self):
        # the loop does not run for source="theta", so its constants are checked up front
        beta = optimal_beta(CHI_OP, AP["flux"])
        for omega0 in (-5.0, beta, 1e9):
            with pytest.raises(ParameterError, match="0 <= omega0 < beta"):
                make_config(omega0=omega0)
        assert make_config(omega0=0.0).loop == FeedbackParams(beta, 0.0)
        # an automatic beta below omega0 is named, with where it came from
        with pytest.raises(ParameterError, match=r"0 <= omega0 < beta; the automatic beta is "
                           r"sqrt\(8\*chi\*N\) = 3.28621e-147 at chi = 1e-300, N = 1.3499e\+06"):
            make_config(chi=1e-300)
        # the dual scheme runs no loop, but its omega0 is still checked
        assert make_config(scheme="dual_homodyne").loop is None
        for omega0 in (-5.0, float("nan")):
            with pytest.raises(ParameterError, match="omega0 must be finite and >= 0"):
                make_config(scheme="dual_homodyne", omega0=omega0)

    def test_derived_values_are_not_fields_and_follow_replace(self):
        # the loop, edge discard, N' and window are derived when a config is
        # built: not settable, not shown, and derived again by replace
        cfg = make_config()
        assert [f.name for f in fields(cfg) if f.init] == [
            "params", "grid", "estimator", "scheme", "beta", "omega0", "trials",
            "master_seed", "dual_mode"]
        assert (cfg.n_eff, cfg.window) == (AP["flux"], retained_window(cfg.grid, cfg.edge_discard))
        for name in ("loop", "n_eff", "window"):
            assert f"{name}=" not in repr(cfg)
        with pytest.raises(AttributeError):
            cfg.loop = None
        moved = replace(cfg, estimator=EstimatorParams(2e5, 2e5))
        assert moved.loop.beta == optimal_beta(2e5, cfg.params.flux)
        back = replace(moved, estimator=cfg.estimator)
        assert back == cfg and hash(back) == hash(cfg)
        assert (back.loop, back.edge_discard) == (cfg.loop, cfg.edge_discard)


class TestEdgePolicy:
    def test_default_includes_reversion_term_when_it_fits(self):
        cfg = make_config(duration=1e-2)
        lam = cfg.params.lam
        assert cfg.edge_discard == pytest.approx(3.0 / lam, rel=1e-12)

    def test_reversion_term_dropped_for_short_coherence(self):
        # lam*span ~ 1: the 3/lam window does not fit and is dropped
        params = ProcessParams(kappa=1.6e4, lam=1e2, flux=1.35e6)
        cfg = make_config(params=params, duration=1e-2)
        expected = max(5.0 / CHI_OP, 5.0 / cfg.loop.beta)
        assert cfg.edge_discard == pytest.approx(expected, rel=1e-12)

    def test_explicit_edge_below_filter_settling_rejected(self):
        est = EstimatorParams(CHI_OP, CHI_OP, edge_discard=1.0 / CHI_OP)
        with pytest.raises(ParameterError):
            make_config(estimator=est)

    def test_oversized_edge_rejected(self):
        est = EstimatorParams(CHI_OP, CHI_OP, edge_discard=6e-4)
        with pytest.raises(ConfigurationError):
            make_config(duration=1e-3, estimator=est)

    def test_empty_window_rejected_at_construction(self):
        # 2*edge fits in the span, but rounding to the grid leaves one sample
        est = EstimatorParams(1e5, 1e5, edge_discard=5e-5)
        with pytest.raises(ParameterError, match="retained window is empty"):
            make_config(dt=1e-6, duration=1.014e-4, estimator=est, scheme="dual_homodyne")

    def test_policy_function(self):
        assert default_edge_discard(1e5, None, 0.0, 1.0) == pytest.approx(5e-5)
        assert default_edge_discard(1e5, 1e4, 0.0, 1.0) == pytest.approx(5e-4)
        assert default_edge_discard(1e5, None, 1e2, 1.0) == pytest.approx(3e-2)
        assert default_edge_discard(1e5, None, 1e2, 0.01) == pytest.approx(5e-5)

    @pytest.mark.parametrize("args, name", [
        ((0.0, None, 1.0, 1.0), "chi_min"), ((-1.0, None, 1.0, 1.0), "chi_min"),
        ((math.nan, None, 1.0, 1.0), "chi_min"), ((1e5, math.nan, 1.0, 1.0), "beta"),
        ((1e5, 0.0, 1.0, 1.0), "beta"), ((1e5, None, math.nan, 1.0), "lam"),
        ((1e5, None, -1.0, 1.0), "lam"),
    ])
    def test_policy_function_refuses_bad_rates(self, args, name):
        with pytest.raises(ParameterError, match=name):
            default_edge_discard(*args)


class TestRunTrial:
    def test_deterministic(self):
        cfg = make_config()
        assert run_trial(cfg, 3) == run_trial(cfg, 3)

    def test_trials_differ(self):
        cfg = make_config()
        assert run_trial(cfg, 0) != run_trial(cfg, 1)

    def test_zero_noise_gives_zero_errors(self, silent_trials):
        result = run_trial(make_config(), 0)
        assert result.filtered_mse == 0.0
        assert result.smoothed_mse == 0.0
        assert result.backward_mse == 0.0

    def test_dual_scheme_runs(self):
        cfg = make_config(scheme="dual_homodyne")
        result = run_trial(cfg, 0)
        assert result.filtered_mse > 0

    @pytest.mark.parametrize("kwargs, exact", [
        (dict(), False),
        (dict(estimator=EstimatorParams(CHI_OP, CHI_OP, source="phihat")), True),
        (dict(scheme="dual_homodyne"), True),
        (dict(scheme="dual_homodyne", dual_mode="arg"), True),
    ], ids=["adaptive-theta", "adaptive-phihat", "dual-linearized", "dual-arg"])
    def test_matches_detector_reference(self, kwargs, exact):
        # linearized theta from the identity equals the loop's theta to rounding;
        # every path that still runs a detector is the reference itself
        cfg = make_config(seed=5, **kwargs)
        for trial in (0, 7):
            got = run_trial(cfg, trial)
            got = [got.filtered_mse, got.smoothed_mse, got.backward_mse]
            ref = reference_trial(cfg, trial)
            if exact:
                assert got == ref
            else:
                assert got == pytest.approx(ref, rel=1e-12, abs=0)

    @pytest.mark.parametrize("scheme, beta", [("adaptive", "auto"), ("dual_homodyne", None)])
    def test_moments_match_direct_smoothed_error(self, scheme, beta):
        # unequal rates and weights: the moment form against the smoothed series itself
        est = EstimatorParams(2e5, 4e5, w_minus=0.3, w_plus=0.7)
        cfg = make_config(seed=5, estimator=est, scheme=scheme, beta=beta)
        i0, i1 = retained_window(cfg.grid, cfg.edge_discard)
        for trial in (0, 7):
            phi, series = reference_series(cfg, trial)
            forward, backward = apply_estimators(series, est, cfg.grid)
            smoothed = est.w_minus * forward + est.w_plus * backward
            direct = [float(np.mean((s[i0:i1] - phi[i0:i1]) ** 2))
                      for s in (forward, smoothed, backward)]
            got = run_trial(cfg, trial)
            got = [got.filtered_mse, got.smoothed_mse, got.backward_mse]
            assert got == pytest.approx(direct, rel=1e-12, abs=0)

    def test_peak_memory_is_four_arrays(self):
        # phi, theta, forward and backward: no smoothed series, no error copies
        cfg = make_config()
        assert peak_bytes(lambda: run_trial(cfg, 0)) <= 4.5 * 8 * cfg.grid.n_steps

    def test_peak_memory_of_phihat_is_five_arrays(self):
        # the loop estimate is one more array, filtered from theta: no loop record
        cfg = make_config(estimator=PHIHAT)
        assert peak_bytes(lambda: run_trial(cfg, 0)) <= 5.5 * 8 * cfg.grid.n_steps

    def test_calls_no_analytics(self, monkeypatch):
        # everything a trial needs was resolved when its config was built
        configs = [make_config(), make_config(estimator=PHIHAT),
                   make_config(scheme="dual_homodyne", dual_mode="arg")]

        def fail(*args, **kwargs):
            raise AssertionError("a trial called an analytics function")

        for name in ouphase.analytics.__all__:
            if callable(getattr(ouphase.analytics, name)):
                monkeypatch.setattr(ouphase.analytics, name, fail)
        for config in configs:
            assert run_trials([config], 0) == [run_trial(config, 0)]

    def test_pure_diffusion_fixed_init(self):
        params = ProcessParams(kappa=1.6e4, lam=0.0, flux=1.35e6)
        cfg = make_config(params=params)
        result = run_trial(cfg, 0)
        assert math.isfinite(result.smoothed_mse)

    def test_non_finite_mse_rejected(self):
        # at a dual flux of 1e-310 theta's errors overflow when squared
        cfg = make_config(duration=5e-4, seed=7, scheme="dual_homodyne",
                          params=ProcessParams(**{**AP, "flux": 1e-310}))
        with pytest.raises(StatisticsError, match="non-finite filtered MSE in trial 0"):
            run_trial(cfg, 0)


def rescaled(config, c):
    """``config`` with every rate (kappa, lambda, N, chi, omega0, a numeric beta)
    divided by c and every time (dt, duration, warmup, a numeric edge discard)
    multiplied by c."""
    p, g, e = config.params, config.grid, config.estimator
    edge = None if e.edge_discard is None else e.edge_discard * c
    beta = config.beta / c if isinstance(config.beta, float) else config.beta
    return replace(config, params=ProcessParams(p.kappa / c, p.lam / c, p.flux / c),
                   grid=SimGrid(g.dt * c, g.duration * c, g.warmup * c),
                   estimator=replace(e, chi_minus=e.chi_minus / c, chi_plus=e.chi_plus / c,
                                     edge_discard=edge),
                   beta=beta, omega0=config.omega0 / c)


class TestScaleCovariance:
    # With c a power of 4 every factor is exact in binary floating point
    # (rate*dt, sqrt(4x) = 2*sqrt(x), 5/chi), so a rescaled run must give the
    # same bits. At c = 3 the roundings differ and every trial type moves.
    CASES = pytest.mark.parametrize("est_kwargs, kwargs", [
        (dict(), dict()),
        (dict(source="phihat"), dict()),
        (dict(), dict(scheme="dual_homodyne")),
        (dict(), dict(scheme="dual_homodyne", dual_mode="arg")),
        (dict(source="phihat", edge_discard=6e-5), dict(beta=3e6)),
    ], ids=["theta", "phihat", "dual", "dual-arg", "phihat-numeric-beta-and-edge"])

    @staticmethod
    def check_bit_identical(est_kwargs, kwargs, c, duration):
        est = EstimatorParams(2e5, 4e5, w_minus=0.3, w_plus=0.7, **est_kwargs)
        cfg = make_config(estimator=est, duration=duration, **kwargs)
        scaled = rescaled(cfg, c)
        assert (scaled.window, scaled.grid.n_steps) == (cfg.window, cfg.grid.n_steps)
        for mode in ("filtered", "backward", "smoothed"):
            assert analytic_mse(scaled, mode) == analytic_mse(cfg, mode), mode
        for trial in (0, 7):
            assert run_trial(scaled, trial) == run_trial(cfg, trial)

    @pytest.mark.parametrize("c", [4, 16, 0.25])
    @CASES
    def test_trial_and_theory_are_bit_identical(self, est_kwargs, kwargs, c):
        self.check_bit_identical(est_kwargs, kwargs, c, 1e-3)

    @pytest.mark.parametrize("c", [4, 16, 0.25])
    @CASES
    def test_multi_block_trial_and_theory_are_bit_identical(self, est_kwargs, kwargs, c):
        self.check_bit_identical(est_kwargs, kwargs, c, MULTI_BLOCK)

    @pytest.mark.parametrize("c", [4, 16, 0.25])
    def test_optima_scale_by_one_over_c(self, c):
        params = ProcessParams(**AP)
        scaled = ProcessParams(params.kappa / c, params.lam / c, params.flux / c)
        assert improvement_ratios(scaled) == improvement_ratios(params)
        for mode in ("filtered", "smoothed"):
            for scheme in ("adaptive", "dual_homodyne"):
                opt, opt_c = optimal_chi(params, mode, scheme), optimal_chi(scaled, mode, scheme)
                assert (opt_c.chi_star, opt_c.mse_star) == (opt.chi_star / c, opt.mse_star)


def as_list(result):
    return [result.filtered_mse, result.smoothed_mse, result.backward_mse]


class TestBlocks:
    # A trial longer than a block carries every recursion's state across the
    # blocks, the backward average's exactly, from the last block back: it
    # must agree with the one-shot detector reference to rounding.
    UNEQUAL = dict(chi_minus=2e5, chi_plus=4e5, w_minus=0.3, w_plus=0.7)

    def test_grid_is_several_blocks_with_the_window_inside_them(self):
        cfg = make_config(duration=MULTI_BLOCK, estimator=EstimatorParams(**self.UNEQUAL))
        assert MIN_BLOCK == 2 ** 17
        assert cfg.grid.n_steps > 2 * MIN_BLOCK and cfg.grid.n_steps % MIN_BLOCK
        assert all(i % MIN_BLOCK for i in cfg.window)

    DETECTORS = pytest.mark.parametrize("est_kwargs, kwargs", [
        (dict(), dict()),
        (dict(source="phihat"), dict()),
        (dict(), dict(scheme="dual_homodyne")),
        (dict(), dict(scheme="dual_homodyne", dual_mode="arg")),
    ], ids=["theta", "phihat", "dual-linearized", "dual-arg"])

    @DETECTORS
    def test_trial_matches_the_one_shot_reference(self, est_kwargs, kwargs):
        est = EstimatorParams(**self.UNEQUAL, **est_kwargs)
        cfg = make_config(seed=5, duration=MULTI_BLOCK, estimator=est, **kwargs)
        for trial in (0, 7):
            assert as_list(run_trial(cfg, trial)) == pytest.approx(
                reference_trial(cfg, trial), rel=1e-15, abs=0)

    @DETECTORS
    def test_chunks_longer_than_a_block_match_the_one_shot_reference(self, est_kwargs, kwargs,
                                                                     monkeypatch):
        # window sums in chunks of 2**18 samples outlast a block of 2**17: a chunk
        # that a block boundary cuts is still short after the next whole block is joined
        monkeypatch.setattr(ouphase.experiment, "SUM_CHUNK", 2 ** 18)
        self.test_trial_matches_the_one_shot_reference(est_kwargs, kwargs)

    def test_shared_theta_configs_match_the_one_shot_reference(self):
        base = make_config(seed=5, duration=MULTI_BLOCK, scheme="dual_homodyne")
        configs = with_chi(base, 1e5, 2e5, 3e5, 4e5, 5e5)
        for trial in (0, 7):
            for got, config in zip(run_trials(configs, trial), configs):
                assert as_list(got) == pytest.approx(reference_trial(config, trial),
                                                     rel=1e-15, abs=0)

    def test_peak_memory_does_not_grow_with_duration(self):
        short, long = (make_config(duration=d) for d in (MULTI_BLOCK, 4 * MULTI_BLOCK))
        growth = peak_bytes(lambda: run_trial(long, 0)) - peak_bytes(lambda: run_trial(short, 0))
        assert abs(growth) < 8 * MIN_BLOCK

    @pytest.mark.parametrize("source", ["theta", "phihat"])
    @pytest.mark.parametrize("extra", [1, 2500, 2 ** 17 - 1, 2 ** 17, 2 ** 17 + 2500])
    def test_last_block_of_any_length_matches_the_one_shot_reference(self, extra, source):
        # the last block is the rest, from one sample (past the window) to a
        # whole block; at B + 2500 a carry passes through a whole middle block
        est = EstimatorParams(**self.UNEQUAL, source=source)
        cfg = make_config(seed=5, duration=(2 ** 17 + extra) * 2e-8, estimator=est)
        assert cfg.grid.n_steps == 2 ** 17 + extra
        for trial in (0, 7):
            assert as_list(run_trial(cfg, trial)) == pytest.approx(
                reference_trial(cfg, trial), rel=1e-15, abs=0)

    def test_one_estimator_pass_per_config_and_block(self, monkeypatch):
        # every block draws its own samples, the last one the rest, and each
        # config averages each block once
        n = 2 ** 17 + 2500
        configs = [make_config(seed=5, duration=n * 2e-8,
                               estimator=EstimatorParams(**self.UNEQUAL, source=source))
                   for source in ("theta", "phihat")]
        apply, passes = ouphase.experiment.apply_estimators, []

        def counted(series, params, *args):
            passes.append(params.source)
            return apply(series, params, *args)

        monkeypatch.setattr(ouphase.experiment, "apply_estimators", counted)
        draws = record_draws(monkeypatch)
        run_trials(configs, 0)
        [blocks] = draws[Role.PHASE_NOISE]
        assert blocks == [2 ** 17, 2500]
        assert passes == ["theta", "phihat"] * len(blocks)

    @pytest.mark.parametrize("source", ["theta", "phihat"])
    @pytest.mark.parametrize("chi", [2e3, 2e4])
    def test_peak_memory_does_not_grow_as_the_backward_rate_falls(self, chi, source):
        # blocks of 2**17 samples whatever chi_plus: a 10 ms trial at a slow
        # backward rate peaks near one at the default rate
        def peak(rate):
            cfg = make_config(duration=1e-2, estimator=EstimatorParams(rate, rate, source=source))
            assert cfg.grid.n_steps > 3 * MIN_BLOCK
            return peak_bytes(lambda: run_trial(cfg, 0))
        assert peak(chi) <= 1.25 * peak(CHI_OP)

    def test_phihat_filters_each_sample_once(self, monkeypatch):
        # the loop's start for the next block is one more step of its
        # recursion: no block filters samples past its end
        lengths, estimate = [], ouphase.experiment.feedback_estimate

        def counted(theta, *args):
            lengths.append(len(theta))
            return estimate(theta, *args)

        monkeypatch.setattr(ouphase.experiment, "feedback_estimate", counted)
        cfg = make_config(duration=MULTI_BLOCK, estimator=PHIHAT)
        run_trial(cfg, 0)
        assert lengths == [MIN_BLOCK, MIN_BLOCK, cfg.grid.n_steps - 2 * MIN_BLOCK]

    def test_peak_memory_does_not_grow_with_flux_points(self):
        # each run of configs with one N' builds its theta into the one row
        configs = flux_points(make_config(duration=MULTI_BLOCK))
        growth = (peak_bytes(lambda: run_trials(configs, 0))
                  - peak_bytes(lambda: run_trials(configs[:1], 0)))
        assert growth < 8 * MIN_BLOCK


# derandomized as tests/test_fuzz.py: a failure repeats, and is a finding
PROPERTY = settings(derandomize=True, database=None, deadline=None)


@st.composite
def window_cuts(draw):
    """[0, the block boundaries inside a window, its length]: pieces of any
    length, many shorter than a chunk of the window sums."""
    n = draw(st.integers(2, 5 * ouphase.experiment.SUM_CHUNK))
    return [0, *sorted(set(draw(st.lists(st.integers(1, n - 1), max_size=8)))), n]


@settings(PROPERTY, max_examples=100)
@given(cuts=window_cuts(), bufsize=st.sampled_from([None, 16]), seed=st.integers(0, 2 ** 32 - 1))
def test_window_sums_do_not_depend_on_the_blocks(cuts, bufsize, seed):
    # the forward errors are contiguous and the backward ones a reversed view,
    # as apply_estimators returns them; np.setbufsize does not move einsum's chunks
    rng = np.random.default_rng(seed)
    f, b = rng.standard_normal(cuts[-1]), rng.standard_normal(cuts[-1])[::-1]

    def sums(bounds):
        trial = ouphase.experiment._ConfigTrial(None)
        for lo, hi in zip(bounds, bounds[1:]):
            trial._moments(f[lo:hi], b[lo:hi], last=hi == cuts[-1])
        return trial.sums

    old = np.setbufsize(bufsize or np.getbufsize())
    try:
        whole = sums([0, cuts[-1]])
        assert sums(cuts) == whole
        if SAME_VERSIONS:  # one einsum sums in these chunks at the versions of tests/golden.json
            assert whole == [float(np.einsum("i,i->", x, y)) for x, y in ((f, f), (b, b), (f, b))]
    finally:
        np.setbufsize(old)


@settings(PROPERTY, max_examples=40)
@given(scheme=st.sampled_from(["adaptive", "dual_homodyne"]),
       scales=st.tuples(*[st.floats(-0.3, 0.3)] * 3), chis=st.tuples(*[st.floats(5, 6)] * 2),
       w_minus=st.floats(0, 1), dt=st.sampled_from([1e-8, 2e-8, 4e-8]),
       n=st.integers(30_000, 60_000), seed=st.integers(0, 2 ** 32 - 1))
def test_short_block_trials_have_the_discrete_models_mean(scheme, scales, chis, w_minus, dt, n,
                                                          seed):
    """A 30-trial ensemble of a linearized theta config at a random point of
    the box, in blocks of 2**10 samples (MIN_BLOCK low), so that the backward
    average's carry often spans several blocks, against the exact
    expectation of the sampled model: ``discrete_filtered_mse``
    at chi_minus (filtered) and chi_plus (backward), ``discrete_combined_mse``
    (smoothed), at the effective flux N'.

    The box: kappa, lambda and N at 10**[-0.3, 0.3] times AP's; chi_minus and
    chi_plus each in 10**[5, 6] /s; w_plus = 1 - w_minus; dt of 1e-8, 2e-8 or
    4e-8 s, so chi*dt <= 0.04; 3e4 to 6e4 samples.

    The bound is set before any run: 40 examples x 3 modes = 120 z-scores,
    a family-wise false-alarm rate of 1e-3 and Bonferroni give |z| <=
    4.46, the normal two-sided quantile at 1e-3/120. With 30 trials each z
    is closer to Student's t with 29 degrees of freedom, whose tails make that
    rate about 1.4e-2; the bound stays as set.
    """
    kappa, lam, flux = (AP[key] * 10 ** x for key, x in zip(("kappa", "lam", "flux"), scales))
    chi_minus, chi_plus = (10 ** x for x in chis)
    config = make_config(duration=n * dt, dt=dt, seed=seed, scheme=scheme,
                         params=ProcessParams(kappa=kappa, lam=lam, flux=flux),
                         estimator=EstimatorParams(chi_minus, chi_plus, w_minus=w_minus,
                                                   w_plus=1.0 - w_minus))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ouphase.experiment, "MIN_BLOCK", 2 ** 10)
        report = run_ensemble(config)
    n_eff = config.n_eff
    expected = {
        "filtered": discrete_filtered_mse(kappa, lam, n_eff, chi_minus, dt),
        "smoothed": discrete_combined_mse(kappa, lam, n_eff, chi_minus, chi_plus, w_minus,
                                          1.0 - w_minus, dt),
        "backward": discrete_filtered_mse(kappa, lam, n_eff, chi_plus, dt),
    }
    for mode, mse in expected.items():
        c = report.condition(mode)
        assert abs(c.mc_mse - mse) <= 4.46 * c.mc_stderr, (mode, (c.mc_mse - mse) / c.mc_stderr)


def flux_points(config):
    """``config`` at four fluxes: four runs of configs that read one measurement stream."""
    return [replace(config, params=replace(config.params, flux=flux))
            for flux in (1.35e6, 2.7e6, 5.4e6, 1.08e7)]


class NoHelper:
    """A thread executor that fails when a trial starts its helper thread."""

    def __init__(self, max_workers):
        raise AssertionError("a helper thread started")


class NoPool:
    """A process pool that fails when a run starts one."""

    def __init__(self, max_workers):
        raise AssertionError("a process pool started")


@pytest.fixture
def cpus(monkeypatch):
    """Sets the count of usable CPUs that the experiment sees."""
    def set_count(count):
        monkeypatch.setattr(ouphase.experiment, "_cpus", lambda: count)
    return set_count


@pytest.fixture
def quota(tmp_path, monkeypatch):
    """Points the cgroup CPU quota files at temporary ones, none there until
    ``quota(v2, v1)`` writes cpu.max's text (v2) or the quota's and the
    period's texts (v1), where given."""
    cpu_max, cfs = tmp_path / "cpu.max", (tmp_path / "cfs_quota_us", tmp_path / "cfs_period_us")
    monkeypatch.setattr(ouphase.experiment, "CPU_QUOTA", ((str(cpu_max),), tuple(map(str, cfs))))

    def write(v2=None, v1=()):
        if v2 is not None:
            cpu_max.write_text(v2)
        for path, text in zip(cfs, v1 or ()):
            path.write_text(text)
    return write


class TestDrawAhead:
    # A trial of more blocks, with a CPU free for it, draws each stream's next
    # block on one helper thread while it runs the block at hand: the same
    # draws, so the same results, and no thread outlives the trial.
    CASES = {
        "theta": lambda: [make_config(seed=5, duration=MULTI_BLOCK)],
        "phihat": lambda: [make_config(seed=5, duration=MULTI_BLOCK, estimator=PHIHAT)],
        "dual-linearized": lambda: [make_config(seed=5, duration=MULTI_BLOCK,
                                                scheme="dual_homodyne")],
        "dual-arg": lambda: [make_config(seed=5, duration=MULTI_BLOCK, scheme="dual_homodyne",
                                         dual_mode="arg")],
        # several runs read one stream's draw, none of them writes it
        "four-flux": lambda: flux_points(make_config(duration=MULTI_BLOCK)),
        # three runs read meas1 (one of them the arg model) and two read meas2
        "mixed": lambda: [make_config(seed=5, duration=MULTI_BLOCK),
                          make_config(seed=5, duration=MULTI_BLOCK, estimator=PHIHAT),
                          make_config(seed=5, duration=MULTI_BLOCK, scheme="dual_homodyne",
                                      dual_mode="arg"),
                          make_config(seed=5, duration=MULTI_BLOCK, scheme="dual_homodyne"),
                          make_config(seed=5, duration=MULTI_BLOCK,
                                      params=ProcessParams(**{**AP, "flux": 2.7e6}))],
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_inline_draws_equal_threaded_ones(self, case, cpus):
        cpus(2)
        configs = self.CASES[case]()
        assert configs[0].grid.n_steps > MIN_BLOCK
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # the threads trade the interpreter often
        try:
            threaded = [run_trials(configs, trial) for trial in range(8)]
        finally:
            sys.setswitchinterval(interval)
        cpus(1)  # no helper: each block's draw runs on the trial's thread
        assert [run_trials(configs, trial) for trial in range(8)] == threaded

    @pytest.mark.parametrize("duration, count", [(5e-4, 64), (MULTI_BLOCK, 1), (MULTI_BLOCK, 2)],
                             ids=["one-block", "multi-block-inline", "multi-block-helper"])
    def test_each_stream_is_drawn_once_per_block(self, duration, count, cpus, monkeypatch):
        # a flux sweep reads meas1 at two N': one generator, and one draw of
        # it per block, serves both, on the helper thread or not
        cpus(count)
        configs = flux_sweep_configs("adaptive", duration)
        draws = record_draws(monkeypatch)
        run_trials(configs, 0)
        n = configs[0].grid.n_steps
        block = min(n, MIN_BLOCK)
        assert {role: [sum(lengths) for lengths in made] for role, made in draws.items()} == {
            Role.PHASE_NOISE: [n], Role.MEASUREMENT_NOISE: [n]}
        assert [len(made[0]) for made in draws.values()] == [math.ceil(n / block)] * 2

    def test_one_helper_thread_that_ends_with_the_trial(self, cpus, monkeypatch):
        cpus(2)
        apply, during = ouphase.experiment.apply_estimators, []

        def counted(*args, **kwargs):
            during.append(threading.active_count())
            return apply(*args, **kwargs)

        monkeypatch.setattr(ouphase.experiment, "apply_estimators", counted)
        before = threading.active_count()
        run_trial(make_config(duration=MULTI_BLOCK), 0)
        assert threading.active_count() == before
        assert len(during) == 3 and set(during) == {before + 1}

    # the blocks whose estimators run before the failure: none when a
    # measurement stream's generator fails, after the phase stream's first draw
    # went to the helper thread
    @pytest.mark.parametrize("failure, blocks", [("second block", 2), ("first block", 1),
                                                 ("measurement generator", 0)],
                             ids=["second-block", "first-block", "measurement-generator"])
    def test_helper_thread_ends_when_a_block_fails(self, failure, blocks, cpus, monkeypatch):
        cpus(2)
        apply, make, during = ouphase.experiment.apply_estimators, NoiseStream.generator, []

        def fails_in_a_block(*args, **kwargs):
            during.append(threading.active_count())
            if len(during) == blocks:
                raise RuntimeError(failure)
            return apply(*args, **kwargs)

        def fails_for_measurement_noise(stream):
            if stream.role == Role.MEASUREMENT_NOISE:
                raise RuntimeError(failure)
            return make(stream)

        monkeypatch.setattr(ouphase.experiment, "apply_estimators", fails_in_a_block)
        if not blocks:
            monkeypatch.setattr(NoiseStream, "generator", fails_for_measurement_noise)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match=failure):
            run_trial(make_config(duration=MULTI_BLOCK), 0)
        assert threading.active_count() == before
        assert during == [before + 1] * blocks

    def test_one_helper_thread_for_a_serial_pass(self, cpus, monkeypatch):
        # the pass owns the helper: each trial's last block draws the next
        # trial's first, so the thread lives from the first trial to the last
        cpus(2)
        made, apply, make = [], ouphase.experiment.apply_estimators, NoiseStream.generator
        # the trial index of each generator made; at each estimator pass, the
        # thread count and the highest of those indices
        keyed, during = [], []

        class Counted(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                made.append(self)
                super().__init__(*args, **kwargs)

        def recorded(stream):
            keyed.append(stream.trial_index)
            return make(stream)

        def counted(*args, **kwargs):
            during.append((threading.active_count(), max(keyed)))
            return apply(*args, **kwargs)

        monkeypatch.setattr(ouphase.experiment, "ThreadPoolExecutor", Counted)
        monkeypatch.setattr(ouphase.experiment, "apply_estimators", counted)
        monkeypatch.setattr(NoiseStream, "generator", recorded)
        before = threading.active_count()
        run_ensemble(make_config(duration=MULTI_BLOCK, trials=30))
        assert threading.active_count() == before
        assert len(made) == 1
        # three blocks a trial: the last one's pass runs with the next trial's draws begun
        assert during == [(before + 1, k) for i in range(30) for k in (i, i, min(i + 1, 29))]

    @pytest.mark.parametrize("failure", [RuntimeError, KeyboardInterrupt])
    def test_no_thread_outlives_a_pass_that_fails(self, failure, cpus, monkeypatch):
        # trial 3 of 30 fails in its second block, while the helper may be
        # drawing its third
        cpus(2)
        apply, during = ouphase.experiment.apply_estimators, []

        def fails_in_trial_3(*args, **kwargs):
            during.append(threading.active_count())
            if len(during) == 3 * 3 + 2:
                raise failure("trial 3")
            return apply(*args, **kwargs)

        monkeypatch.setattr(ouphase.experiment, "apply_estimators", fails_in_trial_3)
        before = threading.active_count()
        with pytest.raises(failure, match="trial 3"):
            run_ensembles([make_config(duration=MULTI_BLOCK, trials=30)])
        assert threading.active_count() == before
        assert during == [before + 1] * (3 * 3 + 2)

    def test_a_draw_of_another_length_is_refused_under_optimization(self):
        # python -O strips asserts: the length check must raise on its own
        script = (
            "import ouphase.experiment as ex\n"
            "from ouphase import EstimatorParams, ExperimentConfig, ProcessParams, SimGrid\n"
            f"cfg = ExperimentConfig(params=ProcessParams(**{AP!r}),\n"
            f"    grid=SimGrid(dt=2e-8, duration={MULTI_BLOCK!r}),\n"
            f"    estimator=EstimatorParams({CHI_OP!r}, {CHI_OP!r}), trials=30, master_seed=5)\n"
            "lengths = ex._draw_lengths\n"
            "ex._draw_lengths = lambda *args: [k - 1 for k in lengths(*args)]\n"
            "try:\n"
            "    ex.run_trial(cfg, 3)\n"
            "except RuntimeError as exc:\n"
            "    print(exc)\n"
        )
        src = str(Path(ouphase.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        done = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": path}, timeout=300)
        assert done.returncode == 0, done.stderr
        stream = NoiseStream(5, 3, Role.PHASE_NOISE)
        assert done.stdout == (f"{stream} drew {MIN_BLOCK - 1} normals for a block "
                               f"that reads {MIN_BLOCK}\n")

    def test_a_draw_longer_than_its_buffer_row_is_named(self, cpus, monkeypatch):
        # refused before it is submitted, not inside numpy on the helper thread
        cpus(2)
        lengths = ouphase.experiment._draw_lengths
        monkeypatch.setattr(ouphase.experiment, "_draw_lengths",
                            lambda *args: [k + 1 for k in lengths(*args)])
        before = threading.active_count()
        stream = NoiseStream(5, 3, Role.PHASE_NOISE)
        with pytest.raises(RuntimeError) as raised:
            run_trial(make_config(seed=5, duration=MULTI_BLOCK), 3)
        assert str(raised.value) == (f"{stream} draws {MIN_BLOCK + 1} normals for a "
                                     f"block whose buffer row holds {MIN_BLOCK}")
        assert threading.active_count() == before

    def test_no_helper_without_a_free_cpu(self, cpus, monkeypatch):
        cfg = make_config(duration=MULTI_BLOCK)
        cpus(2)
        expected = run_trial(cfg, 0)
        cpus(1)
        monkeypatch.setattr(ouphase.experiment, "ThreadPoolExecutor", NoHelper)
        assert run_trial(cfg, 0) == expected
        cpus(64)
        for duration in (1e-3, MIN_BLOCK * 2e-8):  # one block: no helper at any CPU count
            run_trial(make_config(duration=duration), 0)

    @pytest.mark.parametrize("count, helper", [(2, False), (4, True)])
    def test_pool_workers_draw_ahead_only_with_a_cpu_each_to_spare(self, count, helper, cpus,
                                                                  pool_sizes, monkeypatch):
        # the pool's tasks run in this process (pool_sizes), where the patches
        # hold whatever the start method: a forkserver worker would not see them
        cpus(count)
        monkeypatch.setattr(ouphase.experiment, "ThreadPoolExecutor", NoHelper)
        cfg = make_config(duration=MULTI_BLOCK, trials=30)
        if helper:
            with pytest.raises(AssertionError, match="a helper thread started"):
                run_ensemble(cfg, workers=2)
        else:
            run_ensemble(cfg, workers=2)
        assert pool_sizes == [2]

    def test_one_usable_cpu_is_the_serial_loop(self, quota, monkeypatch):
        # the CPUs the process may run on, not the machine's, size the pool and
        # set the helper rule: on one, a pool of one is the serial loop, no helper
        cfg = make_config(duration=MULTI_BLOCK, trials=30)
        serial = run_ensemble(cfg)
        monkeypatch.setattr(ouphase.experiment.os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        monkeypatch.setattr(ouphase.experiment.os, "cpu_count", lambda: 64)
        monkeypatch.setattr(ouphase.experiment, "ThreadPoolExecutor", NoHelper)
        monkeypatch.setattr(ouphase.experiment, "ProcessPoolExecutor", NoPool)
        assert run_ensemble(cfg, workers=2) == serial

    @pytest.mark.parametrize("count, cpus", [(None, 1), (3, 3)])
    def test_cpu_count_without_an_affinity_mask(self, count, cpus, quota, monkeypatch):
        monkeypatch.delattr(ouphase.experiment.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(ouphase.experiment.os, "cpu_count", lambda: count)
        assert ouphase.experiment._cpus() == cpus

    @pytest.mark.parametrize("cpu_max, cfs, cpus", [
        (None, None, 4),                              # no cgroup files
        ("max 100000\n", None, 4),                    # v2 without a limit
        ("250000 100000\n", None, 2),                 # v2: 2.5 CPUs of time
        ("50000 100000\n", None, 1),                  # under one CPU's time: still one
        (None, ("-1\n", "100000\n"), 4),              # v1 without a limit
        (None, ("300000\n", "100000\n"), 3),
        (None, ("800000\n", "100000\n"), 4),          # more time than the mask has CPUs
        ("max 100000\n", ("100000\n", "100000\n"), 4),  # v2 read first
        ("a lot\n", None, 4),                         # unreadable: no limit
    ])
    def test_cgroup_cpu_quota_caps_the_usable_cpus(self, cpu_max, cfs, cpus, quota, monkeypatch):
        monkeypatch.setattr(ouphase.experiment.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                            raising=False)
        quota(cpu_max, cfs)
        assert ouphase.experiment._cpus() == cpus

    def test_serial_and_pool_reports_are_equal(self):
        cfg = make_config(duration=MULTI_BLOCK, trials=30)
        assert run_ensemble(cfg) == run_ensemble(cfg, workers=2)

    def test_pool_reports_equal_serial_under_forkserver_and_spawn(self):
        # forkserver is the default start method on Linux from Python 3.14; a
        # worker then imports the package afresh instead of inheriting it
        script = (
            "import multiprocessing\n"
            "from ouphase import EstimatorParams, ExperimentConfig, ProcessParams, SimGrid\n"
            "from ouphase import run_ensemble\n"
            f"cfg = ExperimentConfig(params=ProcessParams(**{AP!r}),\n"
            f"    grid=SimGrid(dt=2e-8, duration={MULTI_BLOCK!r}),\n"
            f"    estimator=EstimatorParams({CHI_OP!r}, {CHI_OP!r}), trials=30)\n"
            "serial = run_ensemble(cfg)\n"
            "for method in ('forkserver', 'spawn'):\n"
            "    multiprocessing.set_start_method(method, force=True)\n"
            "    print(method, run_ensemble(cfg, workers=2) == serial)\n"
        )
        src = str(Path(ouphase.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path}, timeout=300)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "forkserver True\nspawn True\n"


class TestRunEnsemble:
    def test_too_few_trials(self):
        with pytest.raises(StatisticsError):
            run_ensemble(make_config(trials=10))

    @pytest.mark.parametrize("workers", [0, -3, 1.5, True, "2"])
    def test_workers_validation(self, workers):
        cfg = make_config(duration=5e-4)
        with pytest.raises(ParameterError, match="workers"):
            run_ensemble(cfg, workers=workers)
        with pytest.raises(ParameterError, match="workers"):
            sweep(cfg, "chi", [2e5, 3e5], workers=workers)

    def test_report_structure_and_analytics(self):
        cfg = make_config(trials=30)
        rep = run_ensemble(cfg)
        modes = [c.mode for c in rep.conditions]
        assert modes == ["filtered", "smoothed"]
        filt = rep.condition("filtered")
        assert filt.analytic_mse == filtered_mse(cfg.params, CHI_OP)
        assert filt.trials == 30
        assert math.isfinite(filt.z_score)
        assert rep.backward.mode == "backward"
        assert rep.backward.analytic_mse == filtered_mse(cfg.params, CHI_OP)
        with pytest.raises(ParameterError):
            rep.condition("acausal")

    def test_parallel_matches_serial(self):
        cfg = make_config(trials=30, duration=5e-4)
        assert run_ensemble(cfg, workers=1) == run_ensemble(cfg, workers=WORKERS)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_report_is_numpy_of_its_own_trials_bit_for_bit(self, workers):
        # each mode's mean and stderr are those of its run_trial samples, in
        # index order, to the last bit
        cfg = make_config(trials=30, duration=5e-4)
        samples = zip(*(as_list(run_trial(cfg, i)) for i in range(30)))
        rep = run_ensemble(cfg, workers=workers)
        for mode, values in zip(("filtered", "smoothed", "backward"), samples):
            condition = rep.condition(mode)
            assert condition.mc_mse == float(np.mean(values))
            assert condition.mc_stderr == float(np.std(values, ddof=1) / math.sqrt(30))

    def test_degenerate_ensemble_rejected(self, silent_trials):
        with pytest.raises(StatisticsError):
            run_ensemble(make_config())

    def test_matches_discrete_model_at_coarse_dt(self):
        # MC mean against the independently derived sampled-model closed form
        cfg = make_config(duration=5e-3, trials=60, seed=1021)
        rep = run_ensemble(cfg, workers=WORKERS)
        p = cfg.params
        filt = rep.condition("filtered")
        target_f = discrete_filtered_mse(p.kappa, p.lam, p.flux, CHI_OP, cfg.grid.dt)
        assert abs(filt.mc_mse - target_f) <= 3 * filt.mc_stderr
        smth = rep.condition("smoothed")
        target_s = discrete_combined_mse(p.kappa, p.lam, p.flux, CHI_OP, CHI_OP, 0.5, 0.5,
                                         cfg.grid.dt)
        assert abs(smth.mc_mse - target_s) <= 3 * smth.mc_stderr

    def test_paired_with_the_discrete_kalman_filter(self):
        """40 trials of 5 ms of ``reference_series`` (AP, dt = 2e-8 s, chi =
        CHI_OP): on each trial's theta, the exponential filter and the
        steady-state Kalman filter of the sampled model (``discrete_kalman``),
        x[k] = (1 - K)*rho*x[k-1] + K*theta[k] from x[-1] = 0, over the config's
        window. The Kalman filter's mean MSE is its error P, and the mean
        per-trial difference d of the two MSEs is discrete_filtered_mse - P,
        the exponential filter's excess over the discrete optimum: the pairing
        cancels most of the trials' spread.

        The bound is set before any run: 2 z-scores, a family-wise false-alarm
        rate of 1e-3 and Bonferroni give |z| <= 3.48. The excess must also be
        resolved, at more than 10 standard errors of d.
        """
        from scipy.signal import lfilter

        config = make_config(duration=5e-3, trials=40, seed=2509)
        p, dt = config.params, config.grid.dt
        gain, floor = discrete_kalman(p.kappa, p.lam, p.flux, dt)
        excess = discrete_filtered_mse(p.kappa, p.lam, p.flux, CHI_OP, dt) - floor
        rho = math.exp(-p.lam * dt)
        i0, i1 = config.window
        mses = []  # per trial: the exponential filter's MSE, the Kalman filter's
        for i in range(config.trials):
            phi, theta = reference_series(config, i)
            forward = causal_exponential_average(theta, CHI_OP, dt)
            optimal = lfilter([gain], [1.0, -(1.0 - gain) * rho], theta)
            mses.append([float(np.mean((x[i0:i1] - phi[i0:i1]) ** 2)) for x in (forward, optimal)])
        exponential, kalman = np.array(mses).T
        d = exponential - kalman
        for samples, expected in ((kalman, floor), (d, excess)):
            stderr = np.std(samples, ddof=1) / math.sqrt(len(samples))
            assert abs(np.mean(samples) - expected) <= 3.48 * stderr, (
                np.mean(samples), expected, (np.mean(samples) - expected) / stderr)
        assert np.mean(d) > 10 * np.std(d, ddof=1) / math.sqrt(len(d))

    def test_forward_backward_symmetry(self):
        rep = run_ensemble(make_config(duration=2e-3, trials=40, seed=2356), workers=WORKERS)
        filt, back = rep.condition("filtered"), rep.backward
        combined = math.hypot(filt.mc_stderr, back.mc_stderr)
        assert abs(filt.mc_mse - back.mc_mse) <= 3 * combined

    def test_stderr_scaling_with_trials(self):
        # stderr ~ trials^(-1/2): consecutive quadruplings halve it twice
        cfg = make_config(duration=5e-4, seed=871)
        stderr = {}
        for trials in (50, 200, 800):
            rep = run_ensemble(replace(cfg, trials=trials), workers=WORKERS)
            stderr[trials] = rep.condition("filtered").mc_stderr
        assert 1.6 <= stderr[50] / stderr[200] <= 2.4
        assert 1.6 <= stderr[200] / stderr[800] <= 2.4

    def test_dt_robustness_bias_below_noise(self):
        # the sampled-model bias shift from halving dt stays below one MC
        # standard error unit of a 200-trial, 10 ms ensemble
        p = ProcessParams(**AP)
        stderr_like = 0.0226 * filtered_mse(p, CHI_OP) / math.sqrt(200)
        for dt in (2e-8, 5e-9):
            coarse = discrete_filtered_mse(p.kappa, p.lam, p.flux, CHI_OP, dt)
            fine = discrete_filtered_mse(p.kappa, p.lam, p.flux, CHI_OP, dt / 2)
            assert abs(coarse - fine) < stderr_like


class TestSweep:
    def test_value_validation(self):
        cfg = make_config()
        for bad in ([], [1e5, -2e5], [2e5, 1e5], [1e5, 1e5]):
            with pytest.raises(ParameterError):
                sweep(cfg, "chi", bad)
        with pytest.raises(ParameterError):
            sweep(cfg, "omega", [1e5, 2e5])

    def test_numeric_beta_rejected(self):
        # the sweeps and compare set beta from chi at every point: a fixed one would be dropped
        cfg = make_config(duration=5e-4, beta=1.5e6)
        for who, run in (("a chi sweep", lambda: sweep(cfg, "chi", [2e5, 3e5])),
                         ("a flux sweep", lambda: sweep(cfg, "flux", [1.35e6, 2.7e6])),
                         ("compare", lambda: compare(cfg))):
            with pytest.raises(ParameterError, match=f"{who} sets beta from chi at every "
                                                     "point: beta must be 'auto', got 1500000.0"):
                run()

    def test_flux_without_interior_optimum_rejected(self):
        # at flux 1e3 both optima sit at chi -> 0: no estimator at chi = 0 is built
        with pytest.raises(ParameterError, match="flux 1000 has no interior filtered optimum"):
            sweep(make_config(duration=5e-4, trials=30), "flux", [1e3, 1.35e6])

    def test_chi_sweep_sets_rates_and_gain_per_point(self):
        cfg = make_config(duration=5e-4, trials=30)
        values = [2e5, 3.5e5]
        reports = sweep(cfg, "chi", values, workers=WORKERS)
        assert len(reports) == 2
        for rep, chi in zip(reports, values):
            assert rep.condition("filtered").chi == chi
            assert rep.config.loop.beta == optimal_beta(chi, cfg.params.flux)
            assert rep.condition("filtered").analytic_mse == filtered_mse(cfg.params, chi)

    def test_chi_sweep_smoothing_never_loses(self):
        cfg = make_config(duration=2e-3, trials=30, seed=4771)
        chis = [0.5 * CHI_OP, CHI_OP, 2 * CHI_OP]
        for rep in sweep(cfg, "chi", chis, workers=WORKERS):
            filt, smth = rep.condition("filtered"), rep.condition("smoothed")
            slack = 3 * math.hypot(filt.mc_stderr, smth.mc_stderr)
            assert smth.mc_mse <= filt.mc_mse + slack

    def test_flux_sweep_reoptimizes_chi_per_mode(self):
        cfg = make_config(duration=5e-4, trials=30)
        values = [1.35e6, 2.7e6]
        reports = sweep(cfg, "flux", values, workers=WORKERS)
        for rep, flux in zip(reports, values):
            params = replace(cfg.params, flux=flux)
            filt, smth = rep.condition("filtered"), rep.condition("smoothed")
            assert filt.flux == flux
            assert filt.chi == pytest.approx(optimal_chi(params, "filtered").chi_star, rel=1e-12)
            assert smth.chi == pytest.approx(optimal_chi(params, "smoothed").chi_star, rel=1e-12)
            assert smth.mc_mse < filt.mc_mse


def with_chi(config, *chis):
    """``config`` at each rate (both estimators), as a chi sweep builds it."""
    return [replace(config, estimator=replace(config.estimator, chi_minus=c, chi_plus=c))
            for c in chis]


def flux_sweep_configs(scheme, duration=5e-4, fluxes=(1.35e6, 2.7e6)):
    """The configs of a flux sweep: each flux at both optimal rates."""
    configs = []
    for flux in fluxes:
        params = ProcessParams(**{**AP, "flux": flux})
        chis = [optimal_chi(params, mode, scheme).chi_star for mode in ("filtered", "smoothed")]
        configs += with_chi(make_config(duration=duration, params=params, scheme=scheme), *chis)
    return configs


def record_draws(monkeypatch):
    """The lengths of the draws each stream's generators make: by role, one
    list per generator made."""
    draws, make = {}, NoiseStream.generator

    def recording(stream):
        draw, lengths = make(stream).standard_normal, []
        draws.setdefault(stream.role, []).append(lengths)

        def standard_normal(*args, **kwargs):
            drawn = draw(*args, **kwargs)
            lengths.append(len(drawn))
            return drawn
        return SimpleNamespace(standard_normal=standard_normal)

    monkeypatch.setattr(NoiseStream, "generator", recording)
    return draws


def compare_configs(dual_mode):
    """The adaptive and dual configs of ``compare``, as its reports carry them."""
    reports, _ = compare(make_config(duration=5e-4), dual_mode)
    return [report.config for report in reports]


class TestRunEnsembles:
    CASES = {
        "chi-theta": lambda: with_chi(make_config(duration=5e-4), 2e5, 3e5, 4.5e5),
        "chi-phihat": lambda: with_chi(make_config(duration=5e-4, estimator=PHIHAT),
                                       2e5, 3e5, 4.5e5),
        "flux-adaptive": lambda: flux_sweep_configs("adaptive"),
        "flux-dual": lambda: flux_sweep_configs("dual_homodyne"),
        "compare-linearized": lambda: compare_configs("linearized"),
        "compare-arg": lambda: compare_configs("arg"),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_equals_one_ensemble_per_config(self, case):
        configs = self.CASES[case]()
        separate = [run_ensemble(c) for c in configs]
        assert run_ensembles(configs) == separate
        if case == "chi-theta":
            assert run_ensembles(configs, workers=WORKERS) == separate

    @pytest.mark.parametrize("case", list(CASES))
    def test_theory_comes_from_analytic_mse(self, case):
        for report in run_ensembles(self.CASES[case]()):
            for cell in report.conditions + (report.backward,):
                assert cell.analytic_mse == analytic_mse(report.config, cell.mode)

    @pytest.mark.parametrize("duration", [1e-3, MULTI_BLOCK], ids=["one-block", "multi-block"])
    def test_trials_equal_run_trial_across_changes_of_input(self, duration):
        # theta reused, rebuilt for a new N', and interrupted by per-config inputs;
        # over more blocks, each config carries its own starts across their boundaries
        base = make_config(seed=5, duration=duration)
        dual = dict(seed=5, duration=duration, scheme="dual_homodyne")
        configs = [*with_chi(base, 2e5, 3e5), replace(base, estimator=PHIHAT),
                   make_config(chi=2e5, **dual), make_config(dual_mode="arg", **dual),
                   make_config(chi=2.5e5, dual_mode="arg", **dual),
                   make_config(chi=2.5e5, **dual), *with_chi(base, 4e5),
                   replace(base, params=ProcessParams(**{**AP, "flux": 2.7e6}))]
        for trial in (0, 7):
            assert run_trials(configs, trial) == [run_trial(c, trial) for c in configs]

    @pytest.mark.parametrize("change", [
        dict(params=ProcessParams(**{**AP, "kappa": 2e4})),
        dict(params=ProcessParams(**{**AP, "lam": 5e4})),
        dict(grid=SimGrid(dt=2e-8, duration=2e-3)),
        dict(master_seed=100),
        dict(trials=40),
    ], ids=["kappa", "lam", "grid", "seed", "trials"])
    def test_configs_must_share_trials(self, change, monkeypatch):
        base, calls = make_config(), count_draws(monkeypatch)
        with pytest.raises(ParameterError, match="agree in"):
            run_ensembles([base, replace(base, **change)])
        with pytest.raises(ParameterError, match="agree in"):
            run_trials([base, replace(base, **change)], 0)
        assert calls["simulate_ou"] == 0

    def test_multi_block_configs_share_one_pass(self, cpus):
        # the streams chain from trial to trial over every index of the loop,
        # serially and in each pool task; with 4 CPUs a 2-process pool's tasks
        # draw on their own helpers
        a = make_config(duration=MULTI_BLOCK, trials=30)
        b = with_chi(a, 1e5)[0]
        cpus(2)
        separate = [run_ensemble(a), run_ensemble(b)]
        for count, workers in [(2, 1), (1, 1), (2, 2), (1, 2), (4, 2)]:
            cpus(count)
            assert run_ensembles([a, b], workers=workers) == separate, (count, workers)
        cpus(2)
        samples = ouphase.experiment._run_indices([a, b], range(30))
        assert (samples.dtype, samples.shape) == (np.float64, (2, 3, 30))
        assert not np.isnan(samples).any()
        for k, config in enumerate([a, b]):
            trials = samples[k].T  # one row of three MSE samples per index
            assert trials.tolist() == [as_list(run_trial(config, i)) for i in range(30)]

    def test_every_config_needs_enough_trials(self, monkeypatch):
        calls = count_draws(monkeypatch)
        with pytest.raises(StatisticsError, match="10 trials < 30"):
            run_ensembles([make_config(trials=10), make_config(trials=10, chi=4e5)])
        assert calls["simulate_ou"] == 0

    def test_empty_config_list_rejected(self):
        with pytest.raises(ParameterError):
            run_ensembles([])

    @pytest.mark.parametrize("run, draws", [
        (lambda: sweep(make_config(duration=5e-4), "chi", [1e5, 2e5, 3e5, 4e5, 5e5]), (30, 30, 0)),
        (lambda: sweep(make_config(duration=5e-4, estimator=PHIHAT), "chi",
                       [1e5, 2e5, 3e5, 4e5, 5e5]), (30, 30, 0)),
        (lambda: sweep(make_config(duration=5e-4, scheme="dual_homodyne", dual_mode="arg"),
                       "chi", [1e5, 2e5, 3e5, 4e5, 5e5]),
         (30, 60, 0)),
        (lambda: sweep(make_config(duration=5e-4), "flux", [1.35e6, 2.7e6]), (30, 30, 0)),
        (lambda: compare(make_config(duration=5e-4)), (30, 60, 0)),
        (lambda: compare(make_config(duration=5e-4), "arg"), (30, 60, 0)),
    ], ids=["chi-sweep", "chi-sweep-phihat", "chi-sweep-arg", "flux-sweep", "compare",
            "compare-arg"])
    def test_draws_each_trial_index_once(self, run, draws, monkeypatch):
        # one phi and one dW per measurement stream read, per trial index, however
        # many configs, detector models and N' read them; no two-arm run, as
        # trials build the arg model's theta from the shared increments
        calls = count_draws(monkeypatch)
        run()
        assert tuple(calls.values()) == draws

    def test_sweep_checks_every_point_before_any_trial(self, monkeypatch):
        calls = count_draws(monkeypatch)
        with pytest.raises(ConfigurationError, match="grid too coarse"):
            sweep(make_config(duration=5e-4), "chi", [2e5, 3e7])  # chi*dt = 0.6 at the end
        assert calls["simulate_ou"] == 0

    def test_peak_memory_of_five_configs_is_four_arrays(self):
        # each config's forward and backward arrays are freed before the next's
        configs = with_chi(make_config(), 1e5, 2e5, 3e5, 4e5, 5e5)
        assert peak_bytes(lambda: run_trials(configs, 0)) <= 4.5 * 8 * configs[0].grid.n_steps

    def test_peak_memory_of_a_one_block_flux_sweep_is_five_arrays(self):
        # a stream's one draw is held until the last run that reads it has built
        # its theta: one array more than a single config, never one per reader
        configs = flux_sweep_configs("adaptive", 1e-3, (1.35e6, 2.7e6, 5.4e6))
        assert configs[0].grid.n_steps <= MIN_BLOCK
        assert peak_bytes(lambda: run_trials(configs, 0)) <= 5.5 * 8 * configs[0].grid.n_steps

    def test_peak_memory_of_a_one_block_arg_sweep_is_seven_arrays(self):
        # phi, theta, both arms' increments and the arg model's three temporaries
        configs = with_chi(make_config(scheme="dual_homodyne", dual_mode="arg"), 2e5, 3e5, 4e5)
        assert configs[0].grid.n_steps <= MIN_BLOCK
        assert peak_bytes(lambda: run_trials(configs, 0)) <= 7.5 * 8 * configs[0].grid.n_steps

    @pytest.mark.parametrize("workers, trials, cpus, size", [
        (5000, 30, 64, 4),    # ceil(30 / 8) chunks of trials
        (3, 200, 64, 3),      # as asked
        (5000, 200, 2, 2),    # the usable CPUs
    ])
    def test_pool_sized_from_the_work(self, workers, trials, cpus, size, pool_sizes,
                                      monkeypatch):
        monkeypatch.setattr(ouphase.experiment, "_cpus", lambda: cpus)
        cfg = make_config(duration=2e-4, trials=trials)
        assert run_ensemble(cfg, workers=workers) == run_ensemble(cfg)
        assert pool_sizes == [size]


class TestCompareSchemes:
    def test_gains_from_matched_reports(self):
        (rep_ap, rep_dh), gains = compare(make_config(duration=1e-3, trials=40, seed=3341),
                                          workers=WORKERS)
        assert (rep_ap.config.scheme, rep_dh.config.scheme) == ("adaptive", "dual_homodyne")
        assert gains.smoothing_gain == pytest.approx(
            rep_ap.condition("filtered").mc_mse / rep_ap.condition("smoothed").mc_mse, rel=1e-12)
        assert gains.adaptive_gain > 1.2
        assert gains.total_gain > 2.0
        for err in (gains.smoothing_gain_stderr, gains.adaptive_gain_stderr,
                    gains.total_gain_stderr):
            assert err > 0
