import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

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
    combine_smoothed,
    compare_schemes,
    filtered_mse,
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
from ouphase.estimators import retained_window
from ouphase.experiment import default_edge_discard

from conftest import WORKERS
from oracles import AP, CHI_OP, discrete_combined_mse, discrete_filtered_mse


def reference_series(config, trial_index):
    """(phi, estimator input) of a trial through the detectors' physical
    models: the feedback loop for the adaptive scheme, both dual-homodyne arms
    for the dual arg mode, and the explicit small-angle formula at N/2 for
    the dual linearized mode."""
    phase, meas1, meas2 = (NoiseStream(config.master_seed, trial_index, role, config.noise_scale)
                           for role in Role)
    phi = simulate_ou(config.params, config.grid, phase)
    if config.scheme == "adaptive":
        fb = FeedbackParams(config.resolved_beta(), config.omega0)
        traj = run_adaptive_loop(phi, config.params, fb, config.grid, meas1)
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
    i0, i1 = retained_window(config.grid, config.resolved_edge_discard())
    # series -> MSEs by the moment rule: errors in place over the window (the
    # backward one a reversed view), smoothed from the forward/backward moments
    f, b = forward[i0:i1], backward[i0:i1]
    f -= phi[i0:i1]
    b -= phi[i0:i1]
    ff, bb, fb = (float(np.einsum("i,i->", x, y)) / f.size for x, y in ((f, f), (b, b), (f, b)))
    wm, wp = config.estimator.w_minus, config.estimator.w_plus
    return [ff, wm * wm * ff + wp * wp * bb + 2.0 * wm * wp * fb, bb]


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


class TestConfigValidation:
    def test_auto_beta_requires_adaptive(self):
        est = EstimatorParams(CHI_OP, CHI_OP)
        with pytest.raises(ParameterError):
            make_config(scheme="dual_homodyne", beta="auto", estimator=est)

    def test_adaptive_requires_beta(self):
        with pytest.raises(ParameterError):
            make_config(beta=None)

    def test_dual_scheme_rejects_numeric_beta(self):
        # the dual scheme runs no feedback loop: only beta=None is accepted
        for beta in (1e6, 0.5, -1.0, float("nan")):
            with pytest.raises(ParameterError, match="adaptive scheme only"):
                make_config(scheme="dual_homodyne", beta=beta)

    def test_adaptive_scheme_rejects_arg_mode(self):
        # arg mode is a dual-homodyne detector model; the adaptive scheme has none
        with pytest.raises(ParameterError, match="dual_homodyne scheme only"):
            make_config(dual_mode="arg")
        assert make_config(scheme="dual_homodyne", beta=None, dual_mode="arg").dual_mode == "arg"

    def test_coarse_grid_rejected_at_construction(self):
        # chi*dt >= 0.5 for either rate fails when the config is built, not in a trial
        for chi_minus, chi_plus in ((3e7, CHI_OP), (CHI_OP, 3e7)):
            with pytest.raises(ConfigurationError, match="grid too coarse"):
                make_config(estimator=EstimatorParams(chi_minus, chi_plus))

    def test_phihat_source_requires_adaptive(self):
        est = EstimatorParams(CHI_OP, CHI_OP, source="phihat")
        with pytest.raises(ParameterError):
            make_config(scheme="dual_homodyne", beta=None, estimator=est)

    def test_resolved_beta_auto_uses_larger_rate(self):
        cfg = make_config(estimator=EstimatorParams(2e5, 4e5, w_minus=0.3, w_plus=0.7))
        assert cfg.resolved_beta() == optimal_beta(4e5, cfg.params.flux)

    def test_unstable_resolved_beta_rejected(self):
        with pytest.raises(ConfigurationError):
            make_config(dt=5e-7, beta=1.2e6)  # beta*dt = 0.6

    def test_trials_and_seed_validation(self):
        with pytest.raises(ParameterError):
            make_config(trials=0)
        with pytest.raises(ParameterError):
            make_config(seed=-1)
        with pytest.raises(ParameterError):
            make_config(noise_scale=-1.0)

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
        assert make_config(omega0=0.0).feedback() == FeedbackParams(beta, 0.0)
        # the dual scheme runs no loop and ignores them
        assert make_config(scheme="dual_homodyne", beta=None, omega0=-5.0).feedback() is None


class TestEdgePolicy:
    def test_default_includes_reversion_term_when_it_fits(self):
        cfg = make_config(duration=1e-2)
        lam = cfg.params.lam
        assert cfg.resolved_edge_discard() == pytest.approx(3.0 / lam, rel=1e-12)

    def test_reversion_term_dropped_for_short_coherence(self):
        # lam*span ~ 1: the 3/lam window does not fit and is dropped
        params = ProcessParams(kappa=1.6e4, lam=1e2, flux=1.35e6)
        cfg = make_config(params=params, duration=1e-2)
        beta = cfg.resolved_beta()
        expected = max(5.0 / CHI_OP, 5.0 / beta)
        assert cfg.resolved_edge_discard() == pytest.approx(expected, rel=1e-12)

    def test_explicit_edge_below_filter_settling_rejected(self):
        est = EstimatorParams(CHI_OP, CHI_OP, edge_discard=1.0 / CHI_OP)
        with pytest.raises(ParameterError):
            make_config(estimator=est)

    def test_oversized_edge_rejected(self):
        est = EstimatorParams(CHI_OP, CHI_OP, edge_discard=6e-4)
        with pytest.raises(ConfigurationError):
            make_config(duration=1e-3, estimator=est)

    def test_policy_function(self):
        assert default_edge_discard(1e5, None, 0.0, 1.0) == pytest.approx(5e-5)
        assert default_edge_discard(1e5, 1e4, 0.0, 1.0) == pytest.approx(5e-4)
        assert default_edge_discard(1e5, None, 1e2, 1.0) == pytest.approx(3e-2)
        assert default_edge_discard(1e5, None, 1e2, 0.01) == pytest.approx(5e-5)


class TestRunTrial:
    def test_deterministic(self):
        cfg = make_config()
        assert run_trial(cfg, 3) == run_trial(cfg, 3)

    def test_trials_differ(self):
        cfg = make_config()
        assert run_trial(cfg, 0) != run_trial(cfg, 1)

    def test_zero_noise_gives_zero_errors(self):
        cfg = make_config(noise_scale=0.0)
        result = run_trial(cfg, 0)
        assert result.filtered_mse == 0.0
        assert result.smoothed_mse == 0.0
        assert result.backward_mse == 0.0

    def test_dual_scheme_runs(self):
        cfg = make_config(scheme="dual_homodyne", beta=None)
        result = run_trial(cfg, 0)
        assert result.filtered_mse > 0

    @pytest.mark.parametrize("kwargs, exact", [
        (dict(), False),
        (dict(estimator=EstimatorParams(CHI_OP, CHI_OP, source="phihat")), True),
        (dict(scheme="dual_homodyne", beta=None), True),
        (dict(scheme="dual_homodyne", beta=None, dual_mode="arg"), True),
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
        i0, i1 = retained_window(cfg.grid, cfg.resolved_edge_discard())
        for trial in (0, 7):
            phi, series = reference_series(cfg, trial)
            forward, backward = apply_estimators(series, est, cfg.grid)
            smoothed = combine_smoothed(forward, backward, est)
            direct = [float(np.mean((s[i0:i1] - phi[i0:i1]) ** 2))
                      for s in (forward, smoothed, backward)]
            got = run_trial(cfg, trial)
            got = [got.filtered_mse, got.smoothed_mse, got.backward_mse]
            assert got == pytest.approx(direct, rel=1e-12, abs=0)

    def test_peak_memory_is_four_arrays(self):
        # phi, theta, forward and backward: no smoothed series, no error copies
        cfg = make_config()
        run_trial(cfg, 0)  # imports and caches outside the measurement
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            run_trial(cfg, 0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * 8 * cfg.grid.n_steps

    def test_pure_diffusion_fixed_init(self):
        params = ProcessParams(kappa=1.6e4, lam=0.0, flux=1.35e6)
        cfg = make_config(params=params)
        result = run_trial(cfg, 0)
        assert math.isfinite(result.smoothed_mse)


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

    def test_degenerate_ensemble_rejected(self):
        with pytest.raises(StatisticsError):
            run_ensemble(make_config(noise_scale=0.0))

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

    def test_chi_sweep_sets_rates_and_gain_per_point(self):
        cfg = make_config(duration=5e-4, trials=30, beta=1.5e6)
        values = [2e5, 3.5e5]
        reports = sweep(cfg, "chi", values, workers=WORKERS)
        assert len(reports) == 2
        for rep, chi in zip(reports, values):
            assert rep.condition("filtered").chi == chi
            assert rep.config.resolved_beta() == optimal_beta(chi, cfg.params.flux)
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


def flux_sweep_configs(scheme):
    """The configs of a two-point flux sweep: each flux at both optimal rates."""
    beta = "auto" if scheme == "adaptive" else None
    configs = []
    for flux in (1.35e6, 2.7e6):
        params = ProcessParams(**{**AP, "flux": flux})
        chis = [optimal_chi(params, mode, scheme).chi_star for mode in ("filtered", "smoothed")]
        configs += with_chi(make_config(duration=5e-4, params=params, scheme=scheme, beta=beta),
                            *chis)
    return configs


def compare_configs(dual_mode):
    """The adaptive and dual configs of ``ouphase compare``."""
    chi_ap = 2 * math.sqrt(AP["kappa"] * AP["flux"])
    chi_dh = 2 * math.sqrt(AP["kappa"] * AP["flux"] / 2)
    return [make_config(duration=5e-4, chi=chi_ap),
            make_config(duration=5e-4, chi=chi_dh, scheme="dual_homodyne", beta=None,
                        dual_mode=dual_mode)]


def count_draws(monkeypatch):
    """Counts of the phase trajectories and Wiener increments a run draws."""
    calls = {"simulate_ou": 0, "wiener_increments": 0}
    for name in calls:
        original = getattr(ouphase.experiment, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(ouphase.experiment, name, counted)
    return calls


PHIHAT = EstimatorParams(CHI_OP, CHI_OP, source="phihat")


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

    def test_trials_equal_run_trial_across_changes_of_input(self):
        # theta reused, rebuilt for a new N', and interrupted by per-config inputs
        base = make_config(seed=5)
        dual = dict(scheme="dual_homodyne", beta=None)
        configs = [*with_chi(base, 2e5, 3e5), replace(base, estimator=PHIHAT),
                   make_config(seed=5, chi=2e5, **dual), make_config(seed=5, dual_mode="arg", **dual),
                   make_config(seed=5, chi=2.5e5, **dual), *with_chi(base, 4e5),
                   replace(base, params=ProcessParams(**{**AP, "flux": 2.7e6}))]
        for trial in (0, 7):
            assert run_trials(configs, trial) == [run_trial(c, trial) for c in configs]

    @pytest.mark.parametrize("change", [
        dict(params=ProcessParams(**{**AP, "kappa": 2e4})),
        dict(params=ProcessParams(**{**AP, "lam": 5e4})),
        dict(grid=SimGrid(dt=2e-8, duration=2e-3)),
        dict(trials=40),
        dict(master_seed=100),
        dict(noise_scale=0.5),
    ], ids=["kappa", "lam", "grid", "trials", "seed", "noise_scale"])
    def test_configs_must_share_trials(self, change):
        base = make_config()
        with pytest.raises(ParameterError, match="agree in"):
            run_ensembles([base, replace(base, **change)])
        with pytest.raises(ParameterError, match="agree in"):
            run_trials([base, replace(base, **change)], 0)

    def test_empty_config_list_rejected(self):
        with pytest.raises(ParameterError):
            run_ensembles([])

    @pytest.mark.parametrize("run, draws", [
        (lambda: sweep(make_config(duration=5e-4), "chi", [1e5, 2e5, 3e5, 4e5, 5e5]), (30, 30)),
        (lambda: sweep(make_config(duration=5e-4), "flux", [1.35e6, 2.7e6]), (30, 60)),
        (lambda: run_ensembles(compare_configs("linearized")), (30, 60)),
    ], ids=["chi-sweep", "flux-sweep", "compare"])
    def test_draws_each_trial_index_once(self, run, draws, monkeypatch):
        # one phi per trial index; one dW per trial index and N'
        calls = count_draws(monkeypatch)
        run()
        assert (calls["simulate_ou"], calls["wiener_increments"]) == draws

    def test_sweep_checks_every_point_before_any_trial(self, monkeypatch):
        calls = count_draws(monkeypatch)
        with pytest.raises(ConfigurationError, match="grid too coarse"):
            sweep(make_config(duration=5e-4), "chi", [2e5, 3e7])  # chi*dt = 0.6 at the end
        assert calls["simulate_ou"] == 0

    def test_peak_memory_of_five_configs_is_four_arrays(self):
        # each config's forward and backward arrays are freed before the next's
        configs = with_chi(make_config(), 1e5, 2e5, 3e5, 4e5, 5e5)
        run_trials(configs, 0)  # imports and caches outside the measurement
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            run_trials(configs, 0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * 8 * configs[0].grid.n_steps

    @pytest.mark.parametrize("workers, trials, cpus, size", [
        (5000, 30, 64, 4),    # ceil(30 / 8) chunks of trials
        (3, 200, 64, 3),      # as asked
        (5000, 200, 2, 2),    # the CPU count
    ])
    def test_pool_sized_from_the_work(self, workers, trials, cpus, size, pool_sizes,
                                      monkeypatch):
        monkeypatch.setattr(ouphase.experiment.os, "cpu_count", lambda: cpus)
        cfg = make_config(duration=2e-4, trials=trials)
        assert run_ensemble(cfg, workers=workers) == run_ensemble(cfg)
        assert pool_sizes == [size]


class TestCompareSchemes:
    def test_gains_from_matched_reports(self):
        chi_ap = 2 * math.sqrt(AP["kappa"] * AP["flux"])
        chi_dh = 2 * math.sqrt(AP["kappa"] * AP["flux"] / 2)
        rep_ap = run_ensemble(make_config(duration=1e-3, trials=40, chi=chi_ap, seed=3341),
                              workers=WORKERS)
        rep_dh = run_ensemble(
            make_config(duration=1e-3, trials=40, chi=chi_dh, seed=3341,
                        scheme="dual_homodyne", beta=None),
            workers=WORKERS)
        gains = compare_schemes(rep_ap, rep_dh)
        assert gains.smoothing_gain == pytest.approx(
            rep_ap.condition("filtered").mc_mse / rep_ap.condition("smoothed").mc_mse, rel=1e-12)
        assert gains.adaptive_gain > 1.2
        assert gains.total_gain > 2.0
        for err in (gains.smoothing_gain_stderr, gains.adaptive_gain_stderr,
                    gains.total_gain_stderr):
            assert err > 0

    def test_unmatched_reports_rejected(self):
        rep_ap = run_ensemble(make_config(duration=5e-4, trials=30), workers=WORKERS)
        with pytest.raises(ParameterError, match="adaptive and a dual_homodyne"):
            compare_schemes(rep_ap, rep_ap)
