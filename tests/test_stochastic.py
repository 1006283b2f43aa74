import math
import sys
import types

import numpy as np
import pytest
from scipy.signal import lfilter
from scipy.stats import chi2

import ouphase.stochastic
from ouphase import (
    NoiseStream,
    ParameterError,
    ProcessParams,
    Role,
    SimGrid,
    empirical_mse,
    simulate_ou,
    wiener_increments,
)

from conftest import SilentStream


def stream(seed=11, trial=0, role=Role.PHASE_NOISE):
    return NoiseStream(master_seed=seed, trial_index=trial, role=role)


class TestWienerIncrements:
    def test_zero_dt_gives_exact_zeros(self):
        out = wiener_increments(stream(), 5, 0.0)
        assert np.array_equal(out, np.zeros(5))

    def test_same_stream_is_bit_identical(self):
        a = wiener_increments(stream(), 1000, 1e-8)
        b = wiener_increments(stream(), 1000, 1e-8)
        assert np.array_equal(a, b)

    def test_streams_differ_across_trial_and_role(self):
        base = wiener_increments(stream(trial=0, role=Role.PHASE_NOISE), 100, 1e-8)
        for other in (stream(trial=1, role=Role.PHASE_NOISE),
                      stream(trial=0, role=Role.MEASUREMENT_NOISE),
                      stream(trial=0, role=Role.MEASUREMENT_NOISE_2)):
            assert not np.array_equal(base, wiener_increments(other, 100, 1e-8))

    def test_variance_inside_central_99_chisquare_band(self):
        n, dt = 10**6, 1e-8
        sample_var = wiener_increments(stream(seed=5), n, dt).var(ddof=1)
        lo, hi = chi2.ppf([0.005, 0.995], df=n - 1) / (n - 1)
        assert lo <= sample_var / dt <= hi

    def test_pieces_from_one_generator_are_one_draw(self):
        s = stream(seed=3)
        generator = s.generator()
        pieces = [wiener_increments(s, k, 2e-8, generator) for k in (0, 1, 4095, 70000)]
        assert np.array_equal(np.concatenate(pieces), wiener_increments(s, 74096, 2e-8))

    @pytest.mark.parametrize("dt", [-1e-9, float("nan"), float("inf")])
    def test_bad_dt_rejected(self, dt):
        with pytest.raises(ParameterError):
            wiener_increments(stream(), 10, dt)

    @pytest.mark.parametrize("n", [-1, True, 1.5])
    def test_negative_n_rejected(self, n):
        with pytest.raises(ParameterError, match="n must be"):
            wiener_increments(stream(), n, 1e-8)


class TestNoiseStream:
    def test_validation(self):
        with pytest.raises(ParameterError):
            NoiseStream(master_seed=-1)
        with pytest.raises(ParameterError):
            NoiseStream(master_seed=2**64)
        with pytest.raises(ParameterError):
            NoiseStream(master_seed=1, trial_index=-1)

    @pytest.mark.parametrize("trial_index", [-1, 2**64])
    def test_trial_index_outside_the_seed_words_rejected(self, trial_index):
        with pytest.raises(ParameterError, match="trial_index"):
            NoiseStream(master_seed=1, trial_index=trial_index)
        assert NoiseStream(1, 2**64 - 1, Role.MEASUREMENT_NOISE_2).normals(3).shape == (3,)

    def test_streams_distinct_per_trial_and_role_and_fixed_per_identity(self):
        firsts = {float(stream(trial=t, role=r).normals(1)[0]) for t in range(3) for r in Role}
        assert len(firsts) == 9
        twice = [stream(trial=2, role=Role.MEASUREMENT_NOISE).normals(100) for _ in range(2)]
        assert np.array_equal(*twice)


class TestProcessParams:
    @pytest.mark.parametrize("kwargs", [
        dict(kappa=0.0, lam=1.0, flux=1e6),
        dict(kappa=-1.0, lam=1.0, flux=1e6),
        dict(kappa=1.0, lam=-1e-3, flux=1e6),
        dict(kappa=1.0, lam=1.0, flux=0.0),
        dict(kappa=float("nan"), lam=1.0, flux=1e6),
        dict(kappa=10**400, lam=1.0, flux=1e6),  # beyond the float range
        dict(kappa=True, lam=1.0, flux=1e6),
        dict(kappa=1.0, lam=1.0, flux="1e6"),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ParameterError):
            ProcessParams(**kwargs)

    def test_numpy_scalars_accepted_as_floats(self):
        p = ProcessParams(kappa=np.float32(1.5868e4), lam=np.int64(61451), flux=1.3499e6)
        assert p.kappa == 15868.0 and type(p.kappa) is float
        assert p.lam == 61451.0 and type(p.lam) is float

    def test_stationary_variance(self, ap_params):
        assert ap_params.stationary_variance == pytest.approx(0.1291109990073392, rel=1e-12)
        with pytest.raises(ParameterError):
            _ = ProcessParams(kappa=1.0, lam=0.0, flux=1e6).stationary_variance


class TestSimGrid:
    def test_validation(self):
        with pytest.raises(ParameterError):
            SimGrid(dt=0.0, duration=1.0)
        with pytest.raises(ParameterError):
            SimGrid(dt=1e-3, duration=1e-3)  # one step only
        with pytest.raises(ParameterError):
            SimGrid(dt=1e-3, duration=1.0, warmup=1.0)

    @pytest.mark.parametrize("dt, duration", [
        (1e-8, 1e12), (1e-8, 9e10),  # too many steps for one float64 array
        (1e-300, 1e10), (5e-324, 1.0),  # duration/dt overflows to inf
    ])
    def test_too_long_rejected(self, dt, duration):
        with pytest.raises(ParameterError, match="grid too long"):
            SimGrid(dt=dt, duration=duration)

    def test_longest_addressable_array_is_the_limit(self):
        # sys.maxsize // 8 = 2**60 - 1 float64 samples; 2**60 - 128 is the float below 2**60
        assert SimGrid(dt=1.0, duration=2.0**60 - 128).n_steps == sys.maxsize // 8 - 127
        with pytest.raises(ParameterError, match="grid too long"):
            SimGrid(dt=1.0, duration=2.0**60)

    def test_n_steps(self):
        g = SimGrid(dt=1e-3, duration=1e-2)
        assert g.n_steps == 10


class TestSimulateOu:
    def test_matches_explicit_recursion(self, ap_params):
        g = SimGrid(dt=2e-8, duration=2000 * 2e-8)
        s = stream(seed=3)
        phi = simulate_ou(ap_params, g, s)
        z = s.normals(g.n_steps)
        decay = math.exp(-ap_params.lam * g.dt)
        sd = math.sqrt(ap_params.kappa * (1 - math.exp(-2 * ap_params.lam * g.dt))
                       / (2 * ap_params.lam))
        ref = np.empty(g.n_steps)
        ref[0] = math.sqrt(ap_params.stationary_variance) * z[0]
        for k in range(1, g.n_steps):
            ref[k] = decay * ref[k - 1] + sd * z[k]
        assert np.allclose(phi, ref, rtol=1e-10, atol=1e-14)

    @pytest.mark.parametrize("lam, init", [(6.1451e4, "stationary"), (0.0, 0.3)])
    @pytest.mark.parametrize("dt", [2e-8, 5e-9, 1e-7])
    def test_bit_identical_to_scale_then_filter(self, lam, init, dt):
        # the step sd rides in the filter gain and phi[0] in its state: the
        # same arithmetic as scaling the draws first and filtering with gain 1
        params = ProcessParams(kappa=1.5868e4, lam=lam, flux=1e6)
        g = SimGrid(dt=dt, duration=1e-4)
        s = stream(seed=13)
        decay = math.exp(-lam * dt)
        sd = (math.sqrt(params.kappa * dt) if lam == 0 else
              math.sqrt(-params.kappa * math.expm1(-2 * lam * dt) / (2 * lam)))
        x = s.normals(g.n_steps)
        x0 = math.sqrt(params.stationary_variance) * x[0] if lam > 0 else init
        x *= sd
        x[0] = x0
        assert np.array_equal(simulate_ou(params, g, s, init=init),
                              lfilter([1.0], [1.0, -decay], x))

    @pytest.mark.parametrize("lam, init", [(6.1451e4, "stationary"), (0.0, 0.3)])
    def test_blocks_carry_the_state_bit_for_bit(self, lam, init):
        # one generator across the blocks and the last phase as the state: no replay
        params = ProcessParams(kappa=1.5868e4, lam=lam, flux=1e6)
        g = SimGrid(dt=2e-8, duration=2e-3)
        s, generator, blocks, last = stream(seed=13), stream(seed=13).generator(), [], None
        for steps in (1, 30000, 7, g.n_steps - 30008):
            blocks.append(simulate_ou(params, g, s, init, generator, steps, last))
            last = blocks[-1][-1]
        assert np.array_equal(np.concatenate(blocks), simulate_ou(params, g, s, init=init))

    @pytest.mark.parametrize("last", [math.nan, math.inf, "x", True])
    def test_last_is_a_finite_real(self, ap_params, last):
        g = SimGrid(dt=2e-8, duration=2e-5)
        with pytest.raises(ParameterError, match="last"):
            simulate_ou(ap_params, g, stream(), "stationary", None, 10, last)

    @pytest.mark.parametrize("lam, dt", [(1e-8, 2e-8), (6.1451e4, 2e-8), (6.1451e4, 5e-9)])
    def test_step_sd_is_exact_at_small_reversion(self, lam, dt):
        # unit draws from a fixed init of 0 make phi[1] the step sd itself;
        # 1 - exp(-2*lam*dt) would read 11 % high at lam = 1e-8 /s, dt = 2e-8 s
        params = ProcessParams(kappa=1.5868e4, lam=lam, flux=1e6)
        ones = types.SimpleNamespace(standard_normal=np.ones)
        phi = simulate_ou(params, SimGrid(dt=dt, duration=4 * dt), stream(), 0.0, ones)
        sd = math.sqrt(-params.kappa * math.expm1(-2 * lam * dt) / (2 * lam))
        assert phi[0] == 0.0
        assert phi[1] == pytest.approx(sd, rel=1e-15)

    @pytest.mark.parametrize("steps", [0, -1, True])
    def test_steps_below_one_refused_before_any_draw(self, ap_params, steps):
        g = SimGrid(dt=2e-8, duration=1e-4)
        s = stream(seed=13)
        generator = s.generator()
        with pytest.raises(ParameterError, match="steps"):
            simulate_ou(ap_params, g, s, "stationary", generator, steps)
        assert np.array_equal(generator.standard_normal(5), s.normals(5))

    def test_noise_free_decay(self):
        params = ProcessParams(kappa=1e-12, lam=6.1451e4, flux=1e6)
        g = SimGrid(dt=1e-7, duration=2e-4)
        phi = simulate_ou(params, g, stream(), init=0.1)
        expected = 0.1 * np.exp(-params.lam * (np.arange(g.n_steps) * g.dt))
        assert np.max(np.abs(phi - expected)) < 1e-4

    def test_pure_diffusion_variance_growth(self):
        # lam = 0: Var(phi(T)) = kappa*T
        params = ProcessParams(kappa=1.0, lam=0.0, flux=1e6)
        g = SimGrid(dt=1e-6, duration=1e-4)
        finals = np.array([
            simulate_ou(params, g, stream(seed=8, trial=i), init=0.0)[-1]
            for i in range(10_000)
        ])
        target = params.kappa * (g.n_steps - 1) * g.dt
        assert finals.var(ddof=1) == pytest.approx(target, rel=0.05)

    def test_pure_diffusion_is_cumulative_sum(self):
        # lam = 0 runs the OU recursion at decay 1: from 0 it is the running sum, bit for bit
        params = ProcessParams(kappa=1.6e4, lam=0.0, flux=1e6)
        g = SimGrid(dt=2e-8, duration=1e-4)
        s = stream(seed=5)
        ref = np.zeros(g.n_steps)
        ref[1:] = np.cumsum(math.sqrt(params.kappa * g.dt) * s.normals(g.n_steps)[1:])
        assert np.array_equal(simulate_ou(params, g, s, init=0.0), ref)
        # a non-zero start adds in at the first step, not at the end: rounding level only
        assert np.allclose(simulate_ou(params, g, s, init=0.3), ref + 0.3, rtol=0, atol=1e-14)

    def test_stationary_variance_long_run(self, ap_params):
        g = SimGrid(dt=1e-7, duration=5e-2)
        phi = simulate_ou(ap_params, g, stream(seed=21))
        stats = empirical_mse(phi, np.zeros_like(phi), g, edge_discard=0.0,
                              batch_time=10.0 / ap_params.lam)
        assert abs(stats.mse - 0.1291109990073392) <= 3 * stats.std_error

    def test_dt_invariance_of_stationary_variance(self, ap_params):
        # exact transition: halving dt only resamples, it does not bias
        out = []
        for trial, dt in ((0, 1e-7), (1, 5e-8)):
            g = SimGrid(dt=dt, duration=4e-2)
            phi = simulate_ou(ap_params, g, stream(seed=31, trial=trial))
            out.append(empirical_mse(phi, np.zeros_like(phi), g, 0.0,
                                     batch_time=10.0 / ap_params.lam))
        diff = abs(out[0].mse - out[1].mse)
        assert diff <= 3 * math.hypot(out[0].std_error, out[1].std_error)

    def test_autocovariance(self, ap_params):
        # cov(phi(t), phi(t+tau)) = kappa/(2 lam) exp(-lam tau) at 0, 1/lam, 2/lam
        g = SimGrid(dt=1e-7, duration=2e-3)
        lam = ap_params.lam
        lag = round(1.0 / (lam * g.dt))
        trials = 48
        cov = {0: [], lag: [], 2 * lag: []}
        for i in range(trials):
            phi = simulate_ou(ap_params, g, stream(seed=77, trial=i))
            for ell in cov:
                n = len(phi) - ell
                cov[ell].append(float(phi[:n] @ phi[ell:] / n))
        for ell, samples in cov.items():
            samples = np.array(samples)
            target = ap_params.stationary_variance * math.exp(-lam * ell * g.dt)
            stderr = samples.std(ddof=1) / math.sqrt(trials)
            assert abs(samples.mean() - target) <= 3 * stderr

    def test_stationary_init_requires_reversion(self):
        params = ProcessParams(kappa=1.0, lam=0.0, flux=1e6)
        with pytest.raises(ParameterError):
            simulate_ou(params, SimGrid(dt=1e-6, duration=1e-4), stream())

    @pytest.mark.parametrize("lam", [1e-30, 1e-300, 2.2e-308, 5e-324])
    def test_reversion_the_grid_cannot_resolve_rejected(self, lam):
        # exp(-lam*dt) rounds to 1: the grid cannot resolve the reversion
        params = ProcessParams(kappa=1.5868e4, lam=lam, flux=1.3499e6)
        with pytest.raises(ParameterError, match="too small for the grid"):
            simulate_ou(params, SimGrid(dt=2e-8, duration=2e-4), stream())

    def test_small_resolved_reversion_runs(self):
        params = ProcessParams(kappa=1.5868e4, lam=1e-8, flux=1.3499e6)
        phi = simulate_ou(params, SimGrid(dt=2e-8, duration=2e-4), stream())
        assert np.all(np.diff(phi) != 0.0)

    def test_unknown_init_mode(self, ap_params):
        g = SimGrid(dt=1e-6, duration=1e-4)
        with pytest.raises(ParameterError):
            simulate_ou(ap_params, g, stream(), init="equilibrium")
        with pytest.raises(ParameterError):
            simulate_ou(ap_params, g, stream(), init=float("nan"))

    def test_zero_scale_fixed_init_decays(self, ap_params):
        g = SimGrid(dt=1e-7, duration=1e-4)
        phi = simulate_ou(ap_params, g, SilentStream(master_seed=11), init=0.25)
        t = np.arange(g.n_steps) * g.dt
        assert np.allclose(phi, 0.25 * np.exp(-ap_params.lam * t), rtol=1e-9)


def _filter_inputs():
    x = np.random.default_rng(5).standard_normal(64)
    with_nan = x.copy()
    with_nan[17] = np.nan
    return {
        "contiguous": x,
        "reversed": x[::-1],  # the anticausal average's view
        "strided": x[3::5],
        "list": x[:9].tolist(),
        "int": np.arange(-20, 20),
        "empty": np.empty(0),
        "nan": with_nan,
    }


COEFFICIENTS = pytest.mark.parametrize("b", [[0.37], [0.0, 0.37]], ids=["gain", "delayed"])


class TestFirstOrderKernel:
    """``_first_order`` is ``lfilter`` on the same compiled loop: every bit,
    every dtype and every error the same, for both coefficient shapes."""

    @COEFFICIENTS
    @pytest.mark.parametrize("name", list(_filter_inputs()))
    def test_matches_lfilter_bit_for_bit(self, b, name):
        x = _filter_inputs()[name]
        expected = lfilter(b, [1.0, -0.9871], x, zi=[-0.42])[0]
        got = ouphase.stochastic._first_order(b, 0.9871, x, -0.42)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    @COEFFICIENTS
    def test_refuses_a_2d_array_as_lfilter_does(self, b):
        x = np.ones((8, 8))
        with pytest.raises(ValueError) as expected:
            lfilter(b, [1.0, -0.9871], x, zi=[-0.42])
        with pytest.raises(ValueError) as got:
            ouphase.stochastic._first_order(b, 0.9871, x, -0.42)
        assert str(got.value) == str(expected.value)

    def test_missing_kernel_names_the_scipy_version(self, tmp_path, monkeypatch):
        empty = types.SimpleNamespace(__file__=str(tmp_path / "__init__.py"), __version__="0.0.1")
        monkeypatch.setattr(ouphase.stochastic, "scipy", empty)
        with pytest.raises(ImportError, match="scipy 0.0.1 "):
            ouphase.stochastic._load_linear_filter()

    @pytest.mark.parametrize("kernel, ok", [
        ("def _linear_filter(b, a, x, axis, zi):\n    return lfilter(b, a, x, axis, zi)\n", True),
        ("def _linear_filter(b, a, x, axis, zi):\n    return lfilter(b, a, x, axis, 0 * zi)\n",
         False),
        ("def _linear_filter(b, a, x, axis, zi):\n    return lfilter(b[-1:], a, x, axis, zi)\n",
         False),
        ("def _linear_filter(b, a, x, zi):\n    return lfilter(b, a, x, -1, zi)\n", False),
    ], ids=["lfilter", "drops-the-state", "drops-the-delay", "other-signature"])
    def test_kernel_checked_against_the_plain_recursion(self, kernel, ok, tmp_path, monkeypatch):
        # a private symbol: a changed signature or changed numbers must fail the
        # import, not a trial
        (tmp_path / "signal").mkdir()
        (tmp_path / "signal" / "_sigtools.py").write_text(
            "from scipy.signal import lfilter\n" + kernel)
        stub = types.SimpleNamespace(__file__=str(tmp_path / "__init__.py"), __version__="0.0.2")
        monkeypatch.setattr(ouphase.stochastic, "scipy", stub)
        if ok:
            assert ouphase.stochastic._load_linear_filter().__module__ == "scipy.signal._sigtools"
        else:
            with pytest.raises(ImportError, match="scipy 0.0.2: "):
                ouphase.stochastic._load_linear_filter()
