"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete. The Monte Carlo criteria use a finer step than the everyday default
(5e-9 s instead of 2e-8 s) so that the sampling offset of the discrete
recursions stays well below one Monte Carlo standard error; the targets are
the continuous-time formulas.
"""

import filecmp
import math
import time

import numpy as np
import pytest
from numpy.random import Generator, Philox

from ouphase import (
    EstimatorParams,
    ExperimentConfig,
    NoiseStream,
    ProcessParams,
    Role,
    SimGrid,
    combined_mse,
    empirical_mse,
    filtered_mse,
    run_ensemble,
    run_ensembles,
    run_trial,
    simulate_ou,
    smoothed_mse,
    sql_mse,
    sweep,
    wiener_increments,
)
from ouphase.cli import dispatch

from conftest import WORKERS
from oracles import AP, CHI_OP, PURE_DIFF

SEED = 1729
AP_PARAMS = ProcessParams(**AP)
PD_PARAMS = ProcessParams(**PURE_DIFF)

# continuous-time targets at the operating point
FILTERED_TARGET = 0.04950714371153696
SMOOTHED_TARGET = 0.02669705095548721
RATIO_TARGET = FILTERED_TARGET / SMOOTHED_TARGET          # 1.8544049600864791
DUAL_FILTERED_TARGET = 0.07661229964901381
COMBINED_ASYM_TARGET = 0.03266956936834452
STATIONARY_VAR_TARGET = 0.1291109990073392


def criterion(number, ok, detail):
    line = f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def fine_reports():
    """The three ensembles on the fine grid, from one pass over shared trials:
    the adaptive operating point (200 trials), criterion 7's asymmetric
    combination (120) and the dual scheme (120). The two adaptive configs are
    neighbours, so they share theta as well as phi."""
    grid = SimGrid(dt=5e-9, duration=1e-2)
    configs = [
        ExperimentConfig(params=AP_PARAMS, grid=grid,
                         estimator=EstimatorParams(CHI_OP, CHI_OP, source="theta"),
                         beta="auto", omega0=1e2, trials=200, master_seed=SEED),
        ExperimentConfig(params=AP_PARAMS, grid=grid,
                         estimator=EstimatorParams(2e5, 4e5, w_minus=0.3, w_plus=0.7),
                         beta="auto", trials=120, master_seed=SEED),
        ExperimentConfig(params=AP_PARAMS, grid=grid,
                         estimator=EstimatorParams(CHI_OP, CHI_OP),
                         scheme="dual_homodyne", beta=None, trials=120, master_seed=SEED),
    ]
    start = time.perf_counter()
    reports = run_ensembles(configs, workers=WORKERS)
    elapsed = time.perf_counter() - start
    print(f"(fine-grid ensembles: 200, 120 and 120 x 10 ms trials in {elapsed:.0f} s "
          f"with {WORKERS} workers)")
    return reports


@pytest.fixture(scope="module")
def ap_report(fine_reports):
    return fine_reports[0]


@pytest.fixture(scope="module")
def cross_term_report(fine_reports):
    return fine_reports[1]


@pytest.fixture(scope="module")
def dual_report(fine_reports):
    return fine_reports[2]


@pytest.fixture(scope="module")
def pure_diffusion_reports():
    chi_ap = 2 * math.sqrt(PD_PARAMS.kappa * PD_PARAMS.flux)
    chi_dh = 2 * math.sqrt(PD_PARAMS.kappa * PD_PARAMS.flux / 2)
    grid = SimGrid(dt=1e-8, duration=1e-2)
    # one pass over the trials: both schemes see the same phi
    adaptive, dual = run_ensembles([
        ExperimentConfig(params=PD_PARAMS, grid=grid,
                         estimator=EstimatorParams(chi_ap, chi_ap),
                         beta="auto", trials=160, master_seed=SEED),
        ExperimentConfig(params=PD_PARAMS, grid=grid,
                         estimator=EstimatorParams(chi_dh, chi_dh),
                         scheme="dual_homodyne", beta=None, trials=160, master_seed=SEED),
    ], workers=WORKERS)
    return adaptive, dual


def test_criterion_01_analytic_identity_suite():
    rng = Generator(Philox(key=[SEED, 1]))
    n = 10_000
    kappas = 10.0 ** rng.uniform(3, 5, n)
    lams = rng.uniform(0.0, 1e5, n)
    lams[rng.random(n) < 0.01] = 0.0
    fluxes = 10.0 ** rng.uniform(5, 8, n)
    chis = 10.0 ** rng.uniform(4, 7, n)
    start = time.perf_counter()
    worst = 0.0
    recovered = True
    for kappa, lam, flux, chi in zip(kappas, lams, fluxes, chis):
        params = ProcessParams(kappa=kappa, lam=lam, flux=flux)
        sym = combined_mse(params, EstimatorParams(chi, chi))
        direct = smoothed_mse(params, chi)
        worst = max(worst, abs(sym - direct) / math.ulp(max(sym, direct)))
        one_sided = combined_mse(params, EstimatorParams(chi, chi, w_minus=1.0, w_plus=0.0))
        recovered &= one_sided == filtered_mse(params, chi)
    elapsed = time.perf_counter() - start
    criterion(1, worst <= 4.0 and recovered and elapsed < 1.0,
              f"combined==smoothed within {worst:.2f} ulps over {n} tuples, "
              f"w-=1 recovers filtered exactly, runtime {elapsed:.2f} s")


def test_criterion_02_adaptive_filtered_matches_theory(ap_report):
    cond = ap_report.condition("filtered")
    assert cond.analytic_mse == pytest.approx(FILTERED_TARGET, rel=1e-12)
    criterion(2, abs(cond.z_score) <= 3.0,
              f"filtered mc={cond.mc_mse:.6f} +- {cond.mc_stderr:.6f} vs "
              f"{FILTERED_TARGET:.7f}, z={cond.z_score:+.2f}")


def test_criterion_03_adaptive_smoothed_matches_theory(ap_report):
    cond = ap_report.condition("smoothed")
    assert cond.analytic_mse == pytest.approx(SMOOTHED_TARGET, rel=1e-12)
    criterion(3, abs(cond.z_score) <= 3.0,
              f"smoothed mc={cond.mc_mse:.6f} +- {cond.mc_stderr:.6f} vs "
              f"{SMOOTHED_TARGET:.7f}, z={cond.z_score:+.2f}")


def test_criterion_04_smoothing_gain(ap_report):
    filt = ap_report.condition("filtered")
    smth = ap_report.condition("smoothed")
    ratio = filt.mc_mse / smth.mc_mse
    stderr = ratio * math.hypot(filt.mc_stderr / filt.mc_mse, smth.mc_stderr / smth.mc_mse)
    criterion(4, abs(ratio - RATIO_TARGET) <= 3 * stderr,
              f"filtered/smoothed = {ratio:.4f} +- {stderr:.4f} vs {RATIO_TARGET:.4f}")


def test_criterion_05_dual_homodyne_and_root_two(dual_report, pure_diffusion_reports):
    cond = dual_report.condition("filtered")
    assert cond.analytic_mse == pytest.approx(DUAL_FILTERED_TARGET, rel=1e-12)
    ok_dual = abs(cond.z_score) <= 3.0
    pd_adaptive, pd_dual = pure_diffusion_reports
    ap_f, dh_f = pd_adaptive.condition("filtered"), pd_dual.condition("filtered")
    ratio = dh_f.mc_mse / ap_f.mc_mse
    stderr = ratio * math.hypot(ap_f.mc_stderr / ap_f.mc_mse, dh_f.mc_stderr / dh_f.mc_mse)
    ok_root2 = abs(ratio - math.sqrt(2)) <= 3 * stderr
    criterion(5, ok_dual and ok_root2,
              f"dual filtered mc={cond.mc_mse:.6f} vs {DUAL_FILTERED_TARGET:.7f} "
              f"(z={cond.z_score:+.2f}); dual/adaptive at per-scheme optimal chi "
              f"= {ratio:.4f} +- {stderr:.4f} vs sqrt(2)={math.sqrt(2):.4f}")


def test_criterion_06_headline_two_root_two(pure_diffusion_reports):
    pd_adaptive, _ = pure_diffusion_reports
    smth = pd_adaptive.condition("smoothed")
    ratio = sql_mse(PD_PARAMS) / smth.mc_mse
    target = 2 * math.sqrt(2)
    criterion(6, abs(ratio / target - 1.0) <= 0.05,
              f"SQL/smoothed-adaptive = {ratio:.4f} vs {target:.4f} "
              f"({100 * (ratio / target - 1):+.2f}%)")


def test_criterion_07_cross_term_validation(cross_term_report):
    cond = cross_term_report.condition("smoothed")
    assert cond.analytic_mse == pytest.approx(COMBINED_ASYM_TARGET, rel=1e-12)
    criterion(7, abs(cond.z_score) <= 3.0,
              f"asymmetric combined mc={cond.mc_mse:.6f} +- {cond.mc_stderr:.6f} vs "
              f"{COMBINED_ASYM_TARGET:.7f}, z={cond.z_score:+.2f}")


def test_criterion_08_flux_scaling():
    config = ExperimentConfig(
        params=AP_PARAMS,
        grid=SimGrid(dt=1e-8, duration=1e-2),
        estimator=EstimatorParams(CHI_OP, CHI_OP),
        beta="auto",
        trials=50,
        master_seed=SEED,
    )
    fluxes = [1.35e6, 2.7e6, 6.75e6, 1.35e7]
    reports = sweep(config, "flux", fluxes, workers=WORKERS)
    slopes = {}
    ordered = True
    for mode in ("filtered", "smoothed"):
        mses = [rep.condition(mode).mc_mse for rep in reports]
        slopes[mode] = np.polyfit(np.log(fluxes), np.log(mses), 1)[0]
    for rep in reports:
        ordered &= rep.condition("smoothed").mc_mse < rep.condition("filtered").mc_mse
    ok = all(abs(s + 0.5) <= 0.05 for s in slopes.values()) and ordered
    criterion(8, ok,
              f"log-log slopes filtered {slopes['filtered']:+.3f}, "
              f"smoothed {slopes['smoothed']:+.3f} (target -0.5 +- 0.05); "
              f"smoothed below filtered at every flux: {ordered}")


def test_criterion_09_stochastic_foundations():
    # stationary variance
    grid = SimGrid(dt=1e-7, duration=5e-2)
    phi = simulate_ou(AP_PARAMS, grid, NoiseStream(SEED, 0, Role.PHASE_NOISE))
    stats = empirical_mse(phi, np.zeros_like(phi), grid, edge_discard=0.0,
                          batch_time=10.0 / AP_PARAMS.lam)
    ok_var = abs(stats.mse - STATIONARY_VAR_TARGET) <= 3 * stats.std_error
    # autocovariance e-folding at lag 1/lam
    grid2 = SimGrid(dt=1e-7, duration=1e-1)
    phi2 = simulate_ou(AP_PARAMS, grid2, NoiseStream(SEED, 1, Role.PHASE_NOISE))
    lag = round(1.0 / (AP_PARAMS.lam * grid2.dt))
    c0 = float(phi2 @ phi2 / len(phi2))
    c1 = float(phi2[:-lag] @ phi2[lag:] / (len(phi2) - lag))
    target = math.exp(-AP_PARAMS.lam * lag * grid2.dt)
    ok_acov = abs(c1 / c0 - target) / target <= 0.10
    # increment variance inside the central 99% chi-square band
    from scipy.stats import chi2
    n, dt = 10**6, 1e-8
    var = wiener_increments(NoiseStream(SEED, 2, Role.MEASUREMENT_NOISE), n, dt).var(ddof=1)
    lo, hi = chi2.ppf([0.005, 0.995], df=n - 1) / (n - 1)
    ok_wiener = lo <= var / dt <= hi
    criterion(9, ok_var and ok_acov and ok_wiener,
              f"stationary var {stats.mse:.5f} vs {STATIONARY_VAR_TARGET:.5f} "
              f"(3se={3 * stats.std_error:.5f}); autocov ratio {c1 / c0:.4f} vs "
              f"{target:.4f}; wiener var/dt {var / dt:.5f} in [{lo:.5f}, {hi:.5f}]")


def test_criterion_10_determinism(tmp_path, capsys):
    config = ExperimentConfig(
        params=AP_PARAMS,
        grid=SimGrid(dt=2e-8, duration=1e-3),
        estimator=EstimatorParams(CHI_OP, CHI_OP),
        beta="auto",
        trials=30,
        master_seed=SEED,
    )
    ok_trial = run_trial(config, 5) == run_trial(config, 5)
    ok_parallel = run_ensemble(config, workers=1) == run_ensemble(config, workers=WORKERS)

    args = ["simulate", "--trials", "30", "--duration", "1e-3", "--seed", str(SEED)]
    files = {}
    for tag, extra in (("a", []), ("b", []), ("w", ["--workers", str(WORKERS)])):
        csv = tmp_path / f"{tag}.csv"
        js = tmp_path / f"{tag}.json"
        assert dispatch(args + ["--out", str(csv)]) == 0
        assert dispatch(args + ["--format", "json", "--out", str(js)]) == 0
        files[tag] = (csv, js)
    ok_bytes = all(
        filecmp.cmp(files["a"][i], files[other][i], shallow=False)
        for other in ("b", "w") for i in (0, 1)
    )
    capsys.readouterr()  # drop the six CLI tables from the visible output
    with capsys.disabled():
        criterion(10, ok_trial and ok_parallel and ok_bytes,
                  f"trial bit-identical: {ok_trial}; serial==parallel: {ok_parallel}; "
                  f"output files byte-identical across runs and workers: {ok_bytes}")
