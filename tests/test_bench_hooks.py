"""The names the benchmark under ``bench/`` patches or calls still exist.

The benchmark is kept fixed between its own revisions, so a refactor of the
package must not break it: ``bench/tracer.py`` wraps module attributes by
name, and ``bench/workloads.py`` builds configurations through the public API.
"""

import importlib
from pathlib import Path

import pytest

import ouphase.experiment
from ouphase import EstimatorParams, ExperimentConfig, ProcessParams, SimGrid

from oracles import AP, CHI_OP

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module


def test_tracer_wraps_the_layers_of_a_plain_ensemble(bench, tmp_path):
    # a one-config ensemble calls run_trial and each layer by its module global
    tracer = bench("tracer").Tracer(tmp_path)
    original = ouphase.experiment.run_trial
    config = ExperimentConfig(params=ProcessParams(**AP), grid=SimGrid(2e-8, 2e-4),
                              estimator=EstimatorParams(CHI_OP, CHI_OP), trials=30)
    try:
        tracer.install()
        ouphase.experiment.run_ensemble(config)
    finally:
        tracer.uninstall()
    assert ouphase.experiment.run_trial is original
    names = [s["name"] for s in tracer.collect()]
    for layer in ("experiment.run_trial", "stochastic.simulate_ou", "estimators.apply_estimators"):
        assert names.count(layer) == 30, layer


def test_every_workload_builds(bench):
    workloads = bench("workloads")
    for name in workloads.NAMES:
        config = workloads.build(name, smoke=True).trial_config(7)
        assert isinstance(config, ExperimentConfig)
        assert config.master_seed == 7
