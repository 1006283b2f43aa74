import os

import pytest

from ouphase import ProcessParams

WORKERS = min(2, os.cpu_count() or 1)


@pytest.fixture(scope="session")
def ap_params():
    return ProcessParams(kappa=1.5868e4, lam=6.1451e4, flux=1.3499e6)


@pytest.fixture(scope="session")
def dh_params():
    return ProcessParams(kappa=1.6218e4, lam=6.4593e4, flux=1.3235e6)


@pytest.fixture
def pool_sizes(monkeypatch):
    """Swaps the experiment's process pool for a serial stand-in that starts
    no process; returns the ``max_workers`` of every pool created."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

    monkeypatch.setattr("ouphase.experiment.ProcessPoolExecutor", RecordingPool)
    return sizes
