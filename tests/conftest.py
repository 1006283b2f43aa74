import os
import threading

import numpy as np
import pytest

import ouphase.experiment
from ouphase import NoiseStream, ProcessParams

WORKERS = min(2, ouphase.experiment._cpus())

THREADED_FORKS = []  # the Python thread count at each fork that had more than one


def _record_threaded_fork():
    if threading.active_count() > 1:
        THREADED_FORKS.append(threading.active_count())


os.register_at_fork(before=_record_threaded_fork)


@pytest.fixture(autouse=True)
def no_fork_with_live_threads():
    """Fails a test that forks (a worker pool) while a thread of this process
    is alive: the child gets none of its threads, only the locks they held.
    Python 3.12 warns of it, but counts the OpenBLAS threads that numpy and
    scipy start at import as well."""
    forks = len(THREADED_FORKS)
    yield
    assert THREADED_FORKS[forks:] == [], "forked with Python threads alive"


@pytest.fixture(scope="session")
def ap_params():
    return ProcessParams(kappa=1.5868e4, lam=6.1451e4, flux=1.3499e6)


@pytest.fixture(scope="session")
def dh_params():
    return ProcessParams(kappa=1.6218e4, lam=6.4593e4, flux=1.3235e6)


class SilentStream(NoiseStream):
    """A noise stream whose every draw is 0: noise-free runs for tests."""

    def normals(self, n, generator=None):
        super().normals(n, generator)  # the argument check of a real stream
        return np.zeros(n)


@pytest.fixture
def silent_trials(monkeypatch):
    """Makes every trial of ``ouphase.experiment`` draw from silent streams."""
    monkeypatch.setattr("ouphase.experiment.NoiseStream", SilentStream)


def count_draws(monkeypatch):
    """Counts of the phase trajectories, Wiener increments and two-arm dual
    homodyne runs a run draws."""
    calls = {"simulate_ou": 0, "wiener_increments": 0, "run_dual_homodyne": 0}
    for name in calls:
        original = getattr(ouphase.experiment, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(ouphase.experiment, name, counted)
    return calls


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

