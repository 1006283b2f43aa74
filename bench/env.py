"""Environment block recorded next to benchmark results."""

from __future__ import annotations

import ctypes
import multiprocessing
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy
import scipy

# Full-length float64 arrays alive at a trial's peak: the Trajectory's four
# (phi, current or the two arm currents, phihat, theta), the three estimate
# series and one MSE temporary. tracemalloc agrees (about 64 B/sample).
LIVE_ARRAYS_PER_TRIAL = 8
BLAS_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads")


def _git_rev(root: Path) -> str:
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown (not a git checkout)"
    return out.stdout.strip()


def _blas() -> dict:
    info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in BLAS_THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                threads = fn()
                break
    return {"name": info.get("name"), "version": info.get("version"),
            "library_files": [Path(lib).name for lib in libs], "threads": threads,
            "thread_env": {k: os.environ[k] for k in sorted(os.environ)
                           if k.endswith("_NUM_THREADS")}}


def _l3_bytes() -> int | None:
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        if (index / "level").read_text().strip() == "3":
            size = (index / "size").read_text().strip()
            units = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}
            return int(size[:-1]) * units[size[-1]] if size[-1] in units else int(size)
    return None


def environment(root: Path, workloads: dict) -> dict:
    """``workloads`` maps a name to (n_steps per trial, concurrent trials)."""
    l3 = _l3_bytes()
    working_sets = {}
    for name, (n_steps, concurrent) in workloads.items():
        per_trial = LIVE_ARRAYS_PER_TRIAL * 8 * n_steps
        working_sets[name] = {"n_steps": n_steps, "bytes_per_trial": per_trial,
                              "concurrent_trials": concurrent,
                              "share_of_l3": per_trial * concurrent / l3 if l3 else None}
    return {
        "git_rev": _git_rev(root),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "cpu_model": platform.processor() or _cpu_model(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "mp_start_method": multiprocessing.get_start_method(),
        "blas": _blas(),
        "l3_bytes": l3,
        "working_set_computed": {
            "note": f"computed, not measured: {LIVE_ARRAYS_PER_TRIAL} live float64 arrays "
                    "of n_steps per trial; no bandwidth figure is claimed",
            "workloads": working_sets,
        },
    }


def _cpu_model() -> str:
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return "unknown"
