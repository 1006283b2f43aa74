"""A trial's memory is set by its block length, not by its duration.

Usage: python tests/ci/constant_memory.py   (with ``ouphase`` importable)

A run four times as long may not peak more than 16 MB higher; each run is in
its own child process, whose ru_maxrss is its own peak. The flux sweep checks
it for four configs at two N' that share each trial's draws, the arg
comparison for meas1 read by the adaptive theta and the arg model, the phihat
run for the feedback loop's state carried across blocks, and the run at chi =
2e3 for a slow backward average, whose blocks are as long as at any other
rate. Exits 1 if any run grew by more.
"""

import subprocess
import sys

PEAK = ("import resource, sys; from ouphase.cli import dispatch; code = dispatch(sys.argv[1:]); "
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024); sys.exit(code)")


def peak_mb(command, duration):
    args = [*command, "--trials", "30", "--dt", "2e-8", "--seed", "7", "--duration", duration]
    out = subprocess.run([sys.executable, "-c", PEAK, *args], check=True,
                         capture_output=True, text=True).stdout
    return float(out.splitlines()[-1])


grown = False
for command in (["simulate"], ["sweep-flux", "--values", "1.35e6,2.7e6"],
                ["compare", "--dual-mode", "arg"], ["simulate", "--source", "phihat"],
                ["simulate", "--chi", "2e3"]):
    short, long = peak_mb(command, "2e-2"), peak_mb(command, "8e-2")
    print(f"{' '.join(command)}: peak RSS {short:.1f} MB at 2e-2 s, {long:.1f} MB at 8e-2 s")
    grown |= long - short > 16
sys.exit(grown)
