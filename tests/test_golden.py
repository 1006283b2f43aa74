"""Results against the committed record of their bytes, tests/golden.json.

Other tests compare one path with another (blocks with one shot, pooled with
serial), so a change that moves every path alike passes them: a changed
stream key, a reordered draw, a new rounding. The record catches it. It is
exact at the numpy and scipy versions that made it; at others the MSEs are
compared at rel 1e-12 and the --out hashes are not compared.
tests/make_golden.py regenerates it.
"""

import json

import pytest

import make_golden

GOLDEN = json.loads(make_golden.GOLDEN.read_text(encoding="utf-8"))
SAME_VERSIONS = GOLDEN["versions"] == make_golden.versions()


def test_trial_mses():
    mses = make_golden.trial_mses()
    assert mses.keys() == GOLDEN["trial_mses"].keys()
    for key, trials in GOLDEN["trial_mses"].items():
        if SAME_VERSIONS:
            assert mses[key] == trials, key
        else:
            for got, want in zip(mses[key], trials):
                assert [float.fromhex(x) for x in got] == pytest.approx(
                    [float.fromhex(x) for x in want], rel=1e-12), key


@pytest.mark.skipif(not SAME_VERSIONS, reason=(
    f"the --out hashes hold at {GOLDEN['versions']} only, not at {make_golden.versions()}; "
    "the trial MSEs are still checked, at rel 1e-12"))
def test_out_files(tmp_path):
    assert make_golden.out_hashes(tmp_path) == GOLDEN["out_sha256"]

