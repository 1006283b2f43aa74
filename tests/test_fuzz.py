"""Fuzz gate of the theory path: any numeric config, given on the command line
or to the library, yields finite numbers or a ParameterError (exit 1), never a
traceback, a nan or an inf.

``simulate`` is not fuzzed here: an ensemble whose spread overflows exits 2
by design (``test_cli.py::TestExitCodes::test_non_finite_ensemble_is_two``).
"""

import io
import math
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from ouphase import ParameterError
from ouphase.analytics import SCHEMES, analytic_mse
from ouphase.cli import dispatch, load_config

REAL_KEYS = ["kappa", "lambda", "flux", "chi", "beta", "omega0", "dt", "duration", "warmup",
             "w_minus", "w_plus", "edge_discard"]
INT_KEYS = ["trials", "seed"]
EXTREMES = [0.0, -0.0, -1.0, 5e-324, 2.2e-308, 1e-300, 1e-30, 1e30, 1e20, 1e300, 1.7e308,
            math.nan, math.inf, -math.inf, 3.0]
VALUES = st.sampled_from(EXTREMES) | st.floats()
FUZZ = settings(max_examples=200, derandomize=True, database=None, deadline=None)


def flag(key: str, value: float) -> str:
    """``--key=value``: an argument that starts with '-' stays the flag's value."""
    text = str(int(value)) if key in INT_KEYS and value.is_integer() else repr(value)
    return f"--{key.replace('_', '-')}={text}"


@FUZZ
@given(scheme=st.sampled_from(SCHEMES),
       overrides=st.dictionaries(st.sampled_from(REAL_KEYS + INT_KEYS), VALUES,
                                 min_size=1, max_size=3))
def test_analytic_prints_finite_numbers_or_one_error(scheme, overrides):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = dispatch(["analytic", "--scheme", scheme,
                         *(flag(k, v) for k, v in overrides.items())])
    out, err = out.getvalue(), err.getvalue()
    if code == 0:
        assert err == ""
        for line in out.splitlines():
            name, value = line.split()
            if name != "scheme":
                assert math.isfinite(float(value)), line
    else:
        assert code == 1
        assert out == ""
        assert err.startswith("ouphase: error: ") and err.count("\n") == 1, err


@FUZZ
@given(scheme=st.sampled_from(SCHEMES),
       overrides=st.dictionaries(st.sampled_from(REAL_KEYS), VALUES, min_size=1, max_size=3))
def test_library_theory_is_finite_or_refused(scheme, overrides):
    try:
        config = load_config(None, {"scheme": scheme, **overrides})
    except ParameterError:
        return
    for mode in ("filtered", "backward", "smoothed"):
        try:
            value = analytic_mse(config, mode)
        except ParameterError:
            continue
        assert math.isfinite(value), mode
