"""Fuzz gate of every input: any numeric config, given on the command line
or to the library, yields finite numbers or one error line, never a
traceback, a nan or an inf. The theory path refuses with a ParameterError
(exit 1); ``simulate`` may also exit 2, as an ensemble whose spread overflows
is a statistics error (``test_cli.py::TestExitCodes::test_non_finite_ensemble_is_two``).
"""

import io
import math
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from ouphase import ParameterError
from ouphase.analytics import SCHEMES, analytic_mse
from ouphase.cli import _KEYS, _config_echo, dispatch, load_config

REAL_KEYS = ["kappa", "lambda", "flux", "chi", "beta", "omega0", "dt", "duration", "warmup",
             "w_minus", "w_plus", "edge_discard"]
INT_KEYS = ["trials", "seed"]
EXTREMES = [0.0, -0.0, -1.0, 5e-324, 2.2e-308, 1e-300, 1e-30, 1e30, 1e20, 1e300, 1.7e308,
            math.nan, math.inf, -math.inf, 3.0]
VALUES = st.sampled_from(EXTREMES) | st.floats()
FUZZ = settings(max_examples=200, derandomize=True, database=None, deadline=None)
# simulate keeps its grid, trials and seed: 30 trials of 1e4 samples a case,
# about 3 s for the 500 cases on 2 cores, most of them refused at once
SIMULATE_KEYS = [key for key in REAL_KEYS if key not in ("dt", "duration", "warmup")]


def flag(key: str, value: float) -> str:
    """``--key=value``: an argument that starts with '-' stays the flag's value."""
    text = str(int(value)) if key in INT_KEYS and value.is_integer() else repr(value)
    return f"--{key.replace('_', '-')}={text}"


def run(command: list[str], scheme: str, overrides: dict) -> tuple[int, str, str]:
    """(exit status, stdout, stderr) of ``command`` with the scheme and overrides."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = dispatch([*command, "--scheme", scheme, *(flag(k, v) for k, v in overrides.items())])
    return code, out.getvalue(), err.getvalue()


def check_one_error_line(code: int, out: str, err: str):
    prefix = {1: "ouphase: error: ", 2: "ouphase: statistics error: "}[code]
    assert out == ""
    assert err.startswith(prefix) and err.count("\n") == 1, err


@FUZZ
@given(scheme=st.sampled_from(SCHEMES),
       overrides=st.dictionaries(st.sampled_from(REAL_KEYS + INT_KEYS), VALUES,
                                 min_size=1, max_size=3))
def test_analytic_prints_finite_numbers_or_one_error(scheme, overrides):
    code, out, err = run(["analytic"], scheme, overrides)
    if code == 0:
        assert err == ""
        for line in out.splitlines():
            name, value = line.split()
            if name != "scheme":
                assert math.isfinite(float(value)), line
    else:
        assert code == 1
        check_one_error_line(code, out, err)


@settings(FUZZ, max_examples=500)
@given(scheme=st.sampled_from(SCHEMES),
       overrides=st.dictionaries(st.sampled_from(SIMULATE_KEYS), VALUES, min_size=1, max_size=2))
def test_simulate_prints_finite_numbers_or_one_error(scheme, overrides):
    code, out, err = run(["simulate", "--trials", "30", "--duration", "2e-4"], scheme, overrides)
    if code == 0:
        assert err == ""
        header, *rows = out.splitlines()
        assert rows, out
        for row in rows:  # scheme, mode, then numbers
            assert all(math.isfinite(float(value)) for value in row.split()[2:]), row
    else:
        check_one_error_line(code, out, err)


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


# the box of valid configs: every draw loads (beta*dt < 0.5, edge >= 5/chi)
VALID = {
    "kappa": st.floats(1e3, 1e5), "lambda": st.floats(1e3, 1e5), "flux": st.floats(1e5, 5e6),
    "chi": st.floats(1e5, 5e5), "omega0": st.floats(0.0, 1e3), "dt": st.floats(5e-9, 5e-8),
    "duration": st.floats(1e-3, 1e-2), "warmup": st.floats(0.0, 1e-4),
    "trials": st.integers(2, 10**6), "seed": st.integers(0, 2**64 - 1),
    "edge_discard": st.floats(5e-5, 2e-4) | st.just("auto"),
}


@st.composite
def valid_overrides(draw):
    overrides = draw(st.fixed_dictionaries({}, optional=VALID))
    overrides["scheme"] = draw(st.sampled_from(SCHEMES))
    if overrides["scheme"] == "adaptive":
        overrides["source"] = draw(st.sampled_from(["theta", "phihat"]))
        overrides["beta"] = draw(st.floats(1e5, 5e6) | st.just("auto") | st.none())
    if draw(st.booleans()):
        overrides["w_minus"] = draw(st.floats(0.0, 1.0))
        overrides["w_plus"] = 1.0 - overrides["w_minus"]
    return overrides


@FUZZ
@given(overrides=valid_overrides())
def test_manifest_config_rebuilds_itself(overrides, tmp_path_factory):
    """The manifest's config, written back as a config file, loads to the same
    config: each key of the table reads and writes the same field."""
    echo = _config_echo(load_config(None, overrides))
    path = tmp_path_factory.mktemp("echo") / "run.cfg"
    lines = [f"{key} = {echo[key]}\n" for key in _KEYS]
    if echo["beta"] is None:  # the dual scheme runs no loop
        lines.remove("beta = None\n")
    path.write_text("".join(lines))
    assert _config_echo(load_config(str(path))) == echo
