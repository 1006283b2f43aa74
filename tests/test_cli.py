import filecmp
import json
import math
import os
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from ouphase import ParameterError, ProcessParams, analytics
from ouphase.cli import (
    DEFAULTS,
    _config_echo,
    build_manifest,
    dispatch,
    emit_results,
    load_config,
)
from ouphase.experiment import Condition, VarianceReport

from conftest import count_draws

FAST = ["--trials", "30", "--duration", "5e-4", "--seed", "7"]


def run(argv, capsys):
    code = dispatch(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_table(text):
    values = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 2:
            try:
                values[parts[0]] = float(parts[1])
            except ValueError:
                values[parts[0]] = parts[1]
    return values


class TestAnalytic:
    def test_headline_values(self, capsys):
        code, out, _ = run(["analytic", "--kappa", "1.5868e4", "--lambda", "6.1451e4",
                            "--flux", "1.3499e6", "--chi", "2.92714e5"], capsys)
        assert code == 0
        vals = parse_table(out)
        assert vals["filtered_mse"] == pytest.approx(0.04950714371153696, rel=1e-8)
        assert vals["smoothed_mse"] == pytest.approx(0.02669705095548721, rel=1e-8)
        assert vals["sql_mse"] == pytest.approx(0.0766646750815743, rel=1e-8)
        assert vals["xi"] == pytest.approx(0.20993607068505066, rel=1e-8)
        assert vals["optimal_beta"] == pytest.approx(1777941.795672738, rel=1e-8)

    def test_dual_scheme_halves_flux(self, capsys):
        code, out, _ = run(["analytic", "--scheme", "dual_homodyne"], capsys)
        assert code == 0
        vals = parse_table(out)
        assert vals["filtered_mse"] == pytest.approx(0.07661229964901381, rel=1e-8)

    def test_dual_rows_follow_the_scheme(self, capsys):
        # no loop gain for a scheme without a loop; smoothing_gain at the dual
        # scheme's own rate scale; the scheme comparison rows stay
        code, out, _ = run(["analytic", "--scheme", "dual_homodyne"], capsys)
        assert code == 0
        vals = parse_table(out)
        assert "optimal_beta" not in vals
        params = ProcessParams(kappa=DEFAULTS["kappa"], lam=DEFAULTS["lambda"],
                               flux=DEFAULTS["flux"])
        chi = analytics.limit_chi(params, "dual_homodyne")
        gain = (analytics.filtered_mse(params, chi, "dual_homodyne")
                / analytics.smoothed_mse(params, chi, "dual_homodyne"))
        assert vals["smoothing_gain"] == pytest.approx(gain, rel=1e-8)
        assert vals["smoothing_gain"] != pytest.approx(
            analytics.improvement_ratios(params).smoothing_gain, rel=1e-3)
        assert vals["adaptive_gain"] == pytest.approx(math.sqrt(2), rel=1e-8)

    def test_out_json(self, tmp_path, capsys):
        dest = tmp_path / "analytic.json"
        code, _, _ = run(["analytic", "--out", str(dest)], capsys)
        assert code == 0
        payload = json.loads(dest.read_text())
        assert payload["filtered_mse"] == pytest.approx(0.04950714371153696, rel=1e-12)

    @pytest.mark.parametrize("flags", [["--w-minus", "0.3", "--w-plus", "0.7"],
                                       ["--scheme", "dual_homodyne"]], ids=["weights", "dual"])
    def test_mses_equal_simulate_analytic_column(self, flags, tmp_path, capsys):
        table, manifest = tmp_path / "analytic.json", tmp_path / "run.json"
        assert run(["analytic", *FAST, *flags, "--out", str(table)], capsys)[0] == 0
        assert run(["simulate", *FAST, *flags, "--format", "json", "--out", str(manifest)],
                   capsys)[0] == 0
        theory = json.loads(table.read_text())
        for row in json.loads(manifest.read_text())["results"]:
            assert theory[f"{row['mode']}_mse"] == row["analytic_mse"], row["mode"]

    @pytest.mark.parametrize("flags, message", [
        (["--dt", "-1"], "dt must be finite and > 0"),
        (["--trials", "0"], "trials must be an integer >= 1"),
        (["--w-minus", "0.3"], "w_minus + w_plus must sum to 1"),
        (["--scheme", "dual_homodyne", "--beta", "5"], "beta applies to the adaptive scheme only"),
        (["--scheme", "dual_homodyne", "--dt", "1e-6", "--chi", "1e5", "--edge-discard", "5e-5",
          "--duration", "1.014e-4"], "retained window is empty"),
    ], ids=["dt", "trials", "weights", "dual-beta", "empty-window"])
    def test_invalid_config_is_one(self, flags, message, capsys):
        # the whole config is checked, as for the commands that simulate
        for command in ("analytic", "simulate"):
            code, out, err = run([command, *flags], capsys)
            assert code == 1, command
            assert message in err
            assert out == ""

    @pytest.mark.parametrize("flag", [["--format", "csv"], ["--workers", "0"],
                                      ["--dual-mode", "arg"]])
    def test_run_only_flags_rejected(self, flag, tmp_path, capsys):
        # analytic simulates nothing and writes JSON only: these would be ignored
        dest = tmp_path / "t.csv"
        code, _, err = run(["analytic", *flag, "--out", str(dest)], capsys)
        assert code == 1
        assert "unrecognized arguments" in err
        assert not dest.exists()


class TestSimulate:
    def test_csv_schema_and_shape(self, tmp_path, capsys):
        dest = tmp_path / "run.csv"
        code, out, _ = run(["simulate", *FAST, "--out", str(dest)], capsys)
        assert code == 0
        assert "filtered" in out and "smoothed" in out
        text = dest.read_text()
        assert text.endswith("\n")
        lines = text.splitlines()
        assert lines[0] == "scheme,mode,chi,flux,trials,mc_mse,mc_stderr,analytic_mse,z_score"
        assert len(lines) == 3  # header + filtered + smoothed
        row = lines[1].split(",")
        assert row[0] == "adaptive" and row[1] == "filtered"
        # reals carry 9 significant digits
        assert float(row[7]) == pytest.approx(0.04950714371153696, rel=1e-8)
        assert len(row[7].replace("-", "").replace(".", "").lstrip("0")) == 9

    def test_json_manifest_roundtrip(self, tmp_path, capsys):
        dest = tmp_path / "run.json"
        code, _, _ = run(["simulate", *FAST, "--format", "json", "--out", str(dest)], capsys)
        assert code == 0
        payload = json.loads(dest.read_text())
        assert payload["tool"] == "ouphase"
        assert payload["timestamp"] is None
        assert payload["master_seed"] == 7
        cfg = payload["config"]
        # the manifest's format changes only on purpose
        assert list(cfg) == ["kappa", "lambda", "flux", "chi", "chi_plus", "beta", "omega0", "dt",
                             "duration", "warmup", "trials", "seed", "scheme", "source",
                             "w_minus", "w_plus", "edge_discard", "dual_mode"]
        assert cfg["kappa"] == DEFAULTS["kappa"]
        assert cfg["beta"] == pytest.approx(1777941.795672738, rel=1e-12)
        assert len(payload["results"]) == 2
        # a re-emission from the same inputs is byte-identical (exact floats)
        dest2 = tmp_path / "run2.json"
        code, _, _ = run(["simulate", *FAST, "--format", "json", "--out", str(dest2)], capsys)
        assert code == 0
        assert dest.read_text() == dest2.read_text()

    @pytest.mark.parametrize("argv", [
        ["simulate"],
        # the multi-config commands, which share each trial index's draws in one pool
        ["sweep-chi", "--format", "json"],
        ["sweep-flux", "--format", "json"],
        ["compare", "--format", "json"],
    ], ids=lambda argv: argv[0])
    def test_byte_identical_across_runs_and_workers(self, argv, tmp_path, capsys):
        a, b, c = (tmp_path / n for n in ("a.out", "b.out", "c.out"))
        assert run([*argv, *FAST, "--out", str(a)], capsys)[0] == 0
        assert run([*argv, *FAST, "--out", str(b)], capsys)[0] == 0
        assert run([*argv, *FAST, "--out", str(c), "--workers", "2"], capsys)[0] == 0
        assert filecmp.cmp(a, b, shallow=False)
        assert filecmp.cmp(a, c, shallow=False)

    def test_seed_changes_output(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["simulate", *FAST, "--out", str(a)], capsys)
        run(["simulate", "--trials", "30", "--duration", "5e-4", "--seed", "8",
             "--out", str(b)], capsys)
        assert not filecmp.cmp(a, b, shallow=False)

    def test_manifest_alone_regenerates_results(self, tmp_path, capsys):
        first = tmp_path / "first.json"
        run(["simulate", *FAST, "--format", "json", "--out", str(first)], capsys)
        cfg = json.loads(first.read_text())["config"]
        args = ["simulate", "--format", "json", "--out", str(tmp_path / "second.json")]
        for key in ("kappa", "lambda", "flux", "chi", "beta", "omega0", "dt",
                    "duration", "warmup", "trials", "seed", "scheme", "source",
                    "w_minus", "w_plus", "edge_discard"):
            args += [f"--{key.replace('_', '-')}", repr(cfg[key])
                     if isinstance(cfg[key], float) else str(cfg[key])]
        assert dispatch(args) == 0
        capsys.readouterr()
        assert filecmp.cmp(first, tmp_path / "second.json", shallow=False)


class TestSweepCommands:
    def test_sweep_chi_csv_shape(self, tmp_path, capsys):
        dest = tmp_path / "sweep.csv"
        code, _, _ = run(["sweep-chi", *FAST, "--values", "2e5,3e5", "--out", str(dest)],
                         capsys)
        assert code == 0
        lines = dest.read_text().splitlines()
        assert len(lines) == 5  # header + 2 modes x 2 points
        chis = [float(line.split(",")[2]) for line in lines[1:]]
        modes = [line.split(",")[1] for line in lines[1:]]
        assert modes == ["filtered", "filtered", "smoothed", "smoothed"]
        assert chis[0] < chis[1] and chis[2] < chis[3]

    def test_sweep_beta_auto_flag_and_file_match_unset(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("beta = auto\n")
        argv = ["sweep-chi", *FAST, "--values", "1", "--relative"]
        outputs = [run(argv + extra, capsys)[:2]
                   for extra in ([], ["--beta", "auto"], ["--config", str(path)])]
        assert outputs[0][0] == 0
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    def test_sweep_chi_relative_values(self, capsys):
        code, out, _ = run(["sweep-chi", *FAST, "--values", "0.8,1.2", "--relative"], capsys)
        assert code == 0
        chi_lim = 2 * math.sqrt(DEFAULTS["kappa"] * DEFAULTS["flux"])
        assert f"{0.8 * chi_lim:12.6g}".strip() in out


@pytest.mark.parametrize("argv", [["simulate"], ["sweep-chi", "--values", "0.8,1.2", "--relative"]],
                         ids=["simulate", "sweep-chi"])
def test_rates_over_four_and_times_four_give_the_same_results(argv, tmp_path, capsys):
    # exact scale covariance: each rate / 4 and each time * 4 is exact in binary,
    # so every result field is the same float, and chi and flux are the old / 4
    def results(c):
        rates = {key: DEFAULTS[key] / c for key in ("kappa", "lambda", "flux", "chi", "omega0")}
        times = {"dt": DEFAULTS["dt"] * c, "duration": 5e-4 * c}
        flags = [arg for key, value in {**rates, **times}.items() for arg in (f"--{key}", repr(value))]
        dest = tmp_path / f"{c}.json"
        code, _, _ = run([*argv, *flags, "--trials", "30", "--seed", "7", "--format", "json",
                          "--out", str(dest)], capsys)
        assert code == 0
        return json.loads(dest.read_text())["results"]

    rows = results(1)
    assert rows
    assert results(4) == [{**row, "chi": row["chi"] / 4, "flux": row["flux"] / 4} for row in rows]


class TestConfigFile:
    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("")
        config = load_config(str(path))
        assert load_config() == config
        assert config.params.kappa == DEFAULTS["kappa"]
        assert config.trials == DEFAULTS["trials"]

    def test_beta_auto_resolution(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("beta = auto\nchi = 2.92714e5\nflux = 1.3499e6\n")
        config = load_config(str(path))
        assert config.loop.beta == pytest.approx(1777941.795672738, rel=1e-12)

    def test_weight_sum_violation_names_invariant(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("w_minus = 0.6\nw_plus = 0.6\n")
        with pytest.raises(ParameterError, match="w_minus \\+ w_plus"):
            load_config(str(path))

    def test_unknown_key_named(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("kapa = 1e4\n")
        with pytest.raises(ParameterError, match="kapa"):
            load_config(str(path))

    def test_repeated_key_refused(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("chi = 1e5\n# chi again\nchi = 2e5\n")
        with pytest.raises(ParameterError, match="run.cfg:3: chi is already set on line 1"):
            load_config(str(path))
        code, _, err = run(["analytic", "--config", str(path)], capsys)
        assert code == 1
        assert "run.cfg:3: chi is already set on line 1" in err

    def test_repeated_flag_is_last_wins(self, capsys):
        _, out, _ = run(["analytic", "--chi", "1e5", "--chi", "2e5"], capsys)
        assert parse_table(out)["chi"] == 2e5

    def test_unknown_override_key_refused(self):
        with pytest.raises(ParameterError, match="unknown config key: kapa"):
            load_config(None, {"kapa": 2e4, "trails": 5})
        assert load_config(None, {"kappa": None, "trials": None}) == load_config()

    def test_bad_value_named(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("trials = many\n")
        with pytest.raises(ParameterError, match="trials"):
            load_config(str(path))

    def test_byte_order_mark_is_read_past(self, tmp_path):
        path = tmp_path / "bom.cfg"
        path.write_bytes(b"\xef\xbb\xbfkappa = 2e4\n")
        assert load_config(str(path)).params.kappa == 2e4

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# a comment\n\nkappa = 2e4  # inline\n")
        assert load_config(str(path)).params.kappa == 2e4

    def test_flag_precedence_over_file_per_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "kappa = 2e4\nlambda = 5e4\nflux = 2e6\nchi = 2e5\nbeta = 1.5e6\n"
            "omega0 = 50\ndt = 4e-8\nduration = 2e-2\nwarmup = 1e-4\ntrials = 100\n"
            "seed = 5\nscheme = adaptive\nsource = phihat\nw_minus = 0.4\nw_plus = 0.6\n"
            "edge_discard = 1e-4\n"
        )
        # file alone
        echo = _config_echo(load_config(str(path)))
        for key, expected in [("kappa", 2e4), ("lambda", 5e4), ("flux", 2e6),
                              ("chi", 2e5), ("beta", 1.5e6), ("omega0", 50.0),
                              ("dt", 4e-8), ("duration", 2e-2), ("warmup", 1e-4),
                              ("trials", 100), ("seed", 5), ("scheme", "adaptive"),
                              ("source", "phihat"), ("w_minus", 0.4), ("w_plus", 0.6),
                              ("edge_discard", 1e-4)]:
            assert echo[key] == expected, key
        # every key overridden from the command line
        overrides = {"kappa": 3e4, "lambda": 6e4, "flux": 3e6, "chi": 2.5e5,
                     "beta": 1.6e6, "omega0": 80.0, "dt": 2e-8, "duration": 3e-2,
                     "warmup": 2e-4, "trials": 60, "seed": 9, "scheme": "adaptive",
                     "source": "theta", "w_minus": 0.45, "w_plus": 0.55,
                     "edge_discard": 2e-4}
        echo = _config_echo(load_config(str(path), overrides))
        for key, expected in overrides.items():
            assert echo[key] == expected, key


class TestExitCodes:
    def test_parameter_error_is_one(self, capsys):
        code, _, err = run(["simulate", "--kappa", "-1"], capsys)
        assert code == 1
        assert "error" in err

    def test_statistics_error_is_two(self, capsys):
        code, _, err = run(["simulate", "--trials", "10", "--duration", "5e-4"], capsys)
        assert code == 2
        assert "statistics" in err

    def test_unknown_flag_is_one(self, capsys):
        code, _, err = run(["simulate", "--does-not-exist", "1"], capsys)
        assert code == 1
        assert "usage" in err

    def test_unknown_subcommand_is_one(self, capsys):
        assert run(["estimate"], capsys)[0] == 1

    def test_missing_subcommand_is_one(self, capsys):
        assert run([], capsys)[0] == 1

    def test_help_is_zero(self, capsys):
        assert run(["--help"], capsys)[0] == 0

    def test_unwritable_destination_is_one(self, tmp_path, capsys):
        dest = tmp_path / "missing_dir" / "out.csv"
        code, _, err = run(["simulate", *FAST, "--out", str(dest)], capsys)
        assert code == 1
        assert "i/o" in err

    @pytest.mark.parametrize("dest, error", [
        ("missing_dir/out.json", "[Errno 2] No such file or directory"),
        (".", "[Errno 21] Is a directory"),
    ], ids=["missing-directory", "existing-directory"])
    @pytest.mark.parametrize("command", [["simulate"], ["sweep-chi"], ["sweep-flux"],
                                         ["compare"], ["analytic"]], ids=lambda c: c[0])
    def test_missing_destination_directory_is_one_before_any_trial(self, command, dest, error,
                                                                   tmp_path, capsys, monkeypatch):
        calls = count_draws(monkeypatch)
        dest = tmp_path / dest
        code, out, err = run([*command, *FAST, "--out", str(dest)], capsys)
        assert (code, out) == (1, "")
        assert err == f"ouphase: i/o error: {error}: '{dest}'\n"
        assert calls == {"simulate_ou": 0, "wiener_increments": 0, "run_dual_homodyne": 0}
        assert [p.name for p in tmp_path.iterdir()] == []

    @pytest.mark.parametrize("command", [["simulate"], ["analytic"]], ids=lambda c: c[0])
    def test_empty_destination_is_one_before_any_trial(self, command, tmp_path, capsys,
                                                       monkeypatch):
        # an empty --out names no file, as open("") says: it is not the same as no --out
        calls = count_draws(monkeypatch)
        monkeypatch.chdir(tmp_path)
        code, out, err = run([*command, *FAST, "--out", ""], capsys)
        assert (code, out) == (1, "")
        assert err == "ouphase: i/o error: [Errno 2] No such file or directory: ''\n"
        assert calls == {"simulate_ou": 0, "wiener_increments": 0, "run_dual_homodyne": 0}
        assert [p.name for p in tmp_path.iterdir()] == []

    @pytest.mark.parametrize("workers", ["-3", "0"])
    def test_bad_workers_is_one(self, workers, capsys):
        code, _, err = run(["simulate", *FAST, "--workers", workers], capsys)
        assert code == 1
        assert "workers" in err

    @pytest.mark.parametrize("args, message", [
        (["--omega0", "-5"], "omega0 must satisfy 0 <= omega0 < beta"),
        (["--omega0", "1e9"], "omega0 must satisfy 0 <= omega0 < beta"),
        (["--omega0", "-5", "--scheme", "dual_homodyne"], "omega0 must be finite and >= 0"),
    ], ids=["-5", "1e9", "dual--5"])
    def test_bad_omega0_is_one(self, args, message, capsys):
        code, _, err = run(["simulate", *FAST, *args], capsys)
        assert code == 1
        assert message in err

    @pytest.mark.parametrize("args, chi", [
        (["analytic", "--chi", "1e-300"], "1e-300"),
        (["sweep-chi", "--values", "5e-324"], "4.94066e-324"),
    ], ids=["analytic", "sweep-chi"])
    def test_automatic_beta_below_omega0_is_named(self, args, chi, capsys):
        code, out, err = run(args, capsys)
        assert (code, out) == (1, "")
        assert err.startswith("ouphase: error: omega0 must satisfy 0 <= omega0 < beta; "
                              "the automatic beta is sqrt(8*chi*N) = ")
        assert err.endswith(f" at chi = {chi}, N = 1.3499e+06\n")

    def test_missing_config_file_is_one(self, capsys):
        code, _, _ = run(["simulate", "--config", "/nonexistent.cfg"], capsys)
        assert code == 1

    def test_non_utf8_config_file_is_one(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"kappa = 1\xff\n")
        code, out, err = run(["simulate", "--config", str(path)], capsys)
        assert code == 1
        assert err == f"ouphase: error: {path}: not UTF-8 text: invalid start byte\n"
        assert out == ""

    def test_config_line_without_equals_is_one(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("kappa 1e4\n")
        code, out, err = run(["simulate", "--config", str(path)], capsys)
        assert code == 1
        assert err == f"ouphase: error: {path}:1: expected 'key = value'\n"
        assert out == ""

    @pytest.mark.parametrize("key", list(DEFAULTS))
    def test_bad_value_is_one_as_flag_and_file_line(self, key, tmp_path, capsys):
        code, _, err = run(["simulate", f"--{key.replace('_', '-')}", "abc"], capsys)
        assert code == 1
        assert "error" in err
        path = tmp_path / "run.cfg"
        path.write_text(f"{key} = abc\n")
        code, _, err = run(["simulate", "--config", str(path)], capsys)
        assert code == 1
        assert f"{path}:1: invalid value for {key!r}" in err

    def test_bad_sweep_value_is_one(self, capsys):
        code, _, err = run(["sweep-chi", *FAST, "--values", "1,abc"], capsys)
        assert code == 1
        assert "'abc'" in err

    @pytest.mark.parametrize("args, message", [
        # finite trials whose spread overflows: no RuntimeWarning escapes (the
        # suite turns them into errors)
        (["--kappa", "1e300"], "non-finite filtered ensemble: mean 1.3"),
    ], ids=["spread"])
    def test_non_finite_ensemble_is_two(self, args, message, capsys):
        code, out, err = run(["simulate", *args, "--trials", "30", "--duration", "5e-4",
                              "--seed", "7"], capsys)
        assert code == 2
        assert f"statistics error: {message}" in err
        assert "inf" not in out

    @pytest.mark.parametrize("args, message", [
        # a theory that is refused stops the run before its trials, as in `analytic`
        (["--scheme", "dual_homodyne", "--flux", "1e-310", *FAST],
         "filtered MSE is not finite at these parameters"),
        (["--trials", "30", "--duration", "5e-3", "--lambda", "1.7e308"],
         "forward-backward correlation is not finite at these parameters"),
    ], ids=["flux", "lambda"])
    def test_non_finite_theory_is_one_before_any_trial(self, args, message, capsys,
                                                       monkeypatch):
        calls = count_draws(monkeypatch)
        code, out, err = run(["simulate", *args], capsys)
        assert (code, out, err) == (1, "", f"ouphase: error: {message}\n")
        assert calls["simulate_ou"] == 0

    def test_dual_scheme_numeric_beta_is_one(self, capsys):
        code, _, err = run(["simulate", *FAST, "--scheme", "dual_homodyne", "--beta", "1e6"],
                           capsys)
        assert code == 1
        assert "beta applies to the adaptive scheme only" in err

    @pytest.mark.parametrize("via", ["flag", "file"])
    def test_dual_scheme_unset_beta_runs_no_loop_explicit_auto_is_one(self, via, tmp_path,
                                                                       capsys):
        def config_args(**values):
            if via == "flag":
                return [arg for key, value in values.items() for arg in (f"--{key}", value)]
            path = tmp_path / "run.cfg"
            path.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))
            return ["--config", str(path)]

        dest = tmp_path / "run.json"
        code, _, _ = run(["simulate", *FAST, *config_args(scheme="dual_homodyne"),
                          "--format", "json", "--out", str(dest)], capsys)
        assert code == 0
        assert json.loads(dest.read_text())["config"]["beta"] is None
        code, out, err = run(["simulate", *FAST,
                              *config_args(scheme="dual_homodyne", beta="auto")], capsys)
        assert code == 1
        assert "beta applies to the adaptive scheme only, got 'auto'" in err
        assert out == ""

    def test_flux_without_interior_optimum_is_one(self, capsys):
        code, out, err = run(["sweep-flux", *FAST, "--values", "1e3,1.35e6"], capsys)
        assert code == 1
        assert "flux 1000 has no interior filtered optimum" in err
        assert out == ""

    def test_adaptive_arg_mode_is_one(self, capsys):
        code, _, err = run(["simulate", *FAST, "--dual-mode", "arg"], capsys)
        assert code == 1
        assert "dual_mode applies to the dual_homodyne scheme only" in err

    @pytest.mark.parametrize("command, who", [("sweep-chi", "a chi sweep"),
                                              ("sweep-flux", "a flux sweep"),
                                              ("compare", "compare")],
                             ids=["sweep-chi", "sweep-flux", "compare"])
    def test_per_point_beta_commands_reject_numeric_beta(self, command, who, tmp_path, capsys):
        # these commands set beta from chi at every point; a fixed beta would be ignored.
        # The library's sweep and compare refuse it
        path = tmp_path / "run.cfg"
        path.write_text("beta = 3e6\n")
        for args in (["--beta", "3e6"], ["--config", str(path)]):
            code, out, err = run([command, *FAST, *args], capsys)
            assert code == 1
            assert err == (f"ouphase: error: {who} sets beta from chi at every point: "
                           "beta must be 'auto', got 3000000.0\n")
            assert out == ""

    @pytest.mark.parametrize("command", ["simulate", "analytic"])
    @pytest.mark.parametrize("grid", [["--duration", "1e12", "--dt", "1e-8"],
                                      ["--duration", "9e10", "--dt", "1e-8"],
                                      ["--duration", "1e10", "--dt", "1e-300"],
                                      ["--duration", "1", "--dt", "5e-324"],
                                      ["--duration", "1e30"]],
                             ids=["1e20-steps", "9e18-steps", "inf-steps", "denormal-dt", "5e37-steps"])
    def test_grid_too_long_is_one(self, command, grid, capsys):
        # more steps than one float64 array can hold: refused before any array exists
        code, out, err = run([command, *grid], capsys)
        assert code == 1
        assert err.startswith("ouphase: error: grid too long: duration/dt = ")
        assert err.count("\n") == 1
        assert out == ""

    @pytest.mark.parametrize("args, row", [
        (["--lambda", "1e200"], "smoothing_gain"),  # (chi + lam)**2 overflows
        (["--kappa", "1e300"], "mse_star_smoothed"),  # the optimum's MSE is inf
        (["--kappa", "5e-324"], "adaptive_gain"),  # sqrt(kappa/N) underflows to 0
        # 2*sqrt(kappa*N) underflows to 0: xi = lam/0
        (["--kappa", "5e-324", "--flux", "0.1", "--scheme", "dual_homodyne"], "xi"),
    ], ids=["overflow", "inf", "underflow", "xi-underflow"])
    def test_non_finite_analytic_row_is_one(self, args, row, tmp_path, capsys):
        # refused before a row is printed or a non-JSON "Infinity" is written
        dest = tmp_path / "analytic.json"
        code, out, err = run(["analytic", *args, "--out", str(dest)], capsys)
        assert code == 1
        assert err == f"ouphase: error: analytic row {row} is not finite at these parameters\n"
        assert out == ""
        assert not dest.exists()

    @pytest.mark.parametrize("command", [["analytic"], ["simulate", "--trials", "30",
                                                        "--duration", "2e-4"]],
                             ids=["analytic", "simulate"])
    def test_dual_flux_whose_half_rounds_to_zero_is_one(self, command, capsys):
        # N' = N/2 underflows to 0, which every dual formula divides by
        code, out, err = run([*command, "--scheme", "dual_homodyne", "--flux", "5e-324"], capsys)
        assert code == 1
        assert err == "ouphase: error: the dual homodyne flux/2 must be finite and > 0\n"
        assert out == ""

    def test_non_finite_expectation_is_one(self, tmp_path, capsys):
        # kappa*lam and (chi + lam)**2 both overflow: the smoothed row's
        # expectation would be inf/inf, printed as nan with a z of nan
        dest = tmp_path / "run.csv"
        code, out, err = run(["simulate", "--trials", "30", "--duration", "2e-4",
                              "--lambda", "1.7e308", "--out", str(dest)], capsys)
        assert code == 1
        assert err == ("ouphase: error: forward-backward correlation is not finite "
                       "at these parameters\n")
        assert out == ""
        assert not dest.exists()

    @pytest.mark.parametrize("lam, workers", [("1e-30", "1"), ("1e-30", "2"), ("1e-300", "1"),
                                              ("2.2e-308", "1"), ("5e-324", "1")])
    def test_reversion_the_grid_cannot_resolve_is_one(self, lam, workers, capsys):
        # exp(-lambda*dt) rounds to 1: phi would not move from its initial draw
        code, out, err = run(["simulate", "--trials", "30", "--duration", "2e-4", "--seed", "7",
                              "--lambda", lam, "--workers", workers], capsys)
        assert code == 1
        assert err.startswith("ouphase: error: lambda*dt = ") and err.count("\n") == 1
        assert out == ""

    def test_memory_error_is_three(self, monkeypatch, capsys):
        # a trial's memory is set by its block length, not its duration, so no
        # grid makes one run out: the trial itself raises
        def out_of_memory(configs, trial_index):
            raise MemoryError("no room for a block")

        monkeypatch.setattr("ouphase.experiment.run_trials", out_of_memory)
        code, _, err = run(["simulate", *FAST], capsys)
        assert code == 3
        assert "resource error: no room for a block" in err

    def test_interrupt_is_130_with_one_line(self, monkeypatch, capsys):
        def interrupted(configs, trial_index):
            raise KeyboardInterrupt

        monkeypatch.setattr("ouphase.experiment.run_trials", interrupted)
        assert run(["simulate", *FAST], capsys) == (130, "", "ouphase: interrupted\n")

    def test_broken_pool_is_three(self, monkeypatch, capsys):
        class BrokenPool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, *args, **kwargs):
                raise BrokenProcessPool("a worker died")

        monkeypatch.setattr("ouphase.experiment.ProcessPoolExecutor", BrokenPool)
        monkeypatch.setattr("ouphase.experiment._cpus", lambda: 2)  # a pool, on any machine
        code, _, err = run(["simulate", *FAST, "--workers", "2"], capsys)
        assert code == 3
        assert "resource error: a worker died" in err


class TestWorkerPool:
    @pytest.fixture(autouse=True)
    def many_cpus(self, monkeypatch):
        monkeypatch.setattr("ouphase.experiment._cpus", lambda: 64)

    def test_pool_no_larger_than_the_work(self, pool_sizes, capsys):
        # 30 trials are 4 chunks of 8: a fork pool would start all 5000 processes
        code, _, _ = run(["simulate", *FAST, "--workers", "5000"], capsys)
        assert code == 0
        assert pool_sizes == [4]

    @pytest.mark.parametrize("argv", [["sweep-chi", "--values", "2e5,3e5,4e5"],
                                      ["sweep-flux", "--values", "1.35e6,2.7e6"],
                                      ["compare"]])
    def test_one_pool_per_command(self, argv, pool_sizes, capsys):
        code, _, _ = run([*argv, *FAST, "--workers", "2"], capsys)
        assert code == 0
        assert pool_sizes == [2]


class TestEmitGuards:
    def _report(self, mse):
        config = load_config(None, {"trials": 30, "duration": 5e-4})
        cond = Condition(scheme="adaptive", mode="filtered", chi=1e5, flux=1e6,
                         trials=30, mc_mse=mse, mc_stderr=1e-4, analytic_mse=0.05,
                         z_score=0.0)
        smth = Condition(scheme="adaptive", mode="smoothed", chi=1e5, flux=1e6,
                         trials=30, mc_mse=0.02, mc_stderr=1e-4, analytic_mse=0.02,
                         z_score=0.0)
        return VarianceReport(config=config, conditions=(cond, smth), backward=smth)

    def test_nan_rejected_csv(self, tmp_path):
        with pytest.raises(ParameterError, match="mc_mse"):
            emit_results([self._report(float("nan"))], "csv", str(tmp_path / "x.csv"))

    def test_inf_rejected_json(self, tmp_path):
        rep = self._report(float("inf"))
        with pytest.raises(ParameterError, match="mc_mse"):
            emit_results([rep], "json", str(tmp_path / "x.json"), build_manifest([rep]))

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ParameterError, match="format"):
            emit_results([self._report(0.05)], "yaml", str(tmp_path / "x.yaml"))

    def test_single_condition_report_gives_two_line_csv(self, tmp_path):
        rep = self._report(0.05)
        single = VarianceReport(config=rep.config, conditions=(rep.conditions[0],),
                                backward=rep.backward)
        dest = tmp_path / "one.csv"
        emit_results([single], "csv", str(dest))
        lines = dest.read_text().splitlines()
        assert len(lines) == 2  # header + the one condition


class TestCompareCommand:
    def test_smoke(self, capsys):
        code, out, _ = run(["compare", *FAST], capsys)
        assert code == 0
        assert "dual_homodyne" in out
        assert "smoothing_gain" in out
        assert "total_gain" in out

    def test_dual_mode_applies_to_dual_ensemble(self, tmp_path, capsys):
        dest = tmp_path / "compare.json"
        code, _, _ = run(["compare", *FAST, "--dual-mode", "arg", "--format", "json",
                          "--out", str(dest)], capsys)
        assert code == 0
        assert json.loads(dest.read_text())["config"]["dual_mode"] == "arg"


def _mended_by(item: int, why: str):
    return pytest.mark.xfail(strict=True, reason=f"ROADMAP item {item}: {why}")


# One case per kind of row the commands report, at the CLI's defaults (seed
# 424242, 10 ms trials at dt = 2e-8 s), each sized so that a row whose
# expectation is wrong reads |z| >= 6. A case whose rows are still tested
# against the wrong expectation fails strictly: its mending item removes the mark.
@pytest.mark.parametrize("argv", [
    pytest.param(["simulate", "--trials", "100"], id="simulate-theta"),
    pytest.param(["simulate", "--scheme", "dual_homodyne", "--trials", "60"],
                 id="simulate-dual-linearized"),
    pytest.param(["compare", "--trials", "100", "--workers", "2"], id="compare"),
    pytest.param(["simulate", "--source", "phihat", "--trials", "100"], id="simulate-phihat",
                 marks=_mended_by(1, "the phihat rows are tested against theta's closed forms")),
    pytest.param(["simulate", "--scheme", "dual_homodyne", "--dual-mode", "arg", "--trials", "60"],
                 id="simulate-dual-arg",
                 marks=_mended_by(6, "the arg rows are tested against the linearized forms")),
    pytest.param(["sweep-chi", "--relative", "--values", "1.8,3", "--workers", "2"],
                 id="sweep-chi-fast-rates",
                 marks=_mended_by(10, "the smoothed rows at chi*dt ~ 0.01-0.02 are tested "
                                      "against the continuous forms")),
    pytest.param(["sweep-flux", "--trials", "100", "--workers", "2"], id="sweep-flux",
                 marks=_mended_by(10, "the rows at 5 and 10 x N are tested against the "
                                      "continuous forms")),
])
def test_every_row_z_within_three(argv, tmp_path, capsys):
    dest = tmp_path / "rows.json"
    code, _, err = run([*argv, "--format", "json", "--out", str(dest)], capsys)
    assert code == 0, err
    z = [row["z_score"] for row in json.loads(dest.read_text())["results"]]
    assert z and all(abs(v) <= 3 for v in z), z


def test_start_up_imports_no_scipy_signal():
    # scipy.signal would cost about 0.5 s of every process's start-up: the
    # package runs its first-order recursions on the compiled kernel alone
    script = ("import sys, ouphase.cli\n"
              "assert ouphase.cli.dispatch(['analytic']) == 0\n"
              "print('scipy.signal' in sys.modules, file=sys.stderr)\n")
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert done.stderr == "False\n"
