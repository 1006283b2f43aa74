import filecmp
import json
import math
from concurrent.futures.process import BrokenProcessPool

import pytest

from ouphase import ParameterError
from ouphase.cli import (
    DEFAULTS,
    _build_config,
    _config_echo,
    _merge_values,
    build_manifest,
    dispatch,
    emit_results,
    load_config,
)
from ouphase.experiment import Condition, VarianceReport

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

    def test_out_json(self, tmp_path, capsys):
        dest = tmp_path / "analytic.json"
        code, _, _ = run(["analytic", "--out", str(dest)], capsys)
        assert code == 0
        payload = json.loads(dest.read_text())
        assert payload["filtered_mse"] == pytest.approx(0.04950714371153696, rel=1e-12)

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
        assert cfg["kappa"] == DEFAULTS["kappa"]
        assert cfg["beta"] == pytest.approx(1777941.795672738, rel=1e-12)
        assert len(payload["results"]) == 2
        # a re-emission from the same inputs is byte-identical (exact floats)
        dest2 = tmp_path / "run2.json"
        code, _, _ = run(["simulate", *FAST, "--format", "json", "--out", str(dest2)], capsys)
        assert code == 0
        assert dest.read_text() == dest2.read_text()

    def test_byte_identical_across_runs_and_workers(self, tmp_path, capsys):
        a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
        assert run(["simulate", *FAST, "--out", str(a)], capsys)[0] == 0
        assert run(["simulate", *FAST, "--out", str(b)], capsys)[0] == 0
        assert run(["simulate", *FAST, "--out", str(c), "--workers", "2"], capsys)[0] == 0
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


class TestConfigFile:
    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("")
        config = load_config(str(path))
        values, explicit = _merge_values(None, None)
        assert config == _build_config(values, explicit)
        assert config.params.kappa == DEFAULTS["kappa"]
        assert config.trials == DEFAULTS["trials"]

    def test_beta_auto_resolution(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("beta = auto\nchi = 2.92714e5\nflux = 1.3499e6\n")
        config = load_config(str(path))
        assert config.resolved_beta() == pytest.approx(1777941.795672738, rel=1e-12)

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

    def test_bad_value_named(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("trials = many\n")
        with pytest.raises(ParameterError, match="trials"):
            load_config(str(path))

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

    @pytest.mark.parametrize("workers", ["-3", "0"])
    def test_bad_workers_is_one(self, workers, capsys):
        code, _, err = run(["simulate", *FAST, "--workers", workers], capsys)
        assert code == 1
        assert "workers" in err

    @pytest.mark.parametrize("omega0", ["-5", "1e9"])
    def test_bad_omega0_is_one(self, omega0, capsys):
        code, _, err = run(["simulate", *FAST, "--omega0", omega0], capsys)
        assert code == 1
        assert "omega0 must satisfy 0 <= omega0 < beta" in err

    def test_missing_config_file_is_one(self, capsys):
        code, _, _ = run(["simulate", "--config", "/nonexistent.cfg"], capsys)
        assert code == 1

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

    def test_non_finite_ensemble_is_two(self, capsys):
        # the first trial fails with its own error, before numpy warns of an
        # overflow (the suite turns RuntimeWarnings into errors)
        code, out, err = run(["simulate", "--scheme", "dual_homodyne", "--flux", "1e-310",
                              "--trials", "30", "--duration", "5e-4"], capsys)
        assert code == 2
        assert "statistics error: non-finite filtered MSE in trial 0" in err
        assert "inf" not in out

    def test_dual_scheme_numeric_beta_is_one(self, capsys):
        code, _, err = run(["simulate", *FAST, "--scheme", "dual_homodyne", "--beta", "1e6"],
                           capsys)
        assert code == 1
        assert "beta applies to the adaptive scheme only" in err

    def test_adaptive_arg_mode_is_one(self, capsys):
        code, _, err = run(["simulate", *FAST, "--dual-mode", "arg"], capsys)
        assert code == 1
        assert "dual_mode applies to the dual_homodyne scheme only" in err

    @pytest.mark.parametrize("command", ["sweep-chi", "sweep-flux", "compare"])
    def test_per_point_beta_commands_reject_numeric_beta(self, command, tmp_path, capsys):
        # these commands set beta from chi at every point; a fixed beta would be ignored
        path = tmp_path / "run.cfg"
        path.write_text("beta = 3e6\n")
        for args in (["--beta", "3e6"], ["--config", str(path)]):
            code, out, err = run([command, *FAST, *args], capsys)
            assert code == 1
            assert f"{command} sets beta from chi at every point" in err
            assert out == ""

    def test_memory_error_is_three(self, capsys):
        # 1e15 samples (7 PiB per array): refused at once, nothing is allocated
        code, _, err = run(["simulate", "--duration", "1e6", "--dt", "1e-9", "--trials", "30"],
                           capsys)
        assert code == 3
        assert "resource error" in err

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
        code, _, err = run(["simulate", *FAST, "--workers", "2"], capsys)
        assert code == 3
        assert "resource error: a worker died" in err


class TestWorkerPool:
    @pytest.fixture(autouse=True)
    def many_cpus(self, monkeypatch):
        monkeypatch.setattr("ouphase.experiment.os.cpu_count", lambda: 64)

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
        cfg_values, explicit = _merge_values(None, {"trials": 30, "duration": 5e-4})
        config = _build_config(cfg_values, explicit)
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
