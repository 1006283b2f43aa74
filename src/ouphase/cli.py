"""Command-line front end: analytic tables, ensembles, sweeps, comparisons.

Results go to stdout as a human table and, with --out, to CSV or a JSON run
manifest. Output files contain no wall-clock data, so a fixed seed yields
byte-identical files across runs and worker counts. Exit codes: 0 success,
1 parameter/configuration error, 2 statistics error, 3 resource error (out
of memory, a broken worker pool).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, fields, replace
from typing import Callable, NamedTuple

from . import __version__, analytics
from .errors import ConfigurationError, ParameterError, StatisticsError
from .estimators import EstimatorParams
from .experiment import (
    Condition,
    ExperimentConfig,
    compare_schemes,
    run_ensemble,
    run_ensembles,
    sweep,
)
from .stochastic import ProcessParams, SimGrid

__all__ = ["DEFAULTS", "load_config", "emit_results", "build_manifest", "dispatch", "main"]


def _real(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(raw)
    return value


def _real_or_auto(raw: str):
    return "auto" if raw == "auto" else _real(raw)


def _choice(*options: str) -> Callable[[str], str]:
    def parse(raw: str) -> str:
        if raw not in options:
            raise ValueError(raw)
        return raw
    return parse


class _Key(NamedTuple):
    default: object
    parse: Callable[[str], object]  # raw string -> value; ValueError if invalid
    help: str | None = None


# The config-file keys. Each is also a --flag (``_`` -> ``-``) parsed by the
# same rule. The defaults are the headline adaptive operating point, so that
# a bare `ouphase simulate` demonstrates the filtered/smoothed comparison.
_KEYS = {
    "kappa": _Key(1.5868e4, _real),
    "lambda": _Key(6.1451e4, _real),
    "flux": _Key(1.3499e6, _real),
    "chi": _Key(2.92714e5, _real),
    "beta": _Key("auto", _real_or_auto, "feedback gain in 1/s, or 'auto'"),
    "omega0": _Key(1e2, _real),
    "dt": _Key(2e-8, _real),
    "duration": _Key(1e-2, _real),
    "warmup": _Key(0.0, _real),
    "trials": _Key(200, int),
    "seed": _Key(424242, int),
    "scheme": _Key("adaptive", _choice(*analytics.SCHEMES)),
    "source": _Key("theta", _choice("theta", "phihat")),
    "w_minus": _Key(0.5, _real),
    "w_plus": _Key(0.5, _real),
    "edge_discard": _Key("auto", _real_or_auto, "seconds discarded from both ends, or 'auto'"),
}

DEFAULTS = {key: spec.default for key, spec in _KEYS.items()}


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits 1 (not 2) on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _parse_value(key: str, raw: str):
    """``raw`` parsed by the rule of config key ``key``, else ParameterError."""
    try:
        return _KEYS[key].parse(raw)
    except ValueError:
        raise ParameterError(f"invalid value for {key!r}: {raw!r}") from None


def _read_config_file(path: str) -> dict:
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParameterError(f"{path}:{lineno}: expected 'key = value'")
            key, raw = (part.strip() for part in line.split("=", 1))
            if key not in DEFAULTS:
                raise ParameterError(f"{path}:{lineno}: unknown config key: {key}")
            try:
                values[key] = _parse_value(key, raw)
            except ParameterError as exc:
                raise ParameterError(f"{path}:{lineno}: {exc}") from None
    return values


def _merge_values(file_values: dict | None, cli_values: dict | None):
    """Precedence: command line > config file > defaults."""
    values = dict(DEFAULTS)
    explicit = set()
    for layer in (file_values, cli_values):
        if layer:
            for k, v in layer.items():
                if v is not None:
                    values[k] = v
                    explicit.add(k)
    return values, explicit


def _build_config(values: dict, explicit: set, dual_mode: str = "linearized") -> ExperimentConfig:
    params = ProcessParams(kappa=values["kappa"], lam=values["lambda"], flux=values["flux"])
    grid = SimGrid(dt=values["dt"], duration=values["duration"], warmup=values["warmup"])
    edge = values["edge_discard"]
    estimator = EstimatorParams(
        chi_minus=values["chi"],
        chi_plus=values["chi"],
        w_minus=values["w_minus"],
        w_plus=values["w_plus"],
        source=values["source"],
        edge_discard=None if edge == "auto" else edge,
    )
    beta = values["beta"]
    if values["scheme"] != "adaptive" and beta == "auto" and "beta" not in explicit:
        beta = None  # the dual scheme runs no feedback; only an explicit 'auto' is an error
    return ExperimentConfig(
        params=params,
        grid=grid,
        estimator=estimator,
        scheme=values["scheme"],
        beta=beta,
        omega0=values["omega0"],
        trials=values["trials"],
        master_seed=values["seed"],
        dual_mode=dual_mode,
    )


def load_config(path: str, cli_overrides: dict | None = None) -> ExperimentConfig:
    """Config from a flat key=value file, with optional command-line overrides."""
    values, explicit = _merge_values(_read_config_file(path), cli_overrides)
    return _build_config(values, explicit)


# ---------------------------------------------------------------------------
# result emission


def _cell(field: str, value) -> str:
    """CSV text of one result field: reals get 9 significant digits and must
    be finite; text and integers are written as they are."""
    if isinstance(value, (str, int)):
        return str(value)
    v = float(value)
    if not math.isfinite(v):
        raise ParameterError(f"non-finite value in emitted field {field!r}")
    return format(v, ".9g")


def _ordered_conditions(reports) -> list[Condition]:
    rows = []
    for mode in ("filtered", "smoothed"):
        for rep in reports:
            rows.extend(c for c in rep.conditions if c.mode == mode)
    return rows


def _config_echo(config: ExperimentConfig) -> dict:
    e = config.estimator
    return {
        "kappa": config.params.kappa,
        "lambda": config.params.lam,
        "flux": config.params.flux,
        "chi": e.chi_minus,
        "chi_plus": e.chi_plus,
        "beta": config.resolved_beta(),
        "omega0": config.omega0,
        "dt": config.grid.dt,
        "duration": config.grid.duration,
        "warmup": config.grid.warmup,
        "trials": config.trials,
        "seed": config.master_seed,
        "scheme": config.scheme,
        "source": e.source,
        "w_minus": e.w_minus,
        "w_plus": e.w_plus,
        "edge_discard": config.resolved_edge_discard(),
        "noise_scale": config.noise_scale,
        "dual_mode": config.dual_mode,
    }


def build_manifest(reports, config: ExperimentConfig | None = None, extra: dict | None = None) -> dict:
    """The JSON run manifest: everything needed to reproduce a run (resolved
    configuration, tool version and seed) plus the per-condition results.

    It carries a ``"timestamp": null`` key and no wall-clock data, so that a
    fixed seed produces byte-identical output.
    """
    config = config if config is not None else reports[0].config
    echo = _config_echo(config)
    if extra:
        echo.update(extra)
    return {
        "tool": "ouphase",
        "version": __version__,
        "master_seed": config.master_seed,
        "timestamp": None,
        "config": echo,
        "results": [asdict(c) for c in _ordered_conditions(reports)],
    }


def emit_results(reports, fmt: str, destination: str, manifest: dict | None = None):
    """Write report conditions to ``destination`` as CSV or JSON manifest."""
    if fmt == "csv":
        lines = [",".join(f.name for f in fields(Condition))]
        for c in _ordered_conditions(reports):
            lines.append(",".join(_cell(k, v) for k, v in asdict(c).items()))
        text = "\n".join(lines) + "\n"
    elif fmt == "json":
        manifest = manifest if manifest is not None else build_manifest(reports)
        for row in manifest["results"]:
            for k, v in row.items():
                _cell(k, v)  # finiteness guard only; JSON keeps full precision
        text = json.dumps(manifest, indent=2) + "\n"
    else:
        raise ParameterError(f"unknown output format: {fmt!r}")
    with open(destination, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# subcommands


def _print_conditions(reports, file=None):
    file = file if file is not None else sys.stdout
    header = f"{'scheme':<14}{'mode':<10}{'chi':>12}{'flux':>12}{'trials':>8}" \
             f"{'mc_mse':>13}{'mc_stderr':>13}{'analytic':>13}{'z':>8}"
    print(header, file=file)
    for c in _ordered_conditions(reports):
        print(
            f"{c.scheme:<14}{c.mode:<10}{c.chi:>12.6g}{c.flux:>12.6g}{c.trials:>8d}"
            f"{c.mc_mse:>13.6g}{c.mc_stderr:>13.3g}{c.analytic_mse:>13.6g}{c.z_score:>+8.2f}",
            file=file,
        )


def _analytic_values(values: dict) -> dict:
    params = ProcessParams(kappa=values["kappa"], lam=values["lambda"], flux=values["flux"])
    chi = values["chi"]
    scheme = values["scheme"]
    opt_f = analytics.optimal_chi(params, "filtered", scheme)
    opt_s = analytics.optimal_chi(params, "smoothed", scheme)
    ratios = analytics.improvement_ratios(params)
    return {
        "scheme": scheme,
        "chi": chi,
        "filtered_mse": analytics.filtered_mse(params, chi, scheme),
        "backward_mse": analytics.filtered_mse(params, chi, scheme),
        "smoothed_mse": analytics.smoothed_mse(params, chi, scheme),
        "fb_correlation": analytics.forward_backward_correlation(params, chi, chi),
        "sql_mse": analytics.sql_mse(params),
        "xi": analytics.xi(params),
        "optimal_beta": analytics.optimal_beta(chi, params.flux),
        "chi_star_filtered": opt_f.chi_star,
        "mse_star_filtered": opt_f.mse_star,
        "chi_star_smoothed": opt_s.chi_star,
        "mse_star_smoothed": opt_s.mse_star,
        "smoothing_gain": ratios.smoothing_gain,
        "adaptive_gain": ratios.adaptive_gain,
        "total_gain_limit": ratios.total_gain_limit,
        "total_gain_exact": ratios.total_gain_exact,
    }


def _cmd_analytic(args) -> int:
    values, _ = _merge_values(_file_values(args), _cli_values(args))
    table = _analytic_values(values)
    for name, value in table.items():
        if isinstance(value, str):
            print(f"{name:<20} {value}")
        else:
            print(f"{name:<20} {value:.9g}")
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(table, fh, indent=2)
            fh.write("\n")
    return 0


def _cmd_simulate(args) -> int:
    config = _config_from_args(args)
    report = run_ensemble(config, workers=args.workers)
    _print_conditions([report])
    if args.out:
        emit_results([report], args.format, args.out, build_manifest([report]))
    return 0


def _sweep_values(args, config: ExperimentConfig, axis: str):
    """--values as given or, with --relative, times the axis scale; else a default grid."""
    if axis == "chi":
        scale = analytics.limit_chi(config.params, config.scheme)
        multiples = (0.3, 0.6, 1.0, 1.8, 3.0)
    else:
        scale, multiples = config.params.flux, (1.0, 2.0, 5.0, 10.0)
    if args.values is not None:
        multiples = [_parse_value(axis, tok) for tok in args.values.split(",") if tok.strip()]
        if not args.relative:
            return multiples
    return [v * scale for v in multiples]


def _cmd_sweep(args, axis: str) -> int:
    config = _config_from_args(args, per_point_beta=True)
    values = _sweep_values(args, config, axis)
    reports = sweep(config, axis, values, workers=args.workers)
    _print_conditions(reports)
    if args.out:
        extra = {"sweep_axis": axis, "sweep_values": [float(v) for v in values]}
        emit_results(reports, args.format, args.out, build_manifest(reports, config, extra))
    return 0


def _cmd_compare(args) -> int:
    config = _config_from_args(args, per_point_beta=True, dual_mode="linearized")
    params = config.params
    chi_ap = analytics.limit_chi(params, "adaptive")
    chi_dh = analytics.limit_chi(params, "dual_homodyne")
    est_ap = replace(config.estimator, chi_minus=chi_ap, chi_plus=chi_ap)
    est_dh = replace(config.estimator, chi_minus=chi_dh, chi_plus=chi_dh, source="theta")
    rep_ap, rep_dh = run_ensembles(
        [replace(config, scheme="adaptive", beta="auto", estimator=est_ap),
         replace(config, scheme="dual_homodyne", beta=None, estimator=est_dh,
                 dual_mode=args.dual_mode)],
        workers=args.workers,
    )
    gains = compare_schemes(rep_ap, rep_dh)
    _print_conditions([rep_ap, rep_dh])
    print()
    print(f"{'smoothing_gain':<20} {gains.smoothing_gain:.6g} +- {gains.smoothing_gain_stderr:.3g}")
    print(f"{'adaptive_gain':<20} {gains.adaptive_gain:.6g} +- {gains.adaptive_gain_stderr:.3g}")
    print(f"{'total_gain':<20} {gains.total_gain:.6g} +- {gains.total_gain_stderr:.3g}")
    print(f"{'sql_mse':<20} {analytics.sql_mse(params):.9g}")
    if args.out:
        extra = {"dual_mode": args.dual_mode,
                 "compare_chi_adaptive": chi_ap, "compare_chi_dual": chi_dh}
        emit_results([rep_ap, rep_dh], args.format, args.out,
                     build_manifest([rep_ap, rep_dh], rep_ap.config, extra))
    return 0


# ---------------------------------------------------------------------------
# argument plumbing


def _add_config_flags(parser, runs: bool):
    parser.add_argument("--config", metavar="PATH", help="flat key=value config file")
    for key, spec in _KEYS.items():
        parser.add_argument("--" + key.replace("_", "-"), dest=key, help=spec.help)
    parser.add_argument("--out", metavar="PATH")
    if runs:  # analytic simulates nothing and writes JSON only
        parser.add_argument("--dual-mode", dest="dual_mode",
                            choices=("linearized", "arg"), default="linearized")
        parser.add_argument("--workers", type=int, default=1)
        parser.add_argument("--format", choices=("csv", "json"), default="csv")


def _cli_values(args) -> dict:
    return {key: _parse_value(key, getattr(args, key))
            for key in _KEYS if getattr(args, key) is not None}


def _file_values(args) -> dict | None:
    return _read_config_file(args.config) if args.config else None


def _config_from_args(args, per_point_beta: bool = False, dual_mode: str | None = None):
    """The run's ExperimentConfig. ``per_point_beta``: the command sets beta
    from chi at every point, so a numeric beta (flag or file) is an error."""
    values, explicit = _merge_values(_file_values(args), _cli_values(args))
    if per_point_beta and values["beta"] != "auto":
        raise ParameterError(f"{args.command} sets beta from chi at every point: "
                             f"beta must be 'auto', got {values['beta']!r}")
    return _build_config(values, explicit, dual_mode=dual_mode or args.dual_mode)


def build_parser() -> _Parser:
    parser = _Parser(prog="ouphase", description=__doc__)
    parser.add_argument("--version", action="version", version=f"ouphase {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, help_text in (
        ("analytic", "print theory values without simulating"),
        ("simulate", "run one Monte Carlo ensemble"),
        ("sweep-chi", "ensembles over a grid of averaging rates"),
        ("sweep-flux", "ensembles over photon fluxes at per-point optimal chi"),
        ("compare", "four-technique comparison: filtered/smoothed x adaptive/dual"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_config_flags(p, runs=name != "analytic")
        if name.startswith("sweep"):
            p.add_argument("--values", help="comma-separated sweep values")
            p.add_argument("--relative", action="store_true",
                           help="values are multiples of 2*sqrt(kappa*N') (chi) or of flux")
    return parser


def dispatch(argv) -> int:
    """Parse argv and run the selected subcommand; returns the exit status."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "analytic":
            return _cmd_analytic(args)
        if args.command.startswith("sweep-"):
            return _cmd_sweep(args, args.command.removeprefix("sweep-"))
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "compare":
            return _cmd_compare(args)
        raise ParameterError(f"unknown subcommand: {args.command!r}")
    except (ParameterError, ConfigurationError) as exc:
        print(f"ouphase: error: {exc}", file=sys.stderr)
        return 1
    except StatisticsError as exc:
        print(f"ouphase: statistics error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"ouphase: i/o error: {exc}", file=sys.stderr)
        return 1
    except (MemoryError, BrokenProcessPool) as exc:
        print(f"ouphase: resource error: {exc}", file=sys.stderr)
        return 3


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
