"""Command-line front end: analytic tables, ensembles, sweeps, comparisons.

Results go to stdout as a human table and, with --out, to CSV or a JSON run
manifest. Output files contain no wall-clock data, so a fixed seed yields
byte-identical files across runs and worker counts. Exit codes: 0 success,
1 parameter/configuration error, 2 statistics error, 3 resource error (out
of memory, a broken worker pool), 130 interrupted (Ctrl-C).
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, fields, replace
from operator import attrgetter
from typing import Callable, NamedTuple

from . import __version__, analytics
from .errors import ParameterError, StatisticsError
from .estimators import EstimatorParams
from .experiment import Condition, ExperimentConfig, compare, run_ensemble, sweep
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
    field: str  # where an ExperimentConfig keeps the value, e.g. "grid.dt"
    default: object
    parse: Callable[[str], object]  # raw string -> value; ValueError if invalid
    help: str | None = None


# The config-file keys, each mapped to its ExperimentConfig field. Each is also
# a --flag (``_`` -> ``-``) parsed by the same rule. The defaults are the
# headline adaptive operating point, the filtered/smoothed comparison of a bare
# `ouphase simulate`; an unset beta stays None, for ExperimentConfig to resolve.
_KEYS = {
    "kappa": _Key("params.kappa", 1.5868e4, _real),
    "lambda": _Key("params.lam", 6.1451e4, _real),
    "flux": _Key("params.flux", 1.3499e6, _real),
    "chi": _Key("estimator.chi_minus", 2.92714e5, _real),  # and estimator.chi_plus
    "beta": _Key("beta", None, _real_or_auto, "feedback gain in 1/s, or 'auto'"),
    "omega0": _Key("omega0", 1e2, _real),
    "dt": _Key("grid.dt", 2e-8, _real),
    "duration": _Key("grid.duration", 1e-2, _real),
    "warmup": _Key("grid.warmup", 0.0, _real),
    "trials": _Key("trials", 200, int),
    "seed": _Key("master_seed", 424242, int),
    "scheme": _Key("scheme", "adaptive", _choice(*analytics.SCHEMES)),
    "source": _Key("estimator.source", "theta", _choice("theta", "phihat")),
    "w_minus": _Key("estimator.w_minus", 0.5, _real),
    "w_plus": _Key("estimator.w_plus", 0.5, _real),
    "edge_discard": _Key("estimator.edge_discard", "auto", _real_or_auto,
                         "seconds discarded from both ends, or 'auto'"),
}
_PARTS = {"params": ProcessParams, "grid": SimGrid, "estimator": EstimatorParams}

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
    values, set_on = {}, {}
    with open(path, "r", encoding="utf-8-sig") as fh:  # a byte-order mark is allowed
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise ParameterError(f"{path}: not UTF-8 text: {exc.reason}") from None
        for lineno, line in enumerate(lines, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParameterError(f"{path}:{lineno}: expected 'key = value'")
            key, raw = (part.strip() for part in line.split("=", 1))
            if key not in DEFAULTS:
                raise ParameterError(f"{path}:{lineno}: unknown config key: {key}")
            if set_on.setdefault(key, lineno) != lineno:
                raise ParameterError(f"{path}:{lineno}: {key} is already set on line {set_on[key]}")
            try:
                values[key] = _parse_value(key, raw)
            except ParameterError as exc:
                raise ParameterError(f"{path}:{lineno}: {exc}") from None
    return values


def load_config(path: str | None = None, cli_overrides: dict | None = None) -> ExperimentConfig:
    """Config from the defaults, a flat key=value file if ``path`` is given, and
    command-line overrides, each layer over the one before; an override of
    None leaves its key unset, and one of an unknown key is a ParameterError."""
    values = {**DEFAULTS, **(_read_config_file(path) if path else {})}
    for key, value in (cli_overrides or {}).items():
        if key not in _KEYS:
            raise ParameterError(f"unknown config key: {key}")
        if value is not None:
            values[key] = value
    if values["edge_discard"] == "auto":
        values["edge_discard"] = None
    kwargs = {part: {} for part in _PARTS}
    for key, spec in _KEYS.items():
        part, _, name = spec.field.rpartition(".")
        (kwargs[part] if part else kwargs)[name] = values[key]
    kwargs["estimator"]["chi_plus"] = values["chi"]
    for part, cls in _PARTS.items():  # built in this order, so the first bad value is named
        kwargs[part] = cls(**kwargs[part])
    return ExperimentConfig(**kwargs)


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
    """Every config key in table order, chi_plus after chi, and dual_mode last."""
    echo = {}
    for key, spec in _KEYS.items():
        echo[key] = attrgetter(spec.field)(config)
        if key == "chi":
            echo["chi_plus"] = config.estimator.chi_plus
    echo["beta"] = None if config.loop is None else config.loop.beta
    echo["edge_discard"] = config.edge_discard
    echo["dual_mode"] = config.dual_mode
    return echo


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
        text = _json_text(manifest)
    else:
        raise ParameterError(f"unknown output format: {fmt!r}")
    _write(destination, text)


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _check_destination(destination: str):
    """Fails as ``_write`` would if ``destination`` is empty, a directory or in a
    missing directory, so that a typo in --out costs no run; creates no file."""
    if os.path.isdir(destination):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), destination)
    if not destination or not os.path.isdir(os.path.dirname(destination) or "."):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), destination)


def _write(destination: str, text: str):
    """The writer of every --out file: UTF-8 text with LF line ends."""
    with open(destination, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# subcommands


def _print_conditions(reports):
    header = f"{'scheme':<14}{'mode':<10}{'chi':>12}{'flux':>12}{'trials':>8}" \
             f"{'mc_mse':>13}{'mc_stderr':>13}{'analytic':>13}{'z':>8}"
    print(header)
    for c in _ordered_conditions(reports):
        print(
            f"{c.scheme:<14}{c.mode:<10}{c.chi:>12.6g}{c.flux:>12.6g}{c.trials:>8d}"
            f"{c.mc_mse:>13.6g}{c.mc_stderr:>13.3g}{c.analytic_mse:>13.6g}{c.z_score:>+8.2f}"
        )


def _analytic_values(config: ExperimentConfig) -> dict:
    """The theory table of ``config``; its MSEs are those ``simulate`` reports.

    Each row is computed when its turn comes, so that ParameterError can name
    the first one that overflows or is not finite at these parameters.
    """
    params, scheme, chi = config.params, config.scheme, config.estimator.chi_minus
    chi_lim = analytics.limit_chi(params, scheme)
    rows = {
        "filtered_mse": lambda: analytics.analytic_mse(config, "filtered"),
        "backward_mse": lambda: analytics.analytic_mse(config, "backward"),
        "smoothed_mse": lambda: analytics.analytic_mse(config, "smoothed"),
        "fb_correlation": lambda: analytics.forward_backward_correlation(params, chi, chi),
        "sql_mse": lambda: analytics.sql_mse(params),
        "xi": lambda: analytics.xi(params),
        "optimal_beta": lambda: analytics.optimal_beta(chi, params.flux),
        "chi_star_filtered": lambda: analytics.optimal_rate(params, "filtered", scheme),
        "mse_star_filtered": lambda: analytics.optimal_chi(params, "filtered", scheme).mse_star,
        "chi_star_smoothed": lambda: analytics.optimal_rate(params, "smoothed", scheme),
        "mse_star_smoothed": lambda: analytics.optimal_chi(params, "smoothed", scheme).mse_star,
        "smoothing_gain": lambda: analytics.filtered_mse(params, chi_lim, scheme)
        / analytics.smoothed_mse(params, chi_lim, scheme),
        # adaptive against dual: scheme-free
        "adaptive_gain": lambda: analytics.improvement_ratios(params).adaptive_gain,
        "total_gain_limit": lambda: analytics.improvement_ratios(params).total_gain_limit,
        "total_gain_exact": lambda: analytics.improvement_ratios(params).total_gain_exact,
    }
    if scheme != "adaptive":
        del rows["optimal_beta"]  # the dual scheme runs no loop
    table = {"scheme": scheme, "chi": chi}
    for name, row in rows.items():
        try:
            table[name] = row()
        except ParameterError:  # the theory refuses a result that is not finite
            table[name] = math.inf
        if not math.isfinite(table[name]):
            raise ParameterError(f"analytic row {name} is not finite at these parameters")
    return table


def _cmd_analytic(args) -> int:
    table = _analytic_values(_config_from_args(args))
    for name, value in table.items():
        if isinstance(value, str):
            print(f"{name:<20} {value}")
        else:
            print(f"{name:<20} {value:.9g}")
    if args.out is not None:
        _write(args.out, _json_text(table))
    return 0


def _emit(args, reports, config=None, extra=None) -> int:
    """The tail of every command that simulates: the table, and --out if given."""
    _print_conditions(reports)
    if args.out is not None:
        emit_results(reports, args.format, args.out, build_manifest(reports, config, extra))
    return 0


def _cmd_simulate(args) -> int:
    config = replace(_config_from_args(args), dual_mode=args.dual_mode)
    return _emit(args, [run_ensemble(config, workers=args.workers)])


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


def _cmd_sweep(args) -> int:
    axis = args.command.removeprefix("sweep-")
    config = replace(_config_from_args(args), dual_mode=args.dual_mode)
    values = _sweep_values(args, config, axis)
    reports = sweep(config, axis, values, workers=args.workers)
    extra = {"sweep_axis": axis, "sweep_values": [float(v) for v in values]}
    return _emit(args, reports, config, extra)


def _cmd_compare(args) -> int:
    reports, gains = compare(_config_from_args(args), args.dual_mode, workers=args.workers)
    adaptive, dual = (report.config for report in reports)
    extra = {"dual_mode": dual.dual_mode, "compare_chi_adaptive": adaptive.estimator.chi_minus,
             "compare_chi_dual": dual.estimator.chi_minus}
    _emit(args, reports, adaptive, extra)
    print()
    print(f"{'smoothing_gain':<20} {gains.smoothing_gain:.6g} +- {gains.smoothing_gain_stderr:.3g}")
    print(f"{'adaptive_gain':<20} {gains.adaptive_gain:.6g} +- {gains.adaptive_gain_stderr:.3g}")
    print(f"{'total_gain':<20} {gains.total_gain:.6g} +- {gains.total_gain_stderr:.3g}")
    print(f"{'sql_mse':<20} {analytics.sql_mse(adaptive.params):.9g}")
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


def _config_from_args(args) -> ExperimentConfig:
    """The run's ExperimentConfig: command line over config file over defaults."""
    return load_config(args.config, {key: _parse_value(key, getattr(args, key))
                                     for key in _KEYS if getattr(args, key) is not None})


def build_parser() -> _Parser:
    parser = _Parser(prog="ouphase", description=__doc__)
    parser.add_argument("--version", action="version", version=f"ouphase {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, handler, help_text in (
        ("analytic", _cmd_analytic, "print theory values without simulating"),
        ("simulate", _cmd_simulate, "run one Monte Carlo ensemble"),
        ("sweep-chi", _cmd_sweep, "ensembles over a grid of averaging rates"),
        ("sweep-flux", _cmd_sweep, "ensembles over photon fluxes at per-point optimal chi"),
        ("compare", _cmd_compare, "four-technique comparison: filtered/smoothed x adaptive/dual"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        _add_config_flags(p, runs=handler is not _cmd_analytic)
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
        if args.out is not None:
            _check_destination(args.out)
        return args.handler(args)
    except ParameterError as exc:
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
    except KeyboardInterrupt:
        print("ouphase: interrupted", file=sys.stderr)
        return 130


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
