"""Command-line front end.

Three subcommands: `models` lists the preset catalog, `smallball` runs one
conditional tube-probability estimate, `battery` runs the full sweep.
Configuration comes from an optional plain-text key=value file plus flags;
precedence is flag > file > default. Exit codes: 0 success, 2 configuration
error, 3 numerical error.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
import time

import numpy as np

from . import catalog
from .core import (
    CfsError,
    ConfigError,
    CovarianceNotPD,
    DegenerateClock,
    RngStream,
    make_grid,
    tail_grid,
)
from .models import FAMILIES, chunk_threads, simulate
from .smallball import SmallBallQuery, estimate_smallball
from .suite import (
    CSV_HEADER,
    BatteryRow,
    BatteryTemplate,
    ReportFormat,
    TargetStyle,
    render_report,
    row_fields,
    run_battery,
    single_target,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

_DEFAULTS: dict[str, object] = {
    "model": "brownian",
    "models": ",".join(catalog.DEFAULT_BATTERY),
    "seed": None,  # required; no default on purpose
    "reps": 100_000,
    "workers": 1,
    "out": ".",
    "format": "csv",
    "t_end": 1.0,
    "n_steps": 2048,
    "t_frac": 0.0,
    "t_fracs": "0.0,0.5",
    "style": "flat",
    "amplitude": 0.0,
    "epsilon": 1.0,
    "amp_scale": 0.4,
    "eps_scales": "0.75,1.0",
    "n_segments": 4,
    "pilot_reps": 1000,
}

_INT_KEYS = {"seed", "reps", "workers", "n_steps", "n_segments", "pilot_reps"}
_FLOAT_KEYS = {"t_end", "t_frac", "amplitude", "epsilon", "amp_scale"}

def _parse_config_file(path: str) -> dict[str, str]:
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in _DEFAULTS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = value
    return values


def _finite(value: float, key: str) -> float:
    if not math.isfinite(value):
        raise ConfigError(f"key {key!r}: must be finite, got {value!r}")
    return value


def _coerce(key: str, value: object):
    if isinstance(value, str):
        try:
            if key in _INT_KEYS:
                return int(value)
            if key in _FLOAT_KEYS:
                value = float(value)
        except ValueError:
            raise ConfigError(f"key {key!r}: cannot parse {value!r}") from None
    if key in _FLOAT_KEYS:
        return _finite(value, key)
    return value


def resolve_config(args: argparse.Namespace) -> dict[str, object]:
    """Merge defaults, config file, and flags (flag wins)."""
    config = dict(_DEFAULTS)
    if args.config is not None:
        from_file = _parse_config_file(args.config)
        if args.command == "smallball" and "format" in from_file:
            # as with the flag: smallball writes one CSV row, nothing else
            raise ConfigError("key 'format': not a smallball key")
        config.update(from_file)
    for key in ("seed", "reps", "workers", "out", "format",
                "model", "epsilon", "t_frac"):
        flag = getattr(args, key, None)
        if flag is not None:
            config[key] = flag
    config = {k: _coerce(k, v) for k, v in config.items()}
    if config["seed"] is None:
        raise ConfigError("missing required key 'seed' (flag --seed or config)")
    if not 0 <= int(config["seed"]) < 2 ** 64:
        raise ConfigError("key 'seed': must fit in u64")
    if config["format"] not in ("csv", "json", "plotdata"):
        raise ConfigError(f"key 'format': unknown format {config['format']!r}")
    if not os.path.isdir(str(config["out"])):
        raise ConfigError(f"key 'out': not a directory: {config['out']}")
    return config


def _out_path(config, model_part: str, command: str, ext: str) -> str:
    name = f"{model_part}_{command}_{config['seed']}.{ext}"
    return os.path.join(str(config["out"]), name)


def cmd_models(_config) -> int:
    for family in sorted(FAMILIES, key=lambda f: f.tag):
        print(f"{family.tag:22s} {family.summary}")
    print()
    print("presets: " + ", ".join(catalog.preset_names()))
    return EXIT_OK


def cmd_smallball(config) -> int:
    spec = catalog.get_preset(str(config["model"]))
    try:
        style = TargetStyle(str(config["style"]))
    except ValueError:
        raise ConfigError(f"key 'style': unknown style {config['style']!r}") from None
    grid = make_grid(0.0, float(config["t_end"]), int(config["n_steps"]))
    t_index = int(round(float(config["t_frac"]) * grid.n_steps))
    rng = RngStream(int(config["seed"]), 0)
    _, ctx = simulate(spec, grid, rng.child(0), t_index)
    target = single_target(tail_grid(grid, t_index), style,
                           float(config["amplitude"]),
                           int(config["n_segments"]))
    query = SmallBallQuery(t_index, target, float(config["epsilon"]))
    reps, workers = int(config["reps"]), int(config["workers"])
    t0 = time.perf_counter()
    est = estimate_smallball(spec, ctx, query, reps, rng.child(1), workers)
    wall = time.perf_counter() - t0
    threads = 0 if est.reason is not None else chunk_threads(workers, reps)
    row = BatteryRow(spec.name, float(config["t_frac"]), style.value,
                     float(config["amplitude"]), float(config["epsilon"]), est)
    path = _out_path(config, spec.name, "smallball", "csv")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        fh.write(",".join(row_fields(row, int(config["seed"]))) + "\n")
    print(f"{spec.name}: p_hat={est.p_hat:.6g} "
          f"ci=[{est.ci_low:.6g}, {est.ci_high:.6g}] "
          f"classification={est.classification.value}")
    print(f"{reps} replications in {wall:.1f} s on {threads} thread(s), "
          f"{workers} requested")
    print(f"wrote {path}")
    return EXIT_OK


def _parse_floats(text: str, key: str) -> tuple[float, ...]:
    try:
        vals = tuple(float(x) for x in str(text).split(",") if x.strip())
    except ValueError:
        raise ConfigError(f"key {key!r}: cannot parse {text!r}") from None
    if not vals:
        raise ConfigError(f"key {key!r}: empty list")
    return tuple(_finite(v, key) for v in vals)


def cmd_battery(config) -> int:
    names = [x.strip() for x in str(config["models"]).split(",") if x.strip()]
    if not names:
        raise ConfigError("key 'models': empty list")
    repeated = sorted({n for n in names if names.count(n) > 1})
    if repeated:
        raise ConfigError(f"key 'models': repeated {', '.join(repeated)}")
    models = [catalog.get_preset(n) for n in names]
    template = BatteryTemplate(
        t_end=float(config["t_end"]),
        n_steps=int(config["n_steps"]),
        t_fracs=_parse_floats(str(config["t_fracs"]), "t_fracs"),
        amp_scale=float(config["amp_scale"]),
        eps_scales=_parse_floats(str(config["eps_scales"]), "eps_scales"),
        n_segments=int(config["n_segments"]),
        pilot_reps=int(config["pilot_reps"]),
    )
    report = run_battery(models, template, int(config["reps"]),
                         int(config["seed"]), workers=int(config["workers"]))
    model_part = names[0] if len(names) == 1 else "multi"
    written = []
    for fmt, ext in ((ReportFormat.CSV, "csv"), (ReportFormat.JSON, "json")):
        path = _out_path(config, model_part, "battery", ext)
        with open(path, "wb") as fh:
            fh.write(render_report(report, fmt))
        written.append(path)
    if config["format"] == "plotdata":
        path = _out_path(config, model_part, "battery", "plotdata")
        with open(path, "wb") as fh:
            fh.write(render_report(report, ReportFormat.PLOTDATA))
        written.append(path)
    for name in names:
        print(f"{name}: {report.verdicts[name]}")
    print(f"{report.total_reps} replications in {report.wall_clock:.1f} s "
          f"on {report.workers_used} worker(s), {config['workers']} requested")
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfslab",
        description="Monte Carlo probes of conditional path support",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("models", help="list model tags and presets")
    for name, help_text in (
        ("smallball", "estimate one conditional tube probability"),
        ("battery", "run the full target/radius sweep"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--seed", type=int, help="master seed (u64)")
        p.add_argument("--reps", type=int, help="Monte Carlo replications")
        p.add_argument("--workers", type=int, help=(
            "threads for the replication chunks, at most the usable CPUs "
            "and the chunks" if name == "smallball"
            else "worker processes, at most the usable CPUs and the cells"))
        p.add_argument("--out", help="output directory")
        if name == "battery":
            p.add_argument("--format", choices=["csv", "json", "plotdata"],
                           help="extra report format")
        else:
            p.add_argument("--model", help="preset name (see `models`)")
            p.add_argument("--epsilon", type=float, help="tube radius")
            p.add_argument("--t-frac", dest="t_frac", type=float,
                           help="restart node as a fraction of the horizon")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "models":
        return cmd_models(None)
    try:
        config = resolve_config(args)
        if args.command == "smallball":
            return cmd_smallball(config)
        return cmd_battery(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (CovarianceNotPD, DegenerateClock, np.linalg.LinAlgError,
            FloatingPointError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except CfsError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
