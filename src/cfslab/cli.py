"""Command-line front end.

Three subcommands: `models` lists the preset catalog, `smallball` runs one
conditional tube-probability estimate, `battery` runs the full sweep.
Configuration comes from an optional plain-text key=value file plus flags;
precedence is flag > file > default. `KEYS` holds, for each command, every
key it reads with its default; the battery's template keys are the fields
of `suite.BatteryTemplate`, so their defaults are written only there. A
value is parsed by the type of its key's default, and a key the command
does not read is a configuration error, as is a value that the library
code reading it rejects. `smallball` writes a one-row CSV, and `battery`
writes its report in each `suite.ReportFormat`: CSV, JSON and PLOTDATA.
Exit codes: 0 success, 2 configuration error, 3 numerical error.
"""
from __future__ import annotations

import argparse
import dataclasses
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
    BatteryRow,
    BatteryTemplate,
    ReportFormat,
    TargetStyle,
    render_csv,
    render_report,
    restart_node,
    run_battery,
    single_target,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

_TEMPLATE = {f.name: f.default for f in dataclasses.fields(BatteryTemplate)}
_COMMON = {"seed": None, "reps": 100_000, "workers": 1, "out": "."}
# seed is required; every other key's default also gives its type
KEYS: dict[str, dict[str, object]] = {
    "smallball": {
        **_COMMON,
        "model": "brownian",
        **{k: _TEMPLATE[k] for k in ("t_end", "n_steps", "n_segments")},
        "t_frac": 0.0,
        "style": TargetStyle.FLAT,
        "amplitude": 0.0,
        "epsilon": 1.0,
    },
    "battery": {
        **_COMMON,
        "models": ",".join(catalog.DEFAULT_BATTERY),
        **_TEMPLATE,
    },
}


def _parse_config_file(path: str, command: str) -> dict[str, str]:
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    values: dict[str, str] = {}
    lines: dict[str, int] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in KEYS[command]:
                raise ConfigError(
                    f"{path}:{lineno}: unknown key {key!r} for {command}")
            if key in lines:
                raise ConfigError(f"{path}:{lineno}: key {key!r} already "
                                  f"set on line {lines[key]}")
            values[key], lines[key] = value, lineno
    return values


def _parse(key: str, text: str, default: object) -> object:
    """One file value or flag, parsed by the type of its key's default: an
    int, a finite float, a comma list of finite floats (for a tuple), an
    enum member or a string. `seed`, with no default, is an int."""
    kind = int if default is None else type(default)
    try:
        if kind is tuple:
            value = tuple(float(x) for x in text.split(",") if x.strip())
        else:
            value = kind(text)
    except ValueError:
        raise ConfigError(f"key {key!r}: cannot parse {text!r}") from None
    if kind in (float, tuple) and not np.all(np.isfinite(value)):
        raise ConfigError(f"key {key!r}: must be finite, got {text!r}")
    return value


def resolve_config(args: argparse.Namespace) -> dict[str, object]:
    """Merge the command's defaults, config file, and flags (flag wins)."""
    defaults = KEYS[args.command]
    given = ({} if args.config is None
             else _parse_config_file(args.config, args.command))
    for key in defaults:
        flag = getattr(args, key, None)
        if flag is not None:
            given[key] = flag
    config = dict(defaults)
    config.update((k, _parse(k, v, defaults[k])) for k, v in given.items())
    if config["seed"] is None:
        raise ConfigError("missing required key 'seed' (flag --seed or config)")
    if not 0 <= config["seed"] < 2 ** 64:
        raise ConfigError("key 'seed': must fit in u64")
    if not os.path.isdir(config["out"]):
        raise ConfigError(f"key 'out': not a directory: {config['out']}")
    return config


def _out_path(config, model_part: str, command: str, ext: str) -> str:
    name = f"{model_part}_{command}_{config['seed']}.{ext}"
    return os.path.join(config["out"], name)


def cmd_models(_config) -> int:
    for family in sorted(FAMILIES, key=lambda f: f.tag):
        print(f"{family.tag:22s} {family.summary}")
    print()
    print("presets: " + ", ".join(catalog.preset_names()))
    return EXIT_OK


def cmd_smallball(config) -> int:
    spec = catalog.get_preset(config["model"])
    grid = make_grid(0.0, config["t_end"], config["n_steps"])
    t_index = restart_node(config["t_frac"], grid.n_steps)
    target = single_target(tail_grid(grid, t_index), config["style"],
                           config["amplitude"], config["n_segments"])
    query = SmallBallQuery(t_index, target, config["epsilon"])
    reps, workers = config["reps"], config["workers"]
    threads = chunk_threads(workers, reps)  # checks both before the history
    rng = RngStream(config["seed"], 0)
    _, ctx = simulate(spec, grid, rng.child(0), t_index)
    t0 = time.perf_counter()
    est = estimate_smallball(spec, ctx, query, reps, rng.child(1), workers)
    wall = time.perf_counter() - t0
    threads = 0 if est.reason is not None else threads
    row = BatteryRow(spec.name, config["t_frac"], config["style"].value,
                     config["amplitude"], config["epsilon"], est)
    path = _out_path(config, spec.name, "smallball", "csv")
    with open(path, "wb") as fh:
        fh.write(render_csv([row], config["seed"]))
    print(f"{spec.name}: p_hat={est.p_hat:.6g} "
          f"ci=[{est.ci_low:.6g}, {est.ci_high:.6g}] "
          f"classification={est.classification.value}")
    print(f"{reps} replications in {wall:.1f} s on {threads} thread(s), "
          f"{workers} requested")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_battery(config) -> int:
    names = [x.strip() for x in config["models"].split(",") if x.strip()]
    models = [catalog.get_preset(n) for n in names]
    template = BatteryTemplate(**{k: config[k] for k in _TEMPLATE})
    report = run_battery(models, template, config["reps"], config["seed"],
                         workers=config["workers"])
    for name in names:
        print(f"{name}: {report.verdicts[name]}")
    print(f"{report.total_reps} replications in {report.wall_clock:.1f} s "
          f"on {report.workers_used} worker(s), {config['workers']} requested")
    model_part = names[0] if len(names) == 1 else "multi"
    for fmt in ReportFormat:
        path = _out_path(config, model_part, "battery", fmt.value)
        with open(path, "wb") as fh:
            fh.write(render_report(report, fmt))
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
        p.add_argument("--seed", help="master seed (u64)")
        p.add_argument("--reps", help="Monte Carlo replications")
        p.add_argument("--workers", help=(
            "threads for the replication chunks, at most the usable CPUs "
            "and the chunks" if name == "smallball"
            else "worker processes, at most the usable CPUs and the cells"))
        p.add_argument("--out", help="output directory")
        if name == "smallball":
            p.add_argument("--model", help="preset name (see `models`)")
            p.add_argument("--epsilon", help="tube radius")
            p.add_argument("--t-frac", dest="t_frac",
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
    except (CovarianceNotPD, DegenerateClock, FloatingPointError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except CfsError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
