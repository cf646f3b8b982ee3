"""Target-family construction and the full support-probe battery.

The battery simulates one history per restart fraction for each model,
scales a family of piecewise-linear targets to the continuation spread,
and classifies every (target, radius) tube query as POSITIVE,
ZERO_CONSISTENT, or ANALYTIC_ZERO. The spread is exact where the
continuation is Gaussian given the history (`models.exact_spread`: every
preset but `heston`, `sde`, `doleans` and `bridge`) and a pilot estimate
elsewhere.
"""
from __future__ import annotations

import enum
import json
import multiprocessing
import time
from dataclasses import dataclass

import numpy as np

from . import core
from .core import (
    BadParams,
    Classification,
    EmptyBattery,
    Estimate,
    Path,
    RngStream,
    TimeGrid,
    make_grid,
    tail_grid,
)
from .models import ModelSpec, exact_spread, iter_continuations, simulate
from .smallball import SmallBallQuery, estimate_many


class TargetStyle(enum.Enum):
    FLAT = "flat"
    RAMP_UP = "ramp_up"
    RAMP_DOWN = "ramp_down"
    ZIGZAG = "zigzag"
    SPIKE = "spike"


@dataclass(frozen=True)
class TargetFamily:
    """Piecewise-linear targets on a tail grid, each vanishing at its start."""

    grid: TimeGrid
    members: tuple[tuple[TargetStyle, float, Path], ...]  # (style, amplitude, path)


def _knots(style: TargetStyle, amplitude: float, n_segments: int):
    """Knot fractions and values for one target style."""
    if style is TargetStyle.FLAT:
        return np.array([0.0, 1.0]), np.array([0.0, 0.0])
    if style is TargetStyle.RAMP_UP:
        return np.array([0.0, 1.0]), np.array([0.0, amplitude])
    if style is TargetStyle.RAMP_DOWN:
        return np.array([0.0, 1.0]), np.array([0.0, -amplitude])
    if style is TargetStyle.SPIKE:
        return np.array([0.0, 0.5, 1.0]), np.array([0.0, amplitude, 0.0])
    fracs = np.linspace(0.0, 1.0, n_segments + 1)
    vals = amplitude * np.array(
        [0.0] + [(-1.0) ** i for i in range(n_segments)])
    return fracs, vals


def build_targets(
    grid_tail: TimeGrid, amplitude: float, n_segments: int = 4
) -> TargetFamily:
    """Deterministic family: 5 styles x amplitudes {a, a/2} = 10 targets."""
    if amplitude <= 0:
        raise BadParams(f"amplitude: need > 0, got {amplitude}")
    members = tuple(
        (style, amp, single_target(grid_tail, style, amp, n_segments))
        for style in TargetStyle for amp in (amplitude, amplitude / 2.0))
    return TargetFamily(grid_tail, members)


def single_target(
    grid_tail: TimeGrid, style: TargetStyle, amplitude: float,
    n_segments: int = 4,
) -> Path:
    """One piecewise-linear target; amplitude 0 gives the zero function."""
    if amplitude < 0:
        raise BadParams(f"amplitude: need >= 0, got {amplitude}")
    if n_segments < 1:
        raise BadParams(f"n_segments: need >= 1, got {n_segments}")
    t = np.asarray(grid_tail.nodes)
    frac = (t - grid_tail.t_start) / grid_tail.span
    kf, kv = _knots(style, amplitude, n_segments)
    values = np.interp(frac, kf, kv)
    values[0] = 0.0
    return Path(grid_tail, values)


@dataclass(frozen=True)
class BatteryTemplate:
    """Query-generation rule for the battery.

    Amplitudes and tube radii are scaled to the spread, the larger
    conditional standard deviation of Z - z_t at the tail's middle node
    and its last, so default tube probabilities land in the Monte
    Carlo-resolvable range. It is exact where the continuation is
    Gaussian given the context (`models.exact_spread`; among the presets
    `brownian`, `wiener_affine`, `exp_drift`, both `mixed_fbm` and the
    FIXED `bns`, `comte_renault` and `regime`); elsewhere it is the
    sample spread of `pilot_reps` conditional continuations.
    For strictly positive models reported in R, the base amplitude is
    floored so that the full-amplitude downward ramp provably empties the
    tube, which the analytic-zero detector then reports.
    """

    t_end: float = 1.0
    n_steps: int = 2048
    t_fracs: tuple[float, ...] = (0.0, 0.5)
    amp_scale: float = 0.4
    eps_scales: tuple[float, ...] = (0.75, 1.0)
    n_segments: int = 4
    pilot_reps: int = 1000

    def __post_init__(self):
        # one continuation has no spread to scale the targets by
        if self.pilot_reps < 2:
            raise BadParams(f"pilot_reps must be >= 2, got {self.pilot_reps}")
        # no rows would make every verdict vacuously POSITIVE-ALL; a repeat
        # would label two cells alike, or write every row twice
        for name in ("t_fracs", "eps_scales"):
            values = getattr(self, name)
            if not values or len(set(values)) < len(values):
                raise BadParams(f"{name} must be non-empty and without "
                                f"repeats: {values}")
        # the rest would otherwise fail only inside a cell, after its
        # history and pilot have run, under a message that names no key
        for name in ("amp_scale", "eps_scales"):
            value = getattr(self, name)
            if not all(0 < v < np.inf for v in np.ravel(value)):
                raise BadParams(f"{name} must be positive and finite: {value}")
        if self.n_segments < 1:
            raise BadParams(f"n_segments must be >= 1, got {self.n_segments}")
        # the grid's own rule names n_steps and t_end; the restart check
        # below would blame t_fracs for a bad n_steps
        make_grid(0.0, self.t_end, self.n_steps)
        for t_frac in self.t_fracs:
            restart_node(t_frac, self.n_steps, "t_fracs")


def restart_node(t_frac: float, n_steps: int, key: str = "t_frac") -> int:
    """The grid node nearest the restart fraction `t_frac` of the horizon;
    BadParams, naming the key `t_frac` came from, unless it is one of the
    nodes 0..n_steps - 1 that a continuation can restart from."""
    node = int(round(t_frac * n_steps)) if np.isfinite(t_frac) else -1
    if not 0 <= node < n_steps:
        raise BadParams(f"{key}: {t_frac} does not restart at a node in "
                        f"[0, n_steps = {n_steps})")
    return node


@dataclass(frozen=True)
class BatteryRow:
    model: str
    t_frac: float
    style: str
    amplitude: float
    epsilon: float
    estimate: Estimate


@dataclass(frozen=True)
class BatteryReport:
    rows: tuple[BatteryRow, ...]
    verdicts: dict[str, str]
    seed: int
    reps: int
    template: BatteryTemplate
    wall_clock: float
    total_reps: int
    workers_used: int  # processes run: request capped at usable CPUs, cells


CSV_HEADER = ("model,t_frac,style,amplitude,epsilon,reps,hits,"
              "p_hat,ci_low,ci_high,classification,seed")


def row_record(row: BatteryRow, seed: int) -> dict[str, object]:
    """The report values of one row, keyed by the columns of CSV_HEADER."""
    e = row.estimate
    return dict(zip(CSV_HEADER.split(","), (
        row.model, row.t_frac, row.style, row.amplitude, row.epsilon,
        e.reps, e.hits, e.p_hat, e.ci_low, e.ci_high,
        e.classification.value, seed)))


def _text(value: object) -> str:
    """A report value as text; every float gets 17 significant digits."""
    return format(value, ".17g") if isinstance(value, float) else str(value)


def render_csv(rows, seed: int) -> bytes:
    """The CSV report of `rows`: CSV_HEADER, then one line per row."""
    lines = [CSV_HEADER] + [
        ",".join(map(_text, row_record(row, seed).values())) for row in rows]
    return ("\n".join(lines) + "\n").encode()


def _pilot_std(spec, ctx, grid_tail, rng, pilot_reps) -> float:
    """Continuation spread: the larger of the mid-node and final-node
    standard deviations (the final alone degenerates for a pinned path)."""
    mid = grid_tail.n_steps // 2
    vals = np.empty((pilot_reps, 2))
    for start, block in iter_continuations(spec, ctx, grid_tail, rng, pilot_reps):
        vals[start : start + block.shape[0], 0] = block[:, mid] - block[:, 0]
        vals[start : start + block.shape[0], 1] = block[:, -1] - block[:, 0]
    return float(np.max(np.std(vals, axis=0)))


def _run_cell(spec: ModelSpec, t_frac: float, template: BatteryTemplate,
              reps: int, cell_rng: RngStream) -> list[BatteryRow]:
    grid = make_grid(0.0, template.t_end, template.n_steps)
    t_index = restart_node(t_frac, template.n_steps)
    _, ctx = simulate(spec, grid, cell_rng.child(0), t_index)
    grid_tail = tail_grid(grid, t_index)
    exact = exact_spread(spec, ctx, grid_tail)
    spread = (float(np.max(exact)) if exact is not None else
              _pilot_std(spec, ctx, grid_tail, cell_rng.child(1),
                         template.pilot_reps))
    spread = max(spread, 1e-12)
    amplitude = template.amp_scale * spread
    eps_values = tuple(s * spread for s in template.eps_scales)
    if spec.positive_state:
        # Floor so the full-amplitude downward ramp provably empties the
        # tube even at the widest radius.
        amplitude = max(amplitude, 1.05 * (ctx.z_t + max(eps_values)))
    family = build_targets(grid_tail, amplitude, template.n_segments)
    queries, meta = [], []
    for style, amp, target in family.members:
        for eps in eps_values:
            queries.append(SmallBallQuery(t_index, target, eps))
            meta.append((style, amp, eps))
    estimates = estimate_many(spec, ctx, queries, reps, cell_rng.child(2))
    return [
        BatteryRow(spec.name, t_frac, style.value, amp, eps, est)
        for (style, amp, eps), est in zip(meta, estimates)
    ]


# The running battery's `_run_cell` arguments, one tuple per cell. Forked
# workers inherit them, so specs and contexts are never pickled.
_CELLS: list[tuple] = []


def _cell_rows(i: int) -> tuple[list[BatteryRow], float]:
    """Cell i's rows and the seconds it took."""
    t0 = time.perf_counter()
    rows = _run_cell(*_CELLS[i])
    return rows, time.perf_counter() - t0


def _dispatch(pool, n_procs: int, n_fracs: int) -> list[list[BatteryRow]]:
    """Every cell's rows, by cell index, run on `pool` with `n_procs`
    cells in flight; a free worker takes the pending cell that comes
    first by the rule of `run_battery`."""
    from concurrent.futures import FIRST_COMPLETED, wait

    tails = [t.n_steps - restart_node(f, t.n_steps) for _, f, t, *_ in _CELLS]
    rate: dict[int, float] = {}  # model -> seconds per tail step
    results, pending, running = [None] * len(_CELLS), list(range(len(_CELLS))), {}

    def rank(i: int) -> tuple:
        model = i // n_fracs
        return (model in rate, -rate.get(model, 1.0) * tails[i])

    while pending or running:
        while pending and len(running) < n_procs:
            i = min(pending, key=rank)  # the first of equals: report order
            pending.remove(i)
            running[pool.submit(_cell_rows, i)] = i
        done, _ = wait(running, return_when=FIRST_COMPLETED)
        for future in sorted(done, key=running.get):
            i = running.pop(future)
            results[i], seconds = future.result()
            rate.setdefault(i // n_fracs, seconds / tails[i])
    return results


def run_battery(
    models: list[ModelSpec],
    template: BatteryTemplate,
    reps: int,
    seed: int,
    workers: int = 1,
) -> BatteryReport:
    """Run every (model, restart, target, radius) cell of the battery.

    Output is deterministic given (models, template, reps, seed): every
    replication derives its stream from the cell and replication indices,
    so the worker count never changes a single byte of the report.

    With one process, the cells run in report order. With more, each
    free worker takes the costliest pending cell: first the cells of a
    model with no finished cell, the longest tail (n_steps minus the
    restart node) first, then every other cell by its expected cost, the
    seconds per tail step of its model's first finished cell times its
    own tail; equals go in report order. The rows return by cell, in
    report order.
    """
    global _CELLS
    if not models:
        raise EmptyBattery("no models given")
    names = [spec.name for spec in models]
    repeated = sorted({n for n in names if names.count(n) > 1})
    if repeated:
        # their rows and verdicts would merge under one name
        raise BadParams(f"models: repeated {', '.join(repeated)}")
    if reps < 1000:
        raise BadParams("battery reps must be >= 1000")
    if workers < 1:
        raise BadParams(f"workers must be >= 1, got {workers}")
    t0 = time.perf_counter()
    root, n_fracs = RngStream(seed, 0), len(template.t_fracs)
    _CELLS = [(spec, frac, template, reps, root.child(mi * n_fracs + fi))
              for mi, spec in enumerate(models)
              for fi, frac in enumerate(template.t_fracs)]
    n_cells = len(_CELLS)
    # Cells are CPU bound, so processes beyond the CPUs or the cells only
    # add contention; without fork, the cells run in this process.
    n_procs = (min(workers, core.usable_cpus(), n_cells)
               if "fork" in multiprocessing.get_all_start_methods() else 1)
    try:
        if n_procs > 1:
            from concurrent.futures import ProcessPoolExecutor
            # leaving the block joins every worker, on error too
            fork = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(n_procs, mp_context=fork) as pool:
                results = _dispatch(pool, n_procs, n_fracs)
        else:
            results = [_cell_rows(i)[0] for i in range(n_cells)]
    finally:
        _CELLS = []
    rows = tuple(row for cell_rows in results for row in cell_rows)
    verdicts: dict[str, str] = {}
    for spec in models:
        own = [r.estimate for r in rows if r.model == spec.name]
        if any(e.classification is Classification.ANALYTIC_ZERO for e in own):
            verdicts[spec.name] = "NOT-FULL-SUPPORT"
        elif all(e.classification is Classification.POSITIVE for e in own):
            verdicts[spec.name] = "POSITIVE-ALL"
        else:
            verdicts[spec.name] = "INCONCLUSIVE"
    return BatteryReport(
        rows=rows,
        verdicts=verdicts,
        seed=seed,
        reps=reps,
        template=template,
        wall_clock=time.perf_counter() - t0,
        total_reps=reps * n_cells,
        workers_used=n_procs,
    )


class ReportFormat(enum.Enum):
    CSV = "csv"
    JSON = "json"
    PLOTDATA = "plotdata"


def render_report(report: BatteryReport, fmt: ReportFormat) -> bytes:
    """Serialize a battery report; UTF-8, LF line endings, 17 significant
    digits for every numeric field."""
    if fmt is ReportFormat.CSV:
        return render_csv(report.rows, report.seed)
    if fmt is ReportFormat.JSON:
        payload = {
            "seed": report.seed,
            "reps": report.reps,
            "t_end": report.template.t_end,
            "n_steps": report.template.n_steps,
            "verdicts": report.verdicts,
            "rows": [row_record(r, report.seed) for r in report.rows],
        }
        return (json.dumps(payload, indent=2) + "\n").encode()
    # a block per model: its heading names the model, and the seed is fixed
    blocks = []
    for model in dict.fromkeys(r.model for r in report.rows):
        lines = [f"# {model}"] + [
            " ".join(_text(v) for k, v in row_record(r, report.seed).items()
                     if k not in ("model", "seed"))
            for r in report.rows if r.model == model]
        blocks.append("\n".join(lines))
    return ("\n\n".join(blocks) + "\n").encode()
