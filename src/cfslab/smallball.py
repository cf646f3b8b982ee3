"""Monte Carlo estimation of conditional small-ball probabilities.

A query asks: restarting at a grid node, what fraction of conditional
continuations stays within a sup-norm tube of radius eps around a target
function? The module also provides the analytic reflection-series value
for Brownian tubes, a time-changed estimator for Wiener integrals, and a
detector for queries whose tube event is provably empty.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    BLOCK,
    BadParams,
    BadQuery,
    Classification,
    DegenerateClock,
    Estimate,
    GridMismatch,
    Path,
    RngStream,
    grids_equal,
    make_estimate,
    make_grid,
)
from .integrate import qv_clock
from .models import (  # the REASON_ constants are re-exported
    REASON_ENDPOINT_PIN,
    REASON_POSITIVITY,
    ConditioningContext,
    MixedFbm,
    ModelSpec,
    cell_noise_scale,
    check_context,
    chunk_threads,
    map_continuations,
)

_THIN_STREAM = 101  # child index for excursion-thinning uniforms
_TILE_ROWS = 32  # rows per deviation tile
_UFUNC_BUFSIZE = 256  # elements per ufunc buffer in the deviation pass
# the counter's screen reads every 16th node, counted back from the last
_SCREEN_STRIDE = 16


def thinning_uniforms(rng: RngStream, block: int, rows: int,
                      groups: int) -> np.ndarray:
    """The (rows, groups) excursion-thinning uniforms of stream block
    `block`, drawn row by row from rng.child(block).child(101)."""
    thin = rng.child(block).child(_THIN_STREAM)
    return thin.generator().random((rows, groups))


def _bridge_survival(d: np.ndarray, eps: float, s2: np.ndarray) -> np.ndarray:
    """P[no within-cell excursion beyond the tube | node values].

    `d` holds deviations at nodes for rows already inside the tube; within
    each cell the path is a Brownian bridge with variance s2, so the exit
    probability is the classical single-barrier reflection term for each
    tube edge. Zero-variance cells cannot exit.

    A cell whose two nodes lie within eps - reach of the centre, with
    reach = sqrt(19 max s2), has both terms below e^-38 < 2^-54, so its
    factor rounds to exactly 1.0; only the other cells are evaluated.
    """
    with np.errstate(divide="ignore"):
        inv = np.where(s2 > 0.0, 1.0 / np.where(s2 > 0.0, s2, 1.0), np.inf)
    near = np.abs(d) > eps - np.sqrt(19.0 * s2.max())
    near = near[:, :-1] | near[:, 1:]
    # flat indices: numpy's two-dimensional nonzero is far slower
    rows, cells = np.divmod(np.flatnonzero(near), near.shape[1])
    a, b, inv = d[rows, cells], d[rows, cells + 1], inv[cells]
    p_up = np.exp(-2.0 * (eps - a) * (eps - b) * inv)
    p_dn = np.exp(-2.0 * (eps + a) * (eps + b) * inv)
    # Every other factor is 1.0, so multiplying a row's evaluated factors
    # in cell order equals the sequential product over all its cells.
    surv = np.ones(d.shape[0])
    np.multiply.at(surv, rows, np.clip(1.0 - p_up - p_dn, 0.0, 1.0))
    return surv


@dataclass(frozen=True)
class SmallBallQuery:
    """Tube query: target on the tail grid with target(t_under) = 0."""

    t_index: int
    target: Path
    eps: float

    def __post_init__(self):
        if not self.eps > 0:
            raise BadQuery(f"epsilon must be positive, got {self.eps}")
        if self.target.values[0] != 0.0:
            raise BadQuery("target must vanish at the restart node")


def detect_analytic_zero(
    spec: ModelSpec, ctx: ConditioningContext, q: SmallBallQuery
) -> str | None:
    """Return a reason when the tube event is provably empty.

    For strictly positive processes reported in R, the tube is empty as
    soon as its upper edge dips below zero somewhere. For the pinned
    bridge, the tube is empty when the target misses the pinned terminal
    increment by at least eps.
    """
    return spec.analytic_zero(ctx, q.target.values, q.eps)


def estimate_many(
    spec: ModelSpec,
    ctx: ConditioningContext,
    queries: list[SmallBallQuery],
    reps: int,
    rng: RngStream,
    workers: int = 1,
) -> list[Estimate]:
    """Estimate several tube queries on shared conditional continuations.

    All queries are evaluated on the same replication paths (see
    `iter_continuations`), so estimates are coherent across queries:
    shrinking eps can only shrink the hit set, and shifting the target is
    identical to shifting the paths. Chunks of replications run on up to
    `workers` threads (see `map_continuations`); each returns its hit
    counts and the counts are summed, so estimates do not depend on the
    worker count.

    When the model's within-cell noise is conditionally Brownian with a
    known scale, node hits are thinned by the bridge exit probability, so
    the estimator targets the continuous-time sup rather than the grid
    maximum. Queries sharing a target share the thinning uniform, which
    preserves monotonicity of the hit set in eps. The uniforms of block b
    are rng.child(b).child(101).generator().random((rows, groups)).
    """
    chunk_threads(workers, reps)  # BadParams for reps or workers below 1
    if not queries:
        return []
    t_indices = {q.t_index for q in queries}
    if t_indices != {ctx.t_index}:
        raise BadQuery(
            f"queries restart at {sorted(t_indices)}, context at {ctx.t_index}")
    grid_tail = queries[0].target.grid
    if not all(grids_equal(q.target.grid, grid_tail) for q in queries):
        raise BadQuery("queries must share one tail grid")
    check_context(spec, ctx, grid_tail)
    reasons = [detect_analytic_zero(spec, ctx, q) for q in queries]
    live = [i for i, r in enumerate(reasons) if r is None]
    hits = np.zeros(len(queries), dtype=np.int64)
    if live:
        targets = np.stack([queries[i].target.values for i in live])
        eps = np.array([queries[i].eps for i in live])
        scales = cell_noise_scale(spec, ctx, grid_tail)
        s2 = None if scales is None else scales ** 2
        groups: dict[bytes, int] = {}
        group_of = [groups.setdefault(targets[row].tobytes(), len(groups))
                    for row in range(len(live))]
        first = [group_of.index(gi) for gi in range(len(groups))]
        widest = np.full(len(groups), -np.inf)
        np.maximum.at(widest, group_of, eps)
        nodes = slice(grid_tail.n_nodes - 1, None, -_SCREEN_STRIDE)
        screen_targets = targets[first][:, nodes]

        def count(start: int, block: np.ndarray) -> np.ndarray:
            """Hits of each live query among the chunk's rows."""
            # The block is fresh, so deviations are taken in place, tile by
            # tile; copying the start column keeps numpy off its slower
            # overlap path. One deviation pass per distinct target; queries
            # differing only in eps reuse it, which keeps hit sets nested
            # across radii. A tile stays in cache across targets.
            # A row's deviation at the screen's nodes is a lower bound of its
            # deviation, by the same operations; a row whose bound reaches
            # the group's widest radius hits no query of the group, so it
            # keeps the bound and skips the full pass (a NaN bound reaches
            # no radius, so its row takes the full pass).
            # A small ufunc buffer keeps numpy from copying a tile's operands
            # through its default 8192-element buffers; the values are the
            # same, and the setting is this thread's own.
            rel = block
            buf = np.empty((_TILE_ROWS, grid_tail.n_nodes))
            sbuf = np.empty((_TILE_ROWS, screen_targets.shape[1]))
            dev = np.empty((len(groups), rel.shape[0]))
            bufsize = np.setbufsize(_UFUNC_BUFSIZE)
            try:
                for lo in range(0, rel.shape[0], _TILE_ROWS):
                    tile = rel[lo : lo + _TILE_ROWS]
                    tile -= tile[:, :1].copy()
                    sub = tile[:, nodes]
                    bound = sbuf[: len(tile)]
                    for gi in range(len(groups)):
                        d = dev[gi, lo : lo + len(tile)]
                        np.subtract(sub, screen_targets[gi], out=bound)
                        np.abs(bound, out=bound)
                        bound.max(axis=1, out=d)
                        todo = np.flatnonzero(~(d >= widest[gi]))
                        if len(todo):
                            rows = (tile if len(todo) == len(tile)
                                    else tile[todo])
                            out = buf[: len(todo)]
                            np.subtract(rows, targets[first[gi]], out=out)
                            np.abs(out, out=out)
                            d[todo] = out.max(axis=1)
            finally:
                np.setbufsize(bufsize)
            chunk_hits = np.zeros(len(live), dtype=np.int64)
            if s2 is None:
                for row, gi in enumerate(group_of):
                    chunk_hits[row] = np.count_nonzero(dev[gi] < eps[row])
                return chunk_hits
            u = thinning_uniforms(rng, start // BLOCK, rel.shape[0], len(groups))
            for row, gi in enumerate(group_of):
                e = float(eps[row])
                inside = np.nonzero(dev[gi] < e)[0]
                # survival per tile of inside rows, so its temporaries
                # stay tile-sized
                for lo in range(0, len(inside), _TILE_ROWS):
                    idx = inside[lo : lo + _TILE_ROWS]
                    surv = _bridge_survival(rel[idx] - targets[row], e, s2)
                    chunk_hits[row] += np.count_nonzero(u[idx, gi] < surv)
            return chunk_hits

        hits[live] = sum(map_continuations(
            count, spec, ctx, grid_tail, rng, reps, workers))
    return [
        make_estimate(int(hits[i]), reps, analytic_zero_reason=reasons[i])
        for i in range(len(queries))
    ]


def estimate_smallball(
    spec: ModelSpec,
    ctx: ConditioningContext,
    q: SmallBallQuery,
    reps: int,
    rng: RngStream,
    workers: int = 1,
) -> Estimate:
    """Monte Carlo estimate of one conditional tube probability."""
    return estimate_many(spec, ctx, [q], reps, rng, workers=workers)[0]


def brownian_smallball_series(k_total: float, eps: float) -> float:
    """P[sup over [0, K] of |B| < eps] by the classical reflection series.

    (4/pi) * sum_{n>=0} (-1)^n / (2n+1) * exp(-(2n+1)^2 pi^2 K / (8 eps^2)),
    truncated when terms drop below 1e-15.
    """
    if not (k_total >= 0 and eps > 0):
        raise BadParams("need K >= 0 and eps > 0")
    if k_total == 0.0:
        return 1.0
    rate = np.pi ** 2 * k_total / (8.0 * eps ** 2)
    total = 0.0
    n = 0
    while True:
        term = (4.0 / np.pi) * (-1.0) ** n / (2 * n + 1) * np.exp(
            -((2 * n + 1) ** 2) * rate)
        total += term
        if abs(term) < 1e-15:
            break
        n += 1
        if n > 10_000:
            break
    return float(min(1.0, max(0.0, total)))


def timechanged_smallball(
    k: Path, f: Path, eps: float, reps: int, rng: RngStream,
) -> Estimate:
    """Tube probability of int k dW via the quadratic-variation clock.

    The integral is a Brownian motion run on the clock g(t) = int k^2 ds,
    so the tube around f equals the Brownian tube around f composed with
    the inverse clock, on [0, K]. The inverse clock is computed by
    monotone piecewise-linear inversion; plateau cells collapse. The
    estimate is a Brownian tube query on the clock grid, so node hits are
    thinned by the within-cell bridge exit probability, matching the
    corrected direct estimator.
    """
    if not grids_equal(k.grid, f.grid):
        raise GridMismatch("integrand and target must share a grid")
    g = qv_clock(k)
    if g[-1] <= 0:
        raise DegenerateClock("integrand has zero quadratic variation")
    grid_u = make_grid(0.0, float(g[-1]), k.grid.n_steps)
    target_u = np.interp(np.asarray(grid_u.nodes), g, f.values)
    ctx0 = ConditioningContext(MixedFbm(), grid_u, 0, np.zeros(1), {})
    query = SmallBallQuery(0, Path(grid_u, target_u), eps)
    return estimate_many(ctx0.spec, ctx0, [query], reps, rng)[0]

