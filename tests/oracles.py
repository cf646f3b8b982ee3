"""Dense reference formulas that tests compare the library against, and
the independent constructions the acceptance criteria check it with."""
import math

import numpy as np

from cfslab.core import (
    CfsError,
    GridMismatch,
    Path,
    blocks,
    grids_equal,
    make_estimate,
)
from cfslab.smallball import _bridge_survival


class NotPowerOfTwo(CfsError):
    pass


def brownian_rows(grid, gen, rows: int) -> np.ndarray:
    """`rows` standard Brownian paths started at 0 at the first grid node,
    one per row, each the cumulative sum of its increments, drawn from the
    numpy Generator `gen`."""
    values = np.zeros((rows, grid.n_nodes))
    inc = gen.normal(0.0, np.sqrt(grid.dt), (rows, grid.n_steps))
    np.cumsum(inc, axis=1, out=values[:, 1:])
    return values


def brownian_alt_rows(grid, gen, rows: int) -> np.ndarray:
    """Brownian paths as `brownian_rows`, by midpoint (Levy) refinement.

    Same law but an algorithmically distinct construction: the terminal
    values are drawn first and interior nodes are filled in by conditional
    bisection, one level at a time over all rows. n_steps must be a power
    of two.
    """
    n = grid.n_steps
    if n & (n - 1) != 0:
        raise NotPowerOfTwo(f"n_steps {n} is not a power of two")
    values = np.zeros((rows, n + 1))
    values[:, n] = np.sqrt(grid.span) * gen.standard_normal(rows)
    step = n
    while step > 1:
        half = step // 2
        left, right = values[:, 0:n:step], values[:, step::step]
        span = step * grid.dt
        noise = gen.standard_normal((rows, n // step)) * np.sqrt(span / 4.0)
        values[:, half::step] = 0.5 * (left + right) + noise
        step = half
    return values


def gen_brownian(grid, rng) -> Path:
    """Standard Brownian motion started at 0 at the first grid node."""
    return Path(grid, brownian_rows(grid, rng.generator(), 1)[0])


def gen_brownian_alt(grid, rng) -> Path:
    """One path of `brownian_alt_rows`, drawn from rng.generator()."""
    return Path(grid, brownian_alt_rows(grid, rng.generator(), 1)[0])


def ito_integral(k: Path, w: Path) -> Path:
    """Left-point sum I(t_j) = sum_{i<j} k(t_i) (w(t_{i+1}) - w(t_i))."""
    if not grids_equal(k.grid, w.grid):
        raise GridMismatch("paths must share a grid")
    inc = k.values[:-1] * np.diff(w.values)
    return Path(k.grid, np.concatenate(([0.0], np.cumsum(inc))))


def mc_tube_probability(sample_rows, grid, f: Path, eps: float, reps: int,
                        rng):
    """Plain Monte Carlo tube estimate for an arbitrary path sampler.

    `sample_rows(grid, gen, rows)` must return `rows` paths, one per row;
    the replications of stream block b (`core.blocks`) are drawn from
    rng.child(b).generator().
    """
    hits = 0
    for _, block in blocks(rng, reps):
        p = sample_rows(grid, block.stream.generator(), len(block))
        dev = np.max(np.abs(p - p[:, :1] - f.values), axis=1)
        hits += int(np.count_nonzero(dev < eps))
    return make_estimate(hits, reps)


def tube_hits(paths, queries, s2=None, uniforms=None) -> list[int]:
    """The tube counter without its screen: hits of each `(target, eps)`
    query among the rows of one block of `paths`, from every row's full
    deviation max |(z - z_0) - target|. With cell variances `s2`, rows
    inside the tube are thinned: a hit needs `uniforms[row, g]` below the
    row's bridge survival, g being the target's index among the distinct
    targets in order of first appearance."""
    rel = paths - paths[:, :1]
    groups: dict[bytes, int] = {}
    hits = []
    for target, eps in queries:
        g = groups.setdefault(np.asarray(target).tobytes(), len(groups))
        inside = np.max(np.abs(rel - target), axis=1) < eps
        if s2 is None:
            hits.append(int(np.count_nonzero(inside)))
            continue
        surv = _bridge_survival(rel[inside] - target, eps, s2)
        hits.append(int(np.count_nonzero(uniforms[inside, g] < surv)))
    return hits


def fbm_covariance(hurst: float, times: np.ndarray) -> np.ndarray:
    """R(s, t) = (s^2h + t^2h - |t - s|^2h) / 2 on the given times."""
    t = np.asarray(times, dtype=float)
    h2 = 2.0 * hurst
    p = t ** h2
    return 0.5 * (p[:, None] + p[None, :] - np.abs(t[:, None] - t[None, :]) ** h2)


def fgn_covariance(hurst: float, times: np.ndarray) -> np.ndarray:
    """Covariance D R D^T of the fBm's rises up to the given increasing
    times, from 0 to the first and between neighbours: R is
    `fbm_covariance` and D the difference matrix (B(0) = 0), applied as
    differences along each axis."""
    r = fbm_covariance(hurst, times)
    return np.diff(np.diff(r, axis=0, prepend=0.0), axis=1, prepend=0.0)


def vol_log_price(z0: float, g: np.ndarray, dw: np.ndarray, dt: float,
                  mu: float = 0.0, rho: float = 0.0,
                  db: np.ndarray | None = None) -> np.ndarray:
    """Log price by a plain per-row, per-cell loop, one row per row of the
    Brownian increments `dw` (and of `g`, the left-point volatility per
    cell, when it has rows):
    z_{i+1} = z_i + (mu - g_i^2/2) dt + sqrt(1 - rho^2) g_i dw_i + rho g_i db_i.
    """
    dw = np.atleast_2d(dw)
    g = np.broadcast_to(g, dw.shape)
    db = np.zeros(dw.shape[1]) if db is None else db
    root = np.sqrt(1.0 - rho ** 2)
    z = np.empty((dw.shape[0], dw.shape[1] + 1))
    for r in range(dw.shape[0]):
        z[r, 0] = z0
        for i in range(dw.shape[1]):
            z[r, i + 1] = (z[r, i] + (mu - 0.5 * g[r, i] ** 2) * dt
                           + root * g[r, i] * dw[r, i] + rho * g[r, i] * db[i])
    return z


def sde_log_price(z0: float, t: np.ndarray, mu_fn, sigma_fn, dw: np.ndarray,
                  dt: float) -> np.ndarray:
    """Log price of dP = mu(t, P) dt + sigma(t, P) dW by a plain per-row,
    per-cell scalar Euler loop, one row per row of the Brownian increments
    `dw`, with the coefficients at each cell's left point t_i:
    z_{i+1} = z_i + (mu / p - sigma^2 / (2 p^2)) dt + (sigma / p) dw_i,
    p = exp(z_i).
    """
    dw = np.atleast_2d(dw)
    z = np.empty((dw.shape[0], dw.shape[1] + 1))
    for r in range(dw.shape[0]):
        z[r, 0] = z0
        for i in range(dw.shape[1]):
            p = math.exp(z[r, i])
            mu = float(mu_fn(t[i], p))
            sg = float(sigma_fn(t[i], p))
            z[r, i + 1] = (z[r, i] + (mu / p - sg * sg / (2.0 * p * p)) * dt
                           + (sg / p) * dw[r, i])
    return z


def cir_variance(v0: float, kappa: float, theta: float, xi: float, dt: float,
                 db: np.ndarray) -> np.ndarray:
    """Full-truncation Euler CIR variance by a plain scalar loop over the
    Brownian increments `db`:
    v_{i+1} = v_i + kappa (theta - v_i^+) dt + xi sqrt(v_i^+) db_i.
    """
    v = np.empty(len(db) + 1)
    v[0] = v0
    for i, d in enumerate(db):
        vp = max(v[i], 0.0)
        v[i + 1] = v[i] + kappa * (theta - vp) * dt + xi * math.sqrt(vp) * d
    return v


def report_passed(report) -> bool:
    """A `ValidationReport` passes when none of its checks FAILs."""
    return all(c.status != "FAIL" for c in report.checks)


def unit_mean(sub) -> float:
    """E L(1) of the subordinator `sub`."""
    return sub.jump_rate * sub.jump_mean
