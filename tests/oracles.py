"""Dense reference formulas that tests compare the library against, and
the independent constructions the acceptance criteria check it with."""
import math

import numpy as np

from cfslab.core import (
    CfsError,
    GridMismatch,
    Path,
    grids_equal,
    make_estimate,
)
from cfslab.jumps import SubordinatorKind


class NotPowerOfTwo(CfsError):
    pass


def gen_brownian_alt(grid, rng) -> Path:
    """Brownian motion by midpoint (Levy) refinement.

    Same law as `gaussian.gen_brownian` but an algorithmically distinct
    construction: the terminal value is drawn first and interior nodes are
    filled in by conditional bisection. n_steps must be a power of two.
    """
    n = grid.n_steps
    if n & (n - 1) != 0:
        raise NotPowerOfTwo(f"n_steps {n} is not a power of two")
    g = rng.generator()
    values = np.zeros(n + 1)
    values[n] = np.sqrt(grid.span) * g.standard_normal()
    step = n
    while step > 1:
        half = step // 2
        left = np.arange(0, n, step)
        mid = left + half
        right = left + step
        span = step * grid.dt
        noise = g.standard_normal(left.size) * np.sqrt(span / 4.0)
        values[mid] = 0.5 * (values[left] + values[right]) + noise
        step = half
    return Path(grid, values)


def ito_integral(k: Path, w: Path) -> Path:
    """Left-point sum I(t_j) = sum_{i<j} k(t_i) (w(t_{i+1}) - w(t_i))."""
    if not grids_equal(k.grid, w.grid):
        raise GridMismatch("paths must share a grid")
    inc = k.values[:-1] * np.diff(w.values)
    return Path(k.grid, np.concatenate(([0.0], np.cumsum(inc))))


def mc_tube_probability(sample_path, grid, f: Path, eps: float, reps: int, rng):
    """Plain Monte Carlo tube estimate for an arbitrary path sampler.

    `sample_path(grid, stream)` must return a Path; replication r uses
    stream rng.child(r).
    """
    hits = 0
    fv = f.values
    for r in range(reps):
        p = sample_path(grid, rng.child(r))
        dev = float(np.max(np.abs(p.values - p.values[0] - fv)))
        if dev < eps:
            hits += 1
    return make_estimate(hits, reps)


def fbm_covariance(hurst: float, times: np.ndarray) -> np.ndarray:
    """R(s, t) = (s^2h + t^2h - |t - s|^2h) / 2 on the given times."""
    t = np.asarray(times, dtype=float)
    h2 = 2.0 * hurst
    p = t ** h2
    return 0.5 * (p[:, None] + p[None, :] - np.abs(t[:, None] - t[None, :]) ** h2)


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
    if sub.kind is SubordinatorKind.COMPOUND_POISSON_EXP:
        return sub.jump_rate * sub.jump_mean
    return sub.shape / sub.rate
