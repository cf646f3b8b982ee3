"""Discrete stochastic integration on grids.

Left-point Ito sums, pathwise Riemann-Stieltjes integration for
finite-variation integrands, and the quadratic-variation clock.
"""
from __future__ import annotations

import numpy as np

from .core import GridMismatch, Path, grids_equal


def _require_shared_grid(a: Path, b: Path) -> None:
    if not grids_equal(a.grid, b.grid):
        raise GridMismatch("paths must share a grid")


def ito_integral(k: Path, w: Path) -> Path:
    """Left-point sum I(t_j) = sum_{i<j} k(t_i) (w(t_{i+1}) - w(t_i))."""
    _require_shared_grid(k, w)
    inc = k.values[:-1] * np.diff(w.values)
    return Path(k.grid, np.concatenate(([0.0], np.cumsum(inc))))


def rs_parts_form(k: Path, x: Path) -> Path:
    """J(t_j) = k_j x_j - k_0 x_0 - sum_{i<j} x_{i+1} (k_{i+1} - k_i)."""
    _require_shared_grid(k, x)
    tail = np.cumsum(x.values[1:] * np.diff(k.values))
    values = k.values * x.values - k.values[0] * x.values[0]
    values[1:] -= tail
    values[0] = 0.0
    return Path(k.grid, values)


def qv_clock(k: Path) -> np.ndarray:
    """Discrete quadratic-variation clock g(t_j) = sum_{i<j} k(t_i)^2 dt of
    int k dW at every node of k's grid, read-only; g[-1] is the total K."""
    cells = k.values[:-1] ** 2 * k.grid.dt
    g = np.concatenate(([0.0], np.cumsum(cells)))
    g.setflags(write=False)
    return g
