"""Discrete stochastic integration on grids.

Pathwise Riemann-Stieltjes integration for finite-variation integrands,
and the quadratic-variation clock.
"""
from __future__ import annotations

import numpy as np

from .core import GridMismatch, Path, grids_equal


def rs_parts_form(k: Path, x: Path) -> Path:
    """J(t_j) = k_j x_j - k_0 x_0 - sum_{i<j} x_{i+1} (k_{i+1} - k_i)."""
    if not grids_equal(k.grid, x.grid):
        raise GridMismatch("paths must share a grid")
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
