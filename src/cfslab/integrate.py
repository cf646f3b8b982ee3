"""Discrete stochastic integration on grids.

Left-point Ito sums, pathwise Riemann-Stieltjes integration for
finite-variation integrands, the quadratic-variation clock, the stochastic
exponential, and a per-path diagnostic for the exponential-moment
conditions used by the progressive-integrand support theorem.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import GridMismatch, Path, TimeGrid, grids_equal


@dataclass(frozen=True)
class QvClock:
    """Nondecreasing reparameterization g(t) = int k^2 ds with total K = g(T)."""

    grid: TimeGrid
    g: np.ndarray

    @property
    def total(self) -> float:
        return float(self.g[-1])


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


def qv_clock(k: Path) -> QvClock:
    """Discrete quadratic-variation clock of int k dW."""
    cells = k.values[:-1] ** 2 * k.grid.dt
    g = np.concatenate(([0.0], np.cumsum(cells)))
    g.setflags(write=False)
    return QvClock(k.grid, g)


def doleans_exp(w: Path) -> Path:
    """Stochastic exponential exp(w(t) - w(t0) - (t - t0)/2); strictly positive."""
    t = np.asarray(w.grid.nodes)
    values = np.exp(w.values - w.values[0] - 0.5 * (t - t[0]))
    return Path(w.grid, values)


@dataclass(frozen=True)
class ProgcfsReport:
    """Per-path diagnostic of the progressive-integrand conditions.

    Reports int k^2 ds, int k^-2 ds, and int k^-2 h^2 ds along one path,
    and whether the quadratic variation respects the supplied uniform
    budget. This checks necessary per-path consequences only; it is a
    diagnostic, not a certificate for the exponential-moment conditions.
    """

    qv: float
    inv_qv: float
    inv_qv_drift: float
    qv_bounded: bool
    integrands_finite: bool


def check_progcfs_conditions(k: Path, h: Path, k_bar: float) -> ProgcfsReport:
    _require_shared_grid(k, h)
    dt = k.grid.dt
    kv = k.values
    qv = float(np.sum(kv[:-1] ** 2) * dt)
    finite = bool(np.all(kv != 0.0))
    if finite:
        inv = float(np.sum(kv[:-1] ** -2) * dt)
        inv_drift = float(np.sum(kv[:-1] ** -2 * h.values[:-1] ** 2) * dt)
    else:
        inv = float("inf")
        inv_drift = float("inf")
    return ProgcfsReport(
        qv=qv,
        inv_qv=inv,
        inv_qv_drift=inv_drift,
        qv_bounded=qv <= k_bar,
        integrands_finite=finite,
    )
