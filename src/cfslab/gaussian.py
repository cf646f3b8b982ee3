"""Exact-in-law Gaussian path generators.

Brownian motion (increment summation and midpoint refinement), fractional
Brownian motion via dense Cholesky of the grid covariance, fractional
Ornstein-Uhlenbeck by pathwise integration by parts, and Brownian
bridges.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.blas import dtrmm

from .core import (
    BadParams,
    CovarianceNotPD,
    HurstOutOfRange,
    NotPowerOfTwo,
    Path,
    RngStream,
    TimeGrid,
)


@dataclass(frozen=True)
class FbmSpec:
    """Fractional Brownian motion with Hurst index in (0, 1)."""

    hurst: float

    def __post_init__(self):
        if not 0.0 < self.hurst < 1.0:
            raise HurstOutOfRange(f"hurst {self.hurst} not in (0, 1)")


@dataclass(frozen=True)
class FouSpec:
    """Fractional Ornstein-Uhlenbeck: dV = -alpha*V dt + sigma dB^h, V(0)=v0."""

    hurst: float
    alpha: float
    sigma: float
    v0: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.hurst < 1.0:
            raise HurstOutOfRange(f"hurst {self.hurst} not in (0, 1)")
        if self.alpha <= 0 or self.sigma < 0:
            raise BadParams("need alpha > 0 and sigma >= 0")


def gen_brownian(grid: TimeGrid, rng: RngStream) -> Path:
    """Standard Brownian motion started at 0 at the first grid node."""
    g = rng.generator()
    inc = g.normal(0.0, np.sqrt(grid.dt), grid.n_steps)
    values = np.concatenate(([0.0], np.cumsum(inc)))
    return Path(grid, values)


def gen_brownian_alt(grid: TimeGrid, rng: RngStream) -> Path:
    """Brownian motion by midpoint (Levy) refinement.

    Same law as gen_brownian but an algorithmically distinct construction:
    the terminal value is drawn first and interior nodes are filled in by
    conditional bisection. n_steps must be a power of two.
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


def fbm_covariance(hurst: float, times: np.ndarray) -> np.ndarray:
    """R(s, t) = (s^2h + t^2h - |t - s|^2h) / 2 on the given times."""
    t = np.asarray(times, dtype=float)
    h2 = 2.0 * hurst
    p = t ** h2
    return 0.5 * (p[:, None] + p[None, :] - np.abs(t[:, None] - t[None, :]) ** h2)


@lru_cache(maxsize=32)
def _fbm_cholesky(hurst: float, grid: TimeGrid) -> np.ndarray:
    cov = fbm_covariance(hurst, np.asarray(grid.nodes[1:]))
    try:
        factor = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise CovarianceNotPD(
            f"covariance factorization failed for hurst={hurst}, "
            f"n_steps={grid.n_steps}"
        ) from exc
    factor.setflags(write=False)
    return factor


@lru_cache(maxsize=32)
def fbm_conditional_factors(
    hurst: float, grid: TimeGrid, t_index: int
) -> tuple[np.ndarray, np.ndarray]:
    """Operators for sampling fBm nodes after t_index given the nodes up to it.

    Returns (A, L) such that, with p the realized values at nodes 1..t_index,
    the future nodes are A @ p + L @ xi with xi standard normal. Both are
    read off the blocks of the cached Cholesky factor [[L11, 0], [L21, L22]]
    of the whole history: A = L21 L11^-1 = R_fp R_pp^-1, and L is the lower
    triangular view L22, whose L22 L22^T is the Schur complement
    R_ff - R_fp R_pp^-1 R_pf. The history's Cholesky is the only
    factorisation, so the Schur complement is never factored or repaired
    (no eigendecomposition) and L is always lower triangular. At
    t_index = 0 this is unconditional sampling.
    """
    factor = _fbm_cholesky(hurst, grid)
    p = t_index
    a = solve_triangular(factor[:p, :p], factor[p:, :p].T, trans="T",
                         lower=True).T
    a.setflags(write=False)
    return a, factor[p:, p:]


def lower_tri_matmul(xi: np.ndarray, factor: np.ndarray) -> np.ndarray:
    """xi @ factor.T for a lower triangular factor, by the BLAS triangular
    multiply (half the flops of a general matmul). Every factor of
    ``fbm_conditional_factors`` is lower triangular.
    """
    return dtrmm(1.0, factor, xi, side=1, lower=1, trans_a=1)


def gen_fbm(grid: TimeGrid, spec: FbmSpec, rng: RngStream) -> Path:
    """Fractional Brownian motion, exact on the grid (Cholesky sampling)."""
    if grid.t_start != 0.0:
        raise BadParams("fBm grid must start at 0")
    factor = _fbm_cholesky(spec.hurst, grid)
    z = rng.generator().standard_normal(grid.n_steps)
    values = np.concatenate(([0.0], factor @ z))
    return Path(grid, values)


def fou_from_fbm(grid: TimeGrid, spec: FouSpec, fbm_values: np.ndarray) -> np.ndarray:
    """Build V(t) = v0 e^{-at} + sigma * int_0^t e^{-a(t-s)} dB^h(s).

    The stochastic integral is computed pathwise by integration by parts,
        int_0^t e^{-a(t-s)} dB^h = B^h(t) - a e^{-at} int_0^t e^{as} B^h(s) ds,
    with trapezoidal quadrature for the Riemann integral. Works along the
    last axis, so a batch of fBm paths gives a batch of fOU paths.
    """
    t = np.asarray(grid.nodes)
    b = np.asarray(fbm_values, dtype=float)
    integrand = np.exp(spec.alpha * t) * b
    cells = 0.5 * (integrand[..., 1:] + integrand[..., :-1]) * grid.dt
    cum = np.zeros(integrand.shape)
    np.cumsum(cells, axis=-1, out=cum[..., 1:])
    stoch = b - spec.alpha * np.exp(-spec.alpha * t) * cum
    return spec.v0 * np.exp(-spec.alpha * t) + spec.sigma * stoch


def bridge_steps(grid_tail: TimeGrid) -> tuple[np.ndarray, np.ndarray]:
    """Per-step mean weights and noise scales of a Brownian bridge on the grid.

    Given current value x at node i and pinned terminal value zeta, the next
    node is x + w[i] * (zeta - x) + s[i] * xi. The final step has s = 0 and
    w = 1, so the endpoint is hit exactly.
    """
    t = np.asarray(grid_tail.nodes)
    rem = grid_tail.t_end - t[:-1]
    w = grid_tail.dt / rem
    s2 = grid_tail.dt * (rem - grid_tail.dt) / rem
    w[-1] = 1.0
    s = np.sqrt(np.clip(s2, 0.0, None))
    s[-1] = 0.0
    return w, s


def bridge_paths(grid_tail: TimeGrid, start: float, terminal: float,
                 xi: np.ndarray) -> np.ndarray:
    """Brownian bridges from (t_start, start) to (t_end, terminal).

    One path per row of the standard normals `xi` (shape (..., n_steps)),
    by the exact per-step recursion of `bridge_steps`; the final node
    equals `terminal` exactly.
    """
    w, s = bridge_steps(grid_tail)
    z = np.empty(xi.shape[:-1] + (grid_tail.n_nodes,))
    z[..., 0] = start
    for i in range(grid_tail.n_steps):
        z[..., i + 1] = z[..., i] + w[i] * (terminal - z[..., i]) + s[i] * xi[..., i]
    z[..., -1] = terminal
    return z

