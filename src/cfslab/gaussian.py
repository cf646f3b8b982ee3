"""Exact-in-law Gaussian path generators, in numpy alone: fractional
Brownian motion as the cumulative sum of its increments, drawn from the
Cholesky factor of their Toeplitz covariance (built in O(n^2) by the Schur
algorithm), and the exact conditional law of its future increments from
blocks of that factor, fractional Ornstein-Uhlenbeck by pathwise
integration by parts, and Brownian bridges.
"""
from __future__ import annotations

import collections
import ctypes
import functools
import pathlib
import threading
from dataclasses import dataclass

import numpy as np

from .core import (
    BadParams,
    CovarianceNotPD,
    HurstOutOfRange,
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
        if not np.all(np.isfinite((self.alpha, self.sigma, self.v0))) \
                or self.alpha <= 0 or self.sigma < 0:
            raise BadParams("need finite alpha > 0, sigma >= 0 and v0")


def _fgn_autocovariance(hurst: float, grid: TimeGrid) -> np.ndarray:
    """c_k = Cov(dB_0, dB_k) of the fBm increments (fractional Gaussian
    noise) on the grid: dt^2h ((k+1)^2h - 2 k^2h + |k-1|^2h) / 2."""
    k = np.arange(grid.n_steps, dtype=float)
    h2 = 2.0 * hurst
    return 0.5 * grid.dt ** h2 * ((k + 1.0) ** h2 - 2.0 * k ** h2
                                  + np.abs(k - 1.0) ** h2)


def _toeplitz_schur(c: np.ndarray) -> np.ndarray:
    """Upper triangular U with U^T U = toeplitz(c), in O(n^2).

    The generalized Schur algorithm (Bojanczyk, Brent, de Hoog & Sweet,
    SIAM J. Matrix Anal. Appl. 16, 1995): T - Z T Z^T = g1 g1^T - g2 g2^T
    for the shift Z, and each step shifts g1 down one place and applies the
    hyperbolic rotation that zeroes the leading entry of g2; the rotated g1
    is the next row of U (column of the lower Cholesky factor). g2 is
    updated in the stable mixed form g2' = s g2 - rho g1'.
    """
    c = np.asarray(c, dtype=float)
    n = c.size
    if not c[0] > 0.0:
        raise CovarianceNotPD(f"Toeplitz covariance has c_0 = {c[0]}")
    u = np.zeros((n, n))
    u[0] = c / np.sqrt(c[0])
    g2 = u[0].copy()
    g2[0] = 0.0
    for k in range(1, n):
        g1 = u[k - 1, k - 1 : n - 1]
        b = g2[k:]
        rho = b[0] / g1[0]
        if not abs(rho) < 1.0:
            raise CovarianceNotPD(
                f"Toeplitz covariance not positive definite at step {k} "
                f"of {n} (reflection coefficient {rho})")
        s = np.sqrt((1.0 - rho) * (1.0 + rho))
        row = u[k, k:]
        np.multiply(b, -rho, out=row)
        row += g1
        row /= s
        b *= s
        b -= rho * row
    return u


CacheInfo = collections.namedtuple("CacheInfo",
                                   "hits misses maxsize currsize")


def _cache_one(fn):
    """Cache of `fn`'s last call, computed once per process. A miss drops
    the old entry before computing the new one, so the process never holds
    two results (an `lru_cache(maxsize=1)` holds both until the new one is
    built). Calls hold a lock, so a thread that misses while another is
    computing the same entry waits for it instead of computing its own.
    `cache_info()` and `cache_clear()` are those of `functools.lru_cache`."""
    lock = threading.Lock()
    entry: dict = {}  # args -> result, one at most
    counts = collections.Counter()

    def call(*args):
        with lock:
            if args in entry:
                counts["hits"] += 1
            else:
                counts["misses"] += 1
                entry.clear()
                entry[args] = fn(*args)
            return entry[args]

    def cache_info():
        with lock:
            return CacheInfo(counts["hits"], counts["misses"], 1, len(entry))

    def cache_clear():
        with lock:
            entry.clear()
            counts.clear()

    call.cache_info, call.cache_clear = cache_info, cache_clear
    return functools.wraps(fn)(call)


@_cache_one
def _fgn_cholesky(hurst: float, grid: TimeGrid) -> np.ndarray:
    """Lower Cholesky factor U^T of the Toeplitz covariance T of the fBm's
    rises over the cells (`_fgn_autocovariance`, `_toeplitz_schur`), as the
    read-only, Fortran-ordered transpose of U: U^T z are the rises for
    standard normals z, and their cumulative sum is the fBm at nodes 1.."""
    if grid.t_start != 0.0:
        raise BadParams("fBm grid must start at 0")
    _blas()  # one BLAS thread, before the factor's first multiply
    u = _toeplitz_schur(_fgn_autocovariance(hurst, grid))
    u.setflags(write=False)
    return u.T


def fbm_conditional_factors(
    hurst: float, grid: TimeGrid, t_index: int
) -> tuple[np.ndarray, np.ndarray]:
    """Blocks of the cached factor U^T = [[G11, 0], [G21, G22]] of the
    history's rises, for sampling the rises after t_index given those up
    to it: read-only views of its first t_index columns C = [[G11], [G21]]
    and of G = G22. A `gen_fbm` history's rises up to t_index are r_p =
    G11 z_p for its normals z_p, so the future rises are G21 z_p + G @ xi
    for standard normal xi (G21 z_p = T_fp T_pp^-1 r_p, G G^T = T_ff -
    T_fp T_pp^-1 T_pf): nothing is solved or factored again, and G is lower
    triangular. The blocks are not cached apart from the factor, so they
    keep no second factor alive; `cache_info` and `cache_clear` are the
    factor cache's.
    """
    factor = _fgn_cholesky(hurst, grid)
    return factor[:, :t_index], factor[t_index:, t_index:]


fbm_conditional_factors.cache_info = _fgn_cholesky.cache_info
fbm_conditional_factors.cache_clear = _fgn_cholesky.cache_clear


# CBLAS enum values: column-major order, A on the left, A lower triangular,
# not transposed, with a non-unit diagonal
_CBLAS_TRMM = (102, 141, 122, 111, 131)
# rows of xi per dtrmm call: OpenBLAS sizes its scratch to the call, and a
# whole 1024-row block touches 2.4 MiB more of it than four 256-row calls,
# which give the same bytes
_DTRMM_ROWS = 256
_Blas = collections.namedtuple("_Blas", "dtrmm threads")


@functools.cache
def _blas() -> _Blas | None:
    """The `dtrmm` of numpy's bundled OpenBLAS, with its `get_num_threads`
    (None if not exported); None where numpy bundles no such library.

    Looked up once per process, and only in numpy's own `numpy.libs` (the
    ILP64 `libscipy_openblas64_` of numpy's wheels), so it is the very
    library numpy's `matmul` calls. Loading it sets that BLAS to one
    thread for the life of the process: cfslab runs its own processes and
    threads, and the multiply's bytes depend on the BLAS thread count.
    `_fgn_cholesky` calls this before cfslab's first BLAS call. A numpy
    built on MKL, Accelerate or a system BLAS bundles no such library: then
    nothing is set, and `lower_tri_matmul` uses `matmul` panels.
    """
    libs = pathlib.Path(np.__file__).resolve().parent.parent / "numpy.libs"
    found = sorted(libs.glob("libscipy_openblas64_*"))
    if not found:
        return None
    lib = ctypes.CDLL(str(found[0]))
    pin = getattr(lib, "scipy_openblas_set_num_threads64_", None)
    if pin is not None:
        pin.argtypes, pin.restype = [ctypes.c_int], None
        pin(1)
    threads = getattr(lib, "scipy_openblas_get_num_threads64_", None)
    if threads is not None:
        threads.argtypes, threads.restype = [], ctypes.c_int
    dtrmm = getattr(lib, "scipy_cblas_dtrmm64_", None)
    if dtrmm is None:
        return None
    i64 = ctypes.c_int64
    dtrmm.argtypes = ([ctypes.c_int] * 5 + [i64, i64, ctypes.c_double,
                      ctypes.c_void_p, i64, ctypes.c_void_p, i64])
    dtrmm.restype = None
    return _Blas(dtrmm, threads)


def blas_info() -> str:
    """The fBm multiply's path and the BLAS thread count in force, one
    `key: value` line each; fBm bytes depend on both."""
    blas = _blas()
    path = "matmul panels" if blas is None else "openblas dtrmm"
    threads = ("unknown" if blas is None or blas.threads is None
               else blas.threads())
    return f"multiply: {path}\nblas_threads: {threads}\n"


def lower_tri_matmul(xi: np.ndarray, factor: np.ndarray) -> np.ndarray:
    """xi @ factor.T for a lower triangular (m, m) factor, in place in a
    writeable, C-contiguous float `xi` (any other is copied first).

    With numpy's bundled OpenBLAS (`_blas`), each run of 256 rows of `xi`,
    read as a column-major (m, rows) matrix B, is overwritten by one
    dtrmm: B = factor @ B. A factor with contiguous columns, such as the
    read-only blocks of `fbm_conditional_factors`, is passed in place with
    its own leading dimension; any other is copied to Fortran order first.
    A row's product does not depend on how many rows share its call, so
    fewer replications give a byte-equal prefix of the rows.

    Otherwise column j reads columns 0..j of `xi` only, so each quarter of
    the rows is overwritten by 8 column panels from the right, each a
    `matmul` into one buffer of 1/32 of `xi`.
    """
    xi = np.require(xi, np.float64, ["C", "W", "A"])
    rows, m = xi.shape
    if factor.shape != (m, m):
        raise ValueError(f"factor {factor.shape} does not fit xi {xi.shape}")
    if xi.size == 0:
        return xi  # no rows (or no columns): nothing to multiply
    blas = _blas()
    if blas is not None:
        item = xi.itemsize
        if not (factor.dtype == np.float64 and factor.flags.aligned
                and factor.strides[0] == item
                and factor.strides[1] % item == 0
                and factor.strides[1] >= item * m):
            factor = np.asfortranarray(factor, np.float64)
        lda = factor.strides[1] // item
        for r in range(0, rows, _DTRMM_ROWS):
            part = xi[r : r + _DTRMM_ROWS]
            blas.dtrmm(*_CBLAS_TRMM, m, len(part), 1.0, factor.ctypes.data,
                       lda, part.ctypes.data, m)
        return xi
    step, width = -(-rows // 4), -(-m // 8)
    buf = np.empty(step * width)
    for r in range(0, rows, step):
        part = xi[r : r + step]
        for hi in range(m, 0, -width):
            lo = max(hi - width, 0)
            out = buf[: len(part) * (hi - lo)].reshape(len(part), hi - lo)
            np.matmul(part[:, :hi], factor[lo:hi, :hi].T, out=out)
            part[:, lo:hi] = out
    return xi


def gen_fbm(grid: TimeGrid, spec: FbmSpec,
            rng: RngStream) -> tuple[Path, np.ndarray]:
    """Fractional Brownian motion, exact on the grid (Cholesky sampling),
    and the standard normals z it was drawn from: its rises over the cells
    are U^T z by `lower_tri_matmul`, and its nodes 1.. their cumulative
    sum, so z is its driving noise (see `fbm_conditional_factors`)."""
    factor = _fgn_cholesky(spec.hurst, grid)
    z = rng.generator().standard_normal(grid.n_steps)
    rises = lower_tri_matmul(z[None].copy(), factor)[0]
    return Path(grid, np.concatenate(([0.0], np.cumsum(rises)))), z


def fou_from_fbm(grid: TimeGrid, spec: FouSpec, fbm_values: np.ndarray,
                 start: int = 0, cum0: float = 0.0) -> np.ndarray:
    """Build V(t) = v0 e^{-at} + sigma * int_0^t e^{-a(t-s)} dB^h(s).

    The stochastic integral is computed pathwise by integration by parts,
        int_0^t e^{-a(t-s)} dB^h = B^h(t) - a e^{-at} int_0^t e^{as} B^h(s) ds,
    with trapezoidal quadrature for the Riemann integral. Works along the
    last axis, so a batch of fBm paths gives a batch of fOU paths.

    `fbm_values` may start at node `start`, given the quadrature sum `cum0`
    there (`fou_quadrature`); each V is then the whole path's, bit for bit.
    """
    nodes = slice(start, start + np.shape(fbm_values)[-1])
    decay = np.exp(-spec.alpha * np.asarray(grid.nodes))
    v = fou_quadrature(grid, spec, fbm_values, start, cum0)
    v *= (spec.alpha * decay)[nodes]
    np.subtract(fbm_values, v, out=v)
    v *= spec.sigma
    v += (spec.v0 * decay)[nodes]
    return v


def fou_quadrature(grid: TimeGrid, spec: FouSpec, fbm_values: np.ndarray,
                   start: int = 0, cum0: float = 0.0) -> np.ndarray:
    """Trapezoid sums of int_0^t e^{as} B^h(s) ds at the nodes of
    `fbm_values` (last axis), from node `start` with the sum `cum0` there."""
    growth = np.exp(spec.alpha * np.asarray(grid.nodes))
    integrand = fbm_values * growth[start : start + fbm_values.shape[-1]]
    cum = np.empty(integrand.shape)
    cum[..., 0] = cum0
    np.add(integrand[..., 1:], integrand[..., :-1], out=cum[..., 1:])
    cum[..., 1:] *= 0.5
    cum[..., 1:] *= grid.dt
    np.cumsum(cum, axis=-1, out=cum)
    return cum


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
                 z: np.ndarray) -> np.ndarray:
    """Brownian bridges from (t_start, start) to (t_end, terminal), in place.

    One path per row of `z` (shape (..., n_nodes)), whose columns 1: hold
    the standard normals of the exact per-step recursion of
    `bridge_steps`: the normal of step i is read before node i + 1
    overwrites it. Returns `z`; its final node equals `terminal` exactly.
    """
    w, s = bridge_steps(grid_tail)
    z[..., 0] = start
    for i in range(grid_tail.n_steps):
        z[..., i + 1] = z[..., i] + w[i] * (terminal - z[..., i]) + s[i] * z[..., i + 1]
    z[..., -1] = terminal
    return z
