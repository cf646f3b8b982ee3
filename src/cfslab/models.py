"""Model zoo: one class per model family, each assembling generators and
integrators into a single "simulate on a grid, then continue conditionally
from a restart node" interface.

Conditioning is on the generator filtration: all driving noise up to the
restart node, plus the whole path of any driver independent of the
integrating Brownian motion. Continuations redraw only what the selected
mode allows; everything else is read from the frozen context.
"""
from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass
from typing import Callable, ClassVar, Iterator

import numpy as np

from . import core, gaussian, jumps
from .core import (
    BLOCK,
    BadParams,
    Block,
    FellerWarning,
    IncompatibleContext,
    Path,
    RngStream,
    TimeGrid,
    blocks,
    grids_equal,
    tail_grid,
)
from .gaussian import (
    FouSpec,
    bridge_paths,
    fbm_conditional_factors,
    fou_from_fbm,
    fou_quadrature,
    lower_tri_matmul,
)
from .jumps import BnsSpec, CtmcSpec

REASON_POSITIVITY = "POSITIVITY"
REASON_ENDPOINT_PIN = "ENDPOINT_PIN"


class HkMode(enum.Enum):
    """How a continuation treats drivers that are independent of the
    integrating Brownian motion.

    FIXED freezes their realized full path in the context (conditioning on
    the larger sigma-algebra); REDRAW resamples their future from the exact
    conditional law given the history.
    """

    FIXED = "FIXED"
    REDRAW = "REDRAW"


@dataclass(frozen=True)
class CirSpec:
    """Square-root variance process, full-truncation Euler scheme."""

    kappa: float
    theta: float
    xi: float
    v0: float

    def __post_init__(self):
        c = (self.kappa, self.theta, self.xi, self.v0)
        if not np.all(np.isfinite(c)) or min(c[:3]) <= 0 or self.v0 < 0:
            raise BadParams("CIR parameters must be finite and positive (v0 >= 0)")

    @property
    def feller_ok(self) -> bool:
        return 2.0 * self.kappa * self.theta >= self.xi ** 2


@dataclass(frozen=True)
class ConditioningContext:
    """Realized drivers up to the restart node, plus the frozen full paths
    of drivers independent of the integrating Brownian motion, of the
    process `spec`."""

    spec: ModelSpec
    grid: TimeGrid
    t_index: int
    z_values: np.ndarray  # reported-process history, nodes 0..t_index
    frozen: dict

    @property
    def z_t(self) -> float:
        return float(self.z_values[-1])


@dataclass(frozen=True)
class ValidationCheck:
    name: str
    status: str  # PASS | FAIL | UNCHECKABLE
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    model: str
    checks: tuple[ValidationCheck, ...]


_VALIDATE_GRID = TimeGrid(0.0, 1.0, 256)
_VALIDATE_PATHS = 100
# rows per tile of a REDRAW chunk's row passes (fOU, Heston's leverage): an
# fOU tile's three (8, m) temporaries stay under 5% of a 512-row block, and
# a 1024-row chunk at 2^11 steps, restart 1024, runs as fast as with 32-row
# tiles (about 118 ms on a 2-vCPU Xeon) and 7% faster than with 4-row tiles
_TILE_ROWS = 8
# time columns per slab of the loops that step all rows at once (Heston's
# variance, the SDE's Euler scheme), each slab copied to a contiguous
# (steps, rows) array of about 128 bytes per row and written back
_SLAB_STEPS = 16


# ---------------------------------------------------------------------------
# helpers

def _fresh_normals(gen: np.random.Generator, rows: int, m: int,
                   n_sources: int = 1,
                   then: Callable | None = None) -> list[np.ndarray]:
    """One block's draws: the chunk's (rows, m + 1) output array, column 0
    zero and source 0's normals in columns 1:, which a family's
    `increments` scales and `_integrate` finishes in place; then a
    C-contiguous (rows, m) array per further source and, if `then` is
    given, one more holding `then(gen)` per row.
    Rows are drawn from the block's generator in order, each taking its
    source-0 normals, its further sources and then `then(gen)`, so fewer
    replications draw a prefix of the same rows."""
    z = np.empty((rows, m + 1))
    z[:, 0] = 0.0
    more = n_sources - 1 + (then is not None)
    out = [z] + [np.empty((rows, m)) for _ in range(more)]
    others = out[1:n_sources]
    for r in range(rows):
        gen.standard_normal(out=z[r, 1:])
        for xi in others:
            gen.standard_normal(out=xi[r])
        if then is not None:
            out[-1][r] = then(gen)
    return out


def _on_cells(op, z: np.ndarray, law) -> None:
    """z[:, 1:] = op(z[:, 1:], law) in place, for a chunk z whose column 0
    is zero and a per-cell `law`: a scalar, a row over the cells or one
    row per replication. Only the last runs on the strided columns 1:;
    the others run on the whole block, as a row with 0 for column 0,
    which numpy does about twice as fast."""
    if np.ndim(law) == 2:
        op(z[:, 1:], law, out=z[:, 1:])
    else:
        op(z, np.concatenate(([0.0], np.broadcast_to(law, z.shape[1] - 1))),
           out=z)


def _integrate(z0: float, z: np.ndarray, c, s) -> np.ndarray:
    """Finish the paths z0 + cumsum0(c + s xi) in z, in place: z is
    `_fresh_normals`' output array with the normals xi in columns 1:, c
    the per-cell mean (or None) and s the per-cell scale, each a scalar,
    a row over the cells or one row per replication (`_on_cells`)."""
    if np.ndim(s) == 0:
        z *= s  # column 0 is zero; numpy's scalar loop is faster still
    else:
        _on_cells(np.multiply, z, s)
    if c is not None:
        _on_cells(np.add, z, c)
    np.cumsum(z, axis=1, out=z)
    z += z0
    return z


def _fbm_tails(hurst: float, ctx: ConditioningContext,
               xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The exact conditional law of the fBm's rises over the cells after
    the restart, given the frozen history, as mean + noise: the noise
    G22 xi, one row per row of the C-contiguous standard normals `xi` and
    returned in `xi`, and the mean row G21 z_p, with z_p the history's own
    normals up to the restart (`fbm_conditional_factors`)."""
    i0 = ctx.t_index
    head, factor = fbm_conditional_factors(hurst, ctx.grid, i0)
    return (lower_tri_matmul(xi, factor),
            head[i0:] @ ctx.frozen["fbm_normals"][:i0])


def _validation_paths(spec: ModelSpec):
    """The sampled (path, context) pairs that support checks inspect."""
    rng = RngStream(0, 0)
    return (simulate(spec, _VALIDATE_GRID, rng.child(i))
            for i in range(_VALIDATE_PATHS))


# ---------------------------------------------------------------------------
# model families

@dataclass(frozen=True, kw_only=True)
class ModelSpec:
    """A named process. Each subclass is one model family, declares only its
    own parameters and, if it has drivers independent of W, `drivers(grid,
    rng)`. A family Z = H + int K dW states its law once, per cell, given
    the drivers frozen in `ctx`: `increments(ctx, grid_tail, gen, rows,
    mode)` returns `_fresh_normals`' block of normals xi, the per-cell
    mean c (H's rise over the cell, or None) and the per-cell scale s (K
    times sqrt(dt)), redrawing the drivers' future in REDRAW mode;
    `continuation` finishes z_t + cumsum0(c + s xi) with `_integrate`,
    and `cell_noise_scale` and `exact_spread` read |s| and the spread
    off the same law. A family outside that form overrides `continuation`
    instead. Price families report the log price.
    """

    tag: ClassVar[str]  # family name in `cfslab models`, default `name`
    summary: ClassVar[str]  # its line in `cfslab models`
    positive_state: ClassVar[bool] = False  # reported process > 0 in R
    z0: ClassVar[float] = 0.0  # reported process at node 0

    name: str = ""

    def __post_init__(self):
        if not self.name:
            object.__setattr__(self, "name", self.tag)

    def drivers(self, grid, rng) -> dict:
        return {}  # the frozen paths of the drivers independent of W

    def continuation(self, ctx, grid_tail, gen, rows, mode=None):
        """`rows` continuations drawn from `gen` given `ctx`, in `mode`: by
        default the spec's `hk_mode`, FIXED for a family without one."""
        z, c, s = self.increments(
            ctx, grid_tail, gen, rows,
            mode or getattr(self, "hk_mode", HkMode.FIXED))
        return _integrate(ctx.z_t, z, c, s)

    def analytic_zero(self, ctx, target, eps) -> str | None:
        return None  # reason the tube around `target` is provably empty

    def checks(self) -> tuple[ValidationCheck, ...]:
        return ()  # testable support hypotheses, see `validate_spec`


@dataclass(frozen=True, kw_only=True)
class MixedFbm(ModelSpec):
    tag = "MIXED_FBM"
    summary = ("Brownian motion plus weighted independent fractional Brownian"
               " motion (hurst, fbm_weight)")

    hurst: float = 0.5
    fbm_weight: float = 0.0
    hk_mode: HkMode = HkMode.FIXED

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 < self.hurst < 1.0:
            raise BadParams("hurst must be in (0, 1)")
        if not 0.0 <= self.fbm_weight < np.inf:
            raise BadParams("fbm_weight must be finite and >= 0")

    def drivers(self, grid, rng):
        if self.fbm_weight == 0.0:
            return {}
        fbm, z = gaussian.gen_fbm(
            grid, gaussian.FbmSpec(self.hurst), rng.child(1))
        return {"fbm": fbm.values, "fbm_normals": z}

    def increments(self, ctx, grid_tail, gen, rows, mode):
        # K = 1; c is the weighted fBm's rise over each cell
        s = np.sqrt(grid_tail.dt)
        if self.fbm_weight == 0.0:
            return _fresh_normals(gen, rows, grid_tail.n_steps)[0], None, s
        if mode is HkMode.FIXED:
            (w,) = _fresh_normals(gen, rows, grid_tail.n_steps)
            fbm = ctx.frozen["fbm"][ctx.t_index :]
            return w, self.fbm_weight * np.diff(fbm), s
        w, xi_f = _fresh_normals(gen, rows, grid_tail.n_steps, 2)
        c, mean = _fbm_tails(self.hurst, ctx, xi_f)
        c += mean
        c *= self.fbm_weight
        return w, c, s

    def checks(self):
        return (ValidationCheck(
            "integrand_nonvanishing", "PASS", "k = 1 has an empty zero set"),)


@dataclass(frozen=True, kw_only=True)
class WienerIntegral(ModelSpec):
    tag = "WIENER_INTEGRAL"
    summary = ("deterministic drift plus Wiener integral of a deterministic"
               " integrand (h_fn, k_fn)")

    k_fn: Callable[[np.ndarray], np.ndarray]
    h_fn: Callable[[np.ndarray], np.ndarray] = np.zeros_like

    def increments(self, ctx, grid_tail, gen, rows, mode):
        (z,) = _fresh_normals(gen, rows, grid_tail.n_steps)
        t = np.asarray(grid_tail.nodes)
        k = np.asarray(self.k_fn(t), dtype=float)[:-1]  # at the left points
        return z, np.diff(self.h_fn(t)), k * np.sqrt(grid_tail.dt)

    def checks(self):
        kv = self.k_fn(np.asarray(_VALIDATE_GRID.nodes))
        zero = int(np.sum(kv == 0.0))
        return (
            ValidationCheck(
                "integrand_nonvanishing",
                "PASS" if zero == 0 else "FAIL",
                f"{zero} zero nodes on the validation grid"),
            ValidationCheck(
                "integrand_bounded_away_from_zero",
                "PASS" if np.min(np.abs(kv)) > 0 else "FAIL",
                f"min |k| = {np.min(np.abs(kv)):.3g}"),
        )


@dataclass(frozen=True, kw_only=True)
class _VolPrice(ModelSpec):
    """Log price with d log P = (mu - g^2/2) dt + g dW and volatility g:
    per cell, s = g sqrt(dt) and c = (mu - g^2/2) dt, with g at the cell's
    left point.

    A family supplies `drivers(grid, rng)`, its frozen drivers with g at
    the nodes under "g", and for REDRAW either `_markov_vol(ctx, grid_tail,
    gen)`, one replication's g on the tail cells, or its own `_redraw`
    returning the price noise, as normals in columns 1: of the chunk's
    output array, and g per replication. g is independent of W except in
    `Heston`, whose variance is driven by a Brownian B with d<W, B> = rho
    dt, so that its law states its own leverage.
    """

    mu: float = 0.0
    hk_mode: HkMode = HkMode.FIXED

    def __post_init__(self):
        super().__post_init__()
        if not np.isfinite(self.mu):
            raise BadParams("mu must be finite")

    def increments(self, ctx, grid_tail, gen, rows, mode):
        if mode is HkMode.FIXED:
            (z,) = _fresh_normals(gen, rows, grid_tail.n_steps)
            g = ctx.frozen["g"][ctx.t_index : -1]
        else:
            z, g = self._redraw(ctx, grid_tail, gen, rows)
        # c + s xi = mu dt + s (xi - s/2): the normals take the shift, so
        # that s, in g's buffer, is the one array beside the chunk's
        half = np.multiply(g, 0.5 * np.sqrt(grid_tail.dt),
                           out=g if g.ndim > 1 else None)
        _on_cells(np.subtract, z, half)
        return z, self.mu * grid_tail.dt, np.add(half, half, out=half)

    def _redraw(self, ctx, grid_tail, gen, rows):
        # Markov volatility redrawn per replication (event-driven), drawn
        # right after that replication's W normals.
        return _fresh_normals(
            gen, rows, grid_tail.n_steps,
            then=lambda g: self._markov_vol(ctx, grid_tail, g))

    def checks(self):
        bad = sum(bool(np.any(ctx.frozen["g"] <= 0.0))
                  for _, ctx in _validation_paths(self))
        return (ValidationCheck(
            "volatility_positive",
            "PASS" if bad == 0 else "FAIL",
            f"{bad}/{_VALIDATE_PATHS} sampled paths had nonpositive volatility"),)


@dataclass(frozen=True, kw_only=True)
class Heston(_VolPrice):
    tag = "SV_PRICE"
    summary = ("price with square-root stochastic variance and leverage"
               " (kappa, theta, xi, v0, rho)")

    rho: float = 0.0
    cir: CirSpec

    def __post_init__(self):
        super().__post_init__()
        if not -1.0 < self.rho < 1.0:
            raise BadParams("rho must be in (-1, 1)")

    def increments(self, ctx, grid_tail, gen, rows, mode):
        if mode is HkMode.REDRAW:
            return super().increments(ctx, grid_tail, gen, rows, mode)
        # B is frozen, so its share of the price noise, rho g db, is mean:
        # per cell c = (mu - g^2/2) dt + rho g db, s = sqrt(1 - rho^2) g sqrt(dt)
        (z,) = _fresh_normals(gen, rows, grid_tail.n_steps)
        i0, dt = ctx.t_index, grid_tail.dt
        g = ctx.frozen["g"][i0:-1]
        c = (self.mu - 0.5 * g * g) * dt + self.rho * g * ctx.frozen["db"][i0:]
        return z, c, np.sqrt((1.0 - self.rho ** 2) * dt) * g

    def _cir_step(self, dt, shape):
        """The full-truncation Euler step of the variance (Lord, Koekkoek
        & van Dijk 2010) over cells of width dt, on arrays of `shape`:
        step(v, db) advances v in place to the cell's right point, v +
        (theta - v+) kappa dt + xi sqrt(v+) db, and overwrites the B
        increments db with sqrt(v+) at the left point."""
        c, (vp, g, a, b) = self.cir, np.empty((4, shape))
        # 0-d operands, positional outputs and no output that is also an
        # input: numpy's cheapest calls, on one row too
        zero, theta, kdt, xi = map(np.array, (0.0, c.theta, c.kappa * dt, c.xi))

        def step(v, db):
            np.maximum(v, zero, out=vp)  # a positional out is deprecated here
            np.sqrt(vp, g)
            np.subtract(theta, vp, a)
            np.multiply(a, kdt, b)
            np.add(v, b, a)
            np.multiply(g, xi, b)
            np.multiply(b, db, vp)
            np.add(a, vp, v)
            db[...] = g
        return step

    def drivers(self, grid, rng):
        db = rng.child(1).generator().normal(0.0, np.sqrt(grid.dt), grid.n_steps)
        if not self.cir.feller_ok:
            warnings.warn(
                "2*kappa*theta < xi**2: variance can hit zero", FellerWarning,
                stacklevel=3)
        v = np.full(grid.n_nodes, float(self.cir.v0))
        x, step = v[:1].copy(), self._cir_step(grid.dt, 1)
        for i, d in enumerate(db[:, None].copy(), 1):
            step(x, d)
            v[i] = x[0]
        return {"v": v, "db": db, "g": np.sqrt(np.clip(v, 0.0, None))}

    def _redraw(self, ctx, grid_tail, gen, rows):
        # The price noise sqrt(1 - rho^2) xi_W + rho xi_B mixes in row
        # tiles; then v advances a cell at a time over all rows, each
        # cell's volatility overwriting its B normal
        m, dt = grid_tail.n_steps, grid_tail.dt
        z, xi_b = _fresh_normals(gen, rows, m, 2)
        for lo in range(0, rows, _TILE_ROWS):
            x = z[lo : lo + _TILE_ROWS, 1:]
            x *= np.sqrt(1.0 - self.rho ** 2)
            x += self.rho * xi_b[lo : lo + _TILE_ROWS]
        v = np.full(rows, float(ctx.frozen["v"][ctx.t_index]))
        step = self._cir_step(dt, rows)
        for lo in range(0, m, _SLAB_STEPS):
            cols = slice(lo, lo + _SLAB_STEPS)
            cells = np.multiply(xi_b[:, cols].T, np.sqrt(dt), order="C")
            for db in cells:
                step(v, db)
            xi_b[:, cols] = cells.T
        return z, xi_b


@dataclass(frozen=True, kw_only=True)
class Bns(_VolPrice):
    tag = "BNS_PRICE"
    summary = ("price with subordinator-driven mean-reverting variance"
               " (decay, jump law, window)")

    bns: BnsSpec

    def drivers(self, grid, rng):
        v = jumps.gen_bns_vol(grid, self.bns, rng.child(1)).values
        return {"v": v, "g": np.sqrt(v)}

    def _markov_vol(self, ctx, grid_tail, gen):
        v = jumps.bns_forward(
            self.bns, float(ctx.frozen["v"][ctx.t_index]), grid_tail, gen)
        return np.sqrt(v[:-1])


@dataclass(frozen=True, kw_only=True)
class ComteRenault(_VolPrice):
    tag = "COMTE_RENAULT_PRICE"
    summary = ("price with exp(fractional Ornstein-Uhlenbeck) volatility"
               " (hurst, alpha, sigma, v0)")

    fou: FouSpec

    def drivers(self, grid, rng):
        fbm, z = gaussian.gen_fbm(
            grid, gaussian.FbmSpec(self.fou.hurst), rng.child(1))
        v = fou_from_fbm(grid, self.fou, fbm.values)
        return {"v": v, "fbm": fbm.values, "fbm_normals": z, "g": np.exp(v)}

    def _redraw(self, ctx, grid_tail, gen, rows):
        # fOU from the restart node on, seeded with the history's quadrature
        # sum, in row tiles that overwrite the fBm rises whose sums from
        # fbm[i0] give the fBm at the left points
        i0 = ctx.t_index
        z, xi_f = _fresh_normals(gen, rows, grid_tail.n_steps, 2)
        fbm = ctx.frozen["fbm"]
        rises, mean = _fbm_tails(self.fou.hurst, ctx, xi_f)
        cum0 = fou_quadrature(ctx.grid, self.fou, fbm[: i0 + 1])[-1]
        for lo in range(0, rows, _TILE_ROWS):
            g = rises[lo : lo + _TILE_ROWS]
            g += mean
            b = np.concatenate((np.full((len(g), 1), fbm[i0]), g[:, :-1]), axis=1)
            np.cumsum(b, axis=1, out=b)
            np.exp(fou_from_fbm(ctx.grid, self.fou, b, i0, cum0), out=g)
        return z, rises


@dataclass(frozen=True, kw_only=True)
class Regime(_VolPrice):
    tag = "REGIME_PRICE"
    summary = ("price whose volatility follows a continuous-time Markov chain"
               " (generator, vol_levels, start_state)")

    ctmc: CtmcSpec

    def drivers(self, grid, rng):
        state = jumps.ctmc_states(
            grid, self.ctmc, self.ctmc.initial_state, rng.child(1).generator())
        g = self.ctmc.vol_levels[state]
        return {"state": state, "v": g, "g": g}

    def _markov_vol(self, ctx, grid_tail, gen):
        states = jumps.ctmc_states(
            grid_tail, self.ctmc, int(ctx.frozen["state"][ctx.t_index]), gen)
        return self.ctmc.vol_levels[states[:-1]]


@dataclass(frozen=True, kw_only=True)
class SdePrice(ModelSpec):
    tag = "SDE_PRICE"
    summary = ("diffusion price with level-proportional coefficient bounds"
               " (mu_fn, sigma_fn, mu_bar, sigma_bar)")

    mu_fn: Callable[[float, np.ndarray], np.ndarray]
    sigma_fn: Callable[[float, np.ndarray], np.ndarray]
    mu_bar: float | None = None
    sigma_bar: float | None = None

    def continuation(self, ctx, grid_tail, gen, rows, mode=None):
        # log-price Euler paths, in place in the block of W increments,
        # each read before its node overwrites it
        (lz,) = _fresh_normals(gen, rows, grid_tail.n_steps)
        dt = grid_tail.dt
        lz[:, 0] = ctx.z_t
        x, step = lz[:, 0].copy(), self.euler_step(dt, rows)
        for lo in range(0, grid_tail.n_steps, _SLAB_STEPS):
            cols = slice(lo + 1, lo + _SLAB_STEPS + 1)
            slab = np.multiply(lz[:, cols].T, np.sqrt(dt), order="C")
            for ti, dw in zip(grid_tail.nodes[lo:], slab):
                step(ti, x, dw)
                dw[...] = x
            lz[:, cols] = slab.T
        return lz

    def euler_step(self, dt, rows):
        """The log-price Euler step of width dt on `rows` states: step(t,
        x, dw) advances x in place to x + (mu/p - sg^2/(2 p^2)) dt + (sg/p)
        dw, with p = e^x and mu, sg the coefficients at (t, p)."""
        (p, a, b, c, d), two, dt = np.empty((5, rows)), np.array(2.0), np.array(dt)

        def step(t, x, dw):  # as in `Heston._cir_step`, no op is in place
            np.exp(x, p)
            mu = np.asarray(self.mu_fn(t, p), dtype=float)
            sg = np.asarray(self.sigma_fn(t, p), dtype=float)
            np.divide(mu, p, a)
            np.multiply(sg, sg, b)
            np.multiply(two, p, c)
            np.multiply(c, p, d)
            np.divide(b, d, c)
            np.subtract(a, c, b)
            np.multiply(b, dt, a)
            np.divide(sg, p, b)
            np.multiply(b, dw, c)
            np.add(x, a, b)
            np.add(b, c, x)
        return step

    def checks(self):
        if self.mu_bar is None or self.sigma_bar is None:
            return (ValidationCheck(
                "coefficient_bounds", "UNCHECKABLE", "no bounds supplied"),)
        ok = True
        worst = ""
        t = np.asarray(_VALIDATE_GRID.nodes)
        for z, _ in _validation_paths(self):
            for ti, pi in zip(t, np.exp(z.values)):
                mu = abs(float(self.mu_fn(ti, pi)))
                sg = abs(float(self.sigma_fn(ti, pi)))
                if mu > self.mu_bar * pi + 1e-12:
                    ok, worst = False, f"|mu| = {mu:.3g} > bound at t={ti:.3g}"
                if not (pi / self.sigma_bar - 1e-12 <= sg <= self.sigma_bar * pi + 1e-12):
                    ok, worst = False, f"sigma = {sg:.3g} out of band at t={ti:.3g}"
        return (ValidationCheck(
            "coefficient_bounds", "PASS" if ok else "FAIL", worst),)


@dataclass(frozen=True, kw_only=True)
class Doleans(ModelSpec):
    tag = "DOLEANS_CE"
    summary = ("strictly positive exponential martingale exp(W_t - t/2)"
               " (no parameters)")
    positive_state = True
    z0 = 1.0

    def continuation(self, ctx, grid_tail, gen, rows, mode=None):
        # z_t exp(W - t/2) since the restart node
        (z,) = _fresh_normals(gen, rows, grid_tail.n_steps)
        dt = grid_tail.dt
        z = _integrate(0.0, z, -0.5 * dt, np.sqrt(dt))
        np.exp(z, out=z)
        z *= ctx.z_t
        return z

    def analytic_zero(self, ctx, target, eps):
        if np.any(ctx.z_t + target + eps <= 0.0):
            return REASON_POSITIVITY
        return None

    def checks(self):
        return (ValidationCheck(
            "full_support_possible", "FAIL",
            "Z strictly positive; full support in R impossible"),)


@dataclass(frozen=True, kw_only=True)
class Bridge(ModelSpec):
    tag = "BRIDGE_CE"
    summary = ("Brownian path whose history includes its own terminal value"
               " (no parameters)")

    def drivers(self, grid, rng):
        return {"terminal": rng.child(2).generator().normal(0.0, np.sqrt(grid.span))}

    def continuation(self, ctx, grid_tail, gen, rows, mode=None):
        (z,) = _fresh_normals(gen, rows, grid_tail.n_steps)
        return bridge_paths(grid_tail, ctx.z_t, ctx.frozen["terminal"], z)

    def analytic_zero(self, ctx, target, eps):
        pinned = float(ctx.frozen["terminal"]) - ctx.z_t
        if abs(float(target[-1]) - pinned) >= eps:
            return REASON_ENDPOINT_PIN
        return None

    def checks(self):
        return (ValidationCheck(
            "full_support_possible", "FAIL",
            "terminal value pinned under the enlarged filtration"),)


FAMILIES = (MixedFbm, WienerIntegral, Heston, Bns, ComteRenault, Regime,
            SdePrice, Doleans, Bridge)


# ---------------------------------------------------------------------------
# entry points

def simulate(
    spec: ModelSpec, grid: TimeGrid, rng: RngStream, t_index: int = 0
) -> tuple[Path, ConditioningContext]:
    """Simulate the model on the grid and capture the conditioning context
    at node t_index: `spec.continuation` of one row from node 0 in FIXED
    mode, given `spec.drivers(grid, rng)` and W's normals from
    rng.child(0).generator() (in REDRAW too: drivers just drawn, then
    frozen, give the joint law)."""
    tail_grid(grid, t_index)  # BadParams unless 0 <= t_index < n_steps
    frozen = spec.drivers(grid, rng)
    start = ConditioningContext(spec, grid, 0, np.array([spec.z0]), frozen)
    z = spec.continuation(start, grid, rng.child(0).generator(), 1,
                          HkMode.FIXED)[0]
    ctx = ConditioningContext(spec, grid, t_index, z[: t_index + 1].copy(),
                              frozen)
    return Path(grid, z), ctx


def check_context(
    spec: ModelSpec, ctx: ConditioningContext, grid_tail: TimeGrid
) -> None:
    """Raise IncompatibleContext unless `ctx` was captured for `spec`
    itself, the same family with the same parameters, and `grid_tail`
    extends its grid from the restart node."""
    if spec != ctx.spec:
        raise IncompatibleContext(f"context is for {ctx.spec!r}, spec is {spec!r}")
    if not grids_equal(tail_grid(ctx.grid, ctx.t_index), grid_tail):
        raise IncompatibleContext(
            f"grid_tail {grid_tail} does not extend the context grid from "
            f"node {ctx.t_index}"
        )


def cell_noise_scale(
    spec: ModelSpec, ctx: ConditioningContext, grid_tail: TimeGrid
) -> np.ndarray | None:
    """Per-cell noise scale |s| when the continuation is, conditionally on
    its node values, a Brownian bridge inside every cell.

    Used for within-cell excursion correction of discretely monitored
    sup-norm statistics. That holds when the family states its law (c, s)
    through `increments` and `ctx` freezes no driver, so that s is
    deterministic; |s| is then read off the law of zero rows, which draws
    no normals. Otherwise returns None (then no correction applies).
    """
    if ctx.frozen or not hasattr(spec, "increments"):
        return None
    _, _, s = spec.increments(ctx, grid_tail, None, 0, HkMode.FIXED)
    return np.abs(np.broadcast_to(s, grid_tail.n_steps))


def exact_spread(
    spec: ModelSpec, ctx: ConditioningContext, grid_tail: TimeGrid
) -> np.ndarray | None:
    """The conditional standard deviations of Z - z_t at the tail's middle
    node (n_steps // 2) and its last node, given `ctx`, when the
    continuation is Gaussian; otherwise None.

    That holds where the family states its law (c, s) through
    `increments` and c and s are scalars or rows, the same for every
    replication, as in every FIXED law: z_t + cumsum0(c + s xi) then has
    variance cumsum0(s^2), read off the law of zero rows, which draws no
    normals. It holds too for `MixedFbm` REDRAW, whose fBm rises after
    the restart are the mean plus G22 xi_f (`_fbm_tails`): the weighted
    fBm adds w^2 times the squared norm of the sum of G22's rows up to
    the node. The REDRAW laws of the volatility families, which redraw g
    per replication, get None without a read, as do `SdePrice`,
    `Doleans` and `Bridge`.
    """
    mode = getattr(spec, "hk_mode", HkMode.FIXED)
    if not hasattr(spec, "increments") or (
            isinstance(spec, _VolPrice) and mode is HkMode.REDRAW):
        return None
    mid, m = grid_tail.n_steps // 2, grid_tail.n_steps
    if (isinstance(spec, MixedFbm) and mode is HkMode.REDRAW
            and spec.fbm_weight > 0.0):
        _, g22 = fbm_conditional_factors(spec.hurst, ctx.grid, ctx.t_index)
        head = g22[:mid].sum(axis=0)  # down the factor's contiguous columns
        whole = head + g22[mid:].sum(axis=0)
        var = (np.array([mid, m]) * grid_tail.dt
               + spec.fbm_weight ** 2 * np.array([head @ head, whole @ whole]))
        return np.sqrt(var)
    _, _, s = spec.increments(ctx, grid_tail, None, 0, mode)
    var = np.cumsum(np.concatenate(([0.0], np.broadcast_to(s, m))) ** 2)
    return np.sqrt(var[[mid, m]])


def iter_continuations(
    spec: ModelSpec,
    ctx: ConditioningContext,
    grid_tail: TimeGrid,
    rng: RngStream,
    reps: int,
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (start_index, paths) chunks of conditional continuations, one
    chunk per stream block.

    Replication r is row r mod BLOCK of block r // BLOCK, which draws from
    rng.child(r // BLOCK), so the output does not depend on how chunks
    are distributed over workers, and any `reps` gives a prefix of the
    same rows, byte for byte. Only on numpy builds without the bundled
    OpenBLAS (`gaussian.lower_tri_matmul`'s `matmul` panels) may a shorter
    last block round differently in the fBm families' dense multiply, so
    that the prefix agrees there to machine precision.
    """
    for start, block in blocks(rng, reps):
        yield start, continue_chunk(spec, ctx, grid_tail, block)


def chunk_threads(workers: int, reps: int) -> int:
    """Threads `map_continuations` runs: the request capped at the usable
    CPUs and the number of chunks. BadParams unless reps and workers are
    at least 1."""
    if reps < 1:
        raise BadParams("reps must be >= 1")
    if workers < 1:
        raise BadParams(f"workers must be >= 1, got {workers}")
    return min(workers, core.usable_cpus(), -(-reps // BLOCK))


def map_continuations(
    fn: Callable[[int, np.ndarray], object],
    spec: ModelSpec,
    ctx: ConditioningContext,
    grid_tail: TimeGrid,
    rng: RngStream,
    reps: int,
    workers: int = 1,
) -> list:
    """`[fn(start, paths)]` over the chunks of `iter_continuations`, in
    chunk order, with the chunks run on up to `workers` threads.

    Every block has its own stream, so each chunk's result is the same
    whichever thread computes it. The threads overlap because numpy's
    random fills and array passes release the GIL; `fn` must only read
    shared state. The thread count is the request capped at the usable
    CPUs and the number of chunks (`chunk_threads`). An exception raised
    in any chunk is re-raised here, and the chunks not yet started are
    cancelled.
    """
    n_threads = chunk_threads(workers, reps)
    todo = blocks(rng, reps)

    def run(item: tuple[int, Block]):
        start, block = item
        return fn(start, continue_chunk(spec, ctx, grid_tail, block))

    if n_threads <= 1:
        return list(map(run, todo))
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(n_threads) as pool:
        return list(pool.map(run, todo))


def continue_chunk(
    spec: ModelSpec,
    ctx: ConditioningContext,
    grid_tail: TimeGrid,
    block: Block,
) -> np.ndarray:
    """Continuations for the replications of one stream block; one row each."""
    check_context(spec, ctx, grid_tail)
    gen = block.stream.generator()
    return spec.continuation(ctx, grid_tail, gen, len(block))


def validate_spec(spec: ModelSpec) -> ValidationReport:
    """Check the testable support hypotheses of a model on sampled paths."""
    return ValidationReport(spec.name, spec.checks() + (ValidationCheck(
        "exponential_moment_conditions", "UNCHECKABLE",
        "expectation bounds are not verifiable from finitely many paths"),))
