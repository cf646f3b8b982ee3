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
    of drivers independent of the integrating Brownian motion."""

    tag: str
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
# rows per fOU tile of a Comte-Renault REDRAW chunk: the tile's three (8, m)
# temporaries stay under 5% of a 512-row block, and a 1024-row chunk at 2^11
# steps, restart 1024, runs as fast as with 32-row tiles (about 118 ms on a
# 2-vCPU Xeon) and 7% faster than with 4-row tiles
_FOU_TILE_ROWS = 8


# ---------------------------------------------------------------------------
# helpers

def _fresh_normals(gen: np.random.Generator, rows: int, m: int,
                   n_sources: int = 1,
                   then: Callable | None = None) -> list[np.ndarray]:
    """One block's draws: the chunk's (rows, m + 1) output array, column 0
    zero and source 0's normals in columns 1:, which the continuation
    finishes and returns; then a C-contiguous (rows, m) array per further
    source and, if `then` is given, one more holding `then(gen)` per row.
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


def _fbm_tails(hurst: float, ctx: ConditioningContext, xi: np.ndarray) -> np.ndarray:
    """fBm at the nodes after the restart, one row per row of the
    C-contiguous standard normals `xi`, from its exact conditional law
    given the frozen history; returned in `xi`."""
    i0 = ctx.t_index
    a, factor = fbm_conditional_factors(hurst, ctx.grid, i0)
    tails = lower_tri_matmul(xi, factor)
    tails += a @ ctx.frozen["fbm"][1 : i0 + 1]
    return tails


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
    own parameters and implements `history(grid, rng)`, the values at every
    node plus the drivers a continuation reads, and `continuation(ctx,
    grid_tail, gen, rows)`, `rows` continuations drawn from the block
    generator `gen`; the module-level entry points dispatch to it. Price
    families report the log price, started at log 1 = 0.
    """

    tag: ClassVar[str]  # family name in contexts and in `cfslab models`
    summary: ClassVar[str]  # its line in `cfslab models`
    positive_state: ClassVar[bool] = False  # reported process > 0 in R

    name: str = ""

    def __post_init__(self):
        if not self.name:
            object.__setattr__(self, "name", self.tag)

    def noise_scale(self, ctx, grid_tail) -> np.ndarray | None:
        return None  # see `cell_noise_scale`

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

    def history(self, grid, rng):
        w = gaussian.gen_brownian(grid, rng.child(0)).values
        if self.fbm_weight > 0.0:
            fbm = gaussian.gen_fbm(
                grid, gaussian.FbmSpec(self.hurst), rng.child(1)).values
        else:
            fbm = np.zeros(grid.n_steps + 1)
        return self.fbm_weight * fbm + w, {"fbm": fbm}

    def continuation(self, ctx, grid_tail, gen, rows):
        redraw = self.hk_mode is HkMode.REDRAW and self.fbm_weight > 0
        w_hat, *xi_f = _fresh_normals(gen, rows, grid_tail.n_steps, 1 + redraw)
        # W is scaled and summed in place; the leading zero stays zero
        w_hat *= np.sqrt(grid_tail.dt)
        np.cumsum(w_hat, axis=1, out=w_hat)
        if self.fbm_weight == 0.0:
            w_hat += ctx.z_t
            return w_hat
        fbm, i0 = ctx.frozen["fbm"], ctx.t_index
        if not redraw:
            w_hat += ctx.z_t + self.fbm_weight * (fbm[i0:] - fbm[i0])
        else:
            rel = _fbm_tails(self.hurst, ctx, xi_f[0])
            rel -= fbm[i0]
            rel *= self.fbm_weight
            rel += ctx.z_t
            w_hat[:, 0] += ctx.z_t
            w_hat[:, 1:] += rel
        return w_hat

    def noise_scale(self, ctx, grid_tail):
        if self.fbm_weight == 0.0:
            return np.full(grid_tail.n_steps, np.sqrt(grid_tail.dt))
        return None

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

    def history(self, grid, rng):
        t = np.asarray(grid.nodes)
        z = np.diff(gaussian.gen_brownian(grid, rng.child(0)).values, prepend=0.0)
        z[1:] *= self.k_fn(t)[:-1]
        return self.h_fn(t) + np.cumsum(z, out=z), {}

    def continuation(self, ctx, grid_tail, gen, rows):
        (z,) = _fresh_normals(gen, rows, grid_tail.n_steps)
        tail_t = np.asarray(grid_tail.nodes)
        hvals = self.h_fn(tail_t)
        z[:, 1:] *= self.k_fn(tail_t)[:-1]
        z *= np.sqrt(grid_tail.dt)
        np.cumsum(z, axis=1, out=z)
        z += ctx.z_t + (hvals - hvals[0])
        return z

    def noise_scale(self, ctx, grid_tail):
        left = np.asarray(grid_tail.nodes)[:-1]
        k = np.abs(np.asarray(self.k_fn(left), dtype=float))
        return k * np.sqrt(grid_tail.dt)

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
    """Log price with d log P = (mu - g^2/2) dt + g dW and volatility g.

    A family supplies `_volatility(grid, rng)`, g at the nodes plus its
    frozen drivers, and for REDRAW either `_markov_vol(ctx, grid_tail,
    gen)`, one replication's g on the tail cells, or its own `_redraw`
    returning the W normals and g per replication. `_log_price`
    integrates the log price for the history and every continuation.
    g is independent of W except in `Heston`, whose variance is driven by
    a Brownian B with d<W, B> = rho dt.
    """

    mu: float = 0.0
    hk_mode: HkMode = HkMode.FIXED

    _root = 1.0  # weight of W in the price noise

    def __post_init__(self):
        super().__post_init__()
        if not np.isfinite(self.mu):
            raise BadParams("mu must be finite")

    def _cell_drift(self, g, dt, frozen, i0, out=None):
        """(mu - g^2 / 2) dt per cell, into `out` (which may be g)."""
        out = np.multiply(np.square(g, out=out), 0.5, out=out)
        return np.multiply(np.subtract(self.mu, out, out=out), dt, out=out)

    def _log_price(self, z0, g, z, scale, dt, frozen, i0):
        """Finish z, a path or one row per replication whose columns 1:
        hold standard normals xi, as z0 + cumsum0(cell drift) + root *
        cumsum0(g * xi * scale) for the per-cell left-point volatility g
        from node i0 on: a row, or one row per replication (overwritten)."""
        x = z[..., 1:]
        x *= g
        drift = self._cell_drift(g, dt, frozen, i0, g if g.ndim > 1 else None)
        z *= scale
        np.cumsum(z, axis=-1, out=z)
        z *= self._root
        np.cumsum(drift, axis=-1, out=drift)
        drift += z0
        z[..., 0] += z0
        x += drift
        return z

    def history(self, grid, rng):
        z = np.diff(gaussian.gen_brownian(grid, rng.child(0)).values, prepend=0.0)
        g, frozen = self._volatility(grid, rng)
        frozen["g"] = g
        return self._log_price(0.0, g[:-1], z, 1.0, grid.dt, frozen, 0), frozen

    def continuation(self, ctx, grid_tail, gen, rows):
        if self.hk_mode is HkMode.REDRAW:
            z, g = self._redraw(ctx, grid_tail, gen, rows)
        else:
            (z,) = _fresh_normals(gen, rows, grid_tail.n_steps)
            g = ctx.frozen["g"][ctx.t_index : -1]
        dt = grid_tail.dt
        return self._log_price(ctx.z_t, g, z, np.sqrt(dt), dt, ctx.frozen,
                               ctx.t_index)

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

    @property
    def _root(self) -> float:
        return np.sqrt(1.0 - self.rho ** 2)

    def _cell_drift(self, g, dt, frozen, i0, out=None):
        leverage = self.rho * g * frozen["db"][i0:]
        return np.add(super()._cell_drift(g, dt, frozen, i0, out), leverage, out=out)

    def _volatility(self, grid, rng):
        n = grid.n_steps
        c = self.cir
        db = rng.child(1).generator().normal(0.0, np.sqrt(grid.dt), n)
        if not c.feller_ok:
            warnings.warn(
                "2*kappa*theta < xi**2: variance can hit zero", FellerWarning,
                stacklevel=4)
        v = np.empty(n + 1)
        v[0] = c.v0
        for i in range(n):
            vp = max(v[i], 0.0)
            v[i + 1] = v[i] + c.kappa * (c.theta - vp) * grid.dt \
                + c.xi * np.sqrt(vp) * db[i]
        return np.sqrt(np.clip(v, 0.0, None)), {"v": v, "db": db}

    def continuation(self, ctx, grid_tail, gen, rows):
        if self.hk_mode is HkMode.FIXED:
            return super().continuation(ctx, grid_tail, gen, rows)
        # REDRAW: v and the price advance together, one Euler step per
        # cell, whose W normal is read before its end node overwrites it
        m = grid_tail.n_steps
        dt = grid_tail.dt
        lz, xi_b = _fresh_normals(gen, rows, m, 2)
        c = self.cir
        root = self._root
        v = np.full(rows, float(ctx.frozen["v"][ctx.t_index]))
        lz[:, 0] = ctx.z_t
        sdt = np.sqrt(dt)
        vp, g, dbi, step = np.empty((4, rows))
        for i in range(m):
            np.clip(v, 0.0, None, out=vp)
            np.sqrt(vp, out=g)
            np.multiply(xi_b[:, i], sdt, out=dbi)
            np.multiply(g, self.rho * dbi + root * sdt * lz[:, i + 1], out=step)
            step += self.mu * dt
            step -= 0.5 * dt * vp
            np.add(lz[:, i], step, out=lz[:, i + 1])
            vp -= c.theta
            vp *= -c.kappa * dt
            v += vp
            dbi *= c.xi * g
            v += dbi
        return lz


@dataclass(frozen=True, kw_only=True)
class Bns(_VolPrice):
    tag = "BNS_PRICE"
    summary = ("price with subordinator-driven mean-reverting variance"
               " (decay, jump law, window)")

    bns: BnsSpec

    def _volatility(self, grid, rng):
        v = jumps.gen_bns_vol(grid, self.bns, rng.child(1)).values
        return np.sqrt(v), {"v": v}

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

    def _volatility(self, grid, rng):
        fbm = gaussian.gen_fbm(grid, gaussian.FbmSpec(self.fou.hurst), rng.child(1))
        v = fou_from_fbm(grid, self.fou, fbm.values)
        return np.exp(v), {"v": v, "fbm": fbm.values}

    def _redraw(self, ctx, grid_tail, gen, rows):
        # fOU from the restart node on, seeded with the history's quadrature
        # sum, in row tiles that overwrite the fBm they are built from
        i0 = ctx.t_index
        z, xi_f = _fresh_normals(gen, rows, grid_tail.n_steps, 2)
        fbm = ctx.frozen["fbm"]
        tails = _fbm_tails(self.fou.hurst, ctx, xi_f)
        cum0 = fou_quadrature(ctx.grid, self.fou, fbm[: i0 + 1])[-1]
        for lo in range(0, rows, _FOU_TILE_ROWS):
            g = tails[lo : lo + _FOU_TILE_ROWS]
            b = np.concatenate((np.full((len(g), 1), fbm[i0]), g[:, :-1]), axis=1)
            np.exp(fou_from_fbm(ctx.grid, self.fou, b, i0, cum0), out=g)
        return z, tails


@dataclass(frozen=True, kw_only=True)
class Regime(_VolPrice):
    tag = "REGIME_PRICE"
    summary = ("price whose volatility follows a continuous-time Markov chain"
               " (generator, vol_levels, start_state)")

    ctmc: CtmcSpec

    def _volatility(self, grid, rng):
        state = jumps.ctmc_states(
            grid, self.ctmc, self.ctmc.initial_state, rng.child(1).generator())
        g = self.ctmc.vol_levels[state]
        return g, {"state": state, "v": g}

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

    def history(self, grid, rng):
        w = gaussian.gen_brownian(grid, rng.child(0)).values
        return self._euler(grid, 0.0, np.diff(w, prepend=0.0)[None, :])[0], {}

    def continuation(self, ctx, grid_tail, gen, rows):
        (lz,) = _fresh_normals(gen, rows, grid_tail.n_steps)
        lz *= np.sqrt(grid_tail.dt)
        return self._euler(grid_tail, ctx.z_t, lz)

    def _euler(self, grid, lz0, lz):
        """Log-price Euler paths from lz0, in place in `lz`, whose columns
        1: hold each row's W increments (each read before it is overwritten)."""
        dt = grid.dt
        t = np.asarray(grid.nodes)
        lz[:, 0] = lz0
        for i in range(grid.n_steps):
            p = np.exp(lz[:, i])
            mu = np.asarray(self.mu_fn(t[i], p), dtype=float)
            sg = np.asarray(self.sigma_fn(t[i], p), dtype=float)
            lz[:, i + 1] = lz[:, i] + (mu / p - sg * sg / (2 * p * p)) * dt \
                + (sg / p) * lz[:, i + 1]
        return lz

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

    def history(self, grid, rng):
        t = np.asarray(grid.nodes)
        w = gaussian.gen_brownian(grid, rng.child(0)).values
        return np.exp(w - 0.5 * (t - t[0])), {}

    def continuation(self, ctx, grid_tail, gen, rows):
        tail_t = np.asarray(grid_tail.nodes)
        (z,) = _fresh_normals(gen, rows, grid_tail.n_steps)
        z *= np.sqrt(grid_tail.dt)
        np.cumsum(z, axis=1, out=z)
        z -= 0.5 * (tail_t - tail_t[0])
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

    def history(self, grid, rng):
        # Singular-drift reconstruction of the pinned path: the drift
        # (terminal - Z_s) / (T - s) is integrated with the closed-form cell
        # integral of 1/(T - s) frozen at the left numerator, pinning the
        # final cell exactly.
        dw = rng.child(0).generator().normal(0.0, np.sqrt(grid.dt), grid.n_steps)
        terminal = rng.child(2).generator().normal(0.0, np.sqrt(grid.span))
        rem = grid.t_end - np.asarray(grid.nodes)
        z = np.empty(grid.n_steps + 1)
        z[0] = 0.0
        for i in range(grid.n_steps - 1):
            z[i + 1] = z[i] + (terminal - z[i]) * np.log(rem[i] / rem[i + 1]) + dw[i]
        z[-1] = terminal
        return z, {"terminal": terminal}

    def continuation(self, ctx, grid_tail, gen, rows):
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
    at node t_index."""
    if not 0 <= t_index < grid.n_steps:
        raise BadParams(f"t_index {t_index} not in [0, {grid.n_steps})")
    z, frozen = spec.history(grid, rng)
    path = Path(grid, z)
    ctx = ConditioningContext(
        tag=spec.tag,
        grid=grid,
        t_index=t_index,
        z_values=z[: t_index + 1].copy(),
        frozen=frozen,
    )
    return path, ctx


def check_context(
    spec: ModelSpec, ctx: ConditioningContext, grid_tail: TimeGrid
) -> None:
    """Raise IncompatibleContext unless `ctx` was captured for the family
    of `spec` and `grid_tail` extends its grid from the restart node."""
    if spec.tag != ctx.tag:
        raise IncompatibleContext(f"context is for {ctx.tag}, spec is {spec.tag}")
    if not grids_equal(tail_grid(ctx.grid, ctx.t_index), grid_tail):
        raise IncompatibleContext(
            f"grid_tail {grid_tail} does not extend the context grid from "
            f"node {ctx.t_index}"
        )


def cell_noise_scale(
    spec: ModelSpec, ctx: ConditioningContext, grid_tail: TimeGrid
) -> np.ndarray | None:
    """Per-cell noise scale when the continuation is, conditionally on its
    node values, a Brownian bridge inside every cell.

    Used for within-cell excursion correction of discretely monitored
    sup-norm statistics. Returns None for models whose local behavior is
    not Brownian with a deterministic scale (then no correction applies).
    """
    return spec.noise_scale(ctx, grid_tail)


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
    same rows. A shorter last block may round differently in the fBm
    families' dense multiply, so that prefix agrees to machine precision
    there and byte for byte elsewhere.
    """
    for start, block in blocks(rng, reps):
        yield start, continue_chunk(spec, ctx, grid_tail, block)


def chunk_threads(workers: int, reps: int) -> int:
    """Threads `map_continuations` runs: the request capped at the usable
    CPUs and the number of chunks."""
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
