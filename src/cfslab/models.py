"""Model zoo: each model assembles generators and integrators into a single
"simulate on a grid, then continue conditionally from a restart node"
interface.

Conditioning is on the generator filtration: all driving noise up to the
restart node, plus the whole path of any driver independent of the
integrating Brownian motion. Continuations redraw only what the selected
mode allows; everything else is read from the frozen context.
"""
from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from . import gaussian, jumps
from .core import (
    BadParams,
    FellerWarning,
    IncompatibleContext,
    Path,
    RngStream,
    TimeGrid,
    grids_equal,
    tail_grid,
)
from .gaussian import (
    FouSpec,
    bridge_paths,
    fbm_conditional_factors,
    fou_from_fbm,
    lower_tri_matmul,
)
from .jumps import BnsSpec, CtmcSpec


class ModelTag(enum.Enum):
    MIXED_FBM = "MIXED_FBM"
    WIENER_INTEGRAL = "WIENER_INTEGRAL"
    SV_PRICE = "SV_PRICE"
    BNS_PRICE = "BNS_PRICE"
    COMTE_RENAULT_PRICE = "COMTE_RENAULT_PRICE"
    REGIME_PRICE = "REGIME_PRICE"
    SDE_PRICE = "SDE_PRICE"
    DOLEANS_CE = "DOLEANS_CE"
    BRIDGE_CE = "BRIDGE_CE"


PRICE_TAGS = frozenset({
    ModelTag.SV_PRICE,
    ModelTag.BNS_PRICE,
    ModelTag.COMTE_RENAULT_PRICE,
    ModelTag.REGIME_PRICE,
    ModelTag.SDE_PRICE,
})


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
        if min(self.kappa, self.theta, self.xi) <= 0 or self.v0 < 0:
            raise BadParams("CIR parameters must be positive (v0 >= 0)")

    @property
    def feller_ok(self) -> bool:
        return 2.0 * self.kappa * self.theta >= self.xi ** 2


@dataclass(frozen=True)
class ModelSpec:
    """Tagged, parameterized description of one process.

    Only the fields relevant to `tag` are read; `validate` (called on
    construction) enforces per-tag requirements. Price models simulate the
    log price when log_space is True (the default).
    """

    tag: ModelTag
    name: str = ""
    log_space: bool = True
    hk_mode: HkMode = HkMode.FIXED
    # mixed-fBm parameters
    hurst: float = 0.5
    fbm_weight: float = 0.0
    # deterministic drift/integrand pair for WIENER_INTEGRAL
    h_fn: Callable[[np.ndarray], np.ndarray] | None = None
    k_fn: Callable[[np.ndarray], np.ndarray] | None = None
    # price-model parameters
    p0: float = 1.0
    mu: float = 0.0
    rho: float = 0.0
    sigma: float = 0.2
    cir: CirSpec | None = None
    bns: BnsSpec | None = None
    fou: FouSpec | None = None
    ctmc: CtmcSpec | None = None
    # path-dependent coefficients and bounds for SDE_PRICE
    mu_fn: Callable[[float, np.ndarray], np.ndarray] | None = None
    sigma_fn: Callable[[float, np.ndarray], np.ndarray] | None = None
    mu_bar: float | None = None
    sigma_bar: float | None = None

    def __post_init__(self):
        if not self.name:
            object.__setattr__(self, "name", self.tag.value)
        if not -1.0 < self.rho < 1.0:
            raise BadParams("rho must be in (-1, 1)")
        if self.tag in PRICE_TAGS and self.p0 <= 0:
            raise BadParams("price models require p0 > 0")
        if self.tag is ModelTag.MIXED_FBM and not 0.0 < self.hurst < 1.0:
            raise BadParams("hurst must be in (0, 1)")
        if self.tag is ModelTag.MIXED_FBM and self.fbm_weight < 0:
            raise BadParams("fbm_weight must be >= 0")
        if self.tag is ModelTag.BNS_PRICE and self.bns is None:
            raise BadParams("BNS_PRICE requires a BnsSpec")
        if self.tag is ModelTag.COMTE_RENAULT_PRICE and self.fou is None:
            raise BadParams("COMTE_RENAULT_PRICE requires a FouSpec")
        if self.tag is ModelTag.REGIME_PRICE and self.ctmc is None:
            raise BadParams("REGIME_PRICE requires a CtmcSpec")
        if self.tag in (ModelTag.BNS_PRICE, ModelTag.COMTE_RENAULT_PRICE,
                        ModelTag.REGIME_PRICE) and self.rho != 0.0:
            raise BadParams(f"{self.tag.value} requires rho = 0")
        if self.tag is ModelTag.SDE_PRICE and (
            self.mu_fn is None or self.sigma_fn is None
        ):
            raise BadParams("SDE_PRICE requires mu_fn and sigma_fn")
        if self.tag is ModelTag.WIENER_INTEGRAL and self.k_fn is None:
            raise BadParams("WIENER_INTEGRAL requires k_fn")

    @property
    def positive_state(self) -> bool:
        """True when the reported process is strictly positive in R."""
        if self.tag is ModelTag.DOLEANS_CE:
            return True
        return self.tag in PRICE_TAGS and not self.log_space


@dataclass(frozen=True)
class ConditioningContext:
    """Realized drivers up to the restart node, plus the frozen full paths
    of drivers independent of the integrating Brownian motion."""

    tag: ModelTag
    grid: TimeGrid
    t_index: int
    z_values: np.ndarray  # reported-process history, nodes 0..t_index
    frozen: dict

    @property
    def z_t(self) -> float:
        return float(self.z_values[-1])

    @property
    def t_under(self) -> float:
        return float(self.grid.nodes[self.t_index])


# ---------------------------------------------------------------------------
# helpers

def _cumsum0(x: np.ndarray) -> np.ndarray:
    """Cumulative sums along the last axis, with a leading zero."""
    out = np.zeros(x.shape[:-1] + (x.shape[-1] + 1,))
    np.cumsum(x, axis=-1, out=out[..., 1:])
    return out


def _fresh_normals(streams: list[RngStream], m: int, n_sources: int) -> list[np.ndarray]:
    """Per-replication standard normals, one row per stream.

    Each replication draws from its own counter-based stream in a fixed
    source order, so results do not depend on chunking or worker count.
    """
    flat = np.empty((len(streams), n_sources * m))
    for r, s in enumerate(streams):
        flat[r] = s.generator().standard_normal(n_sources * m)
    return [flat[:, i * m : (i + 1) * m] for i in range(n_sources)]


def _vol_drivers(spec: ModelSpec, grid: TimeGrid, rng: RngStream):
    """Volatility path sigma(t) at nodes plus its drivers, per price model."""
    n = grid.n_steps
    frozen: dict = {}
    db = rng.child(1).generator().normal(0.0, np.sqrt(grid.dt), n)
    if spec.tag is ModelTag.SV_PRICE and spec.cir is not None:
        c = spec.cir
        if not c.feller_ok:
            warnings.warn(
                "2*kappa*theta < xi**2: variance can hit zero", FellerWarning,
                stacklevel=3)
        v = np.empty(n + 1)
        v[0] = c.v0
        for i in range(n):
            vp = max(v[i], 0.0)
            v[i + 1] = v[i] + c.kappa * (c.theta - vp) * grid.dt \
                + c.xi * np.sqrt(vp) * db[i]
        g = np.sqrt(np.clip(v, 0.0, None))
        frozen["v"] = v
    elif spec.tag is ModelTag.SV_PRICE:
        v = np.full(n + 1, spec.sigma)
        g = v.copy()
        frozen["v"] = v
    elif spec.tag is ModelTag.BNS_PRICE:
        v = jumps.gen_bns_vol(grid, spec.bns, rng.child(1)).values
        g = np.sqrt(v)
        frozen["v"] = v
    elif spec.tag is ModelTag.COMTE_RENAULT_PRICE:
        fbm = gaussian.gen_fbm(grid, gaussian.FbmSpec(spec.fou.hurst), rng.child(1))
        v = fou_from_fbm(grid, spec.fou, fbm.values)
        g = np.exp(v)
        frozen["v"] = v
        frozen["fbm"] = fbm.values
    elif spec.tag is ModelTag.REGIME_PRICE:
        frozen["state"] = jumps.ctmc_states(
            grid, spec.ctmc, spec.ctmc.initial_state, rng.child(1).generator())
        g = spec.ctmc.vol_levels[frozen["state"]]
        frozen["v"] = g
    else:
        raise BadParams(f"not a volatility-driven price model: {spec.tag}")
    frozen["g"] = g
    frozen["db"] = db
    return g, db, frozen


# ---------------------------------------------------------------------------
# simulate

def simulate(
    spec: ModelSpec, grid: TimeGrid, rng: RngStream, t_index: int = 0
) -> tuple[Path, ConditioningContext]:
    """Simulate the model on the grid and capture the conditioning context
    at node t_index."""
    if not 0 <= t_index < grid.n_steps:
        raise BadParams(f"t_index {t_index} not in [0, {grid.n_steps})")
    n = grid.n_steps
    t = np.asarray(grid.nodes)
    frozen: dict = {}
    tag = spec.tag

    if tag is ModelTag.BRIDGE_CE:
        dw = rng.child(0).generator().normal(0.0, np.sqrt(grid.dt), n)
        terminal = rng.child(2).generator().normal(0.0, np.sqrt(grid.span))
        z = _bridge_euler(grid, terminal, dw)
        frozen["terminal"] = terminal
    else:
        w = gaussian.gen_brownian(grid, rng.child(0)).values
        dw = np.diff(w)
        frozen["w"] = w
        if tag is ModelTag.MIXED_FBM:
            if spec.fbm_weight > 0.0:
                fbm = gaussian.gen_fbm(
                    grid, gaussian.FbmSpec(spec.hurst), rng.child(1)).values
            else:
                fbm = np.zeros(n + 1)
            z = spec.fbm_weight * fbm + w
            frozen["fbm"] = fbm
        elif tag is ModelTag.WIENER_INTEGRAL:
            hvals = spec.h_fn(t) if spec.h_fn is not None else np.zeros(n + 1)
            kvals = spec.k_fn(t)
            z = hvals + _cumsum0(kvals[:-1] * dw)
        elif tag is ModelTag.DOLEANS_CE:
            z = np.exp(w - 0.5 * (t - t[0]))
        elif tag is ModelTag.SDE_PRICE:
            lz = np.empty(n + 1)
            lz[0] = np.log(spec.p0)
            for i in range(n):
                p = np.exp(lz[i])
                m = float(spec.mu_fn(t[i], p))
                s = float(spec.sigma_fn(t[i], p))
                lz[i + 1] = lz[i] + (m / p - s * s / (2 * p * p)) * grid.dt \
                    + (s / p) * dw[i]
            frozen["lz"] = lz
            z = lz if spec.log_space else np.exp(lz)
        else:
            gpath, db, vol_frozen = _vol_drivers(spec, grid, rng)
            frozen.update(vol_frozen)
            root = np.sqrt(1.0 - spec.rho ** 2)
            drift = _cumsum0((spec.mu - 0.5 * gpath[:-1] ** 2) * grid.dt)
            lz = np.log(spec.p0) + drift + spec.rho * _cumsum0(gpath[:-1] * db) \
                + root * _cumsum0(gpath[:-1] * dw)
            frozen["lz"] = lz
            z = lz if spec.log_space else np.exp(lz)

    path = Path(grid, z)
    ctx = ConditioningContext(
        tag=tag,
        grid=grid,
        t_index=t_index,
        z_values=z[: t_index + 1].copy(),
        frozen=frozen,
    )
    return path, ctx


def _bridge_euler(grid: TimeGrid, terminal: float, dw: np.ndarray) -> np.ndarray:
    """Singular-drift reconstruction of a pinned Brownian path.

    Integrates the drift (terminal - Z_s) / (T - s) with the closed-form
    cell integral of 1/(T - s) frozen at the left numerator, pinning the
    final cell exactly.
    """
    rem = grid.t_end - np.asarray(grid.nodes)
    z = np.empty(grid.n_steps + 1)
    z[0] = 0.0
    for i in range(grid.n_steps - 1):
        z[i + 1] = z[i] + (terminal - z[i]) * np.log(rem[i] / rem[i + 1]) + dw[i]
    z[-1] = terminal
    return z


# ---------------------------------------------------------------------------
# conditional continuation

def _check_tail(ctx: ConditioningContext, grid_tail: TimeGrid) -> None:
    expected = tail_grid(ctx.grid, ctx.t_index)
    if not grids_equal(expected, grid_tail):
        raise IncompatibleContext(
            f"grid_tail {grid_tail} does not extend the context grid from "
            f"node {ctx.t_index}"
        )


def continue_conditional(
    spec: ModelSpec, ctx: ConditioningContext, grid_tail: TimeGrid, rng: RngStream
) -> Path:
    """One conditional continuation on [t_under, T], starting at z(t_under)."""
    block = continue_chunk(spec, ctx, grid_tail, [rng])
    return Path(grid_tail, block[0])


def cell_noise_scale(
    spec: ModelSpec, ctx: ConditioningContext, grid_tail: TimeGrid
) -> np.ndarray | None:
    """Per-cell noise scale when the continuation is, conditionally on its
    node values, a Brownian bridge inside every cell.

    Used for within-cell excursion correction of discretely monitored
    sup-norm statistics. Returns None for models whose local behavior is
    not Brownian with a deterministic scale (then no correction applies).
    """
    sdt = np.sqrt(grid_tail.dt)
    if spec.tag is ModelTag.MIXED_FBM and spec.fbm_weight == 0.0:
        return np.full(grid_tail.n_steps, sdt)
    if spec.tag is ModelTag.WIENER_INTEGRAL:
        left = np.asarray(grid_tail.nodes)[:-1]
        k = np.abs(np.asarray(spec.k_fn(left), dtype=float))
        return k * sdt
    return None


def iter_continuations(
    spec: ModelSpec,
    ctx: ConditioningContext,
    grid_tail: TimeGrid,
    rng: RngStream,
    reps: int,
    chunk_size: int = 1024,
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (start_index, block) chunks of per-replication continuations.

    Replication r always uses stream rng.child(r), so the output is
    independent of how chunks are distributed over workers, and byte
    identical for a fixed chunk size. Across different chunk sizes the
    noise is identical but vectorized linear algebra may round in a
    different order, so agreement is to machine precision, not bytes.
    """
    for start in range(0, reps, chunk_size):
        stop = min(start + chunk_size, reps)
        streams = [rng.child(r) for r in range(start, stop)]
        yield start, continue_chunk(spec, ctx, grid_tail, streams)


def continue_chunk(
    spec: ModelSpec,
    ctx: ConditioningContext,
    grid_tail: TimeGrid,
    streams: list[RngStream],
) -> np.ndarray:
    """Continuations for a batch of replication streams; one row each."""
    if spec.tag is not ctx.tag:
        raise IncompatibleContext(f"context is for {ctx.tag}, spec is {spec.tag}")
    _check_tail(ctx, grid_tail)
    i0 = ctx.t_index
    m = grid_tail.n_steps
    dt = grid_tail.dt
    tag = spec.tag
    tail_t = np.asarray(grid_tail.nodes)
    redraw = spec.hk_mode is HkMode.REDRAW

    if tag is ModelTag.MIXED_FBM:
        if redraw and spec.fbm_weight > 0:
            xi_w, xi_f = _fresh_normals(streams, m, 2)
        else:
            (xi_w,) = _fresh_normals(streams, m, 1)
        w_hat = _cumsum0(xi_w * np.sqrt(dt))
        if spec.fbm_weight == 0.0:
            return ctx.z_t + w_hat
        fbm = ctx.frozen["fbm"]
        if not redraw:
            det = spec.fbm_weight * (fbm[i0:] - fbm[i0])
            return ctx.z_t + det[None, :] + w_hat
        rel = np.concatenate(
            (np.zeros((len(streams), 1)),
             _fbm_tails(spec.hurst, ctx, xi_f) - fbm[i0]), axis=1)
        return ctx.z_t + spec.fbm_weight * rel + w_hat

    if tag is ModelTag.WIENER_INTEGRAL:
        (xi_w,) = _fresh_normals(streams, m, 1)
        kvals = spec.k_fn(tail_t)
        hvals = spec.h_fn(tail_t) if spec.h_fn is not None else np.zeros(m + 1)
        stoch = _cumsum0(kvals[:-1][None, :] * xi_w * np.sqrt(dt))
        return ctx.z_t + (hvals - hvals[0])[None, :] + stoch

    if tag is ModelTag.DOLEANS_CE:
        (xi_w,) = _fresh_normals(streams, m, 1)
        w_hat = _cumsum0(xi_w * np.sqrt(dt))
        return ctx.z_t * np.exp(w_hat - 0.5 * (tail_t - tail_t[0])[None, :])

    if tag is ModelTag.BRIDGE_CE:
        (xi,) = _fresh_normals(streams, m, 1)
        return bridge_paths(grid_tail, ctx.z_t, ctx.frozen["terminal"], xi)

    if tag is ModelTag.SDE_PRICE:
        (xi_w,) = _fresh_normals(streams, m, 1)
        dw = xi_w * np.sqrt(dt)
        lz = np.empty((len(streams), m + 1))
        lz[:, 0] = float(ctx.frozen["lz"][i0])
        for i in range(m):
            p = np.exp(lz[:, i])
            mu = np.asarray(spec.mu_fn(tail_t[i], p), dtype=float)
            sg = np.asarray(spec.sigma_fn(tail_t[i], p), dtype=float)
            lz[:, i + 1] = lz[:, i] + (mu / p - sg * sg / (2 * p * p)) * dt \
                + (sg / p) * dw[:, i]
        return lz if spec.log_space else np.exp(lz)

    return _continue_vol_price(spec, ctx, grid_tail, streams)


def _fbm_tails(hurst: float, ctx: ConditioningContext, xi: np.ndarray) -> np.ndarray:
    """fBm at the nodes after the restart, one row per row of the standard
    normals `xi`, from its exact conditional law given the frozen history."""
    i0 = ctx.t_index
    a, factor = fbm_conditional_factors(hurst, ctx.grid, i0)
    past = ctx.frozen["fbm"][1 : i0 + 1]
    mean = a @ past if i0 > 0 else np.zeros(ctx.grid.n_steps)
    return mean[None, :] + lower_tri_matmul(xi, factor)


def _continue_vol_price(spec, ctx, grid_tail, streams):
    i0 = ctx.t_index
    m = grid_tail.n_steps
    dt = grid_tail.dt
    tail_t = np.asarray(grid_tail.nodes)
    root = np.sqrt(1.0 - spec.rho ** 2)
    lz_t = float(ctx.frozen["lz"][i0])
    redraw = spec.hk_mode is HkMode.REDRAW

    if not redraw or (spec.tag is ModelTag.SV_PRICE and spec.cir is None):
        (xi_w,) = _fresh_normals(streams, m, 1)
        g = ctx.frozen["g"][i0:]
        db = ctx.frozen["db"][i0:]
        det = _cumsum0((spec.mu - 0.5 * g[:-1] ** 2) * dt
                       + spec.rho * g[:-1] * db)
        lz = lz_t + det[None, :] + root * _cumsum0(g[:-1][None, :] * xi_w * np.sqrt(dt))
        return lz if spec.log_space else np.exp(lz)

    if spec.tag is ModelTag.SV_PRICE:
        xi_w, xi_b = _fresh_normals(streams, m, 2)
        c = spec.cir
        n = len(streams)
        v = np.full(n, float(ctx.frozen["v"][i0]))
        lz = np.empty((n, m + 1))
        lz[:, 0] = lz_t
        sdt = np.sqrt(dt)
        vp = np.empty(n)
        g = np.empty(n)
        dbi = np.empty(n)
        step = np.empty(n)
        for i in range(m):
            np.clip(v, 0.0, None, out=vp)
            np.sqrt(vp, out=g)
            np.multiply(xi_b[:, i], sdt, out=dbi)
            np.multiply(g, spec.rho * dbi + root * sdt * xi_w[:, i], out=step)
            step += spec.mu * dt
            step -= 0.5 * dt * vp
            np.add(lz[:, i], step, out=lz[:, i + 1])
            vp -= c.theta
            vp *= -c.kappa * dt
            v += vp
            dbi *= c.xi * g
            v += dbi
        return lz if spec.log_space else np.exp(lz)

    if spec.tag is ModelTag.COMTE_RENAULT_PRICE:
        xi_w, xi_f = _fresh_normals(streams, m, 2)
        fbm = ctx.frozen["fbm"]
        full = np.concatenate(
            (np.broadcast_to(fbm[: i0 + 1], (len(streams), i0 + 1)),
             _fbm_tails(spec.fou.hurst, ctx, xi_f)), axis=1)
        g = np.exp(fou_from_fbm(ctx.grid, spec.fou, full)[:, i0:])
        drift = np.cumsum((spec.mu - 0.5 * g[:, :-1] ** 2) * dt, axis=1)
        lz = np.empty((len(streams), m + 1))
        lz[:, 0] = lz_t
        lz[:, 1:] = lz_t + drift + np.cumsum(
            g[:, :-1] * xi_w * np.sqrt(dt), axis=1)
        return lz if spec.log_space else np.exp(lz)

    # BNS_PRICE and REGIME_PRICE redraw their Markov volatility per
    # replication (event-driven), then integrate the log price.
    n = len(streams)
    lz = np.empty((n, m + 1))
    lz[:, 0] = lz_t
    dw = np.empty((n, m))
    gm = np.empty((n, m))
    sdt = np.sqrt(dt)
    for r, s in enumerate(streams):
        gen = s.generator()
        dw[r] = gen.standard_normal(m)
        if spec.tag is ModelTag.BNS_PRICE:
            v = jumps.bns_forward(spec.bns, float(ctx.frozen["v"][i0]), grid_tail, gen)
            gm[r] = np.sqrt(v[:-1])
        else:
            states = jumps.ctmc_states(grid_tail, spec.ctmc,
                                       int(ctx.frozen["state"][i0]), gen)
            gm[r] = spec.ctmc.vol_levels[states[:-1]]
    dw *= sdt
    dw *= gm
    gm *= gm
    gm *= -0.5 * dt
    gm += spec.mu * dt
    gm += dw
    np.cumsum(gm, axis=1, out=lz[:, 1:])
    lz[:, 1:] += lz_t
    return lz if spec.log_space else np.exp(lz)


# ---------------------------------------------------------------------------
# validation

@dataclass(frozen=True)
class ValidationCheck:
    name: str
    status: str  # PASS | FAIL | UNCHECKABLE
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    model: str
    checks: tuple[ValidationCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.status != "FAIL" for c in self.checks)


_VALIDATE_GRID = TimeGrid(0.0, 1.0, 256)
_VALIDATE_PATHS = 100


def validate_spec(spec: ModelSpec) -> ValidationReport:
    """Check the testable support hypotheses of a model on sampled paths."""
    checks: list[ValidationCheck] = []
    rng = RngStream(0, 0)
    tag = spec.tag

    if tag is ModelTag.MIXED_FBM:
        checks.append(ValidationCheck(
            "integrand_nonvanishing", "PASS", "k = 1 has an empty zero set"))
    elif tag is ModelTag.WIENER_INTEGRAL:
        kv = spec.k_fn(np.asarray(_VALIDATE_GRID.nodes))
        zero = int(np.sum(kv == 0.0))
        checks.append(ValidationCheck(
            "integrand_nonvanishing",
            "PASS" if zero == 0 else "FAIL",
            f"{zero} zero nodes on the validation grid"))
        checks.append(ValidationCheck(
            "integrand_bounded_away_from_zero",
            "PASS" if np.min(np.abs(kv)) > 0 else "FAIL",
            f"min |k| = {np.min(np.abs(kv)):.3g}"))
    elif tag is ModelTag.DOLEANS_CE:
        checks.append(ValidationCheck(
            "full_support_possible", "FAIL",
            "Z strictly positive; full support in R impossible"))
    elif tag is ModelTag.BRIDGE_CE:
        checks.append(ValidationCheck(
            "full_support_possible", "FAIL",
            "terminal value pinned under the enlarged filtration"))
    elif tag is ModelTag.SDE_PRICE:
        if spec.mu_bar is None or spec.sigma_bar is None:
            checks.append(ValidationCheck(
                "coefficient_bounds", "UNCHECKABLE", "no bounds supplied"))
        else:
            ok = True
            worst = ""
            for i in range(_VALIDATE_PATHS):
                z, _ = simulate(spec, _VALIDATE_GRID, rng.child(i))
                p = np.exp(z.values) if spec.log_space else z.values
                t = np.asarray(_VALIDATE_GRID.nodes)
                for ti, pi in zip(t, p):
                    mu = abs(float(spec.mu_fn(ti, pi)))
                    sg = abs(float(spec.sigma_fn(ti, pi)))
                    if mu > spec.mu_bar * pi + 1e-12:
                        ok, worst = False, f"|mu| = {mu:.3g} > bound at t={ti:.3g}"
                    if not (pi / spec.sigma_bar - 1e-12 <= sg <= spec.sigma_bar * pi + 1e-12):
                        ok, worst = False, f"sigma = {sg:.3g} out of band at t={ti:.3g}"
            checks.append(ValidationCheck(
                "coefficient_bounds", "PASS" if ok else "FAIL", worst))
    elif tag in PRICE_TAGS:
        bad = 0
        for i in range(_VALIDATE_PATHS):
            _, ctx = simulate(spec, _VALIDATE_GRID, rng.child(i))
            if np.any(ctx.frozen["g"] <= 0.0):
                bad += 1
        checks.append(ValidationCheck(
            "volatility_positive",
            "PASS" if bad == 0 else "FAIL",
            f"{bad}/{_VALIDATE_PATHS} sampled paths had nonpositive volatility"))
    checks.append(ValidationCheck(
        "exponential_moment_conditions", "UNCHECKABLE",
        "expectation bounds are not verifiable from finitely many paths"))
    return ValidationReport(spec.name, tuple(checks))
