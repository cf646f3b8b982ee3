"""Subordinators, the decaying-subordinator volatility process, and
continuous-time Markov chain volatility."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import BadGenerator, BadParams, Path, RngStream, TimeGrid


@dataclass(frozen=True)
class SubordinatorSpec:
    """Driftless compound Poisson subordinator started at 0: jumps at rate
    jump_rate, exponential sizes with mean jump_mean."""

    jump_rate: float = 0.0
    jump_mean: float = 1.0

    def __post_init__(self):
        if not np.all(np.isfinite((self.jump_rate, self.jump_mean))):
            raise BadParams("subordinator parameters must be finite")
        if self.jump_rate < 0 or self.jump_mean <= 0:
            raise BadParams("need jump_rate >= 0 and jump_mean > 0")


@dataclass(frozen=True)
class BnsSpec:
    """Volatility V(t) = int_{-inf}^t e^{-decay (t-s)} dL(decay * s).

    The stationary start is truncated to the window [-window, 0]; the
    default window 20/decay keeps the relative truncation error at e^{-20}.
    """

    subordinator: SubordinatorSpec
    decay: float
    window: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.decay < np.inf:
            raise BadParams("decay must be finite and positive")
        if self.window == 0.0:
            object.__setattr__(self, "window", 20.0 / self.decay)
        if not 0.0 < self.window < np.inf:
            raise BadParams("window must be finite and positive")


@dataclass(frozen=True)
class CtmcSpec:
    """Regime-switching volatility: per-state levels, exponential holding.

    `generator` and `vol_levels` are held as read-only arrays; specs compare
    and hash by their values (`_values`), so a spec survives a pickle round
    trip equal to itself and can key a dict.
    """

    generator: np.ndarray = field(compare=False)
    vol_levels: np.ndarray = field(compare=False)
    initial_state: int = 0
    _values: tuple = field(init=False, repr=False)

    def __post_init__(self):
        q = np.asarray(self.generator, dtype=float)
        v = np.asarray(self.vol_levels, dtype=float)
        if q.ndim != 2 or q.shape[0] != q.shape[1] or q.shape[0] < 1:
            raise BadGenerator("generator must be a square matrix")
        if not np.all(np.isfinite(q)):
            raise BadGenerator("generator entries must be finite")
        off = q - np.diag(np.diag(q))
        if np.any(off < 0):
            raise BadGenerator("off-diagonal generator entries must be >= 0")
        if np.max(np.abs(q.sum(axis=1))) > 1e-12:
            raise BadGenerator("generator rows must sum to 0 within 1e-12")
        if v.shape != (q.shape[0],) or not np.all(np.isfinite(v) & (v > 0)):
            raise BadParams("vol_levels must be positive, one per state")
        if not 0 <= self.initial_state < q.shape[0]:
            raise BadParams("initial_state out of range")
        q.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "generator", q)
        object.__setattr__(self, "vol_levels", v)
        object.__setattr__(self, "_values", (
            tuple(map(tuple, q.tolist())), tuple(v.tolist())))

    def __reduce__(self):
        # rebuilt through __init__: validated, read-only arrays again
        return type(self), (self.generator, self.vol_levels, self.initial_state)

    @property
    def n_states(self) -> int:
        return self.generator.shape[0]


# ---------------------------------------------------------------------------
# Subordinator sampling

def _scaled_sub_events(spec: BnsSpec, rng_gen, t0: float, t1: float):
    """Jump times and sizes of s -> L(decay * s) on [t0, t1], drawn
    exactly: Poisson many events at rate jump_rate * decay, uniform
    times, exponential sizes."""
    sub = spec.subordinator
    rate = sub.jump_rate * spec.decay
    n = rng_gen.poisson(rate * (t1 - t0)) if rate > 0 else 0
    if n == 0:
        return np.empty(0), np.empty(0)
    times = np.sort(rng_gen.uniform(t0, t1, n))
    sizes = rng_gen.exponential(sub.jump_mean, n)
    return times, sizes


def bns_forward(spec: BnsSpec, v_start: float, grid: TimeGrid, gen) -> np.ndarray:
    """Evolve the decaying-subordinator volatility over `grid` from v_start.

    V(t) = e^{-decay (t-t0)} * (v_start + sum_{jumps u <= t} e^{decay (u-t0)} J),
    drawing the jumps from the numpy Generator `gen`.
    """
    lam = spec.decay
    t0 = grid.t_start
    nodes = np.asarray(grid.nodes)
    u, j = _scaled_sub_events(spec, gen, t0, grid.t_end)
    weighted = np.concatenate(
        ([v_start], np.cumsum(np.exp(lam * (u - t0)) * j) + v_start))
    idx = np.searchsorted(u, nodes, side="right")
    return np.exp(-lam * (nodes - t0)) * weighted[idx]


def gen_bns_vol(grid: TimeGrid, spec: BnsSpec, rng: RngStream) -> Path:
    """Decaying-subordinator volatility with a truncated stationary start.

    V(t) = e^{-decay t} * (V(0)_scaled + sum_{jumps u <= t} e^{decay u} J),
    so V(t) >= e^{-decay T} V(0) holds exactly on every path.
    """
    if grid.t_start != 0.0:
        raise BadParams("volatility grid must start at 0")
    g = rng.generator()
    # Stationary start: jumps on [-window, 0] weighted by e^{decay s}.
    u0, j0 = _scaled_sub_events(spec, g, -spec.window, 0.0)
    v0 = float(np.sum(np.exp(spec.decay * u0) * j0))
    return Path(grid, bns_forward(spec, v0, grid, g))


def ctmc_states(grid: TimeGrid, spec: CtmcSpec, state: int, gen) -> np.ndarray:
    """State index of the chain at every node of `grid`, started in `state`.

    Holding times are exact exponentials drawn from the numpy Generator
    `gen`; the state at a node is recorded left-continuously (a jump exactly
    at a node takes effect after it).
    """
    q = spec.generator
    change_times = [grid.t_start]
    states = [state]
    t = grid.t_start
    while True:
        rate = -q[state, state]
        if rate <= 0:
            break
        t = t + gen.exponential(1.0 / rate)
        if t >= grid.t_end:
            break
        probs = np.clip(q[state], 0.0, None)
        probs[state] = 0.0
        probs = probs / probs.sum()
        state = int(gen.choice(spec.n_states, p=probs))
        change_times.append(t)
        states.append(state)
    idx = np.searchsorted(change_times, grid.nodes, side="left") - 1
    idx = np.clip(idx, 0, len(states) - 1)
    return np.asarray(states)[idx]

