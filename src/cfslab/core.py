"""Time grids, sample paths, reproducible RNG streams, and estimate types.

Everything here is immutable after construction and safe to share across
concurrent workers.
"""
from __future__ import annotations

import enum
import os
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


# ---------------------------------------------------------------------------
# Errors

class CfsError(Exception):
    """Base class for all library errors."""


class NonPositiveSpan(CfsError):
    pass


class ZeroSteps(CfsError):
    pass


class GridMismatch(CfsError):
    pass


class ZeroReps(CfsError):
    pass


class HurstOutOfRange(CfsError):
    pass


class CovarianceNotPD(CfsError):
    """Covariance factorization failed; the grid is too large or too
    ill-conditioned for the factorization tolerance."""


class BadParams(CfsError):
    pass


class BadGenerator(CfsError):
    pass


class BadQuery(CfsError):
    pass


class DegenerateClock(CfsError):
    pass


class IncompatibleContext(CfsError):
    pass


class EmptyBattery(CfsError):
    pass


class ConfigError(CfsError):
    pass


class FellerWarning(UserWarning):
    """Square-root variance process may hit zero (2*kappa*theta < xi**2)."""


# ---------------------------------------------------------------------------
# Time grid and paths

@dataclass(frozen=True)
class TimeGrid:
    """Uniform discretization of [t_start, t_end] into n_steps cells."""

    t_start: float
    t_end: float
    n_steps: int

    @property
    def dt(self) -> float:
        return (self.t_end - self.t_start) / self.n_steps

    @property
    def n_nodes(self) -> int:
        return self.n_steps + 1

    @property
    def span(self) -> float:
        return self.t_end - self.t_start

    @cached_property
    def nodes(self) -> np.ndarray:
        t = self.t_start + np.arange(self.n_steps + 1) * self.dt
        t[-1] = self.t_end
        t.setflags(write=False)
        return t


def make_grid(t_start: float, t_end: float, n_steps: int) -> TimeGrid:
    if n_steps < 1:
        raise ZeroSteps(f"n_steps must be >= 1, got {n_steps}")
    if not (t_end > t_start and np.isfinite(t_start) and np.isfinite(t_end)):
        raise NonPositiveSpan(
            f"need finite t_end > t_start, got [{t_start}, {t_end}]")
    return TimeGrid(float(t_start), float(t_end), int(n_steps))


def tail_grid(grid: TimeGrid, t_index: int) -> TimeGrid:
    """Sub-grid from node t_index to the end of `grid`."""
    if not 0 <= t_index < grid.n_steps:
        raise BadParams(f"t_index {t_index} not in [0, {grid.n_steps})")
    return TimeGrid(float(grid.nodes[t_index]), grid.t_end, grid.n_steps - t_index)


def grids_equal(a: TimeGrid, b: TimeGrid, tol: float = 1e-12) -> bool:
    return (
        a.n_steps == b.n_steps
        and abs(a.t_start - b.t_start) <= tol
        and abs(a.t_end - b.t_end) <= tol
    )


@dataclass(frozen=True)
class Path:
    """A real-valued sample path on a time grid, holding a read-only copy
    of the values it is given."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if v.shape != (self.grid.n_nodes,):
            raise GridMismatch(
                f"path has {v.shape} values for a grid of {self.grid.n_nodes} nodes"
            )
        if not np.all(np.isfinite(v)):
            raise BadParams("path values must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


def constant_path(grid: TimeGrid, value: float) -> Path:
    return Path(grid, np.full(grid.n_nodes, float(value)))


# ---------------------------------------------------------------------------
# RNG streams

# replications per stream block, and per continuation chunk
BLOCK = 1024


@dataclass(frozen=True)
class RngStream:
    """Stream keyed by (master_seed, stream_id, path).

    The output sequence is a pure function of the key, so streams can be
    drawn in any order, on any number of workers, with identical results.
    Child streams are statistically independent of the parent and of each
    other.
    """

    master_seed: int
    stream_id: int = 0
    path: tuple[int, ...] = field(default=())

    def child(self, index: int) -> "RngStream":
        return RngStream(self.master_seed, self.stream_id, self.path + (int(index),))

    def generator(self) -> np.random.Generator:
        """A generator at the start of this stream."""
        seq = np.random.SeedSequence(
            self.master_seed, spawn_key=(self.stream_id, *self.path))
        return np.random.Generator(np.random.SFC64(seq))


@dataclass(frozen=True)
class Block:
    """The first `rows` replications of a stream block: replication
    b * BLOCK + i is row i of block b, and the block's rows are drawn in
    order from its one stream, `rng.child(b)`."""

    stream: RngStream
    rows: int

    def __len__(self) -> int:
        return self.rows


def blocks(rng: RngStream, reps: int) -> list[tuple[int, Block]]:
    """(start index, block) for the stream blocks of replications 0..reps-1."""
    return [(start, Block(rng.child(start // BLOCK), min(BLOCK, reps - start)))
            for start in range(0, reps, BLOCK)]


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else the host's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# Estimates

class Classification(enum.Enum):
    POSITIVE = "POSITIVE"
    ZERO_CONSISTENT = "ZERO_CONSISTENT"
    ANALYTIC_ZERO = "ANALYTIC_ZERO"


@dataclass(frozen=True)
class Estimate:
    hits: int
    reps: int
    p_hat: float
    ci_low: float
    ci_high: float
    classification: Classification
    reason: str | None = None


def wilson_interval(hits: int, reps: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if reps < 1:
        raise ZeroReps("reps must be >= 1")
    if not 0 <= hits <= reps:
        raise BadParams(f"hits {hits} not in [0, {reps}]")
    if z <= 0:
        raise BadParams("z must be positive")
    p = hits / reps
    z2 = z * z
    denom = 1.0 + z2 / reps
    center = p + z2 / (2 * reps)
    half = z * np.sqrt(p * (1 - p) / reps + z2 / (4 * reps * reps))
    # exact endpoints: the algebraic value is 0 (resp. 1) at the boundary
    # hit counts, but floating point can leave a tiny residue
    low = 0.0 if hits == 0 else max(0.0, (center - half) / denom)
    high = 1.0 if hits == reps else min(1.0, (center + half) / denom)
    return low, high


def make_estimate(hits: int, reps: int, z: float = 1.96,
                  analytic_zero_reason: str | None = None) -> Estimate:
    """Assemble an Estimate with its classification.

    POSITIVE requires a strictly positive Wilson lower bound (equivalently,
    at least one hit). A zero hit count without an analytic argument is
    only *consistent* with a zero probability; the Wilson upper bound is
    the residual-probability certificate.
    """
    low, high = wilson_interval(hits, reps, z)
    if analytic_zero_reason is not None:
        cls = Classification.ANALYTIC_ZERO
    elif hits == 0:
        cls = Classification.ZERO_CONSISTENT
    else:
        cls = Classification.POSITIVE
    return Estimate(int(hits), int(reps), hits / reps, low, high, cls,
                    analytic_zero_reason)
