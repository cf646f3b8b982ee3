"""Time grids, sample paths, reproducible RNG streams, and estimate types.

Everything here is immutable after construction and safe to share across
concurrent workers.
"""
from __future__ import annotations

import enum
from collections.abc import Iterator, Sequence
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
    if not t_end > t_start:
        raise NonPositiveSpan(f"need t_end > t_start, got [{t_start}, {t_end}]")
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
    """A real-valued sample path on a time grid."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
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

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): pool size and
# the constants of its `hashmix`, `mix` and `generate_state` rounds
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_MASK32 = 0xFFFFFFFF


@dataclass(frozen=True)
class RngStream:
    """Counter-based stream keyed by (master_seed, stream_id, path).

    The output sequence is a pure function of the key, so replications can
    be simulated in any order, on any number of workers, with identical
    results. Child streams are statistically independent of the parent and
    of each other.
    """

    master_seed: int
    stream_id: int = 0
    path: tuple[int, ...] = field(default=())

    def child(self, index: int) -> "RngStream":
        return RngStream(self.master_seed, self.stream_id, self.path + (int(index),))

    def children(self, indices, suffix: tuple[int, ...] = ()) -> "ChildStreams":
        """The streams `child(i).child(s_1)...child(s_k)` for i in `indices`
        and `suffix` = (s_1, ..., s_k), keyed together."""
        return ChildStreams(self, indices, tuple(int(k) for k in suffix))

    def generator(self, key: np.ndarray | None = None,
                  reuse: np.random.Generator | None = None) -> np.random.Generator:
        """A generator at the start of this stream.

        `key`, if given, must be this stream's Philox key as
        `ChildStreams.keys` derives it; it skips numpy's SeedSequence hash.
        With a key, `reuse` (a generator returned by an earlier keyed call)
        is re-keyed to counter 0 and returned instead of a new generator, so
        it must be used up before this call.
        """
        if key is None:
            seq = np.random.SeedSequence(
                self.master_seed, spawn_key=(self.stream_id, *self.path)
            )
            return np.random.Generator(np.random.Philox(seq))
        gen = reuse if reuse is not None else np.random.Generator(
            np.random.Philox(key=key))
        zero = (0, 0, 0, 0)
        gen.bit_generator.state = {
            "bit_generator": "Philox", "state": {"counter": zero, "key": key},
            "buffer": zero, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
        }
        return gen


def _words(x: int) -> list[int]:
    """The little-endian 32-bit words SeedSequence makes of an int."""
    x = int(x)
    if x < 0:
        raise ValueError("expected non-negative integer")
    words = [x & _MASK32]
    while x > _MASK32:
        x >>= 32
        words.append(x & _MASK32)
    return words


def philox_keys(entropy: np.ndarray) -> np.ndarray:
    """`SeedSequence.generate_state(2, np.uint64)` for many sequences.

    Row i of the (n, k) uint32 array `entropy` holds one sequence's
    assembled entropy: the seed words, zero-padded to the pool size 4,
    then the spawn-key words. The hash constants do not depend on the data,
    so every row runs through numpy's rounds at once. Returns the (n, 2)
    uint64 Philox keys.
    """
    n, k = entropy.shape
    hash_a = _INIT_A

    def hashmix(value):
        nonlocal hash_a
        value = value ^ np.uint32(hash_a)
        hash_a = hash_a * _MULT_A & _MASK32
        value = value * np.uint32(hash_a)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        r = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return r ^ (r >> np.uint32(16))

    with np.errstate(over="ignore"):
        pool = [hashmix(entropy[:, i]) for i in range(_POOL_SIZE)]
        for src in range(_POOL_SIZE):
            for dst in range(_POOL_SIZE):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for src in range(_POOL_SIZE, k):
            for dst in range(_POOL_SIZE):
                pool[dst] = mix(pool[dst], hashmix(entropy[:, src]))
        hash_b = _INIT_B
        state = []
        for word in pool:
            word = word ^ np.uint32(hash_b)
            hash_b = hash_b * _MULT_B & _MASK32
            word = word * np.uint32(hash_b)
            state.append((word ^ (word >> np.uint32(16))).astype(np.uint64))
    keys = np.empty((n, 2), dtype=np.uint64)
    keys[:, 0] = state[0] | (state[1] << np.uint64(32))
    keys[:, 1] = state[2] | (state[3] << np.uint64(32))
    return keys


# Philox4x64-10 (Salmon et al., SC 2011; numpy/random/src/philox/philox.h):
# round multipliers and Weyl key increments
_PHILOX_M = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))
_PHILOX_ROUNDS = 10
_LO32 = np.uint64(_MASK32)
_S32 = np.uint64(32)


def _mulhilo(a: np.uint64, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The high and low 64-bit words of the 128-bit products a * b."""
    a_lo, a_hi = a & _LO32, a >> _S32
    b_lo, b_hi = b & _LO32, b >> _S32
    p0, p1, p2 = a_lo * b_lo, a_lo * b_hi, a_hi * b_lo
    mid = (p0 >> _S32) + (p1 & _LO32) + (p2 & _LO32)
    hi = a_hi * b_hi + (p1 >> _S32) + (p2 >> _S32) + (mid >> _S32)
    return hi, a * b


def philox_uniforms(keys: np.ndarray, n: int) -> np.ndarray:
    """`generator(key).random(n)` for each row of the (rows, 2) uint64
    Philox keys `keys`, as one (rows, n) array.

    numpy's Philox draws block b (of four 64-bit words) from counter
    (b + 1, 0, 0, 0), and `random` keeps the top 53 bits of each word. Here
    every row's blocks go through the ten rounds at once.
    """
    rows = keys.shape[0]
    n_blocks = -(-n // 4)
    k0 = np.repeat(keys[:, 0], n_blocks)
    k1 = np.repeat(keys[:, 1], n_blocks)
    c0 = np.tile(np.arange(1, n_blocks + 1, dtype=np.uint64), rows)
    c1 = c2 = c3 = np.zeros_like(c0)
    with np.errstate(over="ignore"):
        for r in range(_PHILOX_ROUNDS):
            if r:
                k0, k1 = k0 + _PHILOX_W[0], k1 + _PHILOX_W[1]
            hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
            hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
            c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    words = np.stack((c0, c1, c2, c3), axis=1).reshape(rows, 4 * n_blocks)
    return (words[:, :n] >> np.uint64(11)) * (1.0 / 9007199254740992.0)


@dataclass(frozen=True, eq=False)
class ChildStreams(Sequence):
    """The streams `parent.child(i).child(s_1)...child(s_k)` for i in
    `indices` (a range or integer array, each below 2^32) and `suffix` =
    (s_1, ..., s_k), keyed together: their Philox keys come from one hash
    pass over the parent's words plus one index column."""

    parent: RngStream
    indices: Sequence[int]
    suffix: tuple[int, ...] = ()

    def __len__(self) -> int:
        return len(self.indices)

    def __getitem__(self, i: int) -> RngStream:
        p = self.parent
        return RngStream(p.master_seed, p.stream_id,
                         p.path + (int(self.indices[i]),) + self.suffix)

    def keys(self) -> np.ndarray:
        """The (n, 2) uint64 Philox keys of the streams, in order."""
        idx = np.asarray(self.indices)
        if idx.size and idx.min() < 0:
            raise ValueError("expected non-negative integer")
        if idx.size and idx.max() > _MASK32:
            # such an index is two words: a row of its own length
            raise ValueError("replication indices must be below 2^32")
        p = self.parent
        head = _words(p.master_seed)
        head += [0] * (_POOL_SIZE - len(head))
        head += [w for k in (p.stream_id, *p.path) for w in _words(k)]
        tail = [w for k in self.suffix for w in _words(k)]
        ent = np.empty((idx.size, len(head) + 1 + len(tail)), dtype=np.uint32)
        ent[:, :len(head)] = head
        ent[:, len(head)] = idx
        ent[:, len(head) + 1:] = tail
        return philox_keys(ent)

    def generators(self) -> Iterator[np.random.Generator]:
        """`self[i].generator(key_i, reuse=...)` in order: equal to
        `self[i].generator()` byte for byte, but one generator re-keyed per
        row, so each must be used up before the next is taken."""
        gen = None
        for stream, key in zip(self, self.keys()):
            gen = stream.generator(key, reuse=gen)
            yield gen


def generators(streams: Sequence[RngStream]) -> Iterator[np.random.Generator]:
    """One generator per stream, equal to `stream.generator()`; a
    `ChildStreams` yields its re-keyed generator (see there)."""
    if isinstance(streams, ChildStreams):
        return streams.generators()
    return (s.generator() for s in streams)


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
