"""Grids, paths, seeded streams, and binomial estimates."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfslab.catalog import get_preset
from cfslab.core import (
    BLOCK,
    BadParams,
    Block,
    Classification,
    GridMismatch,
    NonPositiveSpan,
    Path,
    RngStream,
    ZeroReps,
    ZeroSteps,
    blocks,
    constant_path,
    grids_equal,
    make_estimate,
    make_grid,
    tail_grid,
    wilson_interval,
)
from cfslab.jumps import CtmcSpec, ctmc_states
from cfslab.models import iter_continuations, simulate
from cfslab.smallball import SmallBallQuery, estimate_many, thinning_uniforms


class TestTimeGrid:
    def test_nodes_endpoints_and_count(self):
        g = make_grid(0.0, 2.0, 8)
        assert g.n_nodes == 9
        assert g.nodes[0] == 0.0
        assert g.nodes[-1] == 2.0
        assert np.allclose(np.diff(g.nodes), g.dt)

    def test_nonpositive_span_rejected(self):
        with pytest.raises(NonPositiveSpan):
            make_grid(1.0, 1.0, 4)
        with pytest.raises(NonPositiveSpan):
            make_grid(2.0, 1.0, 4)

    def test_zero_steps_rejected(self):
        with pytest.raises(ZeroSteps):
            make_grid(0.0, 1.0, 0)

    def test_tail_grid(self):
        g = make_grid(0.0, 1.0, 8)
        t = tail_grid(g, 2)
        assert t.n_steps == 6
        assert t.t_start == pytest.approx(g.nodes[2])
        assert t.t_end == g.t_end
        assert grids_equal(tail_grid(g, 0), g)

    def test_nodes_read_only(self):
        g = make_grid(0.0, 1.0, 4)
        with pytest.raises(ValueError):
            g.nodes[0] = 5.0


class TestPath:
    def test_length_mismatch(self):
        g = make_grid(0.0, 1.0, 4)
        with pytest.raises(GridMismatch):
            Path(g, np.zeros(4))

    def test_nonfinite_rejected(self):
        g = make_grid(0.0, 1.0, 2)
        with pytest.raises(BadParams):
            Path(g, np.array([0.0, np.nan, 1.0]))


class TestRngStream:
    def test_children_are_independent_and_stable(self):
        root = RngStream(42, 0)
        a = root.child(0).generator().standard_normal(4)
        b = root.child(1).generator().standard_normal(4)
        a2 = root.child(0).generator().standard_normal(4)
        assert np.array_equal(a, a2)
        assert not np.array_equal(a, b)

    def test_nested_children_distinct(self):
        root = RngStream(7, 3)
        x = root.child(1).child(2).generator().standard_normal(3)
        y = root.child(1).child(3).generator().standard_normal(3)
        z = root.child(2).child(2).generator().standard_normal(3)
        assert not np.array_equal(x, y)
        assert not np.array_equal(x, z)

    def test_stream_id_separates(self):
        a = RngStream(1, 0).generator().standard_normal(4)
        b = RngStream(1, 1).generator().standard_normal(4)
        assert not np.array_equal(a, b)


class TestChildStreams:
    """Child streams are keyed by numpy's SeedSequence: the stream
    `RngStream(seed, stream_id, path).child(r).child(s)` draws from SFC64
    seeded with SeedSequence(seed, spawn_key=(stream_id, *path, r, s))."""

    SEEDS = (0, 7, 2**32 - 1, 2**32 + 5, 2**64 - 1)
    PATHS = ((), (3,), (1, 2))  # empty, one-level, nested parent paths
    INDICES = (0, 1, 1023, 2**31, 2**32 - 1)
    CTMC = CtmcSpec(generator=((-20.0, 20.0), (30.0, -30.0)),
                    vol_levels=(0.1, 0.4))

    @pytest.mark.parametrize("suffix", [(), (101,)], ids=["plain", "thinning"])
    @pytest.mark.parametrize("path", PATHS, ids=["empty", "one", "nested"])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_keys_match_seed_sequence(self, seed, path, suffix):
        parent = RngStream(seed, 5, path)
        for r in self.INDICES:
            stream = parent.child(r)
            for k in suffix:
                stream = stream.child(k)
            seq = np.random.SeedSequence(seed, spawn_key=(5, *path, r, *suffix))
            ref = np.random.Generator(np.random.SFC64(seq))
            gen = stream.generator()
            assert isinstance(gen.bit_generator, np.random.SFC64)
            assert gen.random(4).tobytes() == ref.random(4).tobytes()

    @pytest.mark.parametrize("seed, index", [(-1, 0), (1, -1)],
                             ids=["seed", "index"])
    def test_negative_raises_like_seed_sequence(self, seed, index):
        with pytest.raises(Exception) as ref:
            np.random.SeedSequence(-1, spawn_key=(0, 0))
        with pytest.raises(ref.type):
            RngStream(seed).child(index).generator()

    @pytest.mark.parametrize("suffix", [(), (101,)], ids=["plain", "thinning"])
    @pytest.mark.parametrize("path", PATHS, ids=["empty", "one", "nested"])
    @pytest.mark.parametrize("seed", [7, 2**32 + 5])
    def test_generators_match_reference(self, seed, path, suffix):
        # block b of `blocks` draws like SFC64 seeded with
        # SeedSequence(seed, spawn_key=(stream_id, *path, b, *suffix))
        parent = RngStream(seed, 0, path)
        grid = make_grid(0.0, 1.0, 64)
        for b, (_, block) in enumerate(blocks(parent, 2 * BLOCK + 5)):
            stream = block.stream
            for k in suffix:
                stream = stream.child(k)
            seq = np.random.SeedSequence(seed, spawn_key=(0, *path, b, *suffix))
            gen = stream.generator()
            ref_gen = np.random.Generator(np.random.SFC64(seq))
            assert np.array_equal(gen.standard_normal(9),
                                  ref_gen.standard_normal(9))
            assert np.array_equal(gen.uniform(size=3), ref_gen.uniform(size=3))
            assert np.array_equal(ctmc_states(grid, self.CTMC, 0, gen),
                                  ctmc_states(grid, self.CTMC, 0, ref_gen))

    def test_range_matches_list(self):
        # replications 0..reps-1 in order, block b on the stream child(b)
        parent = RngStream(11, 2, (1,))
        got = blocks(parent, 2 * BLOCK + 5)
        assert [start for start, _ in got] == [0, BLOCK, 2 * BLOCK]
        assert [block for _, block in got] == [
            Block(parent.child(b), rows) for b, rows in enumerate((BLOCK, BLOCK, 5))]
        fast = [block.stream.generator().standard_normal(4) for _, block in got]
        slow = [parent.child(b).generator().standard_normal(4) for b in range(3)]
        assert np.array_equal(fast, slow)

    def test_empty(self):
        assert blocks(RngStream(1), 0) == []
        assert len(Block(RngStream(1).child(0), 0)) == 0

    def test_generators_go_through_stream_generator(self, monkeypatch):
        # one `RngStream.generator` call per block for its continuations,
        # and one more per block for a debiased query's thinning uniforms
        spec = get_preset("brownian")
        grid = make_grid(0.0, 1.0, 8)
        _, ctx = simulate(spec, grid, RngStream(3, 0), 0)
        rng = RngStream(3, 1)
        calls = []
        keyed = RngStream.generator

        def spy(stream):
            calls.append(stream)
            return keyed(stream)

        monkeypatch.setattr(RngStream, "generator", spy)
        reps = 2 * BLOCK + 3
        for _ in iter_continuations(spec, ctx, grid, rng, reps):
            pass
        assert calls == [rng.child(b) for b in range(3)]
        calls.clear()
        query = SmallBallQuery(0, constant_path(grid, 0.0), 1.0)
        estimate_many(spec, ctx, [query], reps, rng)
        assert calls == [s for b in range(3)
                         for s in (rng.child(b), rng.child(b).child(101))]

    # The two tests below keep the names they had when the thinning
    # uniforms came from a vectorised Philox kernel.
    @pytest.mark.parametrize("n", [1, 4, 5, 10])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_philox_uniforms_match_generator_random(self, seed, n):
        # block b's thinning uniforms are random((rows, n)) of
        # rng.child(b).child(101), row by row
        rng = RngStream(seed, 5, (1, 2))
        for b in self.INDICES:
            u = thinning_uniforms(rng, b, 3, n)
            seq = np.random.SeedSequence(seed, spawn_key=(5, 1, 2, b, 101))
            ref = np.random.Generator(np.random.SFC64(seq)).random(3 * n)
            assert u.dtype == np.float64 and u.shape == (3, n)
            assert u.tobytes() == ref.tobytes()

    def test_philox_uniforms_empty(self):
        assert thinning_uniforms(RngStream(1), 3, 0, 2).shape == (0, 2)


class TestWilson:
    def test_known_value(self):
        # hits=5, reps=10, z=1.96: standard Wilson interval
        low, high = wilson_interval(5, 10)
        assert low == pytest.approx(0.2365896, abs=1e-6)
        assert high == pytest.approx(0.7634104, abs=1e-6)

    def test_zero_hits_lower_bound_is_zero(self):
        low, high = wilson_interval(0, 100)
        assert low == 0.0
        assert 0.0 < high < 0.05

    def test_all_hits(self):
        low, high = wilson_interval(100, 100)
        assert high == pytest.approx(1.0, abs=1e-12)
        assert 0.95 < low < 1.0

    def test_zero_reps_rejected(self):
        with pytest.raises(ZeroReps):
            wilson_interval(0, 0)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 10_000), st.integers(0, 10_000))
    def test_interval_brackets_p_hat(self, reps, hits_raw):
        hits = min(hits_raw, reps)
        low, high = wilson_interval(hits, reps)
        p = hits / reps
        assert 0.0 <= low <= p + 1e-12
        assert p <= high + 1e-12
        assert high <= 1.0
        assert (low > 0) == (hits > 0)


class TestClassification:
    def test_positive(self):
        e = make_estimate(3, 100)
        assert e.classification is Classification.POSITIVE
        assert e.ci_low > 0

    def test_zero_consistent(self):
        e = make_estimate(0, 100)
        assert e.classification is Classification.ZERO_CONSISTENT
        assert e.ci_high > 0  # residual-probability certificate

    def test_analytic_zero_overrides(self):
        e = make_estimate(0, 100, analytic_zero_reason="POSITIVITY")
        assert e.classification is Classification.ANALYTIC_ZERO
        assert e.reason == "POSITIVITY"
