"""Subordinators, jump-driven volatility, and regime switching."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import unit_mean

from cfslab.core import BadGenerator, BadParams, RngStream, make_grid
from cfslab.jumps import (
    BnsSpec,
    CtmcSpec,
    SubordinatorSpec,
    ctmc_states,
    gen_bns_vol,
)

GRID = make_grid(0.0, 1.0, 64)
CP = SubordinatorSpec(jump_rate=5.0, jump_mean=0.5)


class TestSubordinator:
    # the subordinator enters only as the driver of the BNS volatility
    @pytest.mark.parametrize("spec", [CP], ids=["cp"])
    def test_undecayed_vol_nondecreasing(self, spec):
        # e^{decay t} V(t) = V(0) + sum of weighted jumps, each >= 0
        bns = BnsSpec(subordinator=spec, decay=1.0)
        grow = np.exp(bns.decay * np.asarray(GRID.nodes))
        for r in range(50):
            u = grow * gen_bns_vol(GRID, bns, RngStream(1, 0).child(r)).values
            assert np.all(np.diff(u) >= -1e-12 * u[:-1])

    @pytest.mark.parametrize("spec", [CP], ids=["cp"])
    def test_unit_mean(self, spec):
        # E V(t) = int e^{-decay (t-s)} decay E L(1) ds = E L(1)
        bns = BnsSpec(subordinator=spec, decay=1.0)
        finals = np.array(
            [gen_bns_vol(GRID, bns, RngStream(2, 0).child(r)).values[-1]
             for r in range(3000)]
        )
        se = np.std(finals) / np.sqrt(finals.size)
        assert abs(np.mean(finals) - unit_mean(spec)) < 4 * se

    def test_zero_rate_is_flat(self):
        spec = SubordinatorSpec(jump_rate=0.0, jump_mean=1.0)
        bns = BnsSpec(subordinator=spec, decay=2.0)
        v = gen_bns_vol(GRID, bns, RngStream(3, 0)).values
        assert np.all(v == 0.0)

    def test_param_validation(self):
        with pytest.raises(BadParams):
            SubordinatorSpec(jump_rate=-1.0, jump_mean=1.0)
        with pytest.raises(BadParams):
            SubordinatorSpec(jump_rate=1.0, jump_mean=0.0)


class TestBnsVol:
    SPEC = BnsSpec(subordinator=CP, decay=2.0)

    def test_strictly_positive_with_exact_floor(self):
        # V(t) >= e^{-decay * T} V(0), exactly in floating point
        for r in range(200):
            v = gen_bns_vol(GRID, self.SPEC, RngStream(4, 0).child(r)).values
            assert np.all(v > 0.0)
            assert np.all(v >= np.exp(-self.SPEC.decay * GRID.t_end) * v[0])

    def test_stationary_mean(self):
        finals = np.array(
            [gen_bns_vol(GRID, self.SPEC, RngStream(5, 0).child(r)).values[-1]
             for r in range(3000)]
        )
        se = np.std(finals) / np.sqrt(finals.size)
        assert abs(np.mean(finals) - unit_mean(CP)) < 4 * se

    def test_decay_validation(self):
        with pytest.raises(BadParams):
            BnsSpec(subordinator=CP, decay=0.0)


class TestCtmc:
    SPEC = CtmcSpec(generator=((-2.0, 2.0), (3.0, -3.0)),
                    vol_levels=(0.1, 0.4), initial_state=0)

    def _states(self, grid, rng):
        return ctmc_states(grid, self.SPEC, self.SPEC.initial_state,
                           rng.generator())

    def test_values_are_levels(self):
        for r in range(50):
            v = self.SPEC.vol_levels[self._states(GRID, RngStream(6, 0).child(r))]
            assert set(np.unique(v)) <= {0.1, 0.4}
            assert v[0] == 0.1

    def test_occupation_matches_stationary(self):
        # stationary distribution of the 2-state chain: (3/5, 2/5)
        grid = make_grid(0.0, 50.0, 2000)
        frac_low = np.mean(self._states(grid, RngStream(7, 0)) == 0)
        assert frac_low == pytest.approx(0.6, abs=0.1)

    def test_generator_validation(self):
        with pytest.raises(BadGenerator):
            CtmcSpec(generator=((-1.0, 0.5), (1.0, -1.0)),
                     vol_levels=(0.1, 0.2))
        with pytest.raises(BadGenerator):
            CtmcSpec(generator=((-1.0, 1.0), (-1.0, 1.0)),
                     vol_levels=(0.1, 0.2))
        with pytest.raises(BadParams):
            CtmcSpec(generator=((-1.0, 1.0), (1.0, -1.0)),
                     vol_levels=(0.1, -0.2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_rejected(self, bad):
        # a NaN rate used to pass validation and make ctmc_states loop forever
        with pytest.raises(BadGenerator):
            CtmcSpec(generator=((bad, 1.0), (1.0, -1.0)), vol_levels=(0.1, 0.2))
        with pytest.raises(BadParams):
            CtmcSpec(generator=((-1.0, 1.0), (1.0, -1.0)), vol_levels=(0.1, bad))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2 ** 32))
    def test_reproducible(self, seed):
        a = self._states(GRID, RngStream(seed, 2))
        b = self._states(GRID, RngStream(seed, 2))
        assert np.array_equal(a, b)
