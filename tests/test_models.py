"""Simulation, conditional continuation, and support validation."""
import dataclasses
import pickle
import tracemalloc

import numpy as np
import pytest
from oracles import cir_variance, report_passed, vol_log_price

from cfslab import jumps
from cfslab.catalog import DEFAULT_BATTERY, get_preset, preset_names
from cfslab.core import (
    BLOCK,
    BadParams,
    Block,
    FellerWarning,
    RngStream,
    make_grid,
    tail_grid,
)
from cfslab.gaussian import FouSpec, gen_brownian
from cfslab.jumps import BnsSpec, CtmcSpec, SubordinatorKind, SubordinatorSpec
from cfslab.models import (
    FAMILIES,
    Bns,
    CirSpec,
    ComteRenault,
    Heston,
    HkMode,
    MixedFbm,
    Regime,
    SdePrice,
    WienerIntegral,
    _fresh_normals,
    cell_noise_scale,
    continue_chunk,
    iter_continuations,
    simulate,
    validate_spec,
)

GRID = make_grid(0.0, 1.0, 128)
MID = 64


def _all_presets():
    return [get_preset(n) for n in preset_names()]


class TestSimulate:
    @pytest.mark.parametrize("name", preset_names())
    def test_runs_and_captures_context(self, name):
        spec = get_preset(name)
        path, ctx = simulate(spec, GRID, RngStream(1, 0), MID)
        assert path.values.shape == (GRID.n_nodes,)
        assert ctx.t_index == MID
        assert ctx.z_values.shape == (MID + 1,)
        assert ctx.z_t == path.values[MID]
        assert np.array_equal(ctx.z_values, path.values[: MID + 1])

    @pytest.mark.parametrize("name", preset_names())
    def test_reproducible(self, name):
        spec = get_preset(name)
        a, _ = simulate(spec, GRID, RngStream(3, 0), 0)
        b, _ = simulate(spec, GRID, RngStream(3, 0), 0)
        assert np.array_equal(a.values, b.values)

    def test_bad_t_index(self):
        with pytest.raises(BadParams):
            simulate(get_preset("brownian"), GRID, RngStream(0, 0), GRID.n_steps)

    def test_positive_models_stay_positive(self):
        for name in ("doleans",):
            spec = get_preset(name)
            for r in range(20):
                p, _ = simulate(spec, GRID, RngStream(4, 0).child(r), 0)
                assert np.all(p.values > 0.0)

    @pytest.mark.parametrize("name", ["heston", "bns", "sde"])
    def test_log_price_starts_at_zero(self, name):
        # price families report the log price, started at log 1 = 0
        p, _ = simulate(get_preset(name), GRID, RngStream(5, 0), 0)
        assert p.values[0] == 0.0

    def test_feller_warning(self):
        spec = Heston(name="bad_feller", rho=0.0,
                      cir=CirSpec(kappa=0.5, theta=0.02, xi=0.5, v0=0.02))
        with pytest.warns(FellerWarning):
            simulate(spec, GRID, RngStream(6, 0), 0)


class TestContinuation:
    @pytest.mark.parametrize("name", preset_names())
    def test_starts_at_history_value(self, name):
        spec = get_preset(name)
        _, ctx = simulate(spec, GRID, RngStream(7, 0), MID)
        tail = tail_grid(GRID, MID)
        paths = continue_chunk(spec, ctx, tail, Block(RngStream(7, 1), 3))
        assert np.all(paths[:, 0] == ctx.z_t)

    @pytest.mark.parametrize("name", preset_names())
    def test_chunk_invariance(self, name):
        # fewer replications draw a prefix of the same rows, here of a
        # run whose second block starts at row 1024
        spec = get_preset(name)
        _, ctx = simulate(spec, GRID, RngStream(8, 0), MID)
        tail = tail_grid(GRID, MID)
        rng = RngStream(8, 1)
        few = np.vstack([b for _, b in iter_continuations(spec, ctx, tail, rng, 40)])
        again = np.vstack([b for _, b in iter_continuations(spec, ctx, tail, rng, 40)])
        many = [b for _, b in iter_continuations(spec, ctx, tail, rng, 1100)]
        assert [len(b) for b in many] == [BLOCK, 1100 - BLOCK]
        assert np.array_equal(few, again)
        if getattr(spec, "hk_mode", None) is HkMode.REDRAW and isinstance(
                spec, (MixedFbm, ComteRenault)):
            # the fBm's dense triangular multiply may round differently
            # with the number of rows it is given
            assert np.allclose(few, many[0][:40], rtol=0.0, atol=1e-12)
        else:
            assert np.array_equal(few, many[0][:40])

    def test_brownian_continuation_law(self):
        spec = get_preset("brownian")
        _, ctx = simulate(spec, GRID, RngStream(9, 0), MID)
        tail = tail_grid(GRID, MID)
        finals = continue_chunk(spec, ctx, tail, Block(RngStream(9, 1), 3000))[:, -1]
        finals -= ctx.z_t
        se = 4.0 / np.sqrt(3000)
        assert abs(np.mean(finals)) < se * np.sqrt(tail.span)
        assert np.var(finals) == pytest.approx(tail.span, rel=0.15)

    def test_bridge_continuation_is_pinned(self):
        spec = get_preset("bridge")
        _, ctx = simulate(spec, GRID, RngStream(10, 0), MID)
        tail = tail_grid(GRID, MID)
        terminal = float(ctx.frozen["terminal"])
        paths = continue_chunk(spec, ctx, tail, Block(RngStream(10, 1), 20))
        assert np.all(paths[:, -1] == terminal)

    def test_doleans_continuation_positive(self):
        spec = get_preset("doleans")
        _, ctx = simulate(spec, GRID, RngStream(11, 0), MID)
        tail = tail_grid(GRID, MID)
        paths = continue_chunk(spec, ctx, tail, Block(RngStream(11, 1), 20))
        assert np.all(paths > 0.0)

    def test_fixed_mode_freezes_independent_driver(self):
        # With the volatility path frozen and rho = 0, two continuations
        # differing only in their Brownian stream share the same variance
        # profile; check the conditional variance matches int g^2 dt.
        spec = get_preset("bns")  # FIXED mode
        _, ctx = simulate(spec, GRID, RngStream(12, 0), MID)
        tail = tail_grid(GRID, MID)
        g = ctx.frozen["g"][MID:]
        predicted = float(np.sum(g[:-1] ** 2) * tail.dt)
        finals = continue_chunk(spec, ctx, tail, Block(RngStream(12, 1), 3000))[:, -1]
        assert np.var(finals) == pytest.approx(predicted, rel=0.15)

    def test_mixed_fbm_redraw_variance(self):
        spec = get_preset("mixed_fbm_h075")
        _, ctx = simulate(spec, GRID, RngStream(13, 0), MID)
        tail = tail_grid(GRID, MID)
        finals = continue_chunk(spec, ctx, tail, Block(RngStream(13, 1), 2000))[:, -1]
        # Brownian part contributes tail.span; fBm part adds a strictly
        # positive conditional variance.
        assert np.var(finals) > tail.span


class TestRegimeState:
    # 0 -> 1 -> 2 at rate 100, so the chain is absorbed in state 2 long
    # before MID on every path; state 2 shares its level with state 0, so
    # the volatility level alone cannot tell the two apart.
    CTMC = CtmcSpec(generator=((-100.0, 100.0, 0.0), (0.0, -100.0, 100.0),
                               (0.0, 0.0, 0.0)),
                    vol_levels=(0.2, 0.3, 0.2))

    def test_frozen_state_is_the_chains_state(self):
        spec = Regime(ctmc=self.CTMC)
        _, ctx = simulate(spec, GRID, RngStream(17, 0), MID)
        state = ctx.frozen["state"]
        assert state[0] == 0 and state[-1] == 2
        assert np.all(np.diff(state) >= 0)
        assert np.array_equal(self.CTMC.vol_levels[state], ctx.frozen["v"])

    def test_redraw_continues_from_the_chains_state(self):
        # from the absorbing state the redrawn volatility is 0.2 throughout
        spec = Regime(ctmc=self.CTMC, hk_mode=HkMode.REDRAW)
        _, ctx = simulate(spec, GRID, RngStream(17, 0), MID)
        tail = tail_grid(GRID, MID)
        p = continue_chunk(spec, ctx, tail, Block(RngStream(17, 1), 1))[0]
        xi = RngStream(17, 1).generator().standard_normal(tail.n_steps)
        inc = -0.5 * 0.04 * tail.dt + 0.2 * np.sqrt(tail.dt) * xi
        expected = ctx.z_t + np.concatenate(([0.0], np.cumsum(inc)))
        assert np.allclose(p, expected, rtol=0.0, atol=1e-12)


class TestLogPriceOracle:
    # the shared log-price integrator against a plain per-cell loop
    GRID = make_grid(0.0, 1.0, 256)
    RESTART = 128
    REDRAW_VOL = {
        "bns": lambda spec, ctx, tail, gen: np.sqrt(jumps.bns_forward(
            spec.bns, float(ctx.frozen["v"][ctx.t_index]), tail, gen)[:-1]),
        "regime": lambda spec, ctx, tail, gen: spec.ctmc.vol_levels[
            jumps.ctmc_states(tail, spec.ctmc,
                              int(ctx.frozen["state"][ctx.t_index]), gen)[:-1]],
    }

    @pytest.mark.parametrize("name", sorted(REDRAW_VOL))
    def test_redraw_continuation(self, name):
        spec = dataclasses.replace(get_preset(name), hk_mode=HkMode.REDRAW)
        _, ctx = simulate(spec, self.GRID, RngStream(19, 0), self.RESTART)
        tail = tail_grid(self.GRID, self.RESTART)
        rng = RngStream(19, 1)
        block = np.vstack([b for _, b in
                           iter_continuations(spec, ctx, tail, rng, 64)])
        gen = rng.child(0).generator()  # the block's rows, in order
        for row in block:
            dw = np.sqrt(tail.dt) * gen.standard_normal(tail.n_steps)
            g = self.REDRAW_VOL[name](spec, ctx, tail, gen)
            expected = vol_log_price(ctx.z_t, g, dw, tail.dt, spec.mu)[0]
            assert np.allclose(row, expected, rtol=0.0, atol=1e-12)

    def test_heston_history(self):
        spec = get_preset("heston")
        rng = RngStream(20, 0)
        path, ctx = simulate(spec, self.GRID, rng)
        dw = np.diff(gen_brownian(self.GRID, rng.child(0)).values)
        expected = vol_log_price(0.0, ctx.frozen["g"][:-1], dw, self.GRID.dt,
                                 spec.mu, spec.rho, ctx.frozen["db"])[0]
        assert np.allclose(path.values, expected, rtol=0.0, atol=1e-12)

    def test_heston_redraw_continuation(self):
        # variance and log price advance together in one fused Euler loop
        spec = get_preset("heston")  # REDRAW
        c = spec.cir
        i0 = self.RESTART
        _, ctx = simulate(spec, self.GRID, RngStream(22, 0), i0)
        history_v = cir_variance(c.v0, c.kappa, c.theta, c.xi, self.GRID.dt,
                                 ctx.frozen["db"])
        assert np.allclose(ctx.frozen["v"], history_v, rtol=0.0, atol=1e-12)
        tail = tail_grid(self.GRID, i0)
        rng = RngStream(22, 1)
        block = np.vstack([b for _, b in
                           iter_continuations(spec, ctx, tail, rng, 64)])
        sdt = np.sqrt(tail.dt)
        gen = rng.child(0).generator()  # the block's rows, in order
        for row in block:
            xi_w = gen.standard_normal(tail.n_steps)
            xi_b = gen.standard_normal(tail.n_steps)
            v = cir_variance(float(ctx.frozen["v"][i0]), c.kappa, c.theta,
                             c.xi, tail.dt, sdt * xi_b)
            g = np.sqrt(np.clip(v[:-1], 0.0, None))
            expected = vol_log_price(ctx.z_t, g, sdt * xi_w, tail.dt, spec.mu,
                                     spec.rho, sdt * xi_b)[0]
            assert np.allclose(row, expected, rtol=0.0, atol=1e-12)

    def test_heston_fixed_continuation(self):
        spec = dataclasses.replace(get_preset("heston"), hk_mode=HkMode.FIXED)
        i0 = self.RESTART
        _, ctx = simulate(spec, self.GRID, RngStream(21, 0), i0)
        tail = tail_grid(self.GRID, i0)
        rng = RngStream(21, 1)
        block = np.vstack([b for _, b in
                           iter_continuations(spec, ctx, tail, rng, 16)])
        dw = np.sqrt(tail.dt) * rng.child(0).generator().standard_normal(
            (16, tail.n_steps))
        expected = vol_log_price(ctx.z_t, ctx.frozen["g"][i0:-1], dw, tail.dt,
                                 spec.mu, spec.rho, ctx.frozen["db"][i0:])
        assert np.allclose(block, expected, rtol=0.0, atol=1e-12)


class TestCellNoiseScale:
    def test_pure_brownian(self):
        spec = get_preset("brownian")
        _, ctx = simulate(spec, GRID, RngStream(14, 0), 0)
        s = cell_noise_scale(spec, ctx, GRID)
        assert np.allclose(s, np.sqrt(GRID.dt))

    def test_wiener_integrand_scale(self):
        spec = get_preset("wiener_affine")
        _, ctx = simulate(spec, GRID, RngStream(15, 0), 0)
        s = cell_noise_scale(spec, ctx, GRID)
        left = np.asarray(GRID.nodes)[:-1]
        assert np.allclose(s, (1.0 + left) * np.sqrt(GRID.dt))

    def test_unavailable_for_state_dependent_noise(self):
        spec = get_preset("heston")
        _, ctx = simulate(spec, GRID, RngStream(16, 0), 0)
        assert cell_noise_scale(spec, ctx, GRID) is None


class TestValidateSpec:
    @pytest.mark.parametrize(
        "name", DEFAULT_BATTERY + ("brownian", "wiener_affine", "exp_drift"))
    def test_battery_models_pass(self, name):
        report = validate_spec(get_preset(name))
        assert report_passed(report), [c for c in report.checks
                                       if c.status == "FAIL"]

    @pytest.mark.parametrize("name", ["doleans", "bridge"])
    def test_counterexamples_fail_support_check(self, name):
        report = validate_spec(get_preset(name))
        failed = {c.name for c in report.checks if c.status == "FAIL"}
        assert "full_support_possible" in failed

    def test_spec_validation_errors(self):
        with pytest.raises(BadParams):
            MixedFbm(hurst=0.0)
        with pytest.raises(BadParams):
            Heston(rho=1.0, cir=CirSpec(kappa=3.0, theta=0.04, xi=0.2, v0=0.04))
        # a family's required parameters are required keyword arguments
        with pytest.raises(TypeError):
            Bns()
        with pytest.raises(TypeError):
            SdePrice()
        with pytest.raises(TypeError):
            WienerIntegral()


CP = SubordinatorSpec(SubordinatorKind.COMPOUND_POISSON_EXP,
                      jump_rate=10.0, jump_mean=0.008)
# one constructor per float spec field, called with the field's value
NONFINITE_FIELD = {
    "cir.kappa": lambda x: CirSpec(kappa=x, theta=0.04, xi=0.2, v0=0.04),
    "cir.theta": lambda x: CirSpec(kappa=3.0, theta=x, xi=0.2, v0=0.04),
    "cir.xi": lambda x: CirSpec(kappa=3.0, theta=0.04, xi=x, v0=0.04),
    "cir.v0": lambda x: CirSpec(kappa=3.0, theta=0.04, xi=0.2, v0=x),
    "fou.alpha": lambda x: FouSpec(hurst=0.7, alpha=x, sigma=0.5),
    "fou.sigma": lambda x: FouSpec(hurst=0.7, alpha=1.0, sigma=x),
    "fou.v0": lambda x: FouSpec(hurst=0.7, alpha=1.0, sigma=0.5, v0=x),
    "subordinator.jump_rate": lambda x: SubordinatorSpec(
        SubordinatorKind.COMPOUND_POISSON_EXP, jump_rate=x),
    "subordinator.jump_mean": lambda x: SubordinatorSpec(
        SubordinatorKind.COMPOUND_POISSON_EXP, jump_rate=1.0, jump_mean=x),
    "subordinator.shape": lambda x: SubordinatorSpec(
        SubordinatorKind.GAMMA, shape=x),
    "subordinator.rate": lambda x: SubordinatorSpec(
        SubordinatorKind.GAMMA, rate=x),
    "bns.decay": lambda x: BnsSpec(subordinator=CP, decay=x),
    "bns.window": lambda x: BnsSpec(subordinator=CP, decay=2.0, window=x),
    "price.mu": lambda x: Bns(mu=x, bns=BnsSpec(subordinator=CP, decay=2.0)),
    "mixed_fbm.fbm_weight": lambda x: MixedFbm(hurst=0.7, fbm_weight=x),
}


class TestNonfiniteParams:
    # comparisons with NaN are False, so each field needs its own
    # finiteness check; a NaN jump rate used to give a Bns whose
    # volatility never jumps
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("field", sorted(NONFINITE_FIELD))
    def test_rejected(self, field, bad):
        with pytest.raises(BadParams):
            NONFINITE_FIELD[field](bad)


def _modes(name):
    spec = get_preset(name)
    if not hasattr(spec, "hk_mode"):
        return [(name, None)]
    return [(name, mode) for mode in HkMode]


class TestChunkMemory:
    """One chunk holds its output block, plus one (rows, m) array for the
    continuations that redraw a second driver; no third array. Besides 5%
    of a block, the bound allows 128 bytes per row for small temporaries
    and two operand buffers of numpy's ufunc machinery, which it uses on
    the column slices of a block."""

    GRID = make_grid(0.0, 1.0, 512)
    ROWS = 512

    @pytest.mark.parametrize("t_index", [0, 256])
    @pytest.mark.parametrize("name, mode", [nm for n in preset_names()
                                            for nm in _modes(n)])
    def test_peak_blocks(self, name, mode, t_index):
        spec = get_preset(name)
        if mode is not None:
            spec = dataclasses.replace(spec, hk_mode=mode)
        _, ctx = simulate(spec, self.GRID, RngStream(31, 0), t_index)
        tail = tail_grid(self.GRID, t_index)
        rows = Block(RngStream(31, 1), self.ROWS)
        continue_chunk(spec, ctx, tail, rows)  # warm the factor caches
        tracemalloc.start()
        try:
            block = continue_chunk(spec, ctx, tail, rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert block.shape == (self.ROWS, tail.n_nodes)
        two_sources = mode is HkMode.REDRAW and not (
            isinstance(spec, MixedFbm) and spec.fbm_weight == 0.0)
        allowance = 128 * self.ROWS + 2 * np.getbufsize() * 8
        assert peak <= (2.05 if two_sources else 1.05) * block.nbytes + allowance

    def test_sources_continue_one_stream(self):
        # each row draws its source-0 normals, then its source-1 normals,
        # from the block's one stream
        block, xi = _fresh_normals(RngStream(32, 1).generator(), 5, 7, 2)
        assert block.flags.c_contiguous and xi.flags.c_contiguous
        assert not np.any(block[:, 0])
        flat = RngStream(32, 1).generator().standard_normal((5, 14))
        assert np.array_equal(block[:, 1:], flat[:, :7])
        assert np.array_equal(xi, flat[:, 7:])


class TestStreamContract:
    """Block b of a call given `rng` draws its rows in order from
    rng.child(b).generator(); pinned bit for bit."""

    def test_brownian_block(self):
        # z_t + cumsum0(sqrt(dt) * normals), one row of normals per row
        spec = get_preset("brownian")
        _, ctx = simulate(spec, GRID, RngStream(33, 0), MID)
        tail = tail_grid(GRID, MID)
        rng = RngStream(33, 1)
        blocks = list(iter_continuations(spec, ctx, tail, rng, BLOCK + 5))
        assert [start for start, _ in blocks] == [0, BLOCK]
        for b, (_, paths) in enumerate(blocks):
            z = np.zeros((len(paths), tail.n_nodes))
            z[:, 1:] = rng.child(b).generator().standard_normal(
                (len(paths), tail.n_steps))
            z *= np.sqrt(tail.dt)
            np.cumsum(z, axis=1, out=z)
            z += ctx.z_t
            assert paths.tobytes() == z.tobytes()



class TestFamilies:
    @pytest.mark.parametrize("name", preset_names())
    def test_spec_hashable_and_equal_after_pickle(self, name):
        spec = get_preset(name)
        copy = pickle.loads(pickle.dumps(spec))
        assert copy == spec
        assert hash(copy) == hash(spec)

    def test_ctmc_compares_by_value(self):
        a = CtmcSpec(generator=((-1.0, 1.0), (2.0, -2.0)), vol_levels=(0.1, 0.3))
        b = CtmcSpec(generator=np.array([[-1.0, 1.0], [2.0, -2.0]]),
                     vol_levels=[0.1, 0.3])
        assert a == b and hash(a) == hash(b)
        assert a != dataclasses.replace(a, initial_state=1)
        assert a != CtmcSpec(generator=a.generator, vol_levels=(0.1, 0.4))
        copy = pickle.loads(pickle.dumps(a))
        assert not copy.vol_levels.flags.writeable

    def test_presets_cover_every_family(self):
        # so the preset-parametrized simulate, continuation and chunk tests
        # exercise every family
        assert {type(get_preset(n)) for n in preset_names()} == set(FAMILIES)

    def test_unnamed_spec_takes_its_tag(self):
        assert Bns(bns=get_preset("bns").bns).name == "BNS_PRICE"

    @pytest.mark.parametrize("name", ["bns", "comte_renault", "regime"])
    def test_independent_volatility_has_no_leverage(self, name):
        # only Heston correlates its volatility driver with W; the other
        # volatility families neither take rho nor draw leverage noise
        spec = get_preset(name)
        assert "rho" not in {f.name for f in dataclasses.fields(spec)}
        _, ctx = simulate(spec, GRID, RngStream(18, 0), MID)
        assert "db" not in ctx.frozen
        assert "db" in simulate(get_preset("heston"), GRID,
                                RngStream(18, 0), MID)[1].frozen
