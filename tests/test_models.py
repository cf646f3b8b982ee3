"""Simulation, conditional continuation, and support validation."""
import dataclasses
import inspect
import pickle
import tracemalloc
import weakref

import numpy as np
import pytest
from oracles import (
    cir_variance,
    gen_brownian,
    report_passed,
    sde_log_price,
    vol_log_price,
)

from cfslab import gaussian, jumps, models
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
from cfslab.gaussian import (
    FouSpec,
    fbm_conditional_factors,
    fou_from_fbm,
)
from cfslab.jumps import BnsSpec, CtmcSpec, SubordinatorSpec
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
    _fbm_tails,
    _fresh_normals,
    cell_noise_scale,
    continue_chunk,
    exact_spread,
    iter_continuations,
    simulate,
    validate_spec,
)
from cfslab.suite import _pilot_std

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

    def test_bridge_history_is_an_exact_bridge(self):
        # the history ends exactly at its frozen terminal, and given that
        # terminal each node has the bridge variance s (T - s) / T, on a grid
        # coarse enough that an Euler reconstruction misses it by 30% or more
        grid = make_grid(0.0, 2.0, 4)
        t = np.asarray(grid.nodes)
        dev = np.empty((4000, grid.n_nodes))
        for seed in range(len(dev)):
            path, ctx = simulate(get_preset("bridge"), grid, RngStream(seed, 0))
            terminal = ctx.frozen["terminal"]
            assert path.values[-1] == terminal
            dev[seed] = path.values - terminal * t / grid.t_end
        var = np.var(dev[:, 1:-1], axis=0)
        assert var == pytest.approx((t * (grid.t_end - t) / grid.t_end)[1:-1],
                                    rel=0.1)
        assert var[1] == pytest.approx(grid.span / 4, rel=0.1)  # at T/2

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


def _fbm_rise_mean(hurst, grid, fbm, t_index):
    # G21 G11^-1 r_p for the past rises r_p, from the blocks of the
    # history's increments factor, by one dense solve
    head, _ = fbm_conditional_factors(hurst, grid, t_index)
    p = t_index
    return head[p:] @ np.linalg.solve(head[:p], np.diff(fbm[: p + 1]))


def _comte_renault_vol(spec, ctx, tail, gen):
    # one row's fBm rises from their exact conditional law given the frozen
    # history, summed onto its value at the restart, then exp(fOU) over the
    # whole path at the left points
    i0 = ctx.t_index
    fbm = ctx.frozen["fbm"]
    _, factor = fbm_conditional_factors(spec.fou.hurst, ctx.grid, i0)
    rises = (_fbm_rise_mean(spec.fou.hurst, ctx.grid, fbm, i0)
             + factor @ gen.standard_normal(tail.n_steps))
    tails = fbm[i0] + np.cumsum(rises)
    v = fou_from_fbm(ctx.grid, spec.fou, np.concatenate((fbm[: i0 + 1], tails)))
    return np.exp(v[i0:-1])


class TestMixedFbmOracle:
    GRID = make_grid(0.0, 1.0, 256)

    @pytest.mark.parametrize("name", ["mixed_fbm_h025", "comte_renault"])
    def test_frozen_normals_reproduce_the_frozen_fbm(self, name):
        # the context freezes the normals its fBm was drawn from: fed them
        # from restart 0, the conditional law's rises sum to the frozen fBm
        # bit for bit
        spec = get_preset(name)
        hurst = spec.fou.hurst if isinstance(spec, ComteRenault) else spec.hurst
        _, ctx = simulate(spec, self.GRID, RngStream(23, 0), 0)
        fbm, normals = ctx.frozen["fbm"], ctx.frozen["fbm_normals"]
        assert normals.shape == (self.GRID.n_steps,)
        assert fbm[0] == 0.0
        noise, mean = _fbm_tails(hurst, ctx, normals[None].copy())
        assert not np.any(mean)
        assert np.array_equal(fbm[1:], np.cumsum(noise[0] + mean))

    @pytest.mark.parametrize("restart", [0, 1, 128, 255])
    @pytest.mark.parametrize("name", ["mixed_fbm_h025", "mixed_fbm_h075"])
    def test_redraw_continuation(self, name, restart):
        # z_t + cumsum0(sqrt(dt) xi_W) + w cumsum0(mean + G xi_F), with
        # mean = G21 G11^-1 r_p for the past rises r_p, each row's xi_W and
        # then its xi_F read in order from the block
        spec = get_preset(name)  # REDRAW
        _, ctx = simulate(spec, self.GRID, RngStream(23, 0), restart)
        tail = tail_grid(self.GRID, restart)
        _, factor = fbm_conditional_factors(spec.hurst, self.GRID, restart)
        fbm = ctx.frozen["fbm"]
        mean = _fbm_rise_mean(spec.hurst, self.GRID, fbm, restart)
        rng = RngStream(23, 1)
        block = np.vstack([b for _, b in
                           iter_continuations(spec, ctx, tail, rng, 64)])
        gen = rng.child(0).generator()
        for row in block:
            xi_w = gen.standard_normal(tail.n_steps)
            xi_f = gen.standard_normal(tail.n_steps)
            w = np.concatenate(([0.0], np.cumsum(np.sqrt(tail.dt) * xi_w)))
            rise = np.concatenate(([0.0], np.cumsum(mean + factor @ xi_f)))
            expected = ctx.z_t + w + spec.fbm_weight * rise
            assert np.allclose(row, expected, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("restart", [0, 128])
    @pytest.mark.parametrize("name", ["mixed_fbm_h025", "mixed_fbm_h075"])
    def test_redraw_continuation_on_matmul_panels(self, name, restart, panels):
        self.test_redraw_continuation(name, restart)


class TestWienerIntegralOracle:
    GRID = make_grid(0.0, 1.0, 256)

    @pytest.mark.parametrize("restart", [0, 128])
    @pytest.mark.parametrize("name", ["wiener_affine", "exp_drift"])
    def test_continuation(self, name, restart):
        # z_t + cumsum0(k(t_i) sqrt(dt) xi_i) + h(t) - h(t_0), with k at the
        # left point of every cell and each row's xi read in order from the
        # block
        spec = get_preset(name)
        _, ctx = simulate(spec, self.GRID, RngStream(24, 0), restart)
        tail = tail_grid(self.GRID, restart)
        t = np.asarray(tail.nodes)
        k, h = spec.k_fn(t)[:-1], spec.h_fn(t)
        rng = RngStream(24, 1)
        block = np.vstack([b for _, b in
                           iter_continuations(spec, ctx, tail, rng, 64)])
        gen = rng.child(0).generator()
        for row in block:
            xi = gen.standard_normal(tail.n_steps)
            w = np.concatenate(([0.0], np.cumsum(k * np.sqrt(tail.dt) * xi)))
            expected = ctx.z_t + w + h - h[0]
            assert np.allclose(row, expected, rtol=0.0, atol=1e-12)


class TestLogPriceOracle:
    # the shared log-price integrator against a plain per-cell loop
    GRID = make_grid(0.0, 1.0, 256)
    RESTART = 128
    REDRAW_VOL = {
        "bns": lambda spec, ctx, tail, gen: np.sqrt(jumps.bns_forward(
            spec.bns, float(ctx.frozen["v"][ctx.t_index]), tail, gen)[:-1]),
        "comte_renault": _comte_renault_vol,
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

    def test_comte_renault_redraw_on_matmul_panels(self, panels):
        self.test_redraw_continuation("comte_renault")

    def test_heston_history(self):
        spec = get_preset("heston")
        rng = RngStream(20, 0)
        path, ctx = simulate(spec, self.GRID, rng)
        dw = np.diff(gen_brownian(self.GRID, rng.child(0)).values)
        expected = vol_log_price(0.0, ctx.frozen["g"][:-1], dw, self.GRID.dt,
                                 spec.mu, spec.rho, ctx.frozen["db"])[0]
        assert np.allclose(path.values, expected, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("rho", [-0.3, 0.0, 0.9])  # the preset's first
    def test_heston_redraw_continuation(self, rho):
        # the variance advances one shared full-truncation Euler step per
        # cell over all rows; the shared integrator finishes the log price
        spec = dataclasses.replace(get_preset("heston"), rho=rho)  # REDRAW
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

    @pytest.mark.parametrize("rho", [-0.3, 0.0, 0.9])  # the preset's first
    def test_heston_fixed_continuation(self, rho):
        spec = dataclasses.replace(get_preset("heston"), hk_mode=HkMode.FIXED,
                                   rho=rho)
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


class TestSdeOracle:
    # the SDE family's log-price Euler scheme against a per-row scalar loop
    GRID = make_grid(0.0, 1.0, 256)

    @pytest.mark.parametrize("restart", [0, 128])
    def test_continuation(self, restart):
        spec = get_preset("sde")
        _, ctx = simulate(spec, self.GRID, RngStream(25, 0), restart)
        tail = tail_grid(self.GRID, restart)
        rng = RngStream(25, 1)
        block = np.vstack([b for _, b in
                           iter_continuations(spec, ctx, tail, rng, 64)])
        dw = np.sqrt(tail.dt) * rng.child(0).generator().standard_normal(
            (64, tail.n_steps))  # the block's rows, in order
        expected = sde_log_price(ctx.z_t, np.asarray(tail.nodes), spec.mu_fn,
                                 spec.sigma_fn, dw, tail.dt)
        assert np.allclose(block, expected, rtol=0.0, atol=1e-12)


class _Replay:
    """A generator stub whose `standard_normal(out=)` replays given normals."""

    def __init__(self, normals):
        self.normals = normals

    def standard_normal(self, out):
        out[...] = self.normals
        return out


class TestPathwiseSplit:
    """Given the drivers, a history and its FIXED continuation from a
    restart are one integral split there: fed the history's own normals
    after the restart, the continuation retraces the history's nodes."""

    GRID = make_grid(0.0, 1.0, 256)

    @pytest.mark.parametrize("name", preset_names())
    def test_fixed_continuation_retraces_history(self, name):
        spec = get_preset(name)
        if hasattr(spec, "hk_mode"):
            spec = dataclasses.replace(spec, hk_mode=HkMode.FIXED)
        for seed in range(3):
            rng = RngStream(seed, 0)
            normals = rng.child(0).generator().standard_normal(self.GRID.n_steps)
            for t in (64, 128, 200):
                path, ctx = simulate(spec, self.GRID, rng, t)
                z = spec.continuation(ctx, tail_grid(self.GRID, t),
                                      _Replay(normals[t:]), 1)[0]
                expected = path.values[t:]
                err = np.max(np.abs(z - expected) / (1.0 + np.abs(expected)))
                assert err <= 1e-12, (seed, t, err)

    def test_brownian_history_is_gen_brownian(self):
        for seed in range(20):
            rng = RngStream(seed, 0)
            path, _ = simulate(get_preset("brownian"), self.GRID, rng)
            w = gen_brownian(self.GRID, rng.child(0)).values
            assert path.values.tobytes() == w.tobytes()


class TestCellNoiseScale:
    # the presets with a deterministic integrand k, and k at the left points;
    # every other preset gets no bridge debiasing
    K = {"brownian": np.ones_like,
         "wiener_affine": lambda s: 1.0 + s,
         "exp_drift": lambda s: np.full_like(s, 0.2)}

    @pytest.mark.parametrize("t_index", [0, MID])
    @pytest.mark.parametrize("name", preset_names())
    def test_scale_is_abs_k_sqrt_dt(self, name, t_index):
        spec = get_preset(name)
        _, ctx = simulate(spec, GRID, RngStream(14, 0), t_index)
        tail = tail_grid(GRID, t_index)
        s = cell_noise_scale(spec, ctx, tail)
        if name not in self.K:
            assert s is None
            return
        left = np.asarray(tail.nodes)[:-1]
        assert s.shape == (tail.n_steps,)
        assert np.allclose(s, np.abs(self.K[name](left)) * np.sqrt(tail.dt),
                           rtol=0.0, atol=1e-15)


def _in_mode(name, mode):
    return dataclasses.replace(get_preset(name), hk_mode=mode)


class TestExactSpread:
    # the battery's scale read off the law, against the Monte Carlo pilot
    # it replaces; the tolerance, 4 standard errors of a sample standard
    # deviation, was fixed before running
    GRID = make_grid(0.0, 1.0, 256)
    N = 10 ** 5
    EXACT = {
        "brownian": lambda: get_preset("brownian"),
        "wiener_affine": lambda: get_preset("wiener_affine"),
        "exp_drift": lambda: get_preset("exp_drift"),
        "mixed_fbm_h025-fixed": lambda: _in_mode("mixed_fbm_h025", HkMode.FIXED),
        "mixed_fbm_h075-fixed": lambda: _in_mode("mixed_fbm_h075", HkMode.FIXED),
        "mixed_fbm_h025-redraw": lambda: get_preset("mixed_fbm_h025"),
        "mixed_fbm_h075-redraw": lambda: get_preset("mixed_fbm_h075"),
        "bns-fixed": lambda: get_preset("bns"),
        "comte_renault-fixed": lambda: get_preset("comte_renault"),
        "regime-fixed": lambda: get_preset("regime"),
        "heston-fixed": lambda: _in_mode("heston", HkMode.FIXED),
    }
    PILOTED = {
        "heston-redraw": lambda: get_preset("heston"),
        "sde": lambda: get_preset("sde"),
        "doleans": lambda: get_preset("doleans"),
        "bridge": lambda: get_preset("bridge"),
        "bns-redraw": lambda: _in_mode("bns", HkMode.REDRAW),
        "regime-redraw": lambda: _in_mode("regime", HkMode.REDRAW),
        "comte_renault-redraw": lambda: _in_mode("comte_renault", HkMode.REDRAW),
    }

    def _cell(self, make, t_index, seed):
        spec = make()
        _, ctx = simulate(spec, self.GRID, RngStream(seed, 0), t_index)
        return spec, ctx, tail_grid(self.GRID, t_index)

    @pytest.mark.parametrize("t_index", [0, 128])
    @pytest.mark.parametrize("case", sorted(EXACT))
    def test_matches_the_monte_carlo_pilot(self, case, t_index):
        spec, ctx, tail = self._cell(self.EXACT[case], t_index, 7)
        exact = exact_spread(spec, ctx, tail)
        pilot = _pilot_std(spec, ctx, tail, RngStream(7, 1), self.N)
        assert exact.shape == (2,)
        assert abs(np.max(exact) / pilot - 1.0) <= 4.0 / np.sqrt(2 * self.N)

    @pytest.mark.parametrize("t_index", [0, 128])
    @pytest.mark.parametrize("case", sorted(PILOTED))
    def test_none_where_the_law_is_per_replication(self, case, t_index):
        spec, ctx, tail = self._cell(self.PILOTED[case], t_index, 8)
        assert exact_spread(spec, ctx, tail) is None

    @pytest.mark.parametrize("t_index", [0, 128])
    def test_redraw_heston_draws_no_variance_path(self, t_index, monkeypatch):
        # its law is per replication, so None comes without a zero-row read
        spec, ctx, tail = self._cell(self.PILOTED["heston-redraw"], t_index, 8)

        def no_redraw(*args):
            raise AssertionError("Heston._redraw ran")

        monkeypatch.setattr(Heston, "_redraw", no_redraw)
        assert exact_spread(spec, ctx, tail) is None

    @pytest.mark.parametrize("t_index", [0, 128])
    def test_brownian_is_sqrt_time(self, t_index):
        # both nodes: the middle one (n_steps // 2) and the end
        spec, ctx, tail = self._cell(self.EXACT["brownian"], t_index, 9)
        m = tail.n_steps
        assert np.allclose(exact_spread(spec, ctx, tail),
                           np.sqrt(np.array([m // 2, m]) * tail.dt),
                           rtol=1e-14, atol=0.0)


class TestSteps:
    """Heston's variance step and the SDE's Euler step are each written
    once: a history runs the step on one row, a chunk on all its rows."""

    @pytest.mark.parametrize("family, name, attr", [
        (Heston, "heston", "_cir_step"), (SdePrice, "sde", "euler_step")])
    def test_history_and_chunk_run_the_one_step(self, family, name, attr,
                                                monkeypatch):
        real, rows = getattr(family, attr), []

        def spy(self, dt, n):
            rows.append(n)
            return real(self, dt, n)

        monkeypatch.setattr(family, attr, spy)
        spec = get_preset(name)  # heston: REDRAW
        _, ctx = simulate(spec, GRID, RngStream(34, 0), MID)
        continue_chunk(spec, ctx, tail_grid(GRID, MID), Block(RngStream(34, 1), 5))
        assert rows == [1, 5]

    def test_no_second_copy_in_the_source(self):
        source = inspect.getsource(models)
        assert source.count("c.kappa * dt") == 1  # in `Heston._cir_step`
        for call in ("self.mu_fn(t, p)", "self.sigma_fn(t, p)"):
            assert source.count(call) == 1  # in `SdePrice.euler_step`


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


CP = SubordinatorSpec(jump_rate=10.0, jump_mean=0.008)
# one constructor per float spec field, called with the field's value
NONFINITE_FIELD = {
    "cir.kappa": lambda x: CirSpec(kappa=x, theta=0.04, xi=0.2, v0=0.04),
    "cir.theta": lambda x: CirSpec(kappa=3.0, theta=x, xi=0.2, v0=0.04),
    "cir.xi": lambda x: CirSpec(kappa=3.0, theta=0.04, xi=x, v0=0.04),
    "cir.v0": lambda x: CirSpec(kappa=3.0, theta=0.04, xi=0.2, v0=x),
    "fou.alpha": lambda x: FouSpec(hurst=0.7, alpha=x, sigma=0.5),
    "fou.sigma": lambda x: FouSpec(hurst=0.7, alpha=1.0, sigma=x),
    "fou.v0": lambda x: FouSpec(hurst=0.7, alpha=1.0, sigma=0.5, v0=x),
    "subordinator.jump_rate": lambda x: SubordinatorSpec(jump_rate=x),
    "subordinator.jump_mean": lambda x: SubordinatorSpec(jump_rate=1.0,
                                                         jump_mean=x),
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


class TestFactorMemory:
    """A process holds one fBm factor: the cache drops the factor of the
    last (H, grid) before it builds the next, and the conditional blocks
    are views of the cached factor, kept alive by no cache of their own."""

    GRID = make_grid(0.0, 1.0, 2048)

    def test_one_factor_while_building_the_next(self, monkeypatch):
        gaussian._fgn_cholesky.cache_clear()
        first = weakref.ref(gaussian._fgn_cholesky(0.25, self.GRID).base)
        fbm_conditional_factors(0.25, self.GRID, 1024)  # blocks, dropped
        schur, first_alive = gaussian._toeplitz_schur, []

        def spy(c):
            first_alive.append(first() is not None)
            return schur(c)

        monkeypatch.setattr(gaussian, "_toeplitz_schur", spy)
        fbm_conditional_factors(0.75, self.GRID, 1024)
        assert first_alive == [False]

    def test_blocks_are_views_of_the_cached_factor(self):
        head, ell = fbm_conditional_factors(0.75, self.GRID, 1024)
        factor = gaussian._fgn_cholesky(0.75, self.GRID)
        assert factor.base is not None
        assert head.base is factor.base and ell.base is factor.base
        assert np.shares_memory(head[:4, :4], factor[:4, :4])
        assert np.shares_memory(ell[:4, :4], factor[1024:1028, 1024:1028])
        assert (fbm_conditional_factors.cache_info()
                == gaussian._fgn_cholesky.cache_info())


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
