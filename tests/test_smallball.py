"""Conditional tube-probability estimation and its oracles."""
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import mc_tube_probability

from cfslab import core, gaussian
from cfslab.catalog import affine_integrand, get_preset
from cfslab.core import (
    BadParams,
    BadQuery,
    Classification,
    IncompatibleContext,
    DegenerateClock,
    GridMismatch,
    Path,
    RngStream,
    constant_path,
    make_grid,
    tail_grid,
)
from cfslab.gaussian import gen_brownian
from cfslab.models import (
    HkMode,
    WienerIntegral,
    cell_noise_scale,
    chunk_threads,
    iter_continuations,
    simulate,
)
from cfslab.smallball import (
    _bridge_survival,
    REASON_ENDPOINT_PIN,
    REASON_POSITIVITY,
    SmallBallQuery,
    brownian_smallball_series,
    detect_analytic_zero,
    estimate_many,
    estimate_smallball,
    timechanged_smallball,
)

GRID = make_grid(0.0, 1.0, 256)
COARSE_STEPS = 16  # steps of the grids that count many blocks


def _ctx(name, t_index=0, seed=1):
    spec = get_preset(name)
    _, ctx = simulate(spec, GRID, RngStream(seed, 0), t_index)
    return spec, ctx


class TestSeries:
    def test_reference_value(self):
        assert brownian_smallball_series(1.0, 1.0) == pytest.approx(0.37078, abs=5e-5)

    def test_zero_clock(self):
        assert brownian_smallball_series(0.0, 0.5) == 1.0

    @pytest.mark.parametrize("k_total, eps", [(np.nan, 1.0), (1.0, np.nan)])
    def test_nan_rejected(self, k_total, eps):
        with pytest.raises(BadParams):
            brownian_smallball_series(k_total, eps)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0.01, 10.0), st.floats(0.05, 5.0))
    def test_bounds_and_monotonicity(self, k_total, eps):
        p = brownian_smallball_series(k_total, eps)
        assert 0.0 <= p <= 1.0
        # series truncation leaves ~1e-16 noise near p = 1
        assert brownian_smallball_series(k_total, eps * 1.5) >= p - 1e-12
        assert brownian_smallball_series(k_total * 1.5, eps) <= p + 1e-12


class TestQueryValidation:
    def test_eps_positive(self):
        with pytest.raises(BadQuery):
            SmallBallQuery(0, constant_path(GRID, 0.0), 0.0)

    def test_eps_nan_rejected(self):
        with pytest.raises(BadQuery):
            SmallBallQuery(0, constant_path(GRID, 0.0), float("nan"))

    def test_target_vanishes_at_start(self):
        with pytest.raises(BadQuery):
            SmallBallQuery(0, constant_path(GRID, 0.5), 1.0)

    @pytest.mark.parametrize("other", [make_grid(0.0, 2.0, 256),
                                       make_grid(0.0, 1.0, 128)],
                             ids=["longer", "coarser"])
    def test_mixed_tail_grids_rejected(self, other):
        spec, ctx = _ctx("brownian")
        qs = [SmallBallQuery(0, constant_path(GRID, 0.0), 1.0),
              SmallBallQuery(0, constant_path(other, 0.0), 1.0)]
        with pytest.raises(BadQuery):
            estimate_many(spec, ctx, qs, 10, RngStream(0, 1))

    def test_mismatched_restart_rejected(self):
        spec, ctx = _ctx("brownian", t_index=0)
        q = SmallBallQuery(128, constant_path(tail_grid(GRID, 128), 0.0), 1.0)
        with pytest.raises(BadQuery):
            estimate_smallball(spec, ctx, q, 10, RngStream(0, 1))


class TestAnalyticZero:
    def test_positivity_reason(self):
        spec, ctx = _ctx("doleans")
        down = Path(GRID, np.linspace(0.0, -(ctx.z_t + 1.0), GRID.n_nodes))
        q = SmallBallQuery(0, down, 0.5)
        assert detect_analytic_zero(spec, ctx, q) == REASON_POSITIVITY
        est = estimate_smallball(spec, ctx, q, 500, RngStream(2, 1))
        assert est.classification is Classification.ANALYTIC_ZERO
        assert est.hits == 0

    def test_endpoint_pin_reason(self):
        spec, ctx = _ctx("bridge", t_index=128)
        pinned = float(ctx.frozen["terminal"]) - ctx.z_t
        tail = tail_grid(GRID, 128)
        miss = Path(tail, np.linspace(0.0, pinned + 1.0, tail.n_nodes))
        q = SmallBallQuery(128, miss, 0.5)
        assert detect_analytic_zero(spec, ctx, q) == REASON_ENDPOINT_PIN

    def test_context_checked_before_detection(self):
        # every query is an analytic zero, yet its [0, 5] grid does not
        # extend the context's [0, 1] grid
        spec, ctx = _ctx("doleans")
        grid5 = make_grid(0.0, 5.0, 256)
        down = Path(grid5, np.linspace(0.0, -(ctx.z_t + 1.0), grid5.n_nodes))
        q = SmallBallQuery(0, down, 0.5)
        assert detect_analytic_zero(spec, ctx, q) == REASON_POSITIVITY
        with pytest.raises(IncompatibleContext):
            estimate_many(spec, ctx, [q], 10, RngStream(2, 1))

    def test_no_reason_for_feasible_tube(self):
        spec, ctx = _ctx("brownian")
        q = SmallBallQuery(0, constant_path(GRID, 0.0), 0.5)
        assert detect_analytic_zero(spec, ctx, q) is None


class TestEstimator:
    def test_matches_series_oracle(self):
        spec, ctx = _ctx("brownian")
        q = SmallBallQuery(0, constant_path(GRID, 0.0), 1.0)
        est = estimate_smallball(spec, ctx, q, 20_000, RngStream(3, 1))
        assert est.p_hat == pytest.approx(0.37078, abs=0.015)
        assert est.ci_low < 0.37078 < est.ci_high

    def test_eps_monotonicity_exact(self):
        spec, ctx = _ctx("heston", t_index=128)
        tail = tail_grid(GRID, 128)
        f = constant_path(tail, 0.0)
        qs = [SmallBallQuery(128, f, e) for e in (0.02, 0.05, 0.1, 0.3)]
        ests = estimate_many(spec, ctx, qs, 2000, RngStream(4, 1))
        hits = [e.hits for e in ests]
        assert hits == sorted(hits)

    def test_thinned_eps_monotonicity_exact(self):
        # same-target queries share thinning uniforms, so monotonicity in
        # eps is exact even with within-cell excursion correction
        spec, ctx = _ctx("brownian")
        f = constant_path(GRID, 0.0)
        qs = [SmallBallQuery(0, f, e) for e in (0.3, 0.5, 0.8, 1.2)]
        ests = estimate_many(spec, ctx, qs, 2000, RngStream(5, 1))
        hits = [e.hits for e in ests]
        assert hits == sorted(hits)

    def test_repeated_runs_are_identical(self):
        spec, ctx = _ctx("heston", t_index=128)
        tail = tail_grid(GRID, 128)
        f0 = constant_path(tail, 0.0)
        e0 = estimate_many(spec, ctx, [SmallBallQuery(128, f0, 0.2)], 1000,
                           RngStream(6, 1))[0]
        e1 = estimate_many(spec, ctx, [SmallBallQuery(128, f0, 0.2)], 1000,
                           RngStream(6, 1))[0]
        assert e0.hits == e1.hits

    def test_chunk_size_invariance(self):
        # counting block by block, tile by tile, equals one count over all
        # the rows; node-monitored, on a coarse grid
        grid = make_grid(0.0, 1.0, COARSE_STEPS)
        spec = get_preset("heston")
        _, ctx = simulate(spec, grid, RngStream(7, 0), 0)
        assert cell_noise_scale(spec, ctx, grid) is None
        qs = [SmallBallQuery(0, constant_path(grid, 0.0), e) for e in (0.1, 0.2)]
        ests = estimate_many(spec, ctx, qs, 1500, RngStream(7, 1))
        paths = np.vstack([b for _, b in
                           iter_continuations(spec, ctx, grid, RngStream(7, 1), 1500)])
        dev = np.max(np.abs(paths - paths[:, :1]), axis=1)
        assert [e.hits for e in ests] == [np.count_nonzero(dev < q.eps) for q in qs]
        assert 0 < ests[0].hits < ests[1].hits < 1500

    def test_thinning_uniforms_of_each_block(self):
        # block b thins with rng.child(b).child(101).generator().random(
        # (rows, groups)), one column per distinct target
        grid = make_grid(0.0, 1.0, COARSE_STEPS)
        spec = get_preset("brownian")
        _, ctx = simulate(spec, grid, RngStream(27, 0), 0)
        s2 = cell_noise_scale(spec, ctx, grid) ** 2
        t = np.asarray(grid.nodes)
        targets = [0.0 * t, 0.3 * t]
        qs = [SmallBallQuery(0, Path(grid, f), 0.8) for f in targets]
        rng = RngStream(27, 1)
        ests = estimate_many(spec, ctx, qs, 1500, rng)
        hits = np.zeros(len(qs), dtype=int)
        for start, paths in iter_continuations(spec, ctx, grid, rng, 1500):
            u = rng.child(start // core.BLOCK).child(101).generator().random(
                (len(paths), len(targets)))
            rel = paths - paths[:, :1]
            for gi, f in enumerate(targets):
                d = rel - f
                inside = np.max(np.abs(d), axis=1) < 0.8
                surv = _survival_reference(d[inside], 0.8, s2)
                hits[gi] += np.count_nonzero(u[inside, gi] < surv)
        assert [e.hits for e in ests] == hits.tolist()
        assert np.all(hits > 0)

    def test_huge_eps_hits_everything(self):
        spec, ctx = _ctx("brownian")
        q = SmallBallQuery(0, constant_path(GRID, 0.0), 100.0)
        est = estimate_smallball(spec, ctx, q, 500, RngStream(8, 1))
        assert est.hits == 500


@pytest.mark.usefixtures("two_cpus")
class TestThreadedChunks:
    """Chunks on two threads give the estimates of one thread."""

    def _both(self, spec, ctx, queries, seed):
        assert chunk_threads(2, 2100) == 2  # 3 chunks, the last ragged
        one, two = (estimate_many(spec, ctx, queries, 2100,
                                  RngStream(seed, 1), workers=w)
                    for w in (1, 2))
        assert one == two
        assert any(e.hits for e in one)
        return one

    def test_debiased_brownian_six_targets(self):
        # six distinct targets: six thinning uniforms per row
        spec, ctx = _ctx("brownian")
        assert cell_noise_scale(spec, ctx, GRID) is not None
        t = np.asarray(GRID.nodes)
        targets = [Path(GRID, a * t) for a in (-0.3, -0.1, 0.0, 0.1, 0.2, 0.4)]
        self._both(spec, ctx, [SmallBallQuery(0, f, e) for f in targets
                               for e in (0.6, 1.0)], 21)

    @pytest.mark.parametrize("name, t_index, eps", [
        ("mixed_fbm_h075", 128, (0.3, 0.6)), ("heston", 0, (0.1, 0.3))],
        ids=["mixed_fbm_h075", "heston"])
    def test_node_monitored(self, name, t_index, eps):
        spec, ctx = _ctx(name, t_index=t_index)
        tail = tail_grid(GRID, t_index)
        if name == "mixed_fbm_h075":
            assert spec.hk_mode is HkMode.REDRAW
        self._both(spec, ctx, [SmallBallQuery(t_index, constant_path(tail, 0.0),
                                              e) for e in eps], 22)

    def test_many_threads_with_short_switch_interval(self, monkeypatch):
        # more threads than CPUs, switching as often as the interpreter
        # allows: a row or buffer shared between chunks would change hits;
        # nine blocks on eight threads, on a coarse grid
        monkeypatch.setattr(core, "usable_cpus", lambda: 8)
        grid = make_grid(0.0, 1.0, COARSE_STEPS)
        spec = get_preset("brownian")
        _, ctx = simulate(spec, grid, RngStream(25, 0), 0)
        t = np.asarray(grid.nodes)
        qs = [SmallBallQuery(0, Path(grid, a * t), 0.8) for a in (-0.2, 0.0, 0.3)]
        reps = 8 * core.BLOCK + 100
        assert chunk_threads(8, reps) == 8
        one = estimate_many(spec, ctx, qs, reps, RngStream(25, 1))
        threads = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            eight = estimate_many(spec, ctx, qs, reps, RngStream(25, 1),
                                  workers=8)
        finally:
            sys.setswitchinterval(interval)
        assert one == eight
        assert threading.active_count() == threads

    def test_chunk_error_reaches_caller(self, fail_chunk):
        spec, ctx = _ctx("brownian")
        q = SmallBallQuery(0, constant_path(GRID, 0.0), 1.0)
        fail_chunk(1024)
        with pytest.raises(FloatingPointError, match="chunk at 1024"):
            estimate_many(spec, ctx, [q], 2100, RngStream(23, 1), workers=2)

    def test_workers_below_one_rejected(self):
        spec, ctx = _ctx("doleans")
        # an analytic zero runs no chunk, and is still checked
        q = SmallBallQuery(0, Path(GRID, -2.0 * np.asarray(GRID.nodes)), 0.5)
        assert detect_analytic_zero(spec, ctx, q) is not None
        with pytest.raises(BadParams, match="workers must be >= 1"):
            estimate_many(spec, ctx, [q], 100, RngStream(24, 1), workers=0)

    def test_factor_cache_filled_once(self, two_cpus, monkeypatch):
        # a slow miss, so that the second chunk's thread asks for the
        # conditional factor while the first is building it
        spec, ctx = _ctx("mixed_fbm_h075", t_index=128)
        solve = gaussian.solve_triangular

        def slow_solve(*args, **kwargs):
            time.sleep(0.2)
            return solve(*args, **kwargs)

        monkeypatch.setattr(gaussian, "solve_triangular", slow_solve)
        gaussian.fbm_conditional_factors.cache_clear()
        q = SmallBallQuery(128, constant_path(tail_grid(GRID, 128), 0.0), 0.5)
        estimate_many(spec, ctx, [q], 2048, RngStream(26, 1), workers=2)
        info = gaussian.fbm_conditional_factors.cache_info()
        assert (info.misses, info.hits) == (1, 1)


def _cumsum_rows(x):
    out = np.zeros((x.shape[0], x.shape[1] + 1))
    np.cumsum(x, axis=1, out=out[:, 1:])
    return out


def _survival_reference(d, eps, s2):
    """Both reflection terms on every cell: the formula `_bridge_survival`
    prunes."""
    a, b = d[:, :-1], d[:, 1:]
    with np.errstate(divide="ignore"):
        inv = np.where(s2 > 0.0, 1.0 / np.where(s2 > 0.0, s2, 1.0), np.inf)
    p_up = np.exp(-2.0 * (eps - a) * (eps - b) * inv)
    p_dn = np.exp(-2.0 * (eps + a) * (eps + b) * inv)
    return np.prod(np.clip(1.0 - p_up - p_dn, 0.0, 1.0), axis=1)


class TestBridgeSurvival:
    """The pruned survival product is bit-identical to the full formula."""

    EPS = 0.8

    def _rows(self, s2, n=400, seed=0):
        # random walks with the cell variances, kept if inside the tube,
        # plus rows hugging each edge and rows far from both
        gen = np.random.default_rng(seed)
        walks = _cumsum_rows(gen.standard_normal((n, s2.size)) * np.sqrt(s2))
        inside = walks[np.max(np.abs(walks), axis=1) < self.EPS]
        m = s2.size + 1
        hug = self.EPS * (1.0 - 1e-3 * gen.uniform(size=(20, m)))
        hug[10:] *= -1.0
        far = 0.1 * self.EPS * gen.uniform(-1.0, 1.0, size=(20, m))
        return np.concatenate((inside, hug, far))

    def _check(self, d, s2):
        got = _bridge_survival(d, self.EPS, s2)
        assert got.shape == (d.shape[0],)
        assert np.array_equal(got, _survival_reference(d, self.EPS, s2))

    def test_uniform_scale(self):
        s2 = np.full(256, 1.0 / 256)
        d = self._rows(s2)
        reach = np.sqrt(19.0 * s2.max())
        assert np.any(np.abs(d) <= self.EPS - reach)  # some cells are pruned
        assert np.any(np.abs(d) > self.EPS - reach)
        self._check(d, s2)

    def test_nodes_exactly_at_threshold(self):
        s2 = np.full(64, 1.0 / 64)
        edge = self.EPS - np.sqrt(19.0 * s2.max())
        gen = np.random.default_rng(1)
        d = np.choose(gen.integers(0, 3, size=(50, 65)),
                      (np.full((50, 65), edge), np.full((50, 65), -edge),
                       gen.uniform(-self.EPS, self.EPS, size=(50, 65)) * 0.999))
        self._check(d, s2)
        self._check(np.full((3, 65), edge), s2)

    def test_zero_variance_cells(self):
        s2 = np.full(128, 1.0 / 128)
        s2[::3] = 0.0
        self._check(self._rows(s2, seed=2), s2)
        zero = np.zeros(128)
        d = self._rows(np.full(128, 1.0 / 128), seed=3)
        assert np.array_equal(_bridge_survival(d, self.EPS, zero),
                              np.ones(d.shape[0]))
        self._check(d, zero)

    def test_wiener_affine_scales(self):
        spec = get_preset("wiener_affine")
        grid = make_grid(0.0, 1.0, 256)
        _, ctx = simulate(spec, grid, RngStream(4, 0), 64)
        s2 = cell_noise_scale(spec, ctx, tail_grid(grid, 64)) ** 2
        assert np.ptp(s2) > 0.0
        self._check(self._rows(s2, seed=4), s2)

    def test_empty_row_set(self):
        s2 = np.full(32, 1.0 / 32)
        got = _bridge_survival(np.empty((0, 33)), self.EPS, s2)
        assert got.shape == (0,)


class TestTimechanged:
    def test_constant_integrand_matches_series(self):
        k = constant_path(GRID, 1.0)
        f = constant_path(GRID, 0.0)
        est = timechanged_smallball(k, f, 1.0, 20_000, RngStream(9, 1))
        assert est.p_hat == pytest.approx(0.37078, abs=0.015)

    def test_degenerate_clock(self):
        k = constant_path(GRID, 0.0)
        f = constant_path(GRID, 0.0)
        with pytest.raises(DegenerateClock):
            timechanged_smallball(k, f, 1.0, 100, RngStream(10, 1))

    def test_target_on_other_grid_rejected(self):
        k = constant_path(GRID, 1.0)
        f = constant_path(make_grid(0.0, 2.0, GRID.n_steps), 0.0)
        with pytest.raises(GridMismatch):
            timechanged_smallball(k, f, 1.0, 100, RngStream(10, 1))

    def test_target_with_other_step_count_rejected(self):
        k = constant_path(GRID, 1.0)
        f = constant_path(make_grid(0.0, 1.0, 2 * GRID.n_steps), 0.0)
        with pytest.raises(GridMismatch):
            timechanged_smallball(k, f, 1.0, 100, RngStream(10, 1))

    def test_target_not_vanishing_at_start_rejected(self):
        k = constant_path(GRID, 1.0)
        f = constant_path(GRID, 5.0)
        with pytest.raises(BadQuery):
            timechanged_smallball(k, f, 1.0, 100, RngStream(10, 1))

    def test_agrees_with_direct_estimator(self):
        spec = WienerIntegral(k_fn=affine_integrand)
        _, ctx = simulate(spec, GRID, RngStream(11, 0), 0)
        f = constant_path(GRID, 0.0)
        direct = estimate_smallball(spec, ctx, SmallBallQuery(0, f, 1.0),
                                    20_000, RngStream(11, 1))
        k = Path(GRID, affine_integrand(np.asarray(GRID.nodes)))
        tc = timechanged_smallball(k, f, 1.0, 20_000, RngStream(11, 2))
        assert direct.ci_low <= tc.ci_high and tc.ci_low <= direct.ci_high


class TestMcTube:
    def test_brownian_sampler_matches_series(self):
        f = constant_path(GRID, 0.0)
        est = mc_tube_probability(gen_brownian, GRID, f, 1.0, 3000,
                                  RngStream(12, 1))
        # node-monitored sup is slightly optimistic; allow the known bias
        assert est.p_hat == pytest.approx(0.37078, abs=0.05)
