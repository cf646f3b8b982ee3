"""Brownian, fractional Brownian, and bridge generators."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    NotPowerOfTwo,
    fbm_covariance,
    fgn_covariance,
    gen_brownian,
    gen_brownian_alt,
)
from scipy.linalg import toeplitz

from cfslab import gaussian
from cfslab.core import (
    BadParams,
    CovarianceNotPD,
    HurstOutOfRange,
    RngStream,
    make_grid,
    tail_grid,
)
from cfslab.gaussian import (
    FbmSpec,
    FouSpec,
    _fgn_autocovariance,
    _fgn_cholesky,
    _toeplitz_schur,
    bridge_paths,
    bridge_steps,
    fbm_conditional_factors,
    fou_from_fbm,
    fou_quadrature,
    gen_fbm,
    lower_tri_matmul,
)

GRID = make_grid(0.0, 1.0, 64)


def _sample_stats(gen, grid, n_paths, seed=0):
    finals = np.empty(n_paths)
    root = RngStream(seed, 5)
    for r in range(n_paths):
        finals[r] = gen(grid, root.child(r)).values[-1]
    return finals


class TestBrownian:
    def test_starts_at_zero(self):
        p = gen_brownian(GRID, RngStream(1, 0))
        assert p.values[0] == 0.0

    def test_terminal_moments(self):
        finals = _sample_stats(gen_brownian, GRID, 4000)
        assert abs(np.mean(finals)) < 4.0 / np.sqrt(4000)
        assert np.var(finals) == pytest.approx(1.0, rel=0.1)

    def test_increment_independence(self):
        root = RngStream(3, 0)
        incs = np.array(
            [np.diff(gen_brownian(GRID, root.child(r)).values) for r in range(2000)]
        )
        c = np.corrcoef(incs[:, 10], incs[:, 40])[0, 1]
        assert abs(c) < 0.1

    def test_alt_requires_power_of_two(self):
        with pytest.raises(NotPowerOfTwo):
            gen_brownian_alt(make_grid(0.0, 1.0, 48), RngStream(0, 0))

    def test_alt_terminal_moments(self):
        finals = _sample_stats(gen_brownian_alt, GRID, 4000, seed=9)
        assert abs(np.mean(finals)) < 4.0 / np.sqrt(4000)
        assert np.var(finals) == pytest.approx(1.0, rel=0.1)


class TestFbmCovariance:
    def test_h_half_is_brownian(self):
        t = np.array([0.25, 0.5, 1.0])
        r = fbm_covariance(0.5, t)
        assert np.allclose(r, np.minimum.outer(t, t))

    def test_diagonal(self):
        t = np.array([0.3, 0.7])
        for h in (0.25, 0.75):
            r = fbm_covariance(h, t)
            assert np.allclose(np.diag(r), t ** (2 * h))

    @settings(max_examples=25, deadline=None)
    @given(st.floats(0.1, 0.9))
    def test_cholesky_reconstruction(self, hurst):
        grid = make_grid(0.0, 1.0, 32)
        t = np.asarray(grid.nodes[1:])
        r = fbm_covariance(hurst, t)
        factor = np.linalg.cholesky(r)
        assert np.max(np.abs(factor @ factor.T - r)) <= 1e-10 * np.max(np.abs(r))


class TestFbm:
    def test_hurst_range_enforced(self):
        with pytest.raises(HurstOutOfRange):
            FbmSpec(1.5)

    def test_h_quarter_increments_anticorrelated(self):
        root = RngStream(11, 0)
        grid = make_grid(0.0, 1.0, 4)
        incs = np.array(
            [np.diff(gen_fbm(grid, FbmSpec(0.25), root.child(r))[0].values)
             for r in range(3000)]
        )
        c = np.corrcoef(incs[:, 0], incs[:, 1])[0, 1]
        # exact value 2^{2h-1} - 1 = -0.29289 at h = 0.25
        assert c == pytest.approx(-0.29289, abs=0.06)

    def test_conditional_factors_match_history(self):
        """C and G reproduce T_fp T_pp^-1 and the Schur complement of the
        rises' covariance T."""
        grid = make_grid(0.0, 1.0, 16)
        hurst = 0.75
        head, ell = fbm_conditional_factors(hurst, grid, 8)
        cov = fgn_covariance(hurst, np.asarray(grid.nodes[1:]))
        # conditional mean operator G21 G11^-1 reproduces T_fp T_pp^{-1}
        a = np.linalg.solve(head[:8].T, head[8:].T).T
        assert np.allclose(a @ cov[:8, :8], cov[8:, :8], atol=1e-10)
        # Schur complement is recovered by the factor
        schur = cov[8:, 8:] - a @ cov[8:, :8].T
        assert np.allclose(ell @ ell.T, schur, atol=1e-8)

    @pytest.mark.parametrize("hurst", [0.25, 0.75])
    @pytest.mark.parametrize("t_index", [1, 8, 15])
    def test_conditional_mean_is_regression_on_past(self, hurst, t_index):
        """The mean of the future rises given the past rises r_p, G21 z_p
        from the path's own normals, is T_fp T_pp^-1 r_p from the oracle
        covariance."""
        grid = make_grid(0.0, 1.0, 16)
        p = t_index
        head, _ = fbm_conditional_factors(hurst, grid, p)
        cov = fgn_covariance(hurst, np.asarray(grid.nodes[1:]))
        path, normals = gen_fbm(grid, FbmSpec(hurst), RngStream(4, p))
        past = np.diff(path.values)[:p]
        expected = cov[p:, :p] @ np.linalg.solve(cov[:p, :p], past)
        assert np.allclose(head[p:] @ normals[:p], expected,
                           rtol=0.0, atol=1e-10)

    def test_unconditional_factors(self):
        grid = make_grid(0.0, 1.0, 8)
        head, ell = fbm_conditional_factors(0.5, grid, 0)
        assert head.shape == (8, 0)
        assert np.array_equal(head @ np.empty(0), np.zeros(8))
        cov = fgn_covariance(0.5, np.asarray(grid.nodes[1:]))
        assert np.allclose(ell @ ell.T, cov, atol=1e-10)

    @pytest.mark.parametrize("hurst", [0.25, 0.75])
    @pytest.mark.parametrize("t_index", [1, 128, 255])
    def test_factors_are_blocks_of_history_cholesky(self, hurst, t_index):
        """(C, G) are blocks of the one cached history factor and still
        give the exact conditional law of the rises: G21 G11^-1 =
        T_fp T_pp^-1."""
        grid = make_grid(0.0, 1.0, 256)
        p = t_index
        head, ell = fbm_conditional_factors(hurst, grid, p)
        factor = _fgn_cholesky(hurst, grid)
        assert np.shares_memory(head, factor) and np.shares_memory(ell, factor)
        assert np.array_equal(head, factor[:, :p])
        assert np.array_equal(ell, factor[p:, p:])
        cov = fgn_covariance(hurst, np.asarray(grid.nodes[1:]))
        r_pp, r_fp, r_ff = cov[:p, :p], cov[p:, :p], cov[p:, p:]
        a = np.linalg.solve(head[:p].T, head[p:].T).T
        assert np.allclose(a @ r_pp, r_fp, rtol=0.0, atol=1e-10)
        schur = r_ff - r_fp @ np.linalg.solve(r_pp, r_fp.T)
        assert np.allclose(ell @ ell.T, schur, rtol=0.0, atol=1e-10)
        assert not np.any(np.triu(ell, 1))
        xi = RngStream(3, 0).generator().standard_normal((5, 256 - p))
        assert np.allclose(lower_tri_matmul(xi.copy(), ell), xi @ ell.T,
                           rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("n_steps", [256, 2048])
    @pytest.mark.parametrize("hurst", [0.25, 0.5, 0.7, 0.75])
    def test_covariance_equals_meshgrid_formula(self, hurst, n_steps):
        """The fGn autocovariance the factor is built from is the oracle's
        meshgrid covariance R taken to increments: D R D^T, with D the
        difference matrix and B(0) = 0."""
        grid = make_grid(0.0, 1.0, n_steps)
        incr = fgn_covariance(hurst, np.asarray(grid.nodes[1:]))
        expected = toeplitz(_fgn_autocovariance(hurst, grid))
        rel = np.max(np.abs(incr - expected)) / np.max(np.abs(expected))
        assert rel <= 1e-10


class TestToeplitzSchur:
    @settings(max_examples=25, deadline=None)
    @given(st.floats(0.1, 0.9), st.integers(32, 256))
    def test_matches_dense_cholesky(self, hurst, n_steps):
        c = _fgn_autocovariance(hurst, make_grid(0.0, 1.0, n_steps))
        u = _toeplitz_schur(c)
        assert not np.any(np.tril(u, -1))
        ref = np.linalg.cholesky(toeplitz(c))
        assert np.max(np.abs(u.T - ref)) <= 1e-10 * np.max(np.abs(ref))

    @pytest.mark.parametrize("c", [(1.0, 1.0, 1.0), (1.0, 2.0),
                                   (1.0, np.nan), (0.0, 0.0)],
                             ids=["singular", "rho-above-one", "nan", "zero"])
    def test_not_positive_definite_rejected(self, c):
        with pytest.raises(CovarianceNotPD):
            _toeplitz_schur(np.array(c))


class TestFbmFactor:
    """The factor the samplers use, `_fgn_cholesky` of the fBm's rises,
    and its blocks."""

    @pytest.mark.parametrize("hurst", [0.25, 0.5, 0.7, 0.75])
    def test_reconstructs_covariance(self, hurst):
        # the rises' covariance, and the levels' from the cumulative sum
        grid = make_grid(0.0, 1.0, 2048)
        factor = _fgn_cholesky(hurst, grid)
        assert factor.flags.f_contiguous and not factor.flags.writeable
        assert not np.any(np.triu(factor, 1))
        t = np.asarray(grid.nodes[1:])
        cov = fgn_covariance(hurst, t)
        rel = np.max(np.abs(factor @ factor.T - cov)) / np.max(np.abs(cov))
        assert rel <= 1e-10
        levels = np.cumsum(factor, axis=0)
        r = fbm_covariance(hurst, t)
        rel = np.max(np.abs(levels @ levels.T - r)) / np.max(np.abs(r))
        assert rel <= 1e-10

    def test_h_half_is_brownian_summation(self):
        # white noise of variance dt, whose cumulative sum is Brownian
        grid = make_grid(0.0, 1.0, 256)
        factor = _fgn_cholesky(0.5, grid)
        assert np.allclose(factor, np.sqrt(grid.dt) * np.eye(256),
                           rtol=1e-14, atol=0.0)
        expected = np.sqrt(grid.dt) * np.tril(np.ones((256, 256)))
        assert np.allclose(np.cumsum(factor, axis=0), expected,
                           rtol=1e-14, atol=0.0)

    def test_grid_must_start_at_zero(self):
        with pytest.raises(BadParams):
            _fgn_cholesky(0.7, make_grid(0.5, 1.0, 8))

    @pytest.mark.parametrize("m", [1, 7, 9, 64, 1024])
    @pytest.mark.parametrize("rows", [1, 3, 5, 8])
    def test_lower_tri_matmul_equals_dense_product(self, m, rows):
        # across the edges of its row quarters and its 8 column panels
        gen = RngStream(5, m).generator()
        factor = np.tril(gen.standard_normal((m, m)))
        xi = gen.standard_normal((rows, m))
        expected = xi @ factor.T
        out = lower_tri_matmul(xi, factor)
        assert out.flags.c_contiguous and np.shares_memory(out, xi)
        assert np.allclose(out, expected, rtol=0.0, atol=1e-12 * np.sqrt(m))

    @pytest.mark.parametrize("t_index", [0, 128])
    def test_lower_tri_matmul_is_c_contiguous(self, t_index):
        grid = make_grid(0.0, 1.0, 256)
        _, ell = fbm_conditional_factors(0.7, grid, t_index)
        m = 256 - t_index
        # a C-contiguous xi, as models._fresh_normals draws each further
        # source, receives the product; a column block of a wider draw is
        # copied and left as it was
        flat = RngStream(5, 0).generator().standard_normal((7, 2 * m))
        xi = flat[:, m:].copy()
        expected = xi @ ell.T
        out = lower_tri_matmul(xi, ell)
        assert out.flags.c_contiguous and np.shares_memory(out, xi)
        assert np.allclose(out, expected, rtol=0.0, atol=1e-12)
        before = flat.copy()
        out = lower_tri_matmul(flat[:, m:], ell)
        assert out.flags.c_contiguous and not np.shares_memory(out, flat)
        assert np.array_equal(flat, before)
        assert np.allclose(out, expected, rtol=0.0, atol=1e-12)
        # so is a read-only one
        frozen = flat[:, m:].copy()
        frozen.setflags(write=False)
        out = lower_tri_matmul(frozen, ell)
        assert not np.shares_memory(out, frozen)
        assert np.allclose(out, expected, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("m", [7, 1024])
    @pytest.mark.parametrize("rows", [3, 8])
    def test_matmul_panels_equal_dense_product(self, m, rows, panels):
        self.test_lower_tri_matmul_equals_dense_product(m, rows)

    @pytest.mark.parametrize("t_index", [0, 128])
    def test_matmul_panels_are_c_contiguous(self, t_index, panels):
        self.test_lower_tri_matmul_is_c_contiguous(t_index)

    def test_lower_tri_matmul_on_no_rows(self):
        # a zero-row law read of a REDRAW fBm family multiplies no rows
        _, ell = fbm_conditional_factors(0.7, make_grid(0.0, 1.0, 8), 4)
        xi = np.empty((0, 4))
        out = lower_tri_matmul(xi, ell)
        assert out is xi and out.shape == (0, 4)

    def test_matmul_panels_on_no_rows(self, panels):
        self.test_lower_tri_matmul_on_no_rows()

    def test_lower_tri_matmul_rejects_a_factor_of_another_size(self):
        with pytest.raises(ValueError, match="does not fit"):
            lower_tri_matmul(np.zeros((3, 4)), np.eye(5))

    @pytest.mark.skipif(gaussian._blas() is None,
                        reason="numpy bundles no scipy-openblas")
    @pytest.mark.parametrize("t_index", [0, 1024])
    def test_dtrmm_agrees_with_panels(self, t_index, monkeypatch):
        # the two paths sum in different orders; the tolerance, 1e-13 of
        # the largest entry, was fixed before measuring (about 1.5e-15)
        grid = make_grid(0.0, 1.0, 2048)
        _, ell = fbm_conditional_factors(0.75, grid, t_index)
        xi = RngStream(9, t_index).generator().standard_normal(
            (300, 2048 - t_index))
        dtrmm = lower_tri_matmul(xi.copy(), ell)
        monkeypatch.setattr(gaussian, "_blas", lambda: None)
        panels = lower_tri_matmul(xi.copy(), ell)
        assert np.max(np.abs(dtrmm - panels)) <= 1e-13 * np.max(np.abs(panels))

    @pytest.mark.skipif(gaussian._blas() is None,
                        reason="numpy bundles no scipy-openblas")
    def test_dtrmm_rows_do_not_depend_on_the_row_count(self):
        # fewer replications give a byte-equal prefix of a block's rows
        grid = make_grid(0.0, 1.0, 2048)
        _, ell = fbm_conditional_factors(0.25, grid, 1024)
        xi = RngStream(10, 0).generator().standard_normal((1024, 1024))
        whole = lower_tri_matmul(xi.copy(), ell)
        assert np.array_equal(lower_tri_matmul(xi[:544].copy(), ell),
                              whole[:544])


def _fou(grid, spec, rng):
    """The fOU path the comte_renault model builds from its fBm driver."""
    return fou_from_fbm(grid, spec,
                        gen_fbm(grid, FbmSpec(spec.hurst), rng)[0].values)


class TestFou:
    def test_deterministic_decay_with_zero_noise(self):
        grid = make_grid(0.0, 1.0, 256)
        spec = FouSpec(hurst=0.7, alpha=2.0, sigma=0.0, v0=1.0)
        v = fou_from_fbm(grid, spec, np.zeros(grid.n_nodes))
        assert np.allclose(v, np.exp(-2.0 * np.asarray(grid.nodes)), atol=1e-3)

    def test_gen_fou_starts_at_v0(self):
        grid = make_grid(0.0, 1.0, 32)
        v = _fou(grid, FouSpec(0.6, 1.0, 0.5, v0=-0.3), RngStream(2, 0))
        assert v[0] == pytest.approx(-0.3)

    @pytest.mark.parametrize("start", [0, 1, 100, 255])
    def test_tail_seeded_with_history_sum_is_bitwise(self, start):
        # rows sharing a history up to `start`: V from there on, seeded
        # with the history's quadrature sum, is the whole path's V
        grid = make_grid(0.0, 1.0, 256)
        spec = FouSpec(hurst=0.7, alpha=1.0, sigma=0.5, v0=-1.6)
        b = np.stack([gen_fbm(grid, FbmSpec(0.7),
                              RngStream(12, 0).child(r))[0].values
                      for r in range(3)])
        b[:, : start + 1] = b[0, : start + 1]
        cum0 = fou_quadrature(grid, spec, b[0, : start + 1])[-1]
        tail = fou_from_fbm(grid, spec, b[:, start:], start, cum0)
        assert np.array_equal(tail, fou_from_fbm(grid, spec, b)[:, start:])

    def test_mean_reversion_pulls_toward_zero(self):
        grid = make_grid(0.0, 4.0, 512)
        spec = FouSpec(hurst=0.7, alpha=5.0, sigma=0.2, v0=2.0)
        finals = np.array(
            [_fou(grid, spec, RngStream(8, 0).child(r))[-1]
             for r in range(200)]
        )
        assert abs(np.mean(finals)) < 0.5


class TestBridge:
    def test_bridge_steps_pin_terminal(self):
        w, s = bridge_steps(make_grid(0.5, 1.0, 8))
        assert w[-1] == 1.0
        assert s[-1] == 0.0
        assert np.all(s[:-1] > 0)

    def test_continuation_hits_terminal_exactly(self):
        grid = make_grid(0.0, 1.0, 16)
        tail = tail_grid(grid, 4)
        history_grid = make_grid(0.0, tail.t_start, 4)
        history = gen_brownian(history_grid, RngStream(6, 1))
        z = np.empty(tail.n_nodes)
        RngStream(6, 0).generator().standard_normal(out=z[1:])
        p = bridge_paths(tail, float(history.values[-1]), 1.234, z)
        assert p is z
        assert p[0] == history.values[-1]
        assert p[-1] == 1.234  # bit-exact pin

    def test_midpoint_variance(self):
        tail = make_grid(0.0, 1.0, 16)
        z = np.empty((3000, 17))
        for r in range(3000):
            RngStream(4, 0).child(r).generator().standard_normal(out=z[r, 1:])
        mids = bridge_paths(tail, 0.0, 0.0, z)[:, 8]
        # bridge variance at t = 1/2 over [0,1] is 1/4
        assert np.var(mids) == pytest.approx(0.25, rel=0.15)
        assert abs(np.mean(mids)) < 4 * 0.5 / np.sqrt(3000)
