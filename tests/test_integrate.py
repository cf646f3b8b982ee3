"""Discrete stochastic and pathwise integrals, clocks, and exponentials."""
import numpy as np
import pytest
from oracles import gen_brownian, ito_integral

from cfslab.catalog import get_preset
from cfslab.core import GridMismatch, Path, RngStream, make_grid
from cfslab.integrate import qv_clock, rs_parts_form
from cfslab.models import simulate

GRID = make_grid(0.0, 1.0, 128)


def _paths(seed, n):
    root = RngStream(seed, 1)
    return [gen_brownian(GRID, root.child(r)) for r in range(n)]


class TestIto:
    def test_constant_integrand(self):
        w = _paths(0, 1)[0]
        one = Path(GRID, np.ones(GRID.n_nodes))
        i = ito_integral(one, w)
        assert np.allclose(i.values, w.values - w.values[0])

    def test_linearity_to_machine_precision(self):
        w = _paths(1, 1)[0]
        t = np.asarray(GRID.nodes)
        k1 = Path(GRID, np.sin(t))
        k2 = Path(GRID, t ** 2)
        lhs = ito_integral(Path(GRID, 2.0 * k1.values + 3.0 * k2.values), w)
        rhs = 2.0 * ito_integral(k1, w).values + 3.0 * ito_integral(k2, w).values
        err = np.abs(lhs.values - rhs)
        scale = np.maximum(np.abs(rhs), 1.0)
        assert np.all(err <= 8 * np.finfo(float).eps * scale)

    def test_grid_mismatch(self):
        w = _paths(2, 1)[0]
        other = make_grid(0.0, 2.0, 128)
        with pytest.raises(GridMismatch):
            ito_integral(Path(other, np.ones(other.n_nodes)), w)

    def test_w_dw_approximates_ito_formula(self):
        # int W dW = (W_T^2 - T) / 2 + O(sqrt(dt)) in RMS
        errs = []
        for w in _paths(3, 200):
            i = ito_integral(w, w).values[-1]
            exact = 0.5 * (w.values[-1] ** 2 - GRID.t_end)
            errs.append(i - exact)
        rms = np.sqrt(np.mean(np.square(errs)))
        # RMS error is dt * sqrt(T / (2 dt)) = sqrt(T dt / 2)
        assert rms == pytest.approx(np.sqrt(GRID.t_end * GRID.dt / 2.0), rel=0.3)


class TestRsIntegral:
    def test_matches_parts_form(self):
        t = np.asarray(GRID.nodes)
        k = Path(GRID, np.cos(3.0 * t))
        for x in _paths(4, 50):
            direct = ito_integral(k, x).values
            parts = rs_parts_form(k, x).values
            err = np.abs(direct - parts)
            scale = np.maximum(np.abs(parts), 1.0)
            assert np.all(err <= 8 * np.finfo(float).eps * scale * GRID.n_nodes)

    def test_smooth_case_against_calculus(self):
        grid = make_grid(0.0, 1.0, 4096)
        t = np.asarray(grid.nodes)
        k = Path(grid, t)
        x = Path(grid, t ** 2)  # int s d(s^2) = 2/3 on [0,1]
        assert ito_integral(k, x).values[-1] == pytest.approx(2.0 / 3.0, abs=1e-3)


class TestQvClock:
    def test_affine_integrand_total(self):
        t = np.asarray(GRID.nodes)
        k = Path(GRID, 1.0 + t)
        g = qv_clock(k)
        # int_0^1 (1+s)^2 ds = 7/3; left-point rule converges from below
        assert g[-1] == pytest.approx(7.0 / 3.0, abs=0.02)
        assert np.all(np.diff(g) >= 0)
        assert g[0] == 0.0
        assert g.shape == (GRID.n_nodes,) and not g.flags.writeable

    def test_zero_integrand_gives_zero_clock(self):
        k = Path(GRID, np.zeros(GRID.n_nodes))
        assert qv_clock(k)[-1] == 0.0


class TestDoleans:
    # the stochastic exponential exp(W - t/2) as the battery simulates it
    def _paths(self, seed, n):
        root = RngStream(seed, 1)
        return [simulate(get_preset("doleans"), GRID, root.child(r))[0].values
                for r in range(n)]

    def test_positive_and_initial_one(self):
        for e in self._paths(5, 20):
            assert e[0] == 1.0
            assert np.all(e > 0.0)

    def test_martingale_mean(self):
        finals = np.array([e[-1] for e in self._paths(6, 3000)])
        se = np.std(finals) / np.sqrt(finals.size)
        assert abs(np.mean(finals) - 1.0) < 4 * se
