import math
import tracemalloc

import numpy as np
import pytest

from oracles import (
    interp,
    nonlinear_germ_defect,
    nonlinear_young_germs,
    nonlinear_young_integral_whole,
    p_variation,
    remainder_certificate,
    restrict,
    uniform_norm,
    young_integral_against_path,
)

from youngbsde import paths
from youngbsde.driver import AnalyticField, HurstParams, RegularityParams, fbs_generate
from youngbsde.paths import NumericalError, SamplePath, TimeGrid, dyadic_interp
from youngbsde.sewing import Germ, nonlinear_young_integral, sew


def brownian_path(n_cells, seed, horizon=1.0):
    rng = np.random.default_rng(seed)
    grid = TimeGrid.uniform(horizon, n_cells)
    dw = rng.standard_normal(n_cells) * np.sqrt(horizon / n_cells)
    return SamplePath(grid, np.concatenate([[0.0], np.cumsum(dw)]))


def sin_t_field(power=1.0):
    return AnalyticField(
        lambda t, x: np.sin(x[:, 0]) * t**power,
        RegularityParams(tau=min(power, 1.0), lam=1.0, p=2.5),
        dt_fn=(lambda t, x: np.sin(x[:, 0])) if power == 1.0 else None,
    )


class TestSew:
    def test_additive_germ_exact_every_level(self):
        c = 2.3
        grid = TimeGrid.uniform(1.0, 4)
        res = sew(Germ(lambda s, t: c * (t - s)), grid, levels=6)
        # every level is summed, though the sums agree from level 0 on
        assert res.levels_used == 6 and res.level_totals.shape == (7,)
        np.testing.assert_allclose(res.level_totals, c, rtol=1e-14)

    def test_square_germ_level_totals(self):
        # A(s,t) = (t-s)^2 on base {0,1}: level-l total is 2^-l
        grid = TimeGrid(np.array([0.0, 1.0]))
        res = sew(Germ(lambda s, t: (t - s) ** 2), grid, levels=8)
        np.testing.assert_allclose(res.level_totals, 0.5 ** np.arange(9), rtol=1e-13)

    def test_negative_levels_rejected(self):
        with pytest.raises(ValueError, match="levels must be >= 0"):
            sew(Germ(lambda s, t: t - s), TimeGrid.uniform(1.0, 4), levels=-1)

    def test_non_finite_germ_reported(self):
        grid = TimeGrid.uniform(1.0, 2)
        with pytest.raises(NumericalError, match="non-finite germ"):
            sew(Germ(lambda s, t: np.where(s > 0.4, np.nan, 1.0)), grid, levels=2)

    def test_segment_additivity_exact(self):
        rng = np.random.default_rng(0)
        grid = TimeGrid.uniform(1.0, 8)
        vals = rng.standard_normal(9)
        y = SamplePath(grid, vals)
        x, field = brownian_path(8, 1), sin_t_field()
        res = nonlinear_young_integral(y, x, field, levels=4)
        halves = [
            nonlinear_young_integral(restrict(y, iv), restrict(x, iv), field, levels=4).values[-1]
            for iv in ((0.0, 0.5), (0.5, 1.0))
        ]
        assert res.values[4] == pytest.approx(halves[0], abs=1e-15)
        assert res.values[-1] == pytest.approx(halves[0] + halves[1], abs=1e-15)


class TestNonlinearYoung:
    def test_space_free_field_constant_y(self):
        field = AnalyticField(lambda t, x: t, RegularityParams(tau=1.0, lam=1.0, p=2.5))
        grid = TimeGrid.uniform(1.0, 16)
        y = SamplePath(grid, np.full(17, 3.0))
        x = SamplePath(grid, np.zeros(17))
        res = nonlinear_young_integral(y, x, field, levels=3)
        assert res.values[-1] == pytest.approx(3.0, abs=1e-13)

    def test_bilinear_field_constant_path(self):
        field = AnalyticField(lambda t, x: t * x[:, 0], RegularityParams(tau=1.0, lam=1.0, p=2.5))
        grid = TimeGrid.uniform(1.0, 16)
        y = SamplePath(grid, np.ones(17))
        x0 = -1.7
        x = SamplePath(grid, np.full(17, x0))
        res = nonlinear_young_integral(y, x, field, levels=3)
        assert res.values[-1] == pytest.approx(x0, abs=1e-13)

    def test_riemann_reduction_identity_path(self):
        # eta = t*x, x_r = r, y = 1 on [0,1] -> int_0^1 r dr = 1/2
        field = AnalyticField(lambda t, x: t * x[:, 0], RegularityParams(tau=1.0, lam=1.0, p=2.5))
        grid = TimeGrid(np.array([0.0, 1.0]))
        y = SamplePath(grid, np.ones(2))
        x = SamplePath(grid, np.array([0.0, 1.0]))
        res = nonlinear_young_integral(y, x, field, levels=14)
        assert res.values[-1] == pytest.approx(0.5, abs=1e-4)

    def test_warning_when_exponents_insufficient(self):
        field = AnalyticField(
            lambda t, x: np.sin(x[:, 0]) * t**0.6,
            RegularityParams(tau=0.6, lam=0.5, p=2.5),
        )
        grid = TimeGrid.uniform(1.0, 8)
        y = SamplePath(grid, np.ones(9))
        with pytest.warns(UserWarning, match="tau \\+ lam/p"):
            nonlinear_young_integral(y, brownian_path(8, 2), field, levels=2)

    def test_vector_y_rejected(self):
        # the integrand is scalar: a path with columns is refused
        field = AnalyticField(lambda t, x: t, RegularityParams(tau=1.0, lam=1.0, p=2.5))
        grid = TimeGrid.uniform(1.0, 8)
        y = SamplePath(grid, np.ones((9, 1)))
        with pytest.raises(ValueError, match="scalar path"):
            nonlinear_young_integral(y, SamplePath(grid, np.zeros(9)), field)

    def test_matches_searching_germ(self):
        # the one-level sum against sew of a germ that finds each point by
        # np.interp and differences two evaluations: the value at every level,
        # and the finest running integral, on an fbs field, on the whole grid
        # and on an interior interval (paths restricted to it)
        field = fbs_generate(HurstParams(h0=0.8, h=0.6), np.linspace(0.0, 1.0, 129),
                             [np.linspace(-2.0, 2.0, 33)], seed=40, p=2.05)
        x = brownian_path(16, 41)
        y = SamplePath(x.grid, np.cos(x.grid.points) + x.values)
        for interval in (None, (0.25, 0.75)):
            a, b = (0.0, 1.0) if interval is None else interval
            ya, xa = restrict(y, (a, b)), restrict(x, (a, b))
            got = [nonlinear_young_integral(ya, xa, field, levels=lev) for lev in range(7)]
            keep = (x.grid.points >= a - 1e-12) & (x.grid.points <= b + 1e-12)
            pts, xv, yv = x.grid.points[keep], x.values[keep], y.values[keep]

            def germ(s, t, pts=pts, xv=xv, yv=yv):
                xs = np.interp(s, pts, xv)[:, None]
                ys = np.interp(s, pts, yv)
                return ys * (field.evaluate(t, xs) - field.evaluate(s, xs))

            want = sew(Germ(germ), TimeGrid(pts), levels=6)
            np.testing.assert_allclose([g.values[-1] for g in got], want.level_totals,
                                       rtol=0, atol=1e-13)
            np.testing.assert_allclose(got[-1].values, want.cumulative, rtol=0, atol=1e-13)

    def test_one_left_point_sum_bitwise(self):
        # the running integral is the cumulative sum over base cells of each
        # cell's pairwise sum of ys * increment on the level-l refinement
        field = fbs_generate(HurstParams(h0=0.8, h=0.6), np.linspace(0.0, 1.0, 129),
                             [np.linspace(-2.0, 2.0, 33)], seed=42, p=2.05)
        x = brownian_path(12, 43)
        y = SamplePath(x.grid, np.sin(3 * x.grid.points) - x.values)
        lev = 5
        got = nonlinear_young_integral(y, x, field, levels=lev)
        assert got.grid is x.grid
        assert np.array_equal(got.values, nonlinear_young_integral_whole(y, x, field, lev))

    def test_cauchy_increments_decay_rough_case(self):
        x = brownian_path(2**10, 123)
        field = sin_t_field(power=0.8)
        base = TimeGrid(np.array([0.0, 1.0]))
        y = SamplePath(base, np.ones(2))
        x_full = SamplePath(base, np.array([x.values[0], x.values[-1]]))
        # keep the Brownian path's full resolution: integrate on its grid
        y_fine = SamplePath(x.grid, np.ones(x.grid.n))
        res = nonlinear_young_integral(y_fine, x, field, levels=0)
        # dyadic coarsenings of the fine sum emulate refinement levels
        totals = []
        for lev in range(6):
            step = 2**lev
            pts = x.grid.points[::step]
            xs = x.values[::step]
            d_eta = field.evaluate(pts[1:], xs[:-1, None]) - field.evaluate(pts[:-1], xs[:-1, None])
            totals.append(np.sum(d_eta))
        diffs = np.abs(np.diff(totals[::-1]))
        assert diffs[-1] < diffs[0]

    def test_smooth_time_reduction(self):
        # for a field affine in t the Young sums equal the left-point
        # quadrature of y * dt_eta exactly
        field = sin_t_field(power=1.0)
        x = brownian_path(2**8, 5)
        y = SamplePath(x.grid, np.cos(x.grid.points))
        res = nonlinear_young_integral(y, x, field, levels=4)
        fine = x.grid.refine(4)
        ys = interp(y, fine.points[:-1])
        xs = interp(x, fine.points[:-1])[:, None]
        dts = np.diff(fine.points)
        quad = np.sum(ys * field.time_derivative(fine.points[:-1], xs) * dts)
        assert res.values[-1] == pytest.approx(quad, abs=1e-12)


class TestBlockWalk:
    """The integral walks its refinement in blocks of base cells; with blocks
    cut small it is bitwise the sum over the whole refinement."""

    @staticmethod
    def _fields():
        fbs = fbs_generate(HurstParams(h0=0.8, h=0.6), np.linspace(0.0, 1.0, 129),
                           [np.linspace(-2.0, 2.0, 33)], seed=42, p=2.05)
        return {"analytic": sin_t_field(0.8), "fbs": fbs}

    @pytest.mark.parametrize("field", ["analytic", "fbs"])
    @pytest.mark.parametrize("block_cells", [8, 24, 64])
    def test_matches_the_whole_refinement_bitwise(self, monkeypatch, field, block_cells):
        # 13 cells at level 3: blocks of 1, 3 and 8 cells, the last one ragged
        monkeypatch.setattr(paths, "_BLOCK_CELLS", block_cells)
        x = brownian_path(13, 44)
        y = SamplePath(x.grid, np.sin(3 * x.grid.points) - x.values)
        fld = self._fields()[field]
        got = nonlinear_young_integral(y, x, fld, levels=3)
        want = nonlinear_young_integral_whole(y, x, fld, 3)
        assert got.values.tobytes() == want.tobytes()

    def test_non_finite_germ_in_a_later_block_names_its_subinterval(self, monkeypatch):
        monkeypatch.setattr(paths, "_BLOCK_CELLS", 16)  # 4 cells at level 2
        field = AnalyticField(lambda t, x: np.where(t > 0.71, np.nan, t) * np.cos(x[:, 0]),
                              RegularityParams(tau=1.0, lam=1.0, p=2.5))
        x = brownian_path(16, 45)
        pts = dyadic_interp(x.grid.points, 2)
        i = int(np.argmax(pts[1:] > 0.71))  # the first fine cell whose increment is NaN
        assert i >= 32  # past the first two blocks
        with pytest.raises(NumericalError, match=rf"\({pts[i]}, {pts[i + 1]}\)"):
            nonlinear_young_integral(SamplePath(x.grid, np.ones(17)), x, field, levels=2)

    def test_zero_sum_keeps_its_sign_across_seams(self, monkeypatch):
        # y = 0 against a decreasing field: every germ value is -0.0.  A cell
        # sum takes the sign numpy's sum gives them (its sum starts from
        # +0.0), and a carry into a block must not change it
        monkeypatch.setattr(paths, "_BLOCK_CELLS", 8)
        field = AnalyticField(lambda t, x: -t, RegularityParams(tau=1.0, lam=1.0, p=2.5))
        x = brownian_path(10, 46)
        got = nonlinear_young_integral(SamplePath(x.grid, np.zeros(11)), x, field, levels=2)
        cell_sign = np.signbit(np.full((1, 4), -0.0).sum(axis=1)[0])
        assert got.values[0] == 0.0 and not np.signbit(got.values[0])
        assert np.all(got.values[1:] == 0.0) and np.all(np.signbit(got.values[1:]) == cell_sign)
        want = nonlinear_young_integral_whole(SamplePath(x.grid, np.zeros(11)), x, field, 2)
        assert got.values.tobytes() == want.tobytes()

    @pytest.mark.parametrize("block_cells", [8, 24, 64])
    def test_each_field_of_one_walk_is_its_own_call_bitwise(self, monkeypatch, block_cells):
        # 13 cells at level 3, blocks of 1, 3 and 8 cells: column q of a
        # call on several fields is the call on fields[q] alone
        monkeypatch.setattr(paths, "_BLOCK_CELLS", block_cells)
        x = brownian_path(13, 44)
        y = SamplePath(x.grid, np.sin(3 * x.grid.points) - x.values)
        fields = [sin_t_field(0.8), self._fields()["fbs"], sin_t_field()]
        got = nonlinear_young_integral(y, x, fields, levels=3)
        assert got.values.shape == (14, 3)
        for q, fld in enumerate(fields):
            want = nonlinear_young_integral(y, x, fld, levels=3)
            assert got.values[:, q].tobytes() == want.values.tobytes()

    def test_one_walk_warns_per_field_and_needs_a_field(self):
        weak = AnalyticField(lambda t, x: np.sin(x[:, 0]) * t**0.6,
                             RegularityParams(tau=0.6, lam=0.5, p=2.5))
        x = brownian_path(8, 2)
        y = SamplePath(x.grid, np.ones(9))
        with pytest.warns(UserWarning, match="field 1 do not guarantee") as record:
            nonlinear_young_integral(y, x, [sin_t_field(), weak], levels=2)
        assert len(record) == 1
        with pytest.raises(ValueError, match="at least one"):
            nonlinear_young_integral(y, x, [], levels=2)

    @pytest.mark.parametrize("cells, levels", [(16, 16), (4, 18)])
    def test_running_sum_within_the_pairwise_bound_of_fsum(self, cells, levels):
        # 2^20 positive germ values.  Against the exactly rounded sum, the
        # error stays under (levels + cells + 16) eps sum|v|: pairwise depth
        # inside a cell (numpy adds runs of 16 at its leaves), then one add
        # per cell.  One sequential sum over every fine value read 120 and
        # 208 eps sum|v| here
        field = AnalyticField(lambda t, x: t * (2.0 + np.sin(x[:, 0])),
                              RegularityParams(tau=1.0, lam=1.0, p=2.5))
        x = brownian_path(cells, 48)
        y = SamplePath(x.grid, 1.0 + x.grid.points)
        got = nonlinear_young_integral(y, x, field, levels=levels).values
        v, k = nonlinear_young_germs(y, x, field, levels), 2**levels
        assert np.all(v > 0)
        exact = np.array([math.fsum(v[: i * k]) for i in range(cells + 1)])
        bound = (levels + cells + 16) * np.finfo(float).eps * exact
        assert np.all(np.abs(got - exact) <= bound)

    def test_memory_is_one_blocks_not_the_fine_grids(self):
        # 2^20 fine cells: one array over them takes 8 MB, and the integral
        # over the whole refinement held several at once
        x = brownian_path(16, 47)
        y = SamplePath(x.grid, np.cos(x.grid.points))
        field = sin_t_field()
        nonlinear_young_integral(y, x, field, levels=2)  # warm up
        tracemalloc.start()
        try:
            nonlinear_young_integral(y, x, field, levels=16)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20 * 8


class TestYoungAgainstPath:
    def test_constant_y_telescopes(self):
        grid = TimeGrid.uniform(1.0, 8)
        m = SamplePath(grid, np.sin(3 * grid.points))
        y = SamplePath(grid, np.ones(9))
        res = sew(
            Germ(lambda s, t: np.interp(t, grid.points, m.values) - np.interp(s, grid.points, m.values)),
            grid, levels=0,
        )
        got = young_integral_against_path(y, m, levels=3)
        want = m.values[-1] - m.values[0]
        np.testing.assert_allclose(got.level_totals, want, atol=1e-14)
        assert res.value == pytest.approx(want)

    def test_squared_path_self_integral(self):
        # int_0^1 M dM = M(1)^2 / 2 for M_t = t^2
        grid = TimeGrid.uniform(1.0, 64)
        m = SamplePath(grid, grid.points**2)
        res = young_integral_against_path(m, m, levels=14)
        assert res.value == pytest.approx(0.5, abs=1e-6)

    def test_coincidence_with_nonlinear_integral(self):
        # the two Riemann schemes agree on a matched partition, and the
        # mismatch from integrating against a coarsened M shrinks on refinement
        field = sin_t_field(power=0.8)
        x = brownian_path(2**12, 9)
        y = SamplePath(x.grid, np.cos(2 * x.grid.points))
        direct = nonlinear_young_integral(y, x, field, levels=0)
        ones = SamplePath(x.grid, np.ones(x.grid.n))
        m_path = nonlinear_young_integral(ones, x, field, levels=0)
        via_m = young_integral_against_path(y, m_path, levels=0)
        assert via_m.value == pytest.approx(direct.values[-1], abs=1e-6)

        gaps = []
        for cells in (2**8, 2**10, 2**12):
            step = 2**12 // cells
            sub_grid = TimeGrid(x.grid.points[::step])
            xs = SamplePath(sub_grid, x.values[::step])
            ys = SamplePath(sub_grid, np.cos(2 * sub_grid.points))
            ones_s = SamplePath(sub_grid, np.ones(sub_grid.n))
            m_s = nonlinear_young_integral(ones_s, xs, field, levels=0)
            a = young_integral_against_path(ys, m_s, levels=0).value
            gaps.append(abs(a - direct.values[-1]))
        assert gaps[2] < gaps[0]


class TestRemainderCertificate:
    def test_exact_additive_germ(self):
        grid = TimeGrid.uniform(1.0, 4)
        res = sew(Germ(lambda s, t: 1.5 * (t - s)), grid, levels=5)
        ok, bound = remainder_certificate(grid, res.germ_defect, [(lambda s, t: t - s, 2.0)])
        assert ok.all()
        assert np.all(bound >= 0)

    def test_square_germ_bound(self):
        grid = TimeGrid.uniform(1.0, 4)
        res = sew(Germ(lambda s, t: (t - s) ** 2), grid, levels=10)
        ok, _ = remainder_certificate(grid, res.germ_defect, [(lambda s, t: t - s, 2.0)])
        assert ok.all()

    def test_rough_case_certificate(self):
        # controls built from an analytic seminorm bound and measured p-variation
        field = sin_t_field(power=0.8)
        x = brownian_path(2**8, 77)
        base = TimeGrid(x.grid.points[::32])  # 8 base cells
        yb = SamplePath(base, np.ones(base.n))
        xb = SamplePath(base, x.values[::32])
        running = nonlinear_young_integral(yb, xb, field, levels=5)
        defect = nonlinear_germ_defect(yb, xb, field, running)
        tau, lam, p = 0.8, 1.0, 2.5
        delta = tau + lam / p - 1
        eta_bound = 3.0  # sum of the three seminorm terms, each at most 1

        def w1(s, t):
            if t <= s:
                return 0.0
            return (
                eta_bound * (t - s) ** tau * p_variation(restrict(xb, (s, t)), p) ** lam
            ) ** (1.0 / (1.0 + delta))

        ok, _ = remainder_certificate(base, defect, [(w1, 1.0 + delta)])
        assert ok.all()

    def test_exponent_guard(self):
        grid = TimeGrid.uniform(1.0, 2)
        res = sew(Germ(lambda s, t: t - s), grid, levels=2)
        with pytest.raises(ValueError):
            remainder_certificate(grid, res.germ_defect, [(lambda s, t: t - s, 1.0)])


class TestEstimates:
    """The a priori bounds with their explicit implementation constants."""

    def _battery(self, seed, n_cells=2**8):
        x = brownian_path(n_cells, seed)
        rng = np.random.default_rng(seed + 1)
        y_incr = rng.standard_normal(n_cells) * np.sqrt(1.0 / n_cells)
        y = SamplePath(x.grid, 1.0 + 0.3 * np.cumsum(np.concatenate([[0.0], y_incr])))
        return x, y

    def test_pvar_bound_unweighted(self):
        # ||int y d_eta||_{1/tau-var;[s,t]} against the sewing constant and an
        # analytic seminorm bound (each defining quotient of sin(x) t^0.8 is
        # at most 1, so 3 bounds the sum)
        tau, lam, p1, p2 = 0.8, 1.0, 2.5, 2.5
        delta = min(tau + 1.0 / p2 - 1, tau + lam / p1 - 1)
        const = 2**delta / (1 - 2**-delta)
        eta_bound = 3.0
        field = sin_t_field(power=0.8)
        for seed in (3, 17):
            x, y = self._battery(seed)
            integral_path = nonlinear_young_integral(y, x, field, levels=3)
            for (s, t) in [(0.0, 1.0), (0.0, 0.5), (0.25, 0.75)]:
                lhs = p_variation(restrict(integral_path, (s, t)), 1.0 / tau)
                y_inf = np.abs(restrict(y, (s, t)).values).max()
                rhs = (
                    const * eta_bound * (t - s) ** tau
                    * ((1 + p_variation(restrict(x, (s, t)), p1) ** lam) * y_inf
                       + p_variation(restrict(y, (s, t)), p2))
                )
                assert lhs <= rhs

    def test_interpolation_bound_with_implementation_constant(self):
        # bounded-y variant: ||y||_pvar enters at power 1 - eps; constant
        # doubled to absorb the 2^eps factor and the germ term
        tau, lam, p, eps = 0.8, 1.0, 2.5, 0.3
        delta = min(tau + (1 - eps) / p - 1, tau + lam / p - 1)
        const = 2 * 2**delta / (1 - 2**-delta)
        eta_bound = 3.0
        field = sin_t_field(power=0.8)
        for seed in (5, 23):
            x, y = self._battery(seed)
            integral_path = nonlinear_young_integral(y, x, field, levels=3)
            for (s, t) in [(0.0, 1.0), (0.5, 1.0)]:
                lhs = p_variation(restrict(integral_path, (s, t)), 1.0 / tau)
                y_inf = np.abs(restrict(y, (s, t)).values).max()
                y_pv = p_variation(restrict(y, (s, t)), p)
                rhs = (
                    const * eta_bound * (t - s) ** tau
                    * (p_variation(restrict(x, (s, t)), p) ** lam * y_inf
                       + (y_inf + y_inf**eps * y_pv ** (1 - eps)))
                )
                assert lhs <= rhs

    def test_delta_g_bound_constant_four(self):
        # ||g(x) - g(y)||_pvar <= 4(|grad g| ||x-y||_pvar
        #                           + |hess g| (||x||_pvar + ||y||_pvar) ||x-y||_inf)
        rng = np.random.default_rng(31)
        grid = TimeGrid.uniform(1.0, 64)

        def g(v):  # C^2_b map R^2 -> R with unit derivative bounds
            return np.sin(v[:, 0]) + 0.5 * np.cos(2 * v[:, 1]) / 2

        for _ in range(5):
            a = SamplePath(grid, np.cumsum(rng.standard_normal((65, 2)) * 0.1, axis=0))
            b = SamplePath(grid, a.values + rng.standard_normal((65, 2)) * 0.05)
            ga = SamplePath(grid, g(a.values))
            gb = SamplePath(grid, g(b.values))
            diff = SamplePath(grid, ga.values - gb.values)
            ab = SamplePath(grid, a.values - b.values)
            p = 2.5
            lhs = p_variation(diff, p)
            rhs = 4.0 * (
                1.0 * p_variation(ab, p)
                + 1.0 * (p_variation(a, p) + p_variation(b, p)) * uniform_norm(ab)
            )
            assert lhs <= rhs

    def test_product_rule_residual_shrinks(self):
        # two semimartingale-plus-Young processes with known decompositions:
        # the discrete product-identity residual drops by >= 1.5x per level
        # while the systematic Young/drift correction terms dominate (the
        # martingale part is kept small so quadratic-variation noise does
        # not mask the decay)
        rng = np.random.default_rng(41)
        fine = 2**12
        grid_f = np.linspace(0.0, 1.0, fine + 1)
        dw = rng.standard_normal(fine) * np.sqrt(1.0 / fine)
        w = np.concatenate([[0.0], np.cumsum(dw)])
        field = sin_t_field(power=0.9)

        def build(level):
            step = 2 ** (12 - level)
            t = grid_f[::step]
            wi = w[::step]
            xi = w[::step]
            d_eta = field.evaluate(t[1:], xi[:-1, None]) - field.evaluate(t[:-1], xi[:-1, None])
            dt = np.diff(t)
            dwi = np.diff(wi)
            f1, g1, z1 = np.cos(t), np.sin(t) + 1.2, 0.1 * np.ones_like(t)
            f2, g2, z2 = np.sin(2 * t), np.cos(t) + 0.8, 0.1 * t
            y1 = 1.0 + np.concatenate(
                [[0.0], np.cumsum(-f1[:-1] * dt - g1[:-1] * d_eta + z1[:-1] * dwi)]
            )
            y2 = -0.5 + np.concatenate(
                [[0.0], np.cumsum(-f2[:-1] * dt - g2[:-1] * d_eta + z2[:-1] * dwi)]
            )
            rhs = y1[0] * y2[0] + np.sum(
                -(y1[:-1] * f2[:-1] + y2[:-1] * f1[:-1]) * dt
                - (y1[:-1] * g2[:-1] + y2[:-1] * g1[:-1]) * d_eta
                + (y1[:-1] * z2[:-1] + y2[:-1] * z1[:-1]) * dwi
                + z1[:-1] * z2[:-1] * dt
            )
            return abs(y1[-1] * y2[-1] - rhs)

        residuals = [build(lev) for lev in (4, 5, 6, 7)]
        for lo, hi in zip(residuals[1:], residuals[:-1]):
            assert lo <= hi / 1.5
