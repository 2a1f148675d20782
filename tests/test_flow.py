import numpy as np
import pytest
from oracles import interp, linear_yode_step_factors_whole

from youngbsde import paths
from youngbsde.driver import AnalyticField, HurstParams, RegularityParams, fbs_generate
from youngbsde.flow import exp_formula_1d, inverse_flow, solve_linear_yode
from youngbsde.paths import NumericalError, SamplePath, TimeGrid


def time_field():
    return AnalyticField(lambda t, x: t, RegularityParams(tau=1.0, lam=1.0, p=2.5))


def brownian_path(n_cells, seed, horizon=1.0):
    rng = np.random.default_rng(seed)
    grid = TimeGrid.uniform(horizon, n_cells)
    dw = rng.standard_normal(n_cells) * np.sqrt(horizon / n_cells)
    return SamplePath(grid, np.concatenate([[0.0], np.cumsum(dw)]))


def rough_field(seed=21, h0=0.8, h=0.6):
    return fbs_generate(
        HurstParams(h0=h0, h=h),
        np.linspace(0.0, 1.0, 2047),
        [np.linspace(-4.0, 4.0, 65)],
        seed=seed,
        p=2.05,
    )


def sequential_flow(alpha, x, field, levels, dim):
    """The Euler flow as a Python loop over fine steps, one factor at a time:
    the reference for the batched solver.  Returns (matrices, step factors),
    or the index of the first step after which the flow is not finite."""
    fine = x.grid.refine(levels)
    xf = interp(x, fine.points)[:-1, None]
    d_eta = field.evaluate(fine.points[1:], xf) - field.evaluate(fine.points[:-1], xf)
    k, eye = 2**levels, np.eye(dim)
    mats, steps = [eye], []
    with np.errstate(over="ignore", invalid="ignore"):
        for jc in range(x.grid.n - 1):
            factor = eye
            for jf in range(jc * k, (jc + 1) * k):
                factor = (eye + alpha[jc].T * d_eta[jf]) @ factor
            steps.append(factor)
            mats.append(factor @ mats[-1])
            if not np.all(np.isfinite(mats[-1])):
                return jc
    return np.array(mats), np.array(steps)


class TestEulerFlow:
    def test_zero_alpha_identity(self):
        x = brownian_path(32, 0)
        flow = solve_linear_yode(np.zeros((33, 2, 2)), x, time_field())
        np.testing.assert_array_equal(flow.matrices, np.broadcast_to(np.eye(2), (33, 2, 2)))

    def test_scalar_exponential_limit(self):
        # N = 1, alpha = a, eta = t: Euler -> e^{a s}, error <= 1e-3 at 2^12 steps
        a = 1.0
        grid = TimeGrid.uniform(1.0, 2**12)
        x = SamplePath(grid, np.zeros(grid.n))
        flow = solve_linear_yode(np.full((grid.n, 1, 1), a), x, time_field())
        got = flow.matrices[-1, 0, 0]
        assert abs(got - np.e) <= 1e-3

    def test_blowup_reported(self):
        field = AnalyticField(lambda t, x: 1e8 * t, RegularityParams(tau=1.0, lam=1.0, p=2.5))
        x = brownian_path(64, 1)
        alpha = np.full((65, 1, 1), 1e80)
        with pytest.raises(NumericalError, match="blew up"):
            solve_linear_yode(alpha, x, field)

    @pytest.mark.parametrize("levels", range(4))
    @pytest.mark.parametrize("dim", [1, 2])
    def test_matches_sequential_loop(self, levels, dim):
        rng = np.random.default_rng(20 + levels)
        x = brownian_path(32, 21)
        alpha = rng.standard_normal((33, dim, dim)) * 0.4
        field = rough_field(seed=34)
        flow = solve_linear_yode(alpha, x, field, levels=levels)
        mats, steps = sequential_flow(alpha, x, field, levels, dim)
        scale = max(1.0, np.max(np.abs(mats)))
        np.testing.assert_allclose(flow.matrices, mats, rtol=0, atol=1e-13 * scale)
        np.testing.assert_allclose(flow.step_factors, steps, rtol=0, atol=1e-13 * scale)

    @pytest.mark.parametrize("levels", [0, 2, 3])
    @pytest.mark.parametrize("block_cells", [4, 24, 64])
    def test_blocks_match_the_whole_refinement_bitwise(self, monkeypatch, levels, block_cells):
        # 13 base cells walked in blocks of 1, 3, 4, 6 or 8 cells, or in one
        monkeypatch.setattr(paths, "_BLOCK_CELLS", block_cells)
        x = brownian_path(13, 24)
        alpha = np.random.default_rng(25).standard_normal((14, 2, 2)) * 0.4
        field = rough_field(seed=35)
        flow = solve_linear_yode(alpha, x, field, levels=levels)
        steps = linear_yode_step_factors_whole(alpha, x, field, levels)
        assert flow.step_factors.tobytes() == steps.tobytes()
        mats = [np.eye(2)]
        for step in steps:
            mats.append(step @ mats[-1])
        assert flow.matrices.tobytes() == np.array(mats).tobytes()

    @pytest.mark.parametrize("levels", range(4))
    def test_blowup_step_matches_sequential_loop(self, levels):
        field = AnalyticField(lambda t, x: 1e8 * t * (1.0 + x[:, 0] ** 2),
                              RegularityParams(tau=1.0, lam=1.0, p=2.5))
        x = brownian_path(64, 22)
        alpha = np.abs(np.random.default_rng(23).standard_normal((65, 2, 2)))
        step = sequential_flow(alpha, x, field, levels, 2)
        assert 0 < step < 63
        with pytest.raises(NumericalError, match=f"blew up at step {step} "):
            solve_linear_yode(alpha, x, field, levels=levels)

    def test_cocycle_exact(self):
        # G_T^s G_s^t = G_T^t by re-bracketing the same step-factor product
        rng = np.random.default_rng(3)
        x = brownian_path(64, 4)
        alpha = rng.standard_normal((65, 2, 2)) * 0.5
        flow = solve_linear_yode(alpha, x, rough_field())
        pts = x.grid.points
        full = flow.segment(0.0, 1.0)
        for s in (0.25, 0.5, 0.75):
            left = flow.segment(0.0, s)
            right = flow.segment(s, 1.0)
            err = np.max(np.abs(right @ left - full)) / max(1.0, np.max(np.abs(full)))
            assert err <= 1e-12
        np.testing.assert_allclose(flow.segment(0.0, pts[-1]), flow.matrices[-1], rtol=1e-12)

    def test_inverse_flow(self):
        rng = np.random.default_rng(8)
        x = brownian_path(64, 9)
        alpha = rng.standard_normal((65, 2, 2)) * 0.3
        flow = solve_linear_yode(alpha, x, rough_field(seed=33))
        inv = inverse_flow(flow)
        # an array of the inverse flow matrices, nothing else
        assert isinstance(inv, np.ndarray) and inv.shape == flow.matrices.shape
        np.testing.assert_allclose(flow.matrices @ inv, np.broadcast_to(np.eye(2), inv.shape),
                                   rtol=0, atol=1e-10)

    def test_inverse_identity_and_scalar(self):
        x = brownian_path(8, 2)
        flow = solve_linear_yode(np.zeros((9, 1, 1)), x, time_field())
        inv = inverse_flow(flow)
        np.testing.assert_array_equal(inv, flow.matrices)
        # scalar flow e^c inverts to e^-c
        grid = TimeGrid.uniform(1.0, 2**10)
        xs = SamplePath(grid, np.zeros(grid.n))
        f2 = solve_linear_yode(np.ones((grid.n, 1, 1)), xs, time_field())
        i2 = inverse_flow(f2)
        assert i2[-1, 0, 0] == pytest.approx(1.0 / f2.matrices[-1, 0, 0], rel=1e-12)

    def test_singular_flow_rejected(self):
        flow = solve_linear_yode(np.zeros((9, 2, 2)), brownian_path(8, 3), time_field())
        flow.matrices[4] = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(NumericalError, match="singular flow matrix at grid index 4"):
            inverse_flow(flow)

    def test_inverse_consistency_under_refinement(self):
        # inverse of the Euler flow vs Euler flow of the inverse equation
        # (right-multiplicative steps with -alpha): discrepancy shrinks by
        # >= 2^0.3 per dyadic refinement
        field = rough_field(seed=55)
        rng = np.random.default_rng(10)
        base = brownian_path(2**6, 11)
        alpha_full = rng.standard_normal((base.grid.n, 2, 2)) * 0.4
        errs = []
        for lev in range(3):
            flow = solve_linear_yode(alpha_full, base, field, levels=lev)
            inv = inverse_flow(flow)
            # right-multiplicative Euler for the inverse: H_{j+1} = H_j (I - incr)
            fine = base.grid.refine(lev)
            xf = interp(base, fine.points)
            d_eta = field.evaluate(fine.points[1:], xf[:-1, None]) - field.evaluate(
                fine.points[:-1], xf[:-1, None]
            )
            af = np.repeat(alpha_full, 2**lev, axis=0)[: fine.n]
            h = np.eye(2)
            for j in range(fine.n - 1):
                h = h @ (np.eye(2) - af[j].T * d_eta[j])
            errs.append(np.max(np.abs(h - inv[-1])))
        assert errs[1] <= errs[0] / 2**0.3
        assert errs[2] <= errs[1] / 2**0.3


class TestAlphaShape:
    """The flow takes alpha as (n, N, N) and the closed form as (n,)."""

    @pytest.mark.parametrize(
        "alpha",
        [np.float64(0.5), np.eye(2), np.zeros((8, 2, 2)), np.zeros((9, 2, 3))],
        ids=["scalar", "single-matrix", "wrong-n", "non-square"],
    )
    def test_flow_rejects(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            solve_linear_yode(alpha, brownian_path(8, 3), time_field())

    @pytest.mark.parametrize("alpha", [np.float64(0.5), np.ones((9, 1))], ids=["scalar", "per-time"])
    def test_exp_formula_rejects(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            exp_formula_1d(alpha, brownian_path(8, 3), time_field())


class TestExpFormula:
    def test_zero_alpha_gives_one(self):
        x = brownian_path(32, 12)
        vals = exp_formula_1d(np.zeros(33), x, rough_field(seed=2))
        np.testing.assert_allclose(vals, 1.0)

    def test_smooth_field_exponential(self):
        grid = TimeGrid.uniform(1.0, 256)
        x = SamplePath(grid, np.zeros(grid.n))
        vals = exp_formula_1d(np.full(grid.n, 0.7), x, time_field(), levels=2)
        np.testing.assert_allclose(vals, np.exp(0.7 * grid.points), rtol=1e-6)

    def test_euler_converges_to_exp_formula(self):
        # fixed-seed rough driver, H0 = 0.8: |Euler - exp formula| halves by
        # >= 2^0.3 per refinement (full-strength version in acceptance)
        field = rough_field(seed=5, h0=0.8)
        x = brownian_path(2**4, 13)
        errs = []
        for lev in range(3):
            euler = solve_linear_yode(
                np.ones((x.grid.n, 1, 1)), x, field, levels=lev
            ).matrices[:, 0, 0]
            closed = exp_formula_1d(np.ones(x.grid.n), x, field, levels=lev)
            errs.append(np.max(np.abs(euler - closed)))
        assert errs[1] <= errs[0] / 2**0.3
        assert errs[2] <= errs[1] / 2**0.3

    def test_log_flow_matches_integral(self):
        field = rough_field(seed=5)
        x = brownian_path(2**6, 14)
        euler = solve_linear_yode(np.ones((x.grid.n, 1, 1)), x, field, levels=2)
        closed = exp_formula_1d(np.ones(x.grid.n), x, field, levels=2)
        gap_low = np.max(np.abs(np.log(euler.matrices[:, 0, 0]) - np.log(closed)))
        euler_f = solve_linear_yode(np.ones((x.grid.n, 1, 1)), x, field, levels=4)
        closed_f = exp_formula_1d(np.ones(x.grid.n), x, field, levels=4)
        gap_high = np.max(np.abs(np.log(euler_f.matrices[:, 0, 0]) - np.log(closed_f)))
        assert gap_high < gap_low


class TestSegment:
    """segment on an 8-cell grid: times off the tail, or reversed, raise."""

    @pytest.mark.parametrize(
        "a, b, match",
        [(0.0, 0.3, "misaligned"), (0.5, 0.25, "a <= b"), (0.0, 7.0, "misaligned")],
        ids=["misaligned", "reversed", "past-the-end"],
    )
    def test_rejects(self, a, b, match):
        rng = np.random.default_rng(30)
        flow = solve_linear_yode(
            rng.standard_normal((9, 2, 2)), brownian_path(8, 31), rough_field()
        )
        with pytest.raises(ValueError, match=match):
            flow.segment(a, b)

    def test_from_the_first_point_is_the_flow_matrix_bitwise(self):
        # segment(times[0], s) copies matrices[i]: the product the loop over
        # step factors forms, steps[i - 1] @ ... @ steps[0], bitwise
        rng = np.random.default_rng(32)
        flow = solve_linear_yode(
            rng.standard_normal((9, 2, 2)), brownian_path(8, 33), rough_field(), levels=2
        )
        for i, s in enumerate(flow.times):
            got = flow.segment(flow.times[0], s)
            assert got.tobytes() == flow.matrices[i].tobytes()
            loop = np.eye(2)
            for j in range(i):
                loop = flow.step_factors[j] @ loop
            assert loop.tobytes() == got.tobytes()
            got[:] = np.nan  # a copy: the flow's own matrix is untouched
            assert np.isfinite(flow.matrices[i]).all()
