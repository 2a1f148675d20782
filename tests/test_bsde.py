import numpy as np
import pytest
from oracles import backward_solve_path_major, cho_solve_fit

from youngbsde.bsde import (
    BsdeSolution,
    BsdeSpec,
    PicardParams,
    RegressionBasis,
    backward_solve,
    comparison_experiment,
    diagnostics,
    linear_closed_form,
    localization_sweep,
    localized_solve,
    terminal_h_of_xt,
    terminal_running_max,
    zero_coupling,
    zero_generator,
)
from youngbsde.driver import AnalyticField, HurstParams, MollifiedField, RegularityParams, fbs_generate
from youngbsde.forward import SdeSpec, euler_maruyama, exit_indices
from youngbsde.paths import NumericalError, TimeGrid, aligned_index


def time_field():
    return AnalyticField(lambda t, x: t, RegularityParams(tau=1.0, lam=1.0, p=2.5))


def rough_field(seed=11, h0=0.9, h=0.5, halfwidth=6.0):
    return fbs_generate(
        HurstParams(h0=h0, h=h),
        np.linspace(0.0, 1.0, 513),
        [np.linspace(-halfwidth, halfwidth, 129)],
        seed=seed,
        p=2.05,
    )


def bm_ensemble(n_paths=2000, steps=64, seed=1, horizon=1.0):
    spec = SdeSpec(drift=0.0, diffusion=1.0, x0=[0.0])
    return spec, euler_maruyama(spec, TimeGrid.uniform(horizon, steps), n_paths, seed)


def make_spec(forward, fieldv, generator, coupling, terminal):
    return BsdeSpec(
        forward=forward,
        fieldv=fieldv,
        generator=generator,
        coupling=coupling,
        terminal=terminal,
    )


class TestBackwardSolve:
    def test_constant_terminal_no_dynamics(self):
        fwd, ens = bm_ensemble(500, 16, seed=2)
        spec = make_spec(
            fwd, time_field(), zero_generator, zero_coupling,
            terminal_h_of_xt(lambda x: np.full(x.shape[0], 2.5)),
        )
        sol = backward_solve(spec, ens)
        np.testing.assert_allclose(sol.y, 2.5, atol=1e-10)
        np.testing.assert_allclose(sol.z, 0.0, atol=1e-10)

    def test_terminal_exactness_bitwise(self):
        fwd, ens = bm_ensemble(300, 16, seed=3)
        h = lambda x: np.cos(x[:, 0])
        spec = make_spec(fwd, time_field(), zero_generator, zero_coupling, terminal_h_of_xt(h))
        sol = backward_solve(spec, ens)
        np.testing.assert_array_equal(sol.y[:, -1], h(ens.x[:, -1]))

    def test_time_homogeneous_problem_ignores_time_origin(self):
        # eta affine in t, constant coefficients and a generator free of t:
        # the problem on [t0, t0 + 1/2] is the same for every start t0
        fieldv = AnalyticField(
            lambda t, x: t * np.sin(x[:, 0]), RegularityParams(tau=1.0, lam=1.0, p=2.5),
            dt_fn=lambda t, x: np.sin(x[:, 0]),
        )
        fwd = SdeSpec(drift=0.1, diffusion=1.0, x0=[0.2])
        spec = make_spec(
            fwd, fieldv, lambda t, x, y, z: 0.5 * np.sin(y) + 0.2 * z[:, 0], np.sin,
            terminal_h_of_xt(lambda x: np.cos(x[:, 0])),
        )
        sols = []
        for t0 in (0.0, 0.37):
            grid = TimeGrid(t0 + np.linspace(0.0, 0.5, 33))
            sols.append(backward_solve(spec, euler_maruyama(fwd, grid, 2000, seed=33)))
        at_zero, interior = sols
        assert interior.grid_points[0] == 0.37
        assert abs(at_zero.y0 - interior.y0) <= 1e-12
        assert abs(at_zero.y0_se - interior.y0_se) <= 1e-12

    @pytest.mark.parametrize("name", ["generator", "coupling"])
    def test_column_shaped_callable_rejected(self, name):
        # a (k, 1) column would broadcast the (k,) target to (k, k)
        fwd, ens = bm_ensemble(300, 8, seed=3)
        column = {
            "generator": lambda t, x, y, z: 0.1 * y[:, None],
            "coupling": lambda y: np.sin(y)[:, None],
        }
        callables = {"generator": zero_generator, "coupling": zero_coupling, name: column[name]}
        spec = make_spec(fwd, time_field(), callables["generator"], callables["coupling"],
                         terminal_h_of_xt(lambda x: np.cos(x[:, 0])))
        with pytest.raises(ValueError, match=rf"{name} must return shape \(300,\), "
                                             rf"got shape \(300, 1\)"):
            backward_solve(spec, ens)

    def test_linear_generator_exponential(self):
        # g = 0, f = lam*y, xi = c: Y_t = c e^{lam (T - t)}
        lam, c = 0.5, 1.0
        fwd, ens = bm_ensemble(400, 256, seed=4)

        def gen(t, x, y, z):
            return lam * y

        spec = make_spec(
            fwd, time_field(), gen, zero_coupling,
            terminal_h_of_xt(lambda x: np.full(x.shape[0], c)),
        )
        sol = backward_solve(spec, ens, picard=PicardParams(max_iter=16, tol=1e-12))
        want = c * np.exp(lam * (1.0 - ens.grid.points))
        got = sol.y.mean(axis=0)
        assert np.max(np.abs(got - want)) <= 1e-3

    def test_mean_preservation_identity(self):
        fwd, ens = bm_ensemble(800, 32, seed=5)
        spec = make_spec(
            fwd, rough_field(), zero_generator, np.sin,
            terminal_h_of_xt(lambda x: np.cos(x[:, 0])),
        )
        sol = backward_solve(spec, ens)
        # mean preservation telescopes: mean fitted Y_0 = mean realized value
        assert abs(sol.y[:, 0].mean() - sol.realized.mean()) <= 1e-10

    def test_picard_residuals_decrease(self):
        fwd, ens = bm_ensemble(500, 32, seed=6)

        def gen(t, x, y, z):
            return np.sin(y)

        spec = make_spec(
            fwd, rough_field(), gen, np.sin,
            terminal_h_of_xt(lambda x: np.cos(x[:, 0])),
        )
        sol = backward_solve(spec, ens, picard=PicardParams(max_iter=12, tol=1e-12))
        for trace in sol.picard_residuals:
            rs = [r for r in trace if isinstance(r, float)]
            if len(rs) >= 2:
                assert rs[-1] <= rs[0]
        assert sol.halvings == []

    def test_halving_rescues_marginal_contraction(self):
        # Lipschitz constant * dt slightly above 1: one halving fixes it
        fwd, ens = bm_ensemble(300, 8, seed=7)
        c_lip = 9.0  # dt = 1/8 -> factor 1.125 > 1, halved 0.5625 < 1

        def gen(t, x, y, z):
            return -c_lip * y

        spec = make_spec(
            fwd, time_field(), gen, zero_coupling,
            terminal_h_of_xt(lambda x: np.cos(x[:, 0])),
        )
        sol = backward_solve(spec, ens, picard=PicardParams(max_iter=10, tol=1e-10))
        assert len(sol.halvings) > 0
        assert np.all(np.isfinite(sol.y))
        # the halves run out of iterations above tol and are accepted visibly
        assert len(sol.unconverged) > 0
        assert all(r >= 1e-10 for r in sol.unconverged.values())

    def test_step_slices_contiguous(self):
        fwd, ens = bm_ensemble(200, 8, seed=4)
        spec = make_spec(fwd, time_field(), zero_generator, np.sin,
                         terminal_h_of_xt(lambda x: np.cos(x[:, 0])))
        sol = backward_solve(spec, ens)
        assert sol.y.shape == (200, 9) and sol.z.shape == (200, 8, 1)
        assert all(sol.y[:, i].flags.c_contiguous for i in range(9))
        assert all(sol.z[:, i].flags.c_contiguous for i in range(8))

    @pytest.mark.parametrize("c_lip", [0.5, 9.0])  # 9.0 halves steps, as above
    def test_matches_path_major_loop(self, c_lip):
        fwd, ens = bm_ensemble(300, 8, seed=7)
        spec = make_spec(
            fwd, rough_field(), lambda t, x, y, z: -c_lip * y + 0.1 * z[:, 0], np.sin,
            terminal_h_of_xt(lambda x: np.cos(x[:, 0])),
        )
        picard = PicardParams(max_iter=10, tol=1e-10)
        sol = backward_solve(spec, ens, picard=picard)
        y, z, realized = backward_solve_path_major(spec, ens, picard=picard)
        assert (len(sol.halvings) > 0) == (c_lip > 1)
        assert np.array_equal(sol.y, y) and np.array_equal(sol.z, z)
        assert np.array_equal(sol.realized, realized)

    def test_localized_halving_rescues_marginal_contraction(self):
        # the halving problem above, stopped at |X| = 1 so that steps run on
        # part of the paths; the localized solve halves as the plain one does
        fwd, ens = bm_ensemble(300, 8, seed=7)

        def gen(t, x, y, z):
            return -9.0 * y

        spec = make_spec(
            fwd, time_field(), gen, zero_coupling,
            terminal_h_of_xt(lambda x: np.cos(x[:, 0])),
        )
        assert np.any(exit_indices(ens, 1.0) < ens.grid.n - 1)
        sol = localized_solve(spec, ens, 1.0, picard=PicardParams(max_iter=10, tol=1e-10))
        assert len(sol.halvings) > 0
        assert np.all(np.isfinite(sol.y))
        assert len(sol.unconverged) > 0
        assert all(r >= 1e-10 for r in sol.unconverged.values())

    def test_no_contraction_error(self):
        fwd, ens = bm_ensemble(200, 4, seed=8)

        def gen(t, x, y, z):
            return -100.0 * y  # dt = 1/4: hopeless even after one halving

        spec = make_spec(
            fwd, time_field(), gen, zero_coupling,
            terminal_h_of_xt(lambda x: np.cos(x[:, 0])),
        )
        with pytest.raises(NumericalError, match="no contraction"):
            backward_solve(spec, ens, picard=PicardParams(max_iter=10, tol=1e-10))

    def test_singular_regression_names_its_step(self):
        # a negative ridge makes every step's Gram matrix indefinite; the
        # first step solved is the last one
        fwd, ens = bm_ensemble(100, 4, seed=8)
        spec = make_spec(
            fwd, time_field(), zero_generator, zero_coupling,
            terminal_h_of_xt(lambda x: np.cos(x[:, 0])),
        )
        with pytest.raises(NumericalError, match=r"^regression normal equations singular at step 3 \(t = 0\.75\)$"):
            backward_solve(spec, ens, basis=RegressionBasis(degree=2, ridge=-1e6))

    def test_smooth_driver_consistency(self):
        # backward solutions under eta_m are Cauchy in m at t = 0
        fwd, ens = bm_ensemble(2000, 32, seed=9)
        base = rough_field(seed=21, h0=0.8)
        y0s = []
        for m in (4, 8, 16):
            spec = make_spec(
                fwd, MollifiedField(base, m), zero_generator, np.sin,
                terminal_h_of_xt(lambda x: np.cos(x[:, 0])),
            )
            sol = backward_solve(spec, ens)
            y0s.append(sol.y0)
        assert abs(y0s[2] - y0s[1]) < abs(y0s[1] - y0s[0])


class TestRegression:
    def test_in_span_target_reproduced_at_degree_15(self):
        # the Gram matrix has condition number ~1e9 here; the fit must not
        # lose those digits to an explicit inverse
        from youngbsde.bsde import _Fit

        rng = np.random.default_rng(0)
        x = rng.standard_normal((10_000, 1))
        basis = RegressionBasis(degree=15, ridge=0.0)
        design = basis.design(x)
        target = design @ rng.standard_normal(design.shape[1])
        got = _Fit(basis, x).fit(target)
        assert np.max(np.abs(got - target)) <= 1e-10 * np.max(np.abs(target))

    @pytest.mark.parametrize("degree", [11, 15])
    def test_fit_matches_cho_solve(self, degree):
        from youngbsde.bsde import _Fit

        rng = np.random.default_rng(degree)
        x = rng.standard_normal((10_000, 1))
        basis = RegressionBasis(degree=degree)
        fit = _Fit(basis, x)
        design = basis.design(x)
        targets = np.column_stack([np.cos(x[:, 0]), design @ rng.standard_normal(design.shape[1])])
        if degree == 11:
            targets = np.column_stack([targets, np.sin(3 * x[:, 0]) + rng.standard_normal(10_000)])
        for t in (targets[:, 0], targets):
            want = cho_solve_fit(fit._a, basis.ridge, t)
            assert np.max(np.abs(fit.fit(t) - want)) <= 1e-9 * np.max(np.abs(want))

    def test_fit_on_noise_as_accurate_as_cho_solve_at_degree_15(self):
        # at Gram condition ~1e9 two Cholesky solves of a noisy target
        # differ by ~1e-8 (scipy's upper and lower factors as much as ours),
        # so judge both by their distance to a least-squares QR solve
        from youngbsde.bsde import _Fit

        rng = np.random.default_rng(0)
        x = rng.standard_normal((10_000, 1))
        basis = RegressionBasis(degree=15)
        fit = _Fit(basis, x)
        target = np.sin(3 * x[:, 0]) + rng.standard_normal(10_000)
        pen = np.sqrt(basis.ridge) * np.eye(fit._a.shape[1])[1:]
        beta = np.linalg.lstsq(np.vstack([fit._a, pen]), np.append(target, np.zeros(len(pen))),
                               rcond=None)[0]
        exact = fit._a @ beta
        err_cho = np.max(np.abs(cho_solve_fit(fit._a, basis.ridge, target) - exact))
        assert np.max(np.abs(fit.fit(target) - exact)) <= 2 * err_cho

    def test_gram_not_positive_definite_raises(self):
        from youngbsde.bsde import _Fit

        # a negative ridge pushes every feature's pivot below zero
        x = np.random.default_rng(1).standard_normal((100, 1))
        with pytest.raises(NumericalError, match="singular"):
            _Fit(RegressionBasis(degree=2, ridge=-1e6), x)

    def test_dropped_constant_columns_match_lstsq(self):
        # x_2 is constant, so its powers are constant and its products with
        # x_1 repeat the x_1 columns
        from youngbsde.bsde import _Fit

        rng = np.random.default_rng(3)
        x = np.column_stack([rng.standard_normal(2000), np.full(2000, 0.7)])
        x_before = x.copy()
        basis = RegressionBasis(degree=4, ridge=1e-8)
        target = np.sin(2 * x[:, 0]) + 0.1 * rng.standard_normal(2000)
        got = _Fit(basis, x).fit(target)
        np.testing.assert_array_equal(x, x_before)

        raw = basis.design(x)
        std = raw.std(axis=0)
        keep = std > 1e-12
        # x_1, ..., x_1^4 and their multiples by powers of x_2; no intercept
        assert not keep[0] and keep.sum() == 10
        a = (raw[:, keep] - raw[:, keep].mean(axis=0)) / std[keep]
        a = np.column_stack([np.ones(2000), a])
        pen = np.sqrt(basis.ridge) * np.eye(a.shape[1])[1:]
        beta = np.linalg.lstsq(np.vstack([a, pen]), np.append(target, np.zeros(len(pen))),
                               rcond=None)[0]
        np.testing.assert_allclose(got, a @ beta, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("strided", [False, True])
    @pytest.mark.parametrize("degree", [0, 1, 5, 11])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_design_matches_power_reference(self, d, degree, strided):
        # every monomial built from integer powers, in the column order of
        # _exponents; strided states are one time slice of an ensemble's
        # (paths, times, d) array, as the backward loop passes them
        states = np.random.default_rng(d * 100 + degree).standard_normal((300, 3, d))
        x = states[:, 1] if strided else np.ascontiguousarray(states[:, 1])
        basis = RegressionBasis(degree=degree)
        cols = [np.ones(x.shape[0])]
        for expo in basis._exponents(d):
            cols.append(np.prod([x[:, j] ** e for j, e in enumerate(expo)], axis=0))
        want = np.column_stack(cols)
        got = basis.design(x)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


class TestLinearClosedForm:
    def test_constant_terminal(self):
        _, ens = bm_ensemble(500, 16, seed=10)
        y0, se = linear_closed_form(
            ens, time_field(), terminal_h_of_xt(lambda x: np.full(x.shape[0], 3.0)),
            alpha=0.0,
        )
        assert y0 == pytest.approx(3.0, abs=1e-12)
        assert se == pytest.approx(0.0, abs=1e-12)

    def test_terminal_profile_of_wrong_shape_rejected(self):
        # a (k, 1) column would broadcast against the (k,) flow weights into
        # a (k, k) outer product and give a wrong Y0 without an error
        _, ens = bm_ensemble(300, 16, seed=12)
        with pytest.raises(ValueError, match=r"terminal must return shape \(300,\), got shape \(300, 1\)"):
            linear_closed_form(ens, time_field(), terminal_h_of_xt(lambda x: np.cos(x[:, :1])))

    def test_array_alpha_rejected(self):
        _, ens = bm_ensemble(20, 4, seed=10)
        with pytest.raises(ValueError, match="alpha must be a scalar"):
            linear_closed_form(ens, time_field(), terminal_h_of_xt(lambda x: x[:, 0]),
                               alpha=np.eye(2)[None, None, None])

    def test_scalar_exponential(self):
        a, c = 0.9, 2.0
        _, ens = bm_ensemble(200, 512, seed=11)
        y0, _ = linear_closed_form(
            ens, time_field(), terminal_h_of_xt(lambda x: np.full(x.shape[0], c)), alpha=a
        )
        assert y0 == pytest.approx(c * np.exp(a), rel=2e-3)

    def test_backward_solver_agrees_with_closed_form(self):
        # the linear-oracle battery at module scale (full scale in acceptance)
        fwd, ens = bm_ensemble(4000, 64, seed=15)
        field = rough_field(seed=31)
        h = lambda x: np.cos(x[:, 0])
        spec = make_spec(
            fwd, field, zero_generator, lambda y: y,
            terminal_h_of_xt(h),
        )
        sol = backward_solve(spec, ens)
        ref_y0, ref_se = linear_closed_form(ens, field, terminal_h_of_xt(h), alpha=1.0)
        combined = np.sqrt(sol.y0_se ** 2 + ref_se ** 2)
        assert abs(sol.y0 - ref_y0) <= 3 * combined


class TestLocalized:
    def test_running_max_terminal_at_exit_indices(self):
        fwd, ens = bm_ensemble(300, 32, seed=16)
        idx = exit_indices(ens, 0.5)
        want = np.maximum.accumulate(ens.x[:, :, 0], axis=1)[np.arange(300), idx]
        assert np.array_equal(terminal_running_max()(ens, idx), want)

    def test_infinite_radius_matches_plain(self):
        fwd, ens = bm_ensemble(800, 32, seed=17)
        spec = make_spec(
            fwd, rough_field(seed=41), zero_generator, np.sin,
            terminal_h_of_xt(lambda x: np.cos(x[:, 0])),
        )
        plain = backward_solve(spec, ens)
        local = localized_solve(spec, ens, np.inf)
        np.testing.assert_array_equal(local.y, plain.y)
        np.testing.assert_array_equal(local.z, plain.z)
        assert local.halvings == plain.halvings

    def test_deterministic_exit(self):
        fwd = SdeSpec(drift=1.0, diffusion=0.0, x0=[0.0])
        ens = euler_maruyama(fwd, TimeGrid.uniform(1.0, 200), 50, seed=18)
        spec = make_spec(
            fwd, time_field(), zero_generator, zero_coupling,
            terminal_h_of_xt(lambda x: x[:, 0]),
        )
        sol = localized_solve(spec, ens, 0.5)
        stop = aligned_index(ens.grid.points, 0.505)
        np.testing.assert_allclose(sol.y[:, : stop + 1], 0.505, atol=1e-9)

    def test_sweep_inert_for_bounded_battery(self):
        fwd, ens = bm_ensemble(4000, 64, seed=19)
        spec = make_spec(
            fwd, time_field(), zero_generator, zero_coupling,
            terminal_h_of_xt(lambda x: np.cos(x[:, 0])),
        )
        rows = localization_sweep(spec, ens, [4.0, 5.0, 6.0])
        assert rows[-1]["p_exit"] < 1e-3
        spread = max(r["y0"] for r in rows) - min(r["y0"] for r in rows)
        assert spread <= 3 * rows[-1]["y0_se"] + 1e-6

    def test_sweep_p_exit_matches_exit_indices(self):
        fwd, ens = bm_ensemble(3000, 64, seed=20)
        spec = make_spec(
            fwd, time_field(), zero_generator, zero_coupling,
            terminal_h_of_xt(lambda x: np.cos(x[:, 0])),
        )
        rows = localization_sweep(spec, ens, [1.0, 2.0])
        for row in rows:
            direct = np.mean(exit_indices(ens, row["radius"]) < ens.grid.n - 1)
            assert row["p_exit"] == pytest.approx(direct)

    def test_sweep_cauchy_for_running_sup(self):
        fwd, ens = bm_ensemble(4000, 64, seed=21)
        spec = make_spec(
            fwd, rough_field(seed=51), zero_generator, np.sin,
            terminal_running_max(),
        )
        rows = localization_sweep(spec, ens, [1.0, 2.0, 3.0, 4.0])
        diffs = [r["diff_prev"] for r in rows[1:]]
        assert diffs[1] < diffs[0]
        assert diffs[2] < diffs[1]

    def test_non_lipschitz_generator_sweep(self):
        fwd, ens = bm_ensemble(3000, 64, seed=22)

        def gen(t, x, y, z):
            return np.sqrt(np.abs(x[:, 0])) * np.sin(y)

        spec = make_spec(
            fwd, time_field(), gen, zero_coupling,
            terminal_h_of_xt(lambda x: np.cos(x[:, 0])),
        )
        rows = localization_sweep(spec, ens, [1.0, 2.0, 3.0])
        diffs = [r["diff_prev"] for r in rows[1:]]
        assert diffs[1] < diffs[0]


class TestComparison:
    def _specs(self, fieldv, shift, coupling):
        h_b = lambda x: np.cos(x[:, 0])
        h_a = lambda x: np.cos(x[:, 0]) + shift
        fwd = SdeSpec(drift=0.0, diffusion=1.0, x0=[0.0])
        sa = make_spec(fwd, fieldv, zero_generator, coupling, terminal_h_of_xt(h_a))
        sb = make_spec(fwd, fieldv, zero_generator, coupling, terminal_h_of_xt(h_b))
        return sa, sb

    def test_identical_specs(self):
        fwd, ens = bm_ensemble(600, 16, seed=23)
        sa, sb = self._specs(time_field(), 0.0, zero_coupling)
        rep = comparison_experiment(sa, sb, ens)
        assert rep.fraction_ordered == 1.0
        assert rep.y0_gap == pytest.approx(0.0, abs=1e-12)

    def test_constant_shift_exact(self):
        fwd, ens = bm_ensemble(600, 16, seed=24)
        sa, sb = self._specs(time_field(), 0.1, zero_coupling)
        rep = comparison_experiment(sa, sb, ens)
        # the experiment's own solves: the same specs on the same ensemble
        diff = backward_solve(sa, ens).y - backward_solve(sb, ens).y
        np.testing.assert_allclose(diff, 0.1, atol=1e-9)
        assert rep.y0_gap == pytest.approx(0.1, abs=1e-9)

    def test_unordered_inputs_rejected(self):
        fwd, ens = bm_ensemble(100, 8, seed=25)
        sa, sb = self._specs(time_field(), -0.2, zero_coupling)
        with pytest.raises(ValueError, match="inputs not ordered"):
            comparison_experiment(sa, sb, ens)

    def test_nonlinear_coupling_statistical(self):
        fwd, ens = bm_ensemble(4000, 48, seed=26)
        sa, sb = self._specs(rough_field(seed=61), 0.1, np.sin)
        rep = comparison_experiment(sa, sb, ens)
        assert rep.fraction_ordered >= 0.99
        assert rep.y0_gap > 3 * rep.y0_gap_se


class TestDiagnostics:
    def test_constant_solution(self):
        fwd, ens = bm_ensemble(300, 16, seed=27)
        spec = make_spec(
            fwd, time_field(), zero_generator, zero_coupling,
            terminal_h_of_xt(lambda x: np.full(x.shape[0], -1.5)),
        )
        sol = backward_solve(spec, ens)
        d = diagnostics(sol, ens)
        assert all(type(t) is float for t in d["times"])  # plain floats for summary.txt
        assert d["m_pk"] == pytest.approx(0.0, abs=1e-9)
        assert d["z_bmo"] == pytest.approx(0.0, abs=1e-9)
        assert d["sup_y"] == pytest.approx(1.5)

    def test_independent_of_memory_layout(self):
        # the solver's time-major y, z against C-contiguous path-major copies
        fwd = SdeSpec(drift=0.0, diffusion=1.0, x0=[0.0, 0.0])
        ens = euler_maruyama(fwd, TimeGrid.uniform(1.0, 64), 600, seed=32)
        spec = make_spec(
            fwd, time_field(), lambda t, x, y, z: 0.5 * np.sin(y) + 0.2 * z[:, 1], np.sin,
            terminal_h_of_xt(lambda x: np.cos(x[:, 0] + x[:, 1])),
        )
        sol = backward_solve(spec, ens)
        copy = BsdeSolution(
            grid_points=sol.grid_points,
            y=np.ascontiguousarray(sol.y),
            z=np.ascontiguousarray(sol.z),
            picard_residuals=sol.picard_residuals,
            halvings=sol.halvings,
        )
        assert not sol.y.flags.c_contiguous and copy.y.flags.c_contiguous
        # at degree 11 the fits carry a last-bit change of the Z tails into z_bmo
        basis = RegressionBasis(degree=11)
        want = diagnostics(copy, ens, basis=basis)
        assert diagnostics(sol, ens, basis=basis) == want
        assert want["z_bmo"] > 0

    def test_brownian_y_against_resampled_oracle(self):
        # feed Y = W directly and compare m_{2.5,2}(Y;[0,1]) at t = 0 with a
        # fresh-sample Monte Carlo of E[||W||_{2.5-var}^2]^{1/2}
        from youngbsde.bsde import BsdeSolution

        fwd, ens = bm_ensemble(1500, 64, seed=28)
        sol = BsdeSolution(
            grid_points=ens.grid.points,
            y=ens.x[:, :, 0].copy(),
            z=np.zeros((ens.n_paths, ens.grid.n - 1, 1)),
            picard_residuals=[],
            halvings=[],
        )
        d = diagnostics(sol, ens, p=2.5, k_mom=2.0, times=[0.0])
        _, fresh = bm_ensemble(1500, 64, seed=29)
        from youngbsde.paths import p_variation_suffixes

        oracle = np.sqrt(np.mean(p_variation_suffixes(fresh.x[:, :, 0], 2.5, (0,))[:, 0] ** 2))
        assert abs(d["m_pk"] - oracle) / oracle <= 0.2


    def test_matches_four_slice_formula(self):
        # diagnostics reads each u's p-variation from one suffix DP; the
        # reference runs the DP again on y[:, j:] for every u
        from youngbsde.bsde import _Fit
        from youngbsde.paths import p_variation_suffixes

        fwd, ens = bm_ensemble(400, 16, seed=30)
        spec = make_spec(
            fwd, time_field(), lambda t, x, y, z: 0.5 * np.sin(y),
            np.sin, terminal_h_of_xt(lambda x: np.cos(x[:, 0])),
        )
        sol = backward_solve(spec, ens)
        basis = RegressionBasis(degree=3)
        d = diagnostics(sol, ens, p=2.5, k_mom=2.0, basis=basis)
        y, x, pts = sol.y, ens.x, sol.grid_points
        m_pk = 0.0
        for u in d["times"]:
            j = int(np.argmin(np.abs(pts - u)))
            pv = p_variation_suffixes(y[:, j:], 2.5, (0,))[:, 0] ** 2.0
            m_pk = max(m_pk, float(np.max(_Fit(basis, x[:, j]).fit(pv))) ** 0.5)
        assert len(d["times"]) == 4 and m_pk > 0
        assert d["m_pk"] == pytest.approx(m_pk, rel=1e-12)


    def test_overflowing_exponent_names_diag_p(self):
        # |increment|^p overflows for increments above 1 at p = 1e6
        fwd, ens = bm_ensemble(200, 16, seed=31)
        sol = BsdeSolution(
            grid_points=ens.grid.points,
            y=4.0 * ens.x[:, :, 0],
            z=np.zeros((ens.n_paths, ens.grid.n - 1, 1)),
            picard_residuals=[],
            halvings=[],
        )
        with pytest.raises(NumericalError, match="diag_p"):
            diagnostics(sol, ens, p=1e6)

    @pytest.mark.parametrize("y_scale, z_value", [(4.0, 0.0), (0.0, 100.0)])
    def test_overflowing_moment_names_diag_k(self, y_scale, z_value):
        # pvar^k (Y moving) or the Z tail^(k/2) (Y still) overflows at k = 1e4
        fwd, ens = bm_ensemble(200, 16, seed=31)
        sol = BsdeSolution(
            grid_points=ens.grid.points,
            y=y_scale * ens.x[:, :, 0],
            z=np.full((ens.n_paths, ens.grid.n - 1, 1), z_value),
            picard_residuals=[],
            halvings=[],
        )
        with np.errstate(over="raise"), pytest.raises(NumericalError, match="diag_k"):
            diagnostics(sol, ens, k_mom=1e4)
