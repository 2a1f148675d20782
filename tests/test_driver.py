import tracemalloc

import numpy as np
import pytest
from oracles import fbs_values_by_factors

from youngbsde import driver
from youngbsde.cli import ANALYTIC_FIELDS
from youngbsde.driver import (
    AnalyticField,
    FbsGridField,
    HurstParams,
    MollifiedField,
    RegularityParams,
    SeparableField,
    assumption_check,
    fbs_generate,
)
from youngbsde.paths import NumericalError, locate


def fbs_cov(t, x, s, y, h0, h):
    ft = abs(t) ** (2 * h0) + abs(s) ** (2 * h0) - abs(t - s) ** (2 * h0)
    fx = abs(x) ** (2 * h) + abs(y) ** (2 * h) - abs(x - y) ** (2 * h)
    return 0.25 * ft * fx


def linear_field(horizon=1.0):
    return AnalyticField(
        lambda t, x: t, RegularityParams(tau=1.0, lam=1.0, p=2.5),
        dim=1, horizon=horizon, dt_fn=lambda t, x: np.ones_like(t),
    )


class TestParams:
    def test_ranges(self):
        with pytest.raises(ValueError):
            RegularityParams(tau=0.0, lam=0.5)
        with pytest.raises(ValueError):
            RegularityParams(tau=0.5, lam=0.5, p=2.0)
        with pytest.raises(ValueError):
            HurstParams(h0=1.0, h=0.5)

    def test_fbs_regularity_exponents(self):
        hp = HurstParams(h0=0.8, h=0.6, d=2)
        rp = hp.regularity(theta=0.05)
        assert rp.tau == pytest.approx(0.75)
        assert rp.lam == pytest.approx(0.55)
        assert rp.beta == pytest.approx(0.1 + 0.6)


class TestAnalyticField:
    @pytest.mark.parametrize("name", list(ANALYTIC_FIELDS))
    @pytest.mark.parametrize("dim", [1, 2])
    def test_registered_fields_vanish_at_time_origin(self, name, dim):
        # fn is evaluated as given, so each registered fn must vanish at
        # t = 0; the mollification inherits that through its odd reflection
        f = ANALYTIC_FIELDS[name]
        x = np.random.default_rng(7).uniform(-3.0, 3.0, (40, dim))
        for g in (f, MollifiedField(f, 8)):
            np.testing.assert_array_equal(g.evaluate(0.0, x), 0.0)
            np.testing.assert_array_equal(g.evaluate(np.zeros(40), x), 0.0)

    def test_evaluate_shapes(self):
        f = linear_field()
        assert f.evaluate(0.5, np.array([[1.0]])).shape == (1,)
        assert f.evaluate(np.array([0.1, 0.2]), np.array([[0.0], [1.0]])).shape == (2,)


def _separable_fields():
    # every registered field, and one whose time factor is not affine
    fields = dict(ANALYTIC_FIELDS)
    fields["t15_gauss"] = SeparableField(
        lambda t: t**1.5, lambda x: np.exp(-np.sum(x**2, axis=1)),
        RegularityParams(tau=1.0, lam=1.0, p=2.5), da=lambda t: 1.5 * np.sqrt(t), dim=2,
    )
    return fields


class TestSeparableField:
    @pytest.mark.parametrize("name", list(_separable_fields()))
    def test_increment_and_derivative_match_their_definitions(self, name):
        # increment = evaluate(t1) - evaluate(t0) and time_derivative =
        # a'(t) phi(x), at one time for every point and at one per point
        f = _separable_fields()[name]
        rng = np.random.default_rng(3)
        x = rng.uniform(-3.0, 3.0, (50, f.dim))
        t0, t1 = rng.uniform(0.0, 1.0, (2, 50))
        for a, b in [(0.25, 0.75), (t0, t1)]:
            want = f.evaluate(b, x) - f.evaluate(a, x)
            np.testing.assert_allclose(f.increment(a, b, x), want, rtol=0, atol=1e-13)
            if f.has_time_derivative:
                want = f.da(np.asarray(b)) * f.phi(x)
                np.testing.assert_allclose(f.time_derivative(b, x), want, rtol=0, atol=1e-13)
            assert f.evaluate(b, x).shape == f.increment(a, b, x).shape == (50,)

    def test_a_scalar_time_factor_is_computed_once(self):
        calls = []

        def a(t):
            calls.append(np.shape(t))
            return t**2

        f = SeparableField(a, lambda x: np.cos(x[:, 0]), RegularityParams(tau=1.0, lam=1.0),
                           da=lambda t: 2 * t)
        x = np.linspace(-1.0, 1.0, 40)[:, None]
        np.testing.assert_array_equal(f.evaluate(0.5, x), 0.25 * np.cos(x[:, 0]))
        f.increment(0.25, 0.5, x)
        assert calls == [(), (), ()]
        np.testing.assert_array_equal(f.time_derivative(0.5, x), np.cos(x[:, 0]))

    def test_sin_x_t08_has_no_time_derivative(self):
        f = ANALYTIC_FIELDS["sin_x_t08"]
        assert not f.has_time_derivative
        with pytest.raises(NotImplementedError, match="no time derivative"):
            f.time_derivative(0.5, np.zeros((3, 1)))


class TestFbs:
    def test_zero_slices_exact(self):
        hp = HurstParams(h0=0.6, h=0.7)
        field = fbs_generate(hp, np.linspace(0.0, 1.0, 9), [np.linspace(0.0, 1.0, 9)], seed=42)
        xs = field.space_axes[0][:, None]
        np.testing.assert_array_equal(field.evaluate(np.zeros(xs.shape[0]), xs), 0.0)
        ts = field.time_points
        at_x0 = field.evaluate(ts, np.zeros((ts.size, 1)))
        np.testing.assert_array_equal(at_x0, 0.0)

    def test_determinism(self):
        hp = HurstParams(h0=0.6, h=0.7)
        a = fbs_generate(hp, np.linspace(0.0, 1.0, 7), [np.linspace(0, 1, 7)], seed=5)
        b = fbs_generate(hp, np.linspace(0.0, 1.0, 7), [np.linspace(0, 1, 7)], seed=5)
        np.testing.assert_array_equal(a.values, b.values)

    def test_a_point_within_1e_8_of_zero_is_the_zero_slice(self):
        # as np.isclose(a, 0) at its default tolerances: 5e-9 is taken as the
        # axis's 0, so no 0 is added and the sheet is bitwise the one with 0
        # itself there; 2e-8 is not, and a 0 is added beside it
        hp, t = HurstParams(h0=0.8, h=0.6), np.array([0.0, 0.25, 0.5, 1.0])
        near = fbs_generate(hp, t, [np.array([-1.0, 5e-9, 1.0])], seed=3)
        at_zero = fbs_generate(hp, t, [np.array([-1.0, 0.0, 1.0])], seed=3)
        assert near.space_axes[0].tolist() == [-1.0, 5e-9, 1.0]
        assert near.values.tobytes() == at_zero.values.tobytes()
        assert np.all(near.values[:, 1] == 0.0)
        off = fbs_generate(hp, t, [np.array([-1.0, 2e-8, 1.0])], seed=3)
        assert off.space_axes[0].tolist() == [-1.0, 0.0, 2e-8, 1.0]
        assert np.all(off.values[:, 1] == 0.0) and np.all(off.values[1:, 2] != 0.0)

    def test_factorization_failure_reported(self, monkeypatch):
        # non-uniform axes, so both reach the dense factor
        def boom(m):
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", boom)
        axis = np.array([0.0, 0.1, 0.3, 0.6, 1.0])
        with pytest.raises(NumericalError, match="covariance factorization failed"):
            fbs_generate(HurstParams(h0=0.6, h=0.7), axis, [axis], seed=1)

    def test_uniform_time_axis_skips_the_dense_factor(self, monkeypatch):
        # the uniform time axis is factored by the Schur recursion; only the
        # two-sided space axis (4 non-zero points) reaches np.linalg.cholesky
        shapes = []

        def boom(m):
            shapes.append(m.shape)
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", boom)
        with pytest.raises(NumericalError, match="covariance factorization failed"):
            fbs_generate(HurstParams(h0=0.6, h=0.7), np.linspace(0.0, 1.0, 9),
                         [np.linspace(-1.0, 1.0, 5)], seed=1)
        assert shapes == [(4, 4)]

    @pytest.mark.parametrize("axes", [
        [np.linspace(0.0, 1.0, 301), [np.linspace(-2.0, 2.0, 17)]],   # Schur time axis
        [np.linspace(0.0, 1.0, 33),
         [np.linspace(-1.0, 1.0, 9), np.linspace(-2.0, 1.0, 7)]],      # d = 2, dense space axes
    ], ids=["d1", "d2"])
    def test_matches_the_contraction_of_the_per_axis_factors(self, axes):
        t_ax, space = axes
        hp = HurstParams(h0=0.8, h=0.6, d=len(space))
        got = fbs_generate(hp, t_ax, space, seed=11).values
        want = fbs_values_by_factors(hp, [t_ax, *space], seed=11)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))

    def test_time_axis_factor_is_never_held(self):
        # the dense 2,046 x 2,046 factor alone takes 33 MB; the normals, the
        # product, one 64-column panel and the sheet take about 4 MB
        hp = HurstParams(h0=0.8, h=0.6)
        t_ax, x_ax = np.linspace(0.0, 1.0, 2047), np.linspace(-4.0, 4.0, 65)
        fbs_generate(hp, t_ax[:9], [x_ax], seed=21)
        tracemalloc.start()
        try:
            fbs_generate(hp, t_ax, [x_ax], seed=21)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_oversize_axis_rejected(self):
        hp = HurstParams(h0=0.5, h=0.5)
        with pytest.raises(ValueError, match="axis too large"):
            fbs_generate(hp, np.linspace(0.0, 1.0, 3001), [np.array([0.0, 1.0])], seed=0)

    def test_variance_brownian_sheet(self):
        # H0 = H = 1/2: Var B(t, x) = t * x
        hp = HurstParams(h0=0.5, h=0.5)
        t_ax = np.array([0.0, 0.5, 1.0])
        x_ax = np.array([0.0, 0.5, 1.0])
        n = 4000
        samples = np.empty((n, 3, 3))
        for i in range(n):
            samples[i] = fbs_generate(hp, t_ax, [x_ax], seed=i).values
        for it, t in enumerate(t_ax):
            for ix, x in enumerate(x_ax):
                v = samples[:, it, ix] ** 2
                se = v.std() / np.sqrt(n)
                assert abs(v.mean() - t * x) <= 3 * se + 1e-12

    def test_covariance_formula(self):
        hp = HurstParams(h0=0.7, h=0.6)
        t_ax = np.array([0.0, 0.4, 1.0])
        x_ax = np.array([0.0, 0.3, 1.0])
        n = 4000
        samples = np.empty((n, 3, 3))
        for i in range(n):
            samples[i] = fbs_generate(hp, t_ax, [x_ax], seed=10_000 + i).values
        pairs = [((1, 1), (2, 2)), ((1, 2), (2, 1)), ((2, 2), (2, 2))]
        for (it, ix), (js, jy) in pairs:
            prod = samples[:, it, ix] * samples[:, js, jy]
            want = fbs_cov(t_ax[it], x_ax[ix], t_ax[js], x_ax[jy], hp.h0, hp.h)
            se = prod.std() / np.sqrt(n)
            assert abs(prod.mean() - want) <= 3 * se

    def test_empirical_covariance_symmetric(self):
        hp = HurstParams(h0=0.6, h=0.8)
        n = 500
        flat = np.empty((n, 9))
        for i in range(n):
            flat[i] = fbs_generate(
                hp, np.array([0.0, 0.5, 1.0]), [np.array([0.0, 0.5, 1.0])], seed=i
            ).values.ravel()
        cov = np.cov(flat.T)
        np.testing.assert_allclose(cov, cov.T, atol=1e-12)
        assert np.all(np.diag(cov) >= 0)

    def test_holder_exponents_by_regression(self):
        # structure-function slopes recover (H0, H) within +-0.1
        hp = HurstParams(h0=0.7, h=0.5)
        t_ax = np.linspace(0.0, 1.0, 257)
        x_ax = np.linspace(0.0, 1.0, 257)
        for axis, want in ((0, hp.h0), (1, hp.h)):
            slopes = []
            # generate once per seed on a thin grid along the probed axis
            for seed in range(6):
                if axis == 0:
                    f = fbs_generate(hp, t_ax, [np.array([0.0, 1.0])], seed=seed)
                    series = f.values[:, 1]
                else:
                    f = fbs_generate(hp, np.array([0.0, 1.0]), [x_ax], seed=seed)
                    series = f.values[1, :]
                lags = np.array([1, 2, 4, 8, 16, 32])
                m = [np.mean(np.abs(series[k:] - series[:-k])) for k in lags]
                slope = np.polyfit(np.log(lags / 256.0), np.log(m), 1)[0]
                slopes.append(slope)
            assert abs(np.mean(slopes) - want) <= 0.1


def dense_jittered_factor(points, h):
    cov = driver._fbm_cov(points[:, None], points[None, :], h)
    cov[np.diag_indices_from(cov)] += driver._CHOL_JITTER
    return np.linalg.cholesky(cov)


def chol_factor(points, h):
    # the factor is the product at rhs = I
    return driver._chol_axis(points, h, np.eye(points.size))


class TestCholAxis:
    @pytest.mark.parametrize("h", [0.3, 0.5, 0.8, 0.9])
    @pytest.mark.parametrize("n", [1, 2, 3, 64, 512, 2046])
    def test_uniform_axis_matches_the_dense_jittered_factor(self, n, h):
        # H < 1/2 gives negative fGn correlations, H = 1/2 a diagonal Gamma;
        # the largest gap measured is 2.6e-11 at n = 2046, H = 0.9
        points = np.linspace(0.0, 0.5, n + 1)[1:]
        got = chol_factor(points, h)
        want = dense_jittered_factor(points, h)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)
        assert np.array_equal(np.triu(got, 1), np.zeros((n, n)))

    @pytest.mark.parametrize("h", [0.3, 0.9])
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 129, 2046])
    def test_product_matches_the_factor_times_rhs(self, n, h):
        # n around the 64-column panel's edges; the largest gap measured is
        # 4.6e-16 of the scale
        points = np.linspace(0.0, 0.5, n + 1)[1:]
        rhs = np.random.default_rng(n).standard_normal((n, 7))
        factor = chol_factor(points, h)
        got = driver._chol_axis(points, h, rhs)
        assert got.shape == (n, 7)
        scale = np.max(np.abs(factor) @ np.abs(rhs))
        np.testing.assert_allclose(got, factor @ rhs, rtol=0, atol=1e-12 * scale)

    @pytest.mark.parametrize("points", [
        np.array([0.1, 0.3, 0.6, 1.0]),                        # non-uniform
        np.array([0.25, 0.5, 0.75, 1.01]),                     # off k h beyond rounding
        np.concatenate([np.linspace(-1, 0, 5)[:-1], np.linspace(0, 1, 5)[1:]]),  # two-sided
        -np.linspace(0, 1, 5)[:0:-1],                          # one-sided, negative
    ])
    def test_other_axes_keep_the_dense_factor(self, points):
        np.testing.assert_array_equal(chol_factor(points, 0.7), dense_jittered_factor(points, 0.7))

    def test_rho_at_least_one_falls_back_to_the_dense_factor(self, monkeypatch):
        bad = np.array([1.0, 2.0, 0.0, 0.0])
        assert driver._schur_chol(bad, np.eye(4)) is None
        monkeypatch.setattr(driver, "_fgn_column", lambda n, step, h: bad)
        points = np.linspace(0.0, 1.0, 5)[1:]
        np.testing.assert_array_equal(chol_factor(points, 0.7), dense_jittered_factor(points, 0.7))
        rhs = np.random.default_rng(2).standard_normal((4, 3))
        np.testing.assert_array_equal(driver._chol_axis(points, 0.7, rhs),
                                      dense_jittered_factor(points, 0.7) @ rhs)


class TestMollify:
    def test_mass_is_one(self):
        # the quadrature weights of eta_m carry the bump's unit mass
        assert np.sum(MollifiedField(linear_field(), 3)._w) == pytest.approx(1.0, abs=1e-10)

    def test_m_positive(self):
        with pytest.raises(ValueError):
            MollifiedField(linear_field(), 0)

    def test_derivative_of_linear_field(self):
        # eta(t, x) = c(x) t: interior time derivative equals c(x)
        f = AnalyticField(
            lambda t, x: np.cos(x[:, 0]) * t,
            RegularityParams(tau=1.0, lam=1.0, p=2.5),
        )
        g = MollifiedField(f, 8)
        xs = np.linspace(-2, 2, 7)[:, None]
        got = g.time_derivative(np.full(7, 0.5), xs)
        np.testing.assert_allclose(got, np.cos(xs[:, 0]), atol=1e-8)

    def test_sup_distance_linear_rate(self):
        # eta = sin(x) t: ||eta_m - eta||_inf <= C / m with stable C
        f = AnalyticField(
            lambda t, x: np.sin(x[:, 0]) * t,
            RegularityParams(tau=1.0, lam=1.0, p=2.5),
        )
        ts = np.linspace(0, 1, 101)
        xs = np.linspace(-3, 3, 41)[:, None]
        cs = []
        for m in (4, 8, 16):
            g = MollifiedField(f, m)
            errs = [
                np.max(np.abs(g.evaluate(ts, np.repeat(x[None, :], ts.size, axis=0))
                              - f.evaluate(ts, np.repeat(x[None, :], ts.size, axis=0))))
                for x in xs
            ]
            cs.append(m * max(errs))
        cs = np.array(cs)
        assert cs.max() / cs.min() < 3.0

    def test_fbs_mollification_decay_rate(self):
        # ||eta_m - eta||_inf on the grid decays like m^{-H0}
        hp = HurstParams(h0=0.75, h=0.5)
        f = fbs_generate(hp, np.linspace(0, 1, 513), [np.array([0.0, 0.5, 1.0])], seed=3)
        ts = f.time_points
        xs = np.array([[0.5], [1.0]])
        errs = []
        ms = np.array([4, 8, 16, 32])
        for m in ms:
            g = MollifiedField(f, int(m))
            worst = 0.0
            for x in xs:
                xt = np.repeat(x[None, :], ts.size, axis=0)
                worst = max(worst, np.max(np.abs(g.evaluate(ts, xt) - f.evaluate(ts, xt))))
            errs.append(worst)
        slope = np.polyfit(np.log(ms), np.log(errs), 1)[0]
        assert -0.75 - 0.15 <= slope <= -0.75 + 0.15

    def test_smooth_affine_reproduced(self):
        f = linear_field()
        g = MollifiedField(f, 16)
        ts = np.linspace(0.2, 0.8, 13)
        xt = np.zeros((13, 1))
        np.testing.assert_allclose(
            g.evaluate(ts, xt), f.evaluate(ts, xt), atol=1e-8
        )


def slice_fields():
    fbs1 = fbs_generate(HurstParams(h0=0.9, h=0.6), np.linspace(0, 0.5, 65),
                        [np.linspace(-2, 2, 17)], seed=5)
    fbs2 = fbs_generate(HurstParams(h0=0.9, h=0.6, d=2), np.linspace(0, 0.5, 33),
                        [np.linspace(-2, 2, 9)] * 2, seed=6)
    analytic = AnalyticField(
        lambda t, x: np.sin(x[:, 0]) * t ** 0.8, RegularityParams(tau=0.8, lam=1.0, p=2.5),
        horizon=0.5,
    )
    return {
        "fbs-1d": fbs1,
        "fbs-2d": fbs2,
        "mollified": MollifiedField(fbs1, 8),
        "mollified-2d": MollifiedField(fbs2, 4),
        "mollified-analytic": MollifiedField(analytic, 8),
    }


def shape_fields():
    analytic2 = AnalyticField(
        lambda t, x: np.sin(x[:, 0] + 2 * x[:, 1]) * t, RegularityParams(tau=1.0, lam=1.0, p=2.5),
        dim=2, dt_fn=lambda t, x: np.sin(x[:, 0] + 2 * x[:, 1]),
    )
    fields = slice_fields()
    fields.update({
        "analytic": linear_field(),
        "analytic-2d": analytic2,
    })
    return fields


class TestShapeRules:
    """x has shape (k, d) and t is a scalar or (k,); the result is (k,)."""

    @pytest.mark.parametrize("name", list(shape_fields()))
    @pytest.mark.parametrize("method", ["evaluate", "time_derivative"])
    def test_scalar_time_shapes(self, name, method):
        f = shape_fields()[name]
        if method == "time_derivative" and not f.has_time_derivative:
            assert isinstance(f, FbsGridField)
            return
        call = getattr(f, method)
        d, t = f.dim, 0.1
        xk = np.random.default_rng(3).uniform(-1.0, 1.0, (4, d))
        many = call(t, xk)
        assert many.shape == (4,)
        one_row = call(t, xk[:1])
        assert one_row.shape == (1,)
        np.testing.assert_allclose(one_row, many[:1], rtol=0, atol=1e-15)
        per_point = call(np.full(4, t), xk)
        assert per_point.shape == (4,)
        np.testing.assert_allclose(per_point, many, rtol=0, atol=1e-13)


class TestTimeSlice:
    """Same-time calls (increment, scalar-t time_derivative) reduce time
    first; they must agree with pointwise evaluation to rounding."""

    @pytest.mark.parametrize("name", list(slice_fields()))
    def test_agrees_with_pointwise(self, name):
        f = slice_fields()[name]
        rng = np.random.default_rng(1)
        # the lattice spans [-2, 2] per axis: a third of the points lie outside
        x = rng.uniform(-3.0, 3.0, (2000, f.dim))
        horizon = f.horizon
        times = [0.0, horizon / 3, horizon, 1.5 * horizon]
        k = x.shape[0]
        for t0 in times:
            for t1 in times:
                got = f.increment(t0, t1, x)
                want = f.evaluate(np.full(k, t1), x) - f.evaluate(np.full(k, t0), x)
                assert got.shape == (k,)
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)
        if not f.has_time_derivative:
            assert name.startswith("fbs")
            return
        for t in times:
            got = f.time_derivative(t, x)
            want = f.time_derivative(np.full(k, t), x)
            assert got.shape == (k,)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("name", list(slice_fields()))
    def test_zero_increment_and_zero_slice_exact(self, name):
        f = slice_fields()[name]
        x = np.random.default_rng(2).uniform(-3.0, 3.0, (500, f.dim))
        np.testing.assert_array_equal(f.increment(0.0, 0.0, x), 0.0)
        if f._lattice is not None:
            np.testing.assert_array_equal(f._rows(np.zeros(1)), 0.0)

    def test_mollified_lattice_field_skips_pointwise_evaluation(self, monkeypatch):
        f = slice_fields()["mollified"]
        x = np.linspace(-3.0, 3.0, 50)[:, None]
        want_inc = f.increment(0.05, 0.2, x)
        want_dt = f.time_derivative(0.2, x)

        def pointwise(self, t, where, derivative):
            raise AssertionError("same-time call fell back to pointwise evaluation")

        monkeypatch.setattr(FbsGridField, "_at", pointwise)
        np.testing.assert_array_equal(f.increment(0.05, 0.2, x), want_inc)
        np.testing.assert_array_equal(f.time_derivative(0.2, x), want_dt)
        with pytest.raises(AssertionError, match="pointwise"):
            f.evaluate(np.full(50, 0.2), x)

    def test_lattice_field_slices_match_pointwise(self):
        # evaluate at a scalar t reduces time first on a lattice field; at
        # an array of equal times it goes through the per-point kernel
        for name, f in slice_fields().items():
            x = np.random.default_rng(4).uniform(-3.0, 3.0, (300, f.dim))
            for t in np.linspace(0.0, f.horizon, 6):
                sliced = f.evaluate(t, x)
                pointwise = f.evaluate(np.full(x.shape[0], t), x)
                np.testing.assert_allclose(sliced, pointwise, rtol=0, atol=1e-13, err_msg=name)

    @pytest.mark.parametrize("method", ["increment", "evaluate"])
    def test_mollified_lattice_field_locates_each_point_once(self, method, monkeypatch):
        # a distinct-time query locates its k space points once, not once
        # per quadrature node
        f = slice_fields()["mollified"]
        k = 50
        x = np.linspace(-3.0, 3.0, k)[:, None]
        t = np.linspace(0.0, f.horizon, k)
        space = f.base.space_axes[0]
        located = []

        def counting(axis, c):
            if axis is space:
                located.append(np.size(c))
            return locate(axis, c)

        monkeypatch.setattr(driver, "locate", counting)
        if method == "increment":
            f.increment(t[::-1], t, x)
        else:
            f.evaluate(t, x)
        assert located == [k]

    def test_linspace_lattices_never_search(self, monkeypatch):
        # every axis of these lattices is a linspace, so locate finds each
        # cell without np.searchsorted, in time and in space, at one time
        # and at distinct ones
        rng = np.random.default_rng(8)
        queries = []
        for name, f in slice_fields().items():
            if f._lattice is None:
                continue
            x = rng.uniform(-3.0, 3.0, (400, f.dim))
            t = rng.uniform(0.0, f.horizon, 400)
            queries.append((name, f, x, t, [f.increment(0.1, 0.3, x), f.increment(t[::-1], t, x),
                                            f.evaluate(t, x)]))

        def boom(*args, **kwargs):
            raise AssertionError("np.searchsorted reached")

        monkeypatch.setattr(np, "searchsorted", boom)
        for name, f, x, t, want in queries:
            got = [f.increment(0.1, 0.3, x), f.increment(t[::-1], t, x), f.evaluate(t, x)]
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a, b, err_msg=name)

    def test_one_point_keeps_shape(self):
        f = slice_fields()["mollified"]
        assert f.increment(0.0, 0.2, np.array([[0.3]])).shape == (1,)
        assert f.time_derivative(0.2, np.array([[0.3]])).shape == (1,)


class TestHasTimeDerivative:
    """has_time_derivative follows from how a field is built: it never
    evaluates the field."""

    def test_analytic_does_not_call_dt_fn(self):
        def dt_fn(t, x):
            raise AssertionError("has_time_derivative evaluated dt_fn")

        params = RegularityParams(tau=1.0, lam=1.0, p=2.5)
        assert AnalyticField(lambda t, x: t, params, dt_fn=dt_fn).has_time_derivative
        assert not AnalyticField(lambda t, x: t, params).has_time_derivative

    def test_lattice_and_wrapped_fields(self):
        fbs = slice_fields()["fbs-1d"]
        assert not fbs.has_time_derivative
        assert MollifiedField(fbs, 8).has_time_derivative
        with pytest.raises(NotImplementedError):
            fbs.time_derivative(0.1, np.zeros((3, 1)))


class TestPerPointIncrement:
    """increment with (k,) arrays of times: one pair of times per point."""

    @pytest.mark.parametrize("name", list(shape_fields()))
    def test_agrees_with_evaluate(self, name):
        f = shape_fields()[name]
        rng = np.random.default_rng(4)
        k = 3000
        # a third of the points and of the times lie outside the lattice
        x = rng.uniform(-3.0, 3.0, (k, f.dim))
        t0 = rng.uniform(0.0, 1.5 * f.horizon, k)
        t1 = rng.uniform(0.0, 1.5 * f.horizon, k)
        got = f.increment(t0, t1, x)
        assert got.shape == (k,)
        np.testing.assert_allclose(got, f.evaluate(t1, x) - f.evaluate(t0, x), rtol=0, atol=1e-13)
        # a scalar end is broadcast over the points
        np.testing.assert_allclose(
            f.increment(0.1, t1, x), f.evaluate(t1, x) - f.evaluate(np.full(k, 0.1), x),
            rtol=0, atol=1e-13,
        )

    def test_analytic_field_calls_fn_twice(self):
        calls = []

        def fn(t, x):
            calls.append(t.size)
            return np.sin(x[:, 0]) * t

        f = AnalyticField(fn, RegularityParams(tau=1.0, lam=1.0, p=2.5))
        t = np.linspace(0.0, 1.0, 11)
        x = np.linspace(-1.0, 1.0, 11)[:, None]
        np.testing.assert_allclose(f.increment(t[:-1], t[1:], x[:-1]),
                                   np.sin(x[:-1, 0]) * np.diff(t), rtol=0, atol=1e-15)
        assert calls == [10, 10]


class TestAssumptions:
    def test_h0_example(self):
        r = assumption_check(RegularityParams(tau=0.9, lam=0.5, p=2.1))
        assert r.h0 is True

    def test_h0_fails_when_sum_small(self):
        r = assumption_check(RegularityParams(tau=0.6, lam=0.5, p=3.0))
        assert r.h0 is False

    def test_hurst_region_1d(self):
        r = assumption_check(
            RegularityParams(tau=0.85, lam=0.45, p=2.1),
            hurst=HurstParams(h0=0.9, h=0.5, d=1),
        )
        assert r.hurst_region is True

    def test_hurst_region_3d_fails(self):
        r = assumption_check(
            RegularityParams(tau=0.85, lam=0.45, p=2.1),
            hurst=HurstParams(h0=0.9, h=0.5, d=3),
        )
        assert r.hurst_region is False

    def test_h2_witness(self):
        r = assumption_check(RegularityParams(tau=0.95, lam=0.1, beta=0.1, p=2.05))
        assert r.h2_1 and 0 < r.h2_eps < 1
        # the witnessing eps actually satisfies both inequalities
        eps = r.h2_eps
        assert 0.95 + (1 - eps) / 2.05 > 1
        assert 0.2 < 2 * eps / (1 + eps) * 0.95
