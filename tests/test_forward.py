import numpy as np
import pytest
from numpy.random import Generator, Philox
from oracles import (
    euler_maruyama_path_major,
    exit_indices_norm,
    exit_time,
    increment_moments_ok,
    prob_sup_abs_bm_exceeds,
    reflect_1d_path_major,
)
from scipy import stats

from youngbsde.forward import (
    PathEnsemble,
    SdeSpec,
    StepNormals,
    euler_maruyama,
    exit_indices,
    reflect_1d,
)
from youngbsde.paths import TimeGrid


def bm_spec(d=1):
    return SdeSpec(drift=0.0, diffusion=1.0, x0=np.zeros(d))


class TestEulerMaruyama:
    def test_zero_coefficients_constant(self):
        spec = SdeSpec(drift=0.0, diffusion=0.0, x0=[1.5])
        ens = euler_maruyama(spec, TimeGrid.uniform(1.0, 16), 5, seed=1)
        np.testing.assert_array_equal(ens.x, 1.5)

    def test_unit_drift_is_time(self):
        spec = SdeSpec(drift=1.0, diffusion=0.0, x0=[0.0])
        grid = TimeGrid.uniform(1.0, 32)
        ens = euler_maruyama(spec, grid, 3, seed=2)
        for i in range(3):
            np.testing.assert_allclose(ens.x[i, :, 0], grid.points, atol=1e-14)

    def test_bm_variance(self):
        ens = euler_maruyama(bm_spec(), TimeGrid.uniform(1.0, 64), 10_000, seed=3)
        v = ens.x[:, -1, 0] ** 2
        se = v.std() / np.sqrt(v.size)
        assert abs(v.mean() - 1.0) <= 3 * se

    def test_determinism_and_step_keying(self):
        grid = TimeGrid.uniform(1.0, 16)
        a = euler_maruyama(bm_spec(), grid, 50, seed=9)
        b = euler_maruyama(bm_spec(), grid, 50, seed=9)
        np.testing.assert_array_equal(a.x, b.x)
        # increments are a pure function of (seed, step): path blocks agree
        z = StepNormals(9)(4, 50, 1)
        np.testing.assert_allclose(a.dw[:, 4, :], z * np.sqrt(grid.dt[4]))

    def test_reused_philox_is_bit_identical(self):
        # one Philox, its counter reset per step, against a fresh generator
        # per step: 2,000 forward steps and the bridge's 2**32 + i keys,
        # drawn out of order and in sizes that leave the buffer part-used
        normals = StepNormals(9)
        steps = [j for i in range(2000) for j in (i, 2**32 + 1999 - i)]
        for k, step in enumerate(steps):
            shape = (3, 1) if k % 2 else (5, 2)
            want = Generator(Philox(key=9, counter=[0, 0, step, 0])).standard_normal(shape)
            assert np.array_equal(normals(step, *shape), want)

    def test_increment_smoke_check(self):
        ens = euler_maruyama(bm_spec(), TimeGrid.uniform(1.0, 8), 4000, seed=5)
        assert increment_moments_ok(ens)

    def test_step_slices_contiguous(self):
        # time-major storage: every per-step slice is one contiguous block
        ens = euler_maruyama(bm_spec(2), TimeGrid.uniform(1.0, 8), 50, seed=5)
        assert ens.x.shape == (50, 9, 2) and ens.dw.shape == (50, 8, 2)
        for j in range(8):
            assert ens.x[:, j].flags.c_contiguous and ens.dw[:, j].flags.c_contiguous
        assert ens.x[:, 8].flags.c_contiguous

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_path_major_loop(self, d):
        spec = SdeSpec(drift=-0.3, diffusion=0.7, x0=np.linspace(-0.5, 0.5, d))
        grid = TimeGrid.uniform(1.0, 24)
        ens = euler_maruyama(spec, grid, 70, seed=6)
        ref = euler_maruyama_path_major(spec, grid, 70, seed=6)
        assert np.array_equal(ens.x, ref.x) and np.array_equal(ens.dw, ref.dw)


class TestExitTime:
    def test_no_exit_returns_horizon(self):
        spec = SdeSpec(drift=0.0, diffusion=0.0, x0=[0.0])
        ens = euler_maruyama(spec, TimeGrid.uniform(1.0, 10), 1, seed=0)
        assert ens.grid.points[exit_indices(ens, 1.0)[0]] == 1.0

    def test_deterministic_ramp(self):
        spec = SdeSpec(drift=1.0, diffusion=0.0, x0=[0.0])
        ens = euler_maruyama(spec, TimeGrid.uniform(1.0, 1000), 1, seed=0)
        assert ens.grid.points[exit_indices(ens, 0.5)[0]] == pytest.approx(0.501)

    def test_monotone_in_radius(self):
        ens = euler_maruyama(bm_spec(), TimeGrid.uniform(1.0, 256), 200, seed=7)
        idx = np.stack([exit_indices(ens, n) for n in (0.5, 1.0, 2.0, 3.0)])
        assert np.all(np.diff(idx, axis=0) >= 0)

    def test_exit_indices_vectorized(self):
        ens = euler_maruyama(bm_spec(), TimeGrid.uniform(1.0, 128), 300, seed=8)
        idx = exit_indices(ens, 1.0)
        for i in range(0, 300, 23):
            want = exit_time(ens.path(i), 1.0)
            assert ens.grid.points[idx[i]] == pytest.approx(want)

    @pytest.mark.parametrize("time_major", [True, False])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_norm_reference(self, d, time_major):
        # random walks with some points exactly at the radius 5, or one ulp
        # either side of it; (3, 4) and (3, 4, 0) have norm 5 exactly
        rng = np.random.default_rng(d)
        k, n, radius = 400, 65, 5.0
        x = rng.standard_normal((n, k, d)).cumsum(axis=0) * 0.3
        on_radius = np.zeros(d)
        on_radius[:2] = (3.0, 4.0) if d > 1 else (5.0,)
        for p, q in zip(rng.integers(0, k, 60), rng.integers(1, n, 60)):
            s = rng.choice([-1.0, 1.0])
            x[q, p] = s * np.nextafter(on_radius, rng.choice([0.0, np.inf, radius]))
        x[-1, :10, 0] = rng.choice([-radius, radius], 10)
        ens = PathEnsemble(grid=TimeGrid.uniform(1.0, n - 1),
                           x=np.moveaxis(x, 0, 1) if time_major else np.moveaxis(x, 0, 1).copy(),
                           dw=np.zeros((k, n - 1, d)), seed=0)
        for r in (radius, np.nextafter(radius, 0.0), 3.0):
            want = exit_indices_norm(ens, r)
            assert 0 < np.count_nonzero(want < n - 1) < k
            np.testing.assert_array_equal(exit_indices(ens, r), want)

    def test_bm_exit_probability_against_series(self):
        # scaled-down version of the acceptance check (grid bias corrected there)
        ens = euler_maruyama(bm_spec(), TimeGrid.uniform(1.0, 2048), 20_000, seed=11)
        idx = exit_indices(ens, 2.0)
        p_hat = np.mean(idx < ens.grid.n - 1)
        want = prob_sup_abs_bm_exceeds(2.0)
        se = np.sqrt(want * (1 - want) / 20_000)
        assert abs(p_hat - want) <= 4 * se

    def test_gaussian_exit_decay_regression(self):
        ens = euler_maruyama(bm_spec(), TimeGrid.uniform(1.0, 512), 40_000, seed=12)
        ns = np.array([1.0, 1.5, 2.0, 2.5, 3.0])
        probs = []
        for n in ns:
            idx = exit_indices(ens, n)
            probs.append(max(np.mean(idx < ens.grid.n - 1), 1.0 / 40_000))
        fit = stats.linregress(ns**2, np.log(probs))
        assert fit.slope < 0
        assert fit.rvalue**2 >= 0.9


class TestReflect:
    def test_interior_increments_untouched(self):
        inc = np.full((1, 10), 0.01)
        x, loc = reflect_1d(inc, (0.0, 1.0), 0.5)
        np.testing.assert_allclose(x, 0.5 + 0.01 * np.arange(11)[None])
        np.testing.assert_array_equal(loc, 0.0)

    def test_push_at_lower_boundary(self):
        h = 0.05
        x, loc = reflect_1d(np.full((1, 20), -h), (0.0, 1.0), 0.0)
        np.testing.assert_array_equal(x, 0.0)
        np.testing.assert_allclose(loc, h * np.arange(21)[None])

    def test_confinement_and_monotone_local_time(self):
        rng = np.random.default_rng(13)
        inc = rng.standard_normal((200, 400)) * np.sqrt(10.0 / 400)
        x, loc = reflect_1d(inc, (0.0, 1.0), 0.3)
        assert np.all(x >= 0.0) and np.all(x <= 1.0)
        assert np.all(np.diff(loc, axis=1) >= 0)
        grew = np.diff(loc, axis=1) > 0
        at_boundary = (x[:, 1:] == 0.0) | (x[:, 1:] == 1.0)
        assert np.all(at_boundary[grew])

    def test_step_slices_contiguous(self):
        x, loc = reflect_1d(np.zeros((40, 6)), (0.0, 1.0), 0.5)
        assert x.shape == loc.shape == (40, 7)
        assert all(x[:, j].flags.c_contiguous and loc[:, j].flags.c_contiguous for j in range(7))

    @pytest.mark.parametrize("x0", [0.3, "per-path"])
    def test_matches_path_major_loop(self, x0):
        rng = np.random.default_rng(15)
        inc = rng.standard_normal((90, 300)) * 0.2
        start = rng.uniform(0.0, 1.0, 90) if x0 == "per-path" else x0
        x, loc = reflect_1d(inc, (0.0, 1.0), start)
        x_ref, loc_ref = reflect_1d_path_major(inc, (0.0, 1.0), start)
        assert np.any(loc_ref[:, -1] > 0)
        assert np.array_equal(x, x_ref) and np.array_equal(loc, loc_ref)

    def test_x0_outside_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            reflect_1d(np.zeros((1, 3)), (0.0, 1.0), 1.5)

    def test_long_run_uniform_occupancy(self):
        # doubly reflected BM equilibrates to the uniform law; chi-square at
        # 1%.  The clip scheme carries an O(sqrt(dt)) boundary atom, so the
        # step must be fine; increments are streamed in chunks.
        rng = np.random.default_rng(14)
        n_paths, horizon = 5_000, 2.0
        n_steps, chunk = 16_000, 4_000
        dt = horizon / n_steps
        cur = np.full(n_paths, 0.5)
        for _ in range(n_steps // chunk):
            inc = rng.standard_normal((n_paths, chunk)) * np.sqrt(dt)
            x, _ = reflect_1d(inc, (0.0, 1.0), cur)
            cur = x[:, -1]
        counts, _ = np.histogram(cur, bins=10, range=(0.0, 1.0))
        chi2 = np.sum((counts - n_paths / 10) ** 2 / (n_paths / 10))
        assert chi2 < stats.chi2.ppf(0.99, df=9)
