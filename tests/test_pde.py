import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from oracles import fd_dirichlet_solve_superlu, heat_solution_gaussian_bump, reflected_bm_expectation

from youngbsde import pde
from youngbsde.cli import main
from youngbsde.driver import AnalyticField, HurstParams, MollifiedField, RegularityParams, fbs_generate
from youngbsde.forward import SdeSpec
from youngbsde.paths import NumericalError
from youngbsde.pde import (
    PdeSolution,
    PdeSpec,
    _apply,
    _coefficients,
    _nodes,
    _shifted,
    fd_dirichlet_solve,
    feynman_kac_cross_check,
    localization_error_experiment,
    neumann_fk_estimate,
    young_pde_table,
)


def smooth_field(scale=1.0):
    return AnalyticField(
        lambda t, x: scale * t * np.ones(t.shape),
        RegularityParams(tau=1.0, lam=1.0, p=2.5),
        dt_fn=lambda t, x: scale * np.ones(t.shape),
    )


def zero_f(t, x, u, w):
    return np.zeros_like(u)


def zero_g(u):
    return np.zeros_like(u)


def gaussian_bump(x):
    return np.exp(-np.sum(x**2, axis=1) / (2 * 0.15**2))


def heat_spec(halfwidth=3.0, sigma=np.sqrt(2.0), g=zero_g, f=zero_f, field=None, dim=1):
    return PdeSpec(
        halfwidth=halfwidth,
        dim=dim,
        horizon=0.25,
        terminal=gaussian_bump,
        sigma=sigma,
        drift=0.0,
        generator=f,
        coupling=g,
        fieldv=field or smooth_field(),
    )


class TestFdSolve:
    def test_constant_terminal_preserved(self):
        spec = PdeSpec(
            halfwidth=1.0, dim=1, horizon=0.5,
            terminal=lambda x: np.full(x.shape[0], 2.0),
            sigma=1.0, drift=0.0, generator=zero_f, coupling=zero_g,
            fieldv=smooth_field(),
        )
        sol = fd_dirichlet_solve(spec, 32, 40)
        np.testing.assert_allclose(sol.u, 2.0, atol=1e-12)

    def test_heat_kernel_oracle(self):
        spec = heat_spec()
        sol = fd_dirichlet_solve(spec, 128, 384)
        want = heat_solution_gaussian_bump(0.0, spec.horizon)
        assert abs(sol.value_at(0.0, 0.0) - want) <= 1e-3

    def test_terminal_and_boundary_exact(self):
        spec = heat_spec(halfwidth=1.5)
        sol = fd_dirichlet_solve(spec, 16, 32)
        xs = sol.axes[0]
        np.testing.assert_array_equal(sol.u[-1], gaussian_bump(xs[:, None]))
        np.testing.assert_array_equal(sol.u[:, 0], np.full(17, gaussian_bump(xs[:1, None])[0]))
        np.testing.assert_array_equal(sol.u[:, -1], np.full(17, gaussian_bump(xs[-1:, None])[0]))

    def test_discrete_maximum_principle(self):
        spec = heat_spec(halfwidth=2.0)
        sol = fd_dirichlet_solve(spec, 64, 128)
        assert sol.u.min() >= -1e-12
        assert sol.u.max() <= 1.0 + 1e-12

    def test_integrating_factor_oracle(self):
        # g(u) = u with dt_eta = 1, small sigma: u = e^{T-t} * heat solution
        spec = heat_spec(
            sigma=0.2,
            g=lambda u: u,
            field=smooth_field(),
            halfwidth=2.0,
        )
        sol = fd_dirichlet_solve(spec, 256, 256)
        a = 0.5 * 0.2**2
        want = np.exp(spec.horizon) * heat_solution_gaussian_bump(0.3, spec.horizon, a=a)
        assert abs(sol.value_at(0.0, 0.3) - want) <= 5e-3

    def test_mesh_convergence(self):
        spec = heat_spec()
        vals = []
        for k in (1, 2, 4):
            sol = fd_dirichlet_solve(spec, 32 * k, 64 * k)
            vals.append(sol.value_at(0.0, 0.2))
        d1, d2 = abs(vals[1] - vals[0]), abs(vals[2] - vals[1])
        assert d2 <= 0.6 * d1

    def test_single_interior_node(self):
        # one interior node: the driver term is a one-entry vector, not a scalar
        spec = heat_spec(halfwidth=1.0, g=lambda u: u)
        sol = fd_dirichlet_solve(spec, 8, 2)
        assert sol.u.shape == (9, 3)
        assert np.all(np.isfinite(sol.u))
        np.testing.assert_array_equal(sol.u[:, 0], gaussian_bump(sol.axes[0][:1, None])[0])

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("cells", [160, 320])
    @pytest.mark.parametrize("drift", [0.0, 8.0])
    def test_matches_superlu_reference(self, drift, cells, dim):
        # the sin-coupled problem of configs/cross_check.json, with a
        # generator that reads the sigma^T grad u slot; in 2-D the drift-free
        # stencil takes the sine-transform solve and the drifted one SuperLU,
        # on a quarter of the cells per axis
        spec = PdeSpec(
            halfwidth=3.0, dim=dim, horizon=0.5, terminal=lambda x: np.cos(x.sum(axis=1)),
            sigma=1.0, drift=drift,
            generator=lambda t, x, u, w: np.sqrt(np.abs(x[:, 0])) * np.sin(u) + 0.3 * w.sum(axis=1),
            coupling=np.sin, fieldv=AnalyticField(
                lambda t, x: np.sin(x.sum(axis=1)) * t, RegularityParams(tau=1.0, lam=1.0, p=2.5),
                dt_fn=lambda t, x: np.sin(x.sum(axis=1)),
            ),
        )
        cells = cells if dim == 1 else cells // 4
        got = fd_dirichlet_solve(spec, 64, cells).u
        want = fd_dirichlet_solve_superlu(spec, 64, cells)
        tol = 1e-13 if dim == 1 else 1e-12
        assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))

    def test_ill_conditioned_implicit_matrix_raises(self, monkeypatch):
        # every condition number is at least 1, and above it unless M = cI
        monkeypatch.setattr(pde, "MAX_IMPLICIT_CONDITION", 1.0)
        with pytest.raises(NumericalError, match="condition number"):
            fd_dirichlet_solve(heat_spec(), 16, 32)

    def test_ill_conditioned_implicit_matrix_exits_3(self, tmp_path, monkeypatch, capsys):
        cfg = {"experiment": "localization-error", "n_list": [1.0, 1.5], "n_max": 2.0,
               "time_steps": 8, "cells_per_unit": 4}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert main(["run", str(p), "--out", str(tmp_path / "ok")]) == 0
        monkeypatch.setattr(pde, "MAX_IMPLICIT_CONDITION", 1.0)
        assert main(["run", str(p), "--out", str(tmp_path / "bad")]) == 3
        assert "condition number" in capsys.readouterr().err

    def test_driver_without_derivative_rejected(self):
        rough = fbs_generate(
            HurstParams(h0=0.8, h=0.6), np.linspace(0, 0.25, 65),
            [np.linspace(-3, 3, 33)], seed=1,
        )
        with pytest.raises(ValueError, match="mollified or analytic-smooth"):
            heat_spec(field=rough)

    def test_ellipticity_floor(self):
        # sigma^2 = 1e-8 is the floor, the smallest sigma the CLI accepts
        def spec(sigma):
            return PdeSpec(
                halfwidth=1.0, dim=1, horizon=0.5, terminal=gaussian_bump,
                sigma=sigma, drift=0.0, generator=zero_f, coupling=zero_g,
                fieldv=smooth_field(),
            )

        spec(1e-4)
        spec(-1.0)  # only sigma^2 enters
        for sigma in (0.0, 1e-5):
            with pytest.raises(ValueError, match="ellipticity"):
                spec(sigma)

    def test_callable_coefficient_rejected(self):
        # drift and diffusion are scalars in both specs
        fwd = SdeSpec(drift=0.0, diffusion=1.0, x0=[0.0])
        for spec, names in ((fwd, ("drift", "diffusion")), (heat_spec(), ("sigma", "drift"))):
            for name in names:
                with pytest.raises(TypeError):
                    replace(spec, **{name: lambda x: x})

    def test_continuity_in_driver(self):
        base = heat_spec(g=lambda u: u, sigma=1.0)
        u0 = fd_dirichlet_solve(base, 64, 128).value_at(0.0, 0.0)
        gaps = []
        for delta in (1e-2, 1e-3):
            pert = heat_spec(g=lambda u: u, sigma=1.0, field=smooth_field(1.0 + delta))
            gaps.append(abs(fd_dirichlet_solve(pert, 64, 128).value_at(0.0, 0.0) - u0))
        ratio = gaps[0] / gaps[1]
        assert 5 <= ratio <= 20  # O(delta) response

    @staticmethod
    def _quadratic(dim):
        # u = g . x + 1/2 x^T Q x on a 9-node grid per axis, with a scalar
        # sigma != 1 and drift != 0
        spec = PdeSpec(
            halfwidth=1.0, dim=dim, horizon=0.5, terminal=gaussian_bump,
            sigma=1.3, drift=-0.6, generator=zero_f, coupling=zero_g,
            fieldv=smooth_field(),
        )
        q = np.array([[1.3, -0.7], [-0.7, 0.9]])[:dim, :dim]
        g = np.array([0.4, -1.1])[:dim]
        axes = [np.linspace(-1.0, 1.0, 9)] * dim
        pts = _nodes(axes)
        u = (pts @ g + 0.5 * np.einsum("ki,ij,kj->k", pts, q, pts)).reshape((9,) * dim)
        interior = np.all(np.abs(pts) < 1.0 - 1e-12, axis=1)
        return spec, axes, u, pts[interior], q, g

    @pytest.mark.parametrize("dim", [1, 2])
    def test_operator_exact_on_quadratics(self, dim):
        # central differences are exact on quadratics, so at every interior
        # node the operator must give 1/2 sigma^2 tr Q + b . (g + Q x)
        spec, axes, u, pts, q, g = self._quadratic(dim)
        lo, di, up, _ = _coefficients(spec, axes[0][1] - axes[0][0])
        want = 0.5 * spec.sigma**2 * np.trace(q) + spec.drift * (g + pts @ q).sum(axis=1)
        got = _apply(dim * di, lo, up, u).ravel()
        assert got.size == 7**dim
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_sigma_grad_map_exact_on_quadratics(self, dim):
        # on the quadratics of test_operator_exact_on_quadratics the map's
        # a-th component gives sigma (g + Q x)_a at interior nodes
        spec, axes, u, pts, q, g = self._quadratic(dim)
        grad = _coefficients(spec, axes[0][1] - axes[0][0])[3]
        got = np.stack([(grad * (_shifted(u, a, 1) - _shifted(u, a, -1))).ravel()
                        for a in range(dim)], axis=1)
        np.testing.assert_allclose(got, spec.sigma * (g + pts @ q), rtol=0, atol=1e-12)

    def test_driver_derivative_once_per_time_level(self):
        spec = heat_spec(halfwidth=1.0, g=lambda u: u)
        field, times = spec.fieldv, []
        derivative = field.time_derivative

        def counting(t, x):
            times.append(float(t))
            return derivative(t, x)

        field.time_derivative = counting
        sol = fd_dirichlet_solve(spec, 16, 8)
        assert len(times) == 17
        assert sorted(times) == list(sol.times)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_value_at_exact_on_multilinear(self, dim):
        # multilinear interpolation reproduces a function multilinear in (t, x)
        coef = np.array([0.3, 1.1, -0.7, 0.4, 0.9, -0.5, 0.2, 0.6])

        def f(t, x):
            x2 = x[..., 1] if dim == 2 else 0.0
            x1 = x[..., 0]
            terms = [1, t, x1, t * x1, x2, t * x2, x1 * x2, t * x1 * x2]
            return sum(c * term for c, term in zip(coef, terms))

        times = np.linspace(0.0, 0.5, 7)
        axes = [np.linspace(-1.5, 1.5, 11)] * dim
        pts = _nodes(axes).reshape(*(ax.size for ax in axes), dim)
        u = np.stack([f(t, pts) for t in times])
        sol = PdeSolution(times=times, axes=axes, u=u)
        rng = np.random.default_rng(4)
        for t, x in zip(rng.uniform(0.0, 0.5, 20), rng.uniform(-1.5, 1.5, (20, dim))):
            assert abs(sol.value_at(t, x) - f(t, x)) <= 1e-14
        assert abs(sol.value_at(0.5, [1.5] * dim) - f(0.5, np.full(dim, 1.5))) <= 1e-14

    @pytest.mark.parametrize("dim", [1, 2])
    def test_value_at_rejects_points_off_the_grid(self, dim):
        sol = fd_dirichlet_solve(heat_spec(halfwidth=1.0, dim=dim), 4, 8)
        with pytest.raises(ValueError):
            sol.value_at(0.26, [0.0] * dim)
        with pytest.raises(ValueError):
            sol.value_at(-0.01, [0.0] * dim)
        with pytest.raises(ValueError):
            sol.value_at(0.1, [0.0] * (dim - 1) + [1.01])
        with pytest.raises(ValueError):
            sol.value_at(0.1, [0.0] * (dim + 1))
        with pytest.raises(ValueError):
            sol.value_at(0.1, [np.nan] * dim)

    def test_2d_heat_against_product_oracle(self):
        spec = heat_spec(halfwidth=2.0, dim=2)
        sol = fd_dirichlet_solve(spec, 48, 72)
        # product of two 1-D Gaussian convolutions
        want = heat_solution_gaussian_bump(0.0, spec.horizon) ** 2
        assert abs(sol.value_at(0.0, (0.0, 0.0)) - want) <= 5e-3


def _sqrt_sin(t, x, u, w):
    return np.sqrt(np.abs(x[:, 0])) * np.sin(u)


class TestStreamedReads:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_values_at_bitwise_equal_to_value_at(self, dim):
        # a generator that reads w, and points at a grid time, strictly
        # between two grid times, t = 0 and t = horizon, on nodes, between
        # them and on the boundary
        spec = heat_spec(halfwidth=1.0, sigma=1.0, g=np.sin, dim=dim,
                         f=lambda t, x, u, w: 0.3 * np.sum(w, axis=1) + _sqrt_sin(t, x, u, w))
        sol = fd_dirichlet_solve(spec, 8, 16)
        times = [sol.times[3], 0.5 * (sol.times[5] + sol.times[6]), 0.0, spec.horizon]
        xs = [[0.0] * dim, [0.3, -0.71][:dim], [1.0, 0.2][:dim], [-1.0] * dim]
        points = [(t, x) for t in times for x in xs]
        got = pde._values_at(spec, 8, 16, points)
        assert got.tolist() == [sol.value_at(t, x) for t, x in points]

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("off", ["late", "early", "outside", "too many", "nan"])
    def test_values_at_rejects_points_off_the_grid_before_stepping(self, dim, off):
        t, x = {
            "late": (0.26, [0.0] * dim),
            "early": (-0.01, [0.0] * dim),
            "outside": (0.1, [0.0] * (dim - 1) + [1.01]),
            "too many": (0.1, [0.0] * (dim + 1)),
            "nan": (0.1, [np.nan] * dim),
        }[off]
        steps = []

        def terminal(x):
            steps.append(1)
            return gaussian_bump(x)

        spec = replace(heat_spec(halfwidth=1.0, dim=dim), terminal=terminal)
        sol = fd_dirichlet_solve(spec, 4, 8)
        with pytest.raises(ValueError) as full:
            sol.value_at(t, x)
        steps.clear()
        with pytest.raises(ValueError) as streamed:
            pde._values_at(spec, 4, 8, [(0.0, [0.0] * dim), (t, x)])
        assert str(streamed.value) == str(full.value)
        assert steps == []

    @pytest.mark.parametrize("dim", [1, 2])
    def test_marked_generator_gets_no_w_and_the_same_solution(self, dim):
        seen = {}

        def make(label):
            def f(t, x, u, w):
                seen[label] = w
                return _sqrt_sin(t, x, u, w)
            return f

        marked, unmarked = make("marked"), make("unmarked")
        marked.reads_z = False
        sols = [fd_dirichlet_solve(heat_spec(halfwidth=1.0, sigma=1.0, g=np.sin, f=f, dim=dim), 8, 16)
                for f in (marked, unmarked)]
        assert np.array_equal(sols[0].u, sols[1].u)
        assert seen["marked"] is None
        assert seen["unmarked"].shape == (15**dim, dim)

    def test_cli_generators_are_marked_and_ignore_z(self):
        from youngbsde.bsde import zero_generator
        from youngbsde.cli import GENERATORS

        rng = np.random.default_rng(0)
        x, y, z = rng.normal(size=(5, 2)), rng.normal(size=5), rng.normal(size=(5, 2))
        for name, make in GENERATORS.items():
            f = make(0.7)
            assert f.reads_z is False, name
            assert np.array_equal(f(0.1, x, y, None), f(0.1, x, y, z)), name
        assert zero_generator.reads_z is False


class TestYoungPdeTable:
    def test_smooth_driver_table_constant(self):
        table = young_pde_table(
            lambda n, fld: heat_spec(g=lambda u: u, sigma=0.5, halfwidth=n, field=fld),
            smooth_field(), n_list=[3.0, 4.0], m_list=[4, 8],
            points=[(0.0, 0.0)], time_steps=48, cells_per_unit=16,
        )
        assert np.max(np.abs(table.values - table.values[0, 0, 0])) <= 1e-3
        assert table.converged

    def test_rough_driver_cauchy_in_m(self):
        base = fbs_generate(
            HurstParams(h0=0.9, h=0.6), np.linspace(0, 0.25, 129),
            [np.linspace(-5, 5, 65)], seed=7, p=2.05,
        )
        table = young_pde_table(
            lambda n, fld: heat_spec(g=lambda u: u, sigma=1.0, halfwidth=n, field=fld),
            base, n_list=[3.0], m_list=[4, 8, 16],
            points=[(0.0, 0.0), (0.1, 0.4)], time_steps=64, cells_per_unit=16,
        )
        assert table.cauchy_m[1] < table.cauchy_m[0]


class TestCrossCheck:
    def test_zero_generator_both_sides_heat(self):
        spec = heat_spec(halfwidth=3.0, sigma=1.0)
        report = feynman_kac_cross_check(
            spec, points=[(0.0, 0.0), (0.05, 0.3)], n_paths=20_000, seed=3,
            time_steps=64, space_steps=192, mc_time_steps=64,
        )
        for row in report:
            assert row["pass"], row


class TestLocalizationError:
    def test_sqrt_generator_decay(self):
        def gen(t, x, u, w):
            return np.sqrt(np.abs(x[:, 0])) * np.sin(u)

        def spec_at(n):
            return PdeSpec(
                halfwidth=n, dim=1, horizon=0.25,
                terminal=lambda x: np.cos(x[:, 0]),
                sigma=1.0, drift=0.0, generator=gen, coupling=zero_g,
                fieldv=smooth_field(),
            )

        out = localization_error_experiment(
            spec_at, n_list=[2.0, 3.0], points=[(0.0, 0.0), (0.1, 0.5)],
            n_max=4.5, time_steps=48, cells_per_unit=16,
        )
        rows = out["rows"]
        assert rows[1]["max_diff"] < rows[0]["max_diff"]
        assert out["slope"] < 0


def _traced_peak(fn) -> int:
    # tracemalloc's peak over a call of fn, which numpy's buffers count in;
    # a first call, untraced, takes the one-time allocations
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("dim", [1, 2])
def test_stepping_holds_two_levels(dim):
    # the peak of stepping with each level dropped once the next is taken
    # does not grow with the number of steps: 64 steps peak within one level
    # of 2 steps, which hold two levels and one step's working set
    spec, cells = heat_spec(halfwidth=2.0, sigma=1.0, g=lambda u: u, dim=dim), 64
    level = (cells + 1) ** dim * 8
    two = _traced_peak(lambda: [None for _ in pde._levels(spec, 2, cells)])
    many = _traced_peak(lambda: [None for _ in pde._levels(spec, 64, cells)])
    assert many < two + level


@pytest.mark.parametrize("experiment", ["table", "cross-check", "localization"])
def test_experiments_hold_two_levels_at_a_time(experiment):
    # on a 2-D box, an experiment's peak stays within a few levels of the
    # peak of stepping its largest problem with each level dropped once the
    # next is taken (test_stepping_holds_two_levels), while
    # fd_dirichlet_solve of that problem holds more than nt levels
    nt, points = 32, [(0.0, (0.0, 0.0)), (0.1, (0.3, -0.2))]
    if experiment == "table":
        largest = heat_spec(halfwidth=2.0, sigma=1.0, field=MollifiedField(smooth_field(), 4), dim=2)
        steps, cells = nt, 64

        def run():
            young_pde_table(lambda n, fld: heat_spec(halfwidth=n, sigma=1.0, field=fld, dim=2),
                            smooth_field(), [1.0, 2.0], [2, 4], points, time_steps=nt,
                            cells_per_unit=16)
    elif experiment == "cross-check":
        # the fine solve doubles the coarse one's steps in time and space
        largest, steps, cells = heat_spec(halfwidth=2.0, sigma=1.0, dim=2), nt, 128

        def run():
            feynman_kac_cross_check(largest, points, n_paths=200, seed=0, time_steps=nt // 2,
                                    space_steps=cells // 2, mc_time_steps=8)
    else:
        largest, steps, cells = heat_spec(halfwidth=2.0, sigma=1.0, dim=2), nt, 64

        def run():
            localization_error_experiment(lambda n: heat_spec(halfwidth=n, sigma=1.0, dim=2),
                                          [1.0, 1.5], points, 2.0, time_steps=nt, cells_per_unit=16)
    level = (cells + 1) ** 2 * 8
    stepped = _traced_peak(lambda: [None for _ in pde._levels(largest, steps, cells)])
    streamed = _traced_peak(run)
    full = _traced_peak(lambda: fd_dirichlet_solve(largest, steps, cells))
    assert streamed < stepped + 4 * level
    assert full > steps * level


class TestNeumann:
    def test_unit_terminal_zero_driver(self):
        field = AnalyticField(
            lambda t, x: np.zeros(t.shape), RegularityParams(tau=1.0, lam=1.0, p=2.5),
            dt_fn=lambda t, x: np.zeros(t.shape),
        )
        est, se = neumann_fk_estimate(
            lambda x: np.ones(x.shape[0]), field, (0.0, 1.0), (0.0, 0.5),
            n_paths=500, seed=1, n_steps=64,
        )
        assert est == pytest.approx(1.0, abs=1e-12)
        assert se == pytest.approx(0.0, abs=1e-12)

    def test_space_free_smooth_driver(self):
        # B(t, x) = t: the integral is T - t0 exactly
        field = smooth_field()
        field.horizon = 1.0
        est, _ = neumann_fk_estimate(
            lambda x: np.ones(x.shape[0]), field, (0.0, 1.0), (0.25, 0.5),
            n_paths=400, seed=2, n_steps=64,
        )
        assert est == pytest.approx(np.exp(0.75), rel=1e-10)

    def test_terminal_profile_of_wrong_shape_rejected(self):
        # h gets X_T as (k, 1); an h written for (k,) returns a (k, 1) column,
        # which would broadcast against the (k,) weights into a (k, k) product
        with pytest.raises(ValueError, match=r"h must return shape \(300,\), got shape \(300, 1\)"):
            neumann_fk_estimate(lambda x: np.cos(np.pi * x), smooth_field(), (0.0, 1.0), (0.0, 0.3),
                                n_paths=300, seed=4, n_steps=16)

    @pytest.mark.parametrize("h0, warns", [(0.6, True), (0.9, False)])
    def test_window_warning_sees_through_a_mollifier(self, h0, warns):
        # H0 + H/2 = 0.85 is outside the window and 1.15 inside, for the
        # sheet itself and for a mollifier over it
        sheet = fbs_generate(HurstParams(h0=h0, h=0.5), np.linspace(0.0, 1.0, 33),
                             [np.linspace(-1.0, 2.0, 13)], seed=3)
        for field in (sheet, MollifiedField(sheet, 8)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                neumann_fk_estimate(lambda x: np.ones(x.shape[0]), field, (0.0, 1.0), (0.0, 0.5),
                                    n_paths=50, seed=1, n_steps=8)
            window = [w for w in caught if "declared window" in str(w.message)]
            assert len(window) == warns, type(field).__name__

    def test_zero_driver_matches_occupation_quadrature(self):
        field = AnalyticField(
            lambda t, x: np.zeros(t.shape), RegularityParams(tau=1.0, lam=1.0, p=2.5),
            dt_fn=lambda t, x: np.zeros(t.shape),
        )
        field.horizon = 1.0
        h = lambda x: np.cos(np.pi * x)
        est, se = neumann_fk_estimate(lambda x: h(x[:, 0]), field, (0.0, 1.0), (0.0, 0.3),
                                      n_paths=40_000, seed=3, n_steps=512)
        want = reflected_bm_expectation(h, 0.3, 1.0, 0.0, 1.0)
        assert abs(est - want) <= 3 * se + 2e-3


def _python(code: str) -> str:
    """Standard output of `code` in a fresh interpreter on this checkout."""
    src = str(Path(__import__("youngbsde").__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    return out.stdout.strip().splitlines()[-1]


_SCIPY_LOADED = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"


def test_cli_import_loads_no_scipy():
    assert _python(f"import sys, youngbsde.cli; print({_SCIPY_LOADED})") == "[]"


def test_only_2d_finite_differences_load_scipy(tmp_path):
    # 1-D and drift-free 2-D solves need no scipy; a 2-D stencil with drift
    # is factored by SuperLU
    one_d = {"experiment": "cross-check", "seed": 1, "paths": 300,
             "driver": {"kind": "analytic", "name": "sin_x_time"},
             "pde": {"halfwidth": 2.0, "coupling": "sin"}, "points": [[0.0, 0.0]],
             "time_steps": 16, "space_steps": 32, "mc_time_steps": 16}
    two_d = {"experiment": "localization-error", "pde": {"dim": 2},
             "n_list": [1.0, 1.5], "n_max": 2.0, "points": [[0.0, [0.0, 0.0]]],
             "time_steps": 8, "cells_per_unit": 6}
    two_d_drift = {**two_d, "pde": {"dim": 2, "drift": 0.5}}
    runs = []
    for name, cfg in (("one_d", one_d), ("two_d", two_d), ("two_d_drift", two_d_drift)):
        (tmp_path / f"{name}.json").write_text(json.dumps(cfg))
        runs.append(f"main(['run', {str(tmp_path / name) + '.json'!r}, "
                    f"'--out', {str(tmp_path / name)!r}])")
    code = (f"import sys; from youngbsde.cli import main; codes = [{runs[0]}, {runs[1]}]; "
            f"loaded = {_SCIPY_LOADED}; codes.append({runs[2]}); "
            f"print(codes, loaded, 'scipy.sparse.linalg' in sys.modules)")
    assert _python(code) == "[0, 0, 0] [] True"
    for name in ("two_d", "two_d_drift"):
        assert (tmp_path / name / "results.csv").is_file()
