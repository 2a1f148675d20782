"""Acceptance suite: every criterion at its stated tolerance, one pass/fail
line each (visible with -s; the assertions enforce the same conditions)."""

import time

import numpy as np
from oracles import (
    discrete_barrier_shift,
    p_variation,
    prob_sup_abs_bm_exceeds,
    reflected_bm_expectation,
)
from scipy import stats

from youngbsde.bsde import (
    BsdeSpec,
    RegressionBasis,
    backward_solve,
    comparison_experiment,
    linear_closed_form,
    localization_sweep,
    terminal_h_of_xt,
    terminal_running_max,
    zero_generator,
)
from youngbsde.driver import AnalyticField, HurstParams, MollifiedField, RegularityParams, fbs_generate
from youngbsde.flow import exp_formula_1d, inverse_flow, solve_linear_yode
from youngbsde.forward import SdeSpec, StepNormals, euler_maruyama, reflect_1d
from youngbsde.paths import SamplePath, TimeGrid, p_variation_brute_force
from youngbsde.pde import PdeSpec, feynman_kac_cross_check, localization_error_experiment, neumann_fk_estimate
from youngbsde.sewing import Germ, nonlinear_young_integral, sew


def _line(num, name, ok):
    print(f"\n[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}")
    return ok


def brownian_sample(n_cells, seed, horizon=1.0):
    spec = SdeSpec(drift=0.0, diffusion=1.0, x0=[0.0])
    ens = euler_maruyama(spec, TimeGrid.uniform(horizon, n_cells), 1, seed)
    return ens.grid.points, ens.x[0, :, 0]


def bm_ensemble(n_paths, steps, seed):
    spec = SdeSpec(drift=0.0, diffusion=1.0, x0=[0.0])
    return spec, euler_maruyama(spec, TimeGrid.uniform(1.0, steps), n_paths, seed)


def region_field(seed, h0=0.9, h=0.5):
    return fbs_generate(
        HurstParams(h0=h0, h=h), np.linspace(0.0, 1.0, 513),
        [np.linspace(-6.0, 6.0, 129)], seed=seed, p=2.05,
    )


def test_criterion_01_sewing_convergence():
    # eta = sin(x) t^0.8, fixed-seed Brownian x, p = 2.5: the dyadic Cauchy
    # increments over levels 6..14 fit a decay rate >= delta - 0.15 = 0.15
    t_start = time.time()
    tgrid, xp = brownian_sample(2**14, seed=42)
    field = AnalyticField(
        lambda t, x: np.sin(x[:, 0]) * t**0.8,
        RegularityParams(tau=0.8, lam=1.0, p=2.5),
    )

    def germ_fn(s, t):
        xs = np.interp(s, tgrid, xp)[:, None]
        return field.evaluate(t, xs) - field.evaluate(s, xs)

    res = sew(Germ(germ_fn), TimeGrid(np.array([0.0, 1.0])), levels=14)
    diffs = res.cauchy_increments  # |I_{l+1} - I_l| for l = 0..13
    levels = np.arange(6, 14)
    slope = np.polyfit(levels, np.log2(diffs[6:14]), 1)[0]
    rate = -slope
    elapsed = time.time() - t_start
    ok = rate >= 0.15 and elapsed < 10.0
    assert _line(1, f"sewing convergence (rate {rate:.3f} >= 0.15, {elapsed:.1f}s < 10s)", ok)


def test_criterion_02_smooth_reduction():
    # five drivers affine in t: |Young sum - left quadrature of y dt_eta|
    # at mesh 2^-14 stays below 1e-6
    tgrid, xp = brownian_sample(2**14, seed=2024)
    grid = TimeGrid(tgrid)
    x = SamplePath(grid, xp)
    y = SamplePath(grid, np.cos(tgrid))
    cases = {
        "time": (lambda t, x_: t, lambda t, x_: np.ones(t.shape)),
        "bilinear": (lambda t, x_: t * x_[:, 0], lambda t, x_: x_[:, 0]),
        "sin_x": (lambda t, x_: np.sin(x_[:, 0]) * t, lambda t, x_: np.sin(x_[:, 0])),
        "cos_x": (lambda t, x_: np.cos(x_[:, 0]) * t, lambda t, x_: np.cos(x_[:, 0])),
        "gauss_x": (
            lambda t, x_: np.exp(-x_[:, 0] ** 2) * t,
            lambda t, x_: np.exp(-x_[:, 0] ** 2),
        ),
    }
    worst = 0.0
    for name, (fn, dt_fn) in cases.items():
        fld = AnalyticField(fn, RegularityParams(tau=1.0, lam=1.0, p=2.5), dt_fn=dt_fn)
        res = nonlinear_young_integral(y, x, fld, levels=0)
        quad = float(
            np.sum(
                y.values[:-1]
                * fld.time_derivative(tgrid[:-1], xp[:-1, None])
                * np.diff(tgrid)
            )
        )
        worst = max(worst, abs(res.values[-1] - quad))
    ok = worst <= 1e-6
    assert _line(2, f"smooth reduction (max |diff| {worst:.2e} <= 1e-6)", ok)


def test_criterion_03_flow_cocycle():
    # 2x2 rough-flow battery: G_T^s G_s^t = G_T^t to 1e-12 relative on all
    # grid-aligned triples; G G^{-1} = I to 1e-10
    field = fbs_generate(
        HurstParams(h0=0.8, h=0.6), np.linspace(0.0, 1.0, 2047),
        [np.linspace(-4.0, 4.0, 65)], seed=21, p=2.05,
    )
    rng = np.random.default_rng(3)
    _, ens = bm_ensemble(1, 64, 4)
    x = ens.path(0)
    alpha = rng.standard_normal((x.grid.n, 2, 2)) * 0.5
    flow = solve_linear_yode(alpha, x, field)
    pts = x.grid.points
    full_scale = max(1.0, float(np.max(np.abs(flow.matrices))))
    worst_coc = 0.0
    for ia in range(0, pts.size):
        for ib in range(ia, pts.size, 7):
            a, b = pts[ia], pts[ib]
            lhs = flow.segment(b, pts[-1]) @ flow.segment(a, b)
            worst_coc = max(worst_coc, np.max(np.abs(lhs - flow.segment(a, pts[-1]))) / full_scale)
    inv = inverse_flow(flow)
    worst_inv = max(
        np.max(np.abs(g @ gi - np.eye(2))) for g, gi in zip(flow.matrices, inv)
    )
    ok = worst_coc <= 1e-12 and worst_inv <= 1e-10
    assert _line(3, f"flow cocycle (cocycle {worst_coc:.2e} <= 1e-12, inverse {worst_inv:.2e} <= 1e-10)", ok)


def test_criterion_04_exp_formula_1d():
    # fixed-seed fBs H0 = 0.8: |Euler - exp(sewing)| shrinks by >= 2^0.3 per
    # dyadic refinement across four levels
    field = fbs_generate(
        HurstParams(h0=0.8, h=0.6), np.linspace(0.0, 1.0, 2047),
        [np.linspace(-4.0, 4.0, 65)], seed=5, p=2.05,
    )
    _, ens = bm_ensemble(1, 2**4, 13)
    x = ens.path(0)
    alpha = np.ones(x.grid.n)
    errs = []
    for lev in (1, 2, 3, 4, 5):
        euler = solve_linear_yode(np.ones((x.grid.n, 1, 1)), x, field, levels=lev).matrices[:, 0, 0]
        closed = exp_formula_1d(alpha, x, field, levels=lev)
        errs.append(np.max(np.abs(euler - closed)))
    ratios = [errs[i] / errs[i + 1] for i in range(4)]
    ok = all(r >= 2**0.3 for r in ratios)
    assert _line(4, f"1-D exponential formula (ratios {[f'{r:.2f}' for r in ratios]} >= 2^0.3)", ok)


def test_criterion_05_linear_feynman_kac_oracle():
    # g(y) = y, fBs in the chi = 2 region (lam + beta < 2), 1e4 paths:
    # backward solver vs flow/weight closed form within 3 combined SE
    t_start = time.time()
    field = region_field(seed=202)
    assert field.params.lam + field.params.beta < 2
    fwd, ens = bm_ensemble(10_000, 64, 123)
    h = lambda x: np.cos(x[:, 0])
    spec = BsdeSpec(
        forward=fwd, fieldv=field, generator=zero_generator,
        coupling=lambda y: y,
        terminal=terminal_h_of_xt(h),
    )
    sol = backward_solve(spec, ens, basis=RegressionBasis(degree=11))
    assert sol.unconverged == {}  # every Picard step reached tol
    ref_y0, ref_se = linear_closed_form(ens, field, terminal_h_of_xt(h), alpha=1.0)
    combined = float(np.sqrt(sol.y0_se ** 2 + ref_se ** 2))
    diff = float(abs(sol.y0 - ref_y0))
    elapsed = time.time() - t_start
    ok = diff <= 3 * combined and elapsed < 60.0
    assert _line(
        5,
        f"linear Feynman-Kac oracle (|diff| {diff:.4f} <= 3x{combined:.4f}, {elapsed:.1f}s < 60s)",
        ok,
    )


def test_criterion_06_comparison():
    # xi_A = xi_B + 0.1 with nonlinear coupling: ordered fraction >= 0.99
    # (allowance 1e-2) and Y_A(0) - Y_B(0) > 3 SE at 1e4 paths
    field = region_field(seed=61)
    fwd, ens = bm_ensemble(10_000, 64, 77)

    def mk(shift):
        return BsdeSpec(
            forward=fwd, fieldv=field, generator=zero_generator,
            coupling=np.sin,
            terminal=terminal_h_of_xt(lambda x, s=shift: np.cos(x[:, 0]) + s),
        )

    rep = comparison_experiment(mk(0.1), mk(0.0), ens, eps_reg=1e-2)
    ok = rep.fraction_ordered >= 0.99 and rep.y0_gap > 3 * rep.y0_gap_se
    assert _line(
        6,
        f"comparison (fraction {rep.fraction_ordered:.4f} >= 0.99, gap {rep.y0_gap:.4f} > 3x{rep.y0_gap_se:.5f})",
        ok,
    )


def test_criterion_07_localization():
    # (a) grid-monitored BM exit probabilities against the reflection series
    # with the standard discrete-monitoring barrier shift; log P vs n^2
    # regression with R^2 >= 0.9.  (b) localized Y_0 values Cauchy in the
    # radius on the running-sup battery.
    n_paths, n_steps = 100_000, 2048
    dt = 1.0 / n_steps
    w = np.zeros(n_paths)
    run_max = np.zeros(n_paths)
    normals = StepNormals(314)
    for j in range(n_steps):
        w += normals(j, n_paths, 1)[:, 0] * np.sqrt(dt)
        np.maximum(run_max, np.abs(w), out=run_max)
    shift = discrete_barrier_shift(n_steps)
    ok_prob = True
    for n in (1.0, 2.0, 3.0):
        p_hat = float(np.mean(run_max > n))
        want = prob_sup_abs_bm_exceeds(n + shift)
        se = np.sqrt(max(want * (1 - want), 1e-12) / n_paths)
        ok_prob = ok_prob and abs(p_hat - want) <= 3 * se
    ns = np.array([1.0, 1.5, 2.0, 2.5, 3.0])
    probs = np.array([max(np.mean(run_max > n), 1.0 / n_paths) for n in ns])
    fit = stats.linregress(ns**2, np.log(probs))
    ok_fit = fit.slope < 0 and fit.rvalue**2 >= 0.9

    field = region_field(seed=51)
    fwd, ens = bm_ensemble(10_000, 64, 77)
    spec = BsdeSpec(
        forward=fwd, fieldv=field, generator=zero_generator,
        coupling=np.sin,
        terminal=terminal_running_max(),
    )
    rows = localization_sweep(spec, ens, [1.0, 2.0, 3.0, 4.0])
    diffs = [r["diff_prev"] for r in rows[1:]]
    ok_cauchy = diffs[0] > diffs[1] > diffs[2]
    ok = ok_prob and ok_fit and ok_cauchy
    assert _line(
        7,
        "localization (exit probs within 3 SE: %s, R^2 %.3f >= 0.9, sweep diffs %s strictly decreasing: %s)"
        % (ok_prob, fit.rvalue**2, [f"{d:.2e}" for d in diffs], ok_cauchy),
        ok,
    )


def test_criterion_08_fbs_statistics():
    # covariance at 3 grid pairs within 3 SE over 1e4 seeds; structure-
    # function Holder exponents within +-0.1 of (H0, H)
    hp = HurstParams(h0=0.7, h=0.6)
    t_ax = np.array([0.0, 0.4, 1.0])
    x_ax = np.array([0.0, 0.3, 1.0])
    n_seeds = 10_000
    samples = np.empty((n_seeds, 3, 3))
    for i in range(n_seeds):
        samples[i] = fbs_generate(hp, t_ax, [x_ax], seed=i).values

    def cov_formula(t, x, s, y):
        ft = abs(t) ** (2 * hp.h0) + abs(s) ** (2 * hp.h0) - abs(t - s) ** (2 * hp.h0)
        fx = abs(x) ** (2 * hp.h) + abs(y) ** (2 * hp.h) - abs(x - y) ** (2 * hp.h)
        return 0.25 * ft * fx

    ok_cov = True
    for (it, ix), (js, jy) in [((1, 1), (2, 2)), ((1, 2), (2, 1)), ((2, 2), (2, 2))]:
        prod = samples[:, it, ix] * samples[:, js, jy]
        want = cov_formula(t_ax[it], x_ax[ix], t_ax[js], x_ax[jy])
        se = prod.std() / np.sqrt(n_seeds)
        ok_cov = ok_cov and abs(prod.mean() - want) <= 3 * se

    fine = np.linspace(0.0, 1.0, 257)
    slopes = {"time": [], "space": []}
    for seed in range(6):
        f_t = fbs_generate(hp, fine, [np.array([0.0, 1.0])], seed=seed)
        f_x = fbs_generate(hp, np.array([0.0, 1.0]), [fine], seed=100 + seed)
        lags = np.array([1, 2, 4, 8, 16, 32])
        for key, series in (("time", f_t.values[:, 1]), ("space", f_x.values[1, :])):
            m = [np.mean(np.abs(series[k:] - series[:-k])) for k in lags]
            slopes[key].append(np.polyfit(np.log(lags / 256.0), np.log(m), 1)[0])
    est_h0 = float(np.mean(slopes["time"]))
    est_h = float(np.mean(slopes["space"]))
    ok_hol = abs(est_h0 - hp.h0) <= 0.1 and abs(est_h - hp.h) <= 0.1
    ok = ok_cov and ok_hol
    assert _line(
        8,
        f"fBs statistics (cov within 3 SE: {ok_cov}, exponents ({est_h0:.3f}, {est_h:.3f}) vs (0.7, 0.6))",
        ok,
    )


def test_criterion_09_nonlinear_feynman_kac_cross_check():
    # d = 1, smooth mollified driver, g(y) = sin(y): |u_FD - u_MC| <= 5e-2
    # at five interior points, under five minutes
    t_start = time.time()
    base = fbs_generate(
        HurstParams(h0=0.9, h=0.6), np.linspace(0.0, 0.5, 257),
        [np.linspace(-4.0, 4.0, 65)], seed=55, p=2.05,
    )
    spec = PdeSpec(
        halfwidth=3.0, dim=1, horizon=0.5,
        terminal=lambda x: np.cos(x[:, 0]),
        sigma=1.0, drift=0.0,
        generator=lambda t, x, u, w: np.zeros_like(u),
        coupling=np.sin,
        fieldv=MollifiedField(base, 8),
    )
    points = [(0.0, 0.0), (0.0, 0.5), (0.0, -0.5), (0.1, 0.25), (0.2, -0.4)]
    report = feynman_kac_cross_check(
        spec, points, n_paths=10_000, seed=4,
        time_steps=64, space_steps=160, mc_time_steps=64,
    )
    worst = max(r["abs_diff"] for r in report)
    elapsed = time.time() - t_start
    ok = worst <= 5e-2 and elapsed < 300.0
    assert _line(
        9, f"nonlinear Feynman-Kac cross-check (max |u_FD - u_MC| {worst:.4f} <= 0.05, {elapsed:.0f}s < 300s)", ok
    )


def test_criterion_10_localization_error():
    # growing boxes with the square-root generator: differences to the
    # largest box decrease monotonically and fit exp(-c n^2), R^2 >= 0.8
    fld = AnalyticField(
        lambda t, x: t * np.ones(t.shape), RegularityParams(tau=1.0, lam=1.0, p=2.5),
        dt_fn=lambda t, x: np.ones(t.shape),
    )
    def spec_at(n):
        return PdeSpec(
            halfwidth=n, dim=1, horizon=1.0,
            terminal=lambda x: np.cos(x[:, 0]),
            sigma=np.sqrt(2.0), drift=0.0,
            generator=lambda t, x, u, w: np.sqrt(np.abs(x[:, 0])) * np.sin(u),
            coupling=np.zeros_like,
            fieldv=fld,
        )

    out = localization_error_experiment(
        spec_at, [2.0, 4.0, 6.0], [(0.0, 0.0), (0.25, 0.5), (0.5, -0.5)],
        n_max=8.0, time_steps=128, cells_per_unit=16,
    )
    ds = [r["max_diff"] for r in out["rows"]]
    ok = ds[0] > ds[1] > ds[2] and out["slope"] < 0 and out["r_squared"] >= 0.8
    assert _line(
        10,
        f"localization error (diffs {[f'{d:.2e}' for d in ds]}, slope {out['slope']:.3f} < 0, R^2 {out['r_squared']:.3f} >= 0.8)",
        ok,
    )


def test_criterion_11_reflection():
    # exact confinement, monotone boundary-only local time, and the Neumann
    # estimate with a zero driver matching the occupation quadrature
    rng = np.random.default_rng(13)
    inc = rng.standard_normal((200, 400)) * np.sqrt(1.0 / 400)
    x, loc = reflect_1d(inc, (0.0, 1.0), 0.3)
    ok_confined = bool(np.all((x >= 0.0) & (x <= 1.0)))
    ok_monotone = bool(np.all(np.diff(loc, axis=1) >= 0))
    grew = np.diff(loc, axis=1) > 0
    at_boundary = (x[:, 1:] == 0.0) | (x[:, 1:] == 1.0)
    ok_boundary = bool(np.all(at_boundary[grew]))

    zero = AnalyticField(
        lambda t, x_: np.zeros(t.shape), RegularityParams(tau=1.0, lam=1.0, p=2.5),
        dt_fn=lambda t, x_: np.zeros(t.shape),
    )
    zero.horizon = 1.0
    h = lambda v: np.cos(np.pi * v)
    est, se = neumann_fk_estimate(
        lambda x: h(x[:, 0]), zero, (0.0, 1.0), (0.0, 0.3), n_paths=20_000, seed=6, n_steps=1024
    )
    want = reflected_bm_expectation(h, 0.3, 1.0, 0.0, 1.0)
    ok_oracle = abs(est - want) <= 3 * se
    ok = ok_confined and ok_monotone and ok_boundary and ok_oracle
    assert _line(
        11,
        f"reflection (confined {ok_confined}, local time {ok_monotone and ok_boundary}, "
        f"|est - oracle| {abs(est - want):.4f} <= 3x{se:.4f})",
        ok,
    )


def test_criterion_12_pvariation_oracle_exactness():
    # DP p-variation equals brute-force enumeration on 200 random 10-point
    # paths for p in {1.5, 2, 3}, to 1e-12
    rng = np.random.default_rng(1234)
    grid = TimeGrid.uniform(1.0, 9)
    worst = 0.0
    for _ in range(200):
        path = SamplePath(grid, rng.standard_normal(10))
        for p in (1.5, 2.0, 3.0):
            worst = max(worst, abs(p_variation(path, p) - p_variation_brute_force(path, p)))
    ok = worst <= 1e-12
    assert _line(12, f"p-variation oracle exactness (max |DP - brute| {worst:.2e} <= 1e-12)", ok)
