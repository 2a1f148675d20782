"""Independent reference values used across test modules."""

import json
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from numpy.random import Philox, default_rng
from scipy.linalg import cho_factor, cho_solve
from scipy.sparse.linalg import splu
from scipy.stats import norm

from youngbsde import bsde
from youngbsde.driver import FbsGridField, HurstParams, _chol_axis
from youngbsde.forward import PathEnsemble, StepNormals
from youngbsde.paths import SamplePath, TimeGrid, aligned_index, dyadic_interp, p_variation_suffixes
from youngbsde.sewing import Germ, sew


def prob_sup_abs_bm_exceeds(n: float, horizon: float = 1.0, terms: int = 20) -> float:
    """P{sup_{t<=T} |W_t| > n} by the reflection-principle series."""
    s = 0.0
    rt = np.sqrt(horizon)
    for k in range(-terms, terms + 1):
        s += (-1) ** k * (norm.cdf((2 * k + 1) * n / rt) - norm.cdf((2 * k - 1) * n / rt))
    return 1.0 - s


def discrete_barrier_shift(n_steps: int, horizon: float = 1.0) -> float:
    """Continuity correction for grid-monitored barriers: shift by 0.5826 sqrt(dt)."""
    return 0.5826 * np.sqrt(horizon / n_steps)


def reflected_bm_density(x0: float, y: np.ndarray, t: float, a: float, b: float, terms: int = 200):
    """Transition density of Brownian motion reflected at both ends of [a, b]
    (Neumann spectral series)."""
    ell = b - a
    out = np.full_like(np.asarray(y, dtype=float), 1.0 / ell)
    for k in range(1, terms + 1):
        lam = 0.5 * (k * np.pi / ell) ** 2
        out += (
            (2.0 / ell)
            * np.exp(-lam * t)
            * np.cos(k * np.pi * (x0 - a) / ell)
            * np.cos(k * np.pi * (np.asarray(y) - a) / ell)
        )
    return out


def reflected_bm_expectation(h, x0: float, t: float, a: float, b: float, n_quad: int = 2001):
    """E[h(X_t)] for reflected BM started at x0, by dense quadrature."""
    y = np.linspace(a, b, n_quad)
    dens = reflected_bm_density(x0, y, t, a, b)
    return float(np.trapezoid(h(y) * dens, y))


def heat_solution_gaussian_bump(x: float, t_to_go: float, amp: float = 1.0, width: float = 0.15, a: float = 1.0):
    """u solving u_t + a u_xx = 0 (backward) with terminal amp*exp(-x^2/(2 w^2)):
    convolution of the bump with the heat kernel of variance 2 a t_to_go."""
    var = width**2 + 2.0 * a * t_to_go
    return amp * width / np.sqrt(var) * np.exp(-(x**2) / (2 * var))


def interp(path, times):
    """Piecewise-linear values of a SamplePath at arbitrary times in [0, T],
    by np.interp per column; same shape rule as path.values."""
    t = np.asarray(times, dtype=float)
    v = path.as_matrix()
    out = np.stack([np.interp(t, path.grid.points, v[:, j]) for j in range(v.shape[1])], axis=-1)
    return out[..., 0] if path.values.ndim == 1 else out


def exit_time(path, radius: float) -> float:
    """First grid time with |X_t| > radius along one SamplePath, else the horizon."""
    hits = np.nonzero(np.linalg.norm(path.as_matrix(), axis=1) > radius)[0]
    return float(path.grid.points[hits[0] if hits.size else -1])


def increment_moments_ok(ensemble, z: float = 5.0) -> bool:
    """Per step and coordinate, the Brownian increments' mean lies within z
    standard errors of 0 and their variance within z standard errors of dt."""
    n = ensemble.n_paths
    dts = ensemble.grid.dt[:, None]
    mean_ok = np.abs(ensemble.dw.mean(axis=0)) <= z * np.sqrt(dts / n)
    var_ok = np.abs(ensemble.dw.var(axis=0, ddof=1) - dts) <= z * dts * np.sqrt(2.0 / (n - 1))
    return bool(np.all(mean_ok & var_ok))


def euler_maruyama_path_major(spec, grid, n_paths: int, seed: int) -> PathEnsemble:
    """euler_maruyama's scheme on C-contiguous path-major (k, n, d) arrays,
    one strided column per step."""
    d, n = spec.dim, grid.n
    x = np.empty((n_paths, n, d))
    dw = np.empty((n_paths, n - 1, d))
    x[:, 0] = spec.x0
    dts = grid.dt
    normals = StepNormals(seed)
    for j in range(n - 1):
        dw[:, j] = np.sqrt(dts[j]) * normals(j, n_paths, d)
        x[:, j + 1] = x[:, j] + spec.drift * dts[j] + spec.diffusion * dw[:, j]
    return PathEnsemble(grid=grid, x=x, dw=dw, seed=int(seed))


def reflect_1d_path_major(increments, interval, x0):
    """reflect_1d's clip scheme on C-contiguous path-major (k, n) arrays."""
    a, b = interval
    inc = np.asarray(increments, dtype=float)
    n_paths, n_steps = inc.shape
    x = np.empty((n_paths, n_steps + 1))
    loc = np.zeros((n_paths, n_steps + 1))
    x[:, 0] = x0
    for j in range(n_steps):
        prop = x[:, j] + inc[:, j]
        clipped = np.clip(prop, a, b)
        loc[:, j + 1] = loc[:, j] + np.abs(prop - clipped)
        x[:, j + 1] = clipped
    return x, loc


def backward_solve_path_major(spec, ensemble, basis=None, picard=None):
    """Full-horizon backward induction on C-contiguous path-major copies of
    the ensemble and of (y, z), through the library's one-step kernels.
    Returns (y (k, n), z (k, n-1, d), realized)."""
    basis = basis or bsde.RegressionBasis()
    picard = picard or bsde.PicardParams()
    ens = PathEnsemble(grid=ensemble.grid, x=np.ascontiguousarray(ensemble.x),
                       dw=np.ascontiguousarray(ensemble.dw), seed=ensemble.seed)
    pts = ens.grid.points
    k, n, d = ens.x.shape
    y = np.empty((k, n))
    z = np.empty((k, n - 1, d))
    y[:, -1] = bsde._terminal(spec.terminal, ens)
    realized = y[:, -1].copy()
    for i in range(n - 2, -1, -1):
        y_next = y[:, i + 1]
        y_i, z_i, _, ok, target, _ = bsde._step(
            spec, basis, picard, pts[i], pts[i + 1], ens.x[:, i], ens.dw[:, i], y_next
        )
        gain = target - y_next
        if not ok:
            y_i, z_i, gain, _ = bsde._halved_step(spec, ens, basis, picard, i, slice(None), y_next)
        realized += gain
        y[:, i] = y_i
        z[:, i] = z_i
    return y, z, realized


def exit_indices_norm(ensemble, radius: float) -> np.ndarray:
    """exit_indices through np.linalg.norm over the path-major view."""
    exceeded = np.linalg.norm(ensemble.x, axis=2) > radius
    return np.where(exceeded.any(axis=1), exceeded.argmax(axis=1), ensemble.grid.n - 1)


def cho_solve_fit(a, ridge: float, targets) -> np.ndarray:
    """The fitted values a beta of the ridge normal equations, intercept
    unpenalized, through scipy's upper Cholesky factor and cho_solve."""
    pen = np.eye(a.shape[1]) * ridge
    pen[0, 0] = 0.0
    return a @ cho_solve(cho_factor(a.T @ a + pen), a.T @ targets)


def fd_dirichlet_solve_superlu(spec, time_steps: int, space_steps: int) -> np.ndarray:
    """The Crank-Nicolson solve of fd_dirichlet_solve on scipy.sparse
    matrices: the operator and sigma grad from tridiagonal difference
    matrices scaled by the scalar coefficients (Kronecker sums over the two
    axes in 2-D), boundary values fed in by a matvec, and the implicit
    matrix factored by SuperLU.  Returns u."""
    nt, n, dim = time_steps, space_steps + 1, spec.dim
    dt = spec.horizon / nt
    times = np.linspace(0.0, spec.horizon, nt + 1)
    axis = np.linspace(-spec.halfwidth, spec.halfwidth, n)
    pts = np.stack([g.ravel() for g in np.meshgrid(*[axis] * dim, indexing="ij")], axis=-1)
    h = axis[1] - axis[0]
    d2 = sp.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(n, n)) / h**2
    d1 = sp.diags([-1.0, 1.0], [-1, 1], shape=(n, n)) / (2 * h)
    eye_n = sp.identity(n)

    def along(mat, a):
        """`mat` acting along axis a of the tensor grid."""
        return mat if dim == 1 else sp.kron(mat, eye_n) if a == 0 else sp.kron(eye_n, mat)

    interior = np.zeros((n,) * dim, dtype=bool)
    interior[(slice(1, -1),) * dim] = True
    interior = interior.ravel()
    op = sum(along(0.5 * spec.sigma**2 * d2 + spec.drift * d1, a) for a in range(dim))
    rows = op.tocsr()[interior]
    grad_w = [along(spec.sigma * d1, a).tocsr()[interior] for a in range(dim)]
    lmat = rows[:, interior]
    h_vals = np.asarray(spec.terminal(pts), dtype=float)
    edge = np.where(interior, 0.0, h_vals)
    bfeed = dt * (rows @ edge)
    eye = sp.identity(lmat.shape[0], format="csc")
    lhs = splu((eye - 0.5 * dt * lmat).tocsc(), permc_spec="MMD_AT_PLUS_A")
    rhs_op = eye + 0.5 * dt * lmat

    def nonlinear(t, u_full, dt_eta):
        uu = u_full[interior]
        w = np.stack([g @ u_full for g in grad_w], axis=1)
        return spec.generator(t, pts[interior], uu, w) + spec.coupling(uu) * dt_eta

    u = np.empty((nt + 1, n**dim))
    u[-1] = h_vals
    dt_eta = spec.fieldv.time_derivative(times[-1], pts[interior])
    for k in range(nt - 1, -1, -1):
        base = rhs_op @ u[k + 1][interior] + bfeed
        n_hi = nonlinear(times[k + 1], u[k + 1], dt_eta)
        u[k] = h_vals
        u[k][interior] = lhs.solve(base + dt * n_hi)
        dt_eta = spec.fieldv.time_derivative(times[k], pts[interior])
        n_lo = nonlinear(times[k], u[k], dt_eta)
        u[k][interior] = lhs.solve(base + dt * 0.5 * (n_hi + n_lo))
    return u.reshape((nt + 1,) + (n,) * dim)


def _slice_indices(grid, interval) -> tuple[int, int]:
    """Grid indices of the ends of interval = (a, b), or of the whole grid."""
    if interval is None:
        return 0, grid.n - 1
    a, b = interval
    ia, ib = aligned_index(grid.points, a), aligned_index(grid.points, b)
    if ia > ib:
        raise ValueError("interval must satisfy a <= b")
    return ia, ib


def restrict(path, interval):
    """The SamplePath on the grid points of interval = (a, b), a < b, at
    their own times."""
    ia, ib = _slice_indices(path.grid, interval)
    return SamplePath(TimeGrid(path.grid.points[ia : ib + 1]), path.values[ia : ib + 1])


def locate_searchsorted(axis, c):
    """paths.locate by np.searchsorted: the cell (lo, fraction) of each
    coordinate c clamped into the increasing array axis."""
    c = np.clip(c, axis[0], axis[-1])
    hi = np.clip(np.searchsorted(axis, c), 1, axis.size - 1)
    lo = hi - 1
    return lo, (c - axis[lo]) / (axis[hi] - axis[lo])


def p_variation_suffixes_dense(values, p: float, starts):
    """p_variation_suffixes with the inner max of the backward programme
    over every candidate after i: the candidates are every point except
    those strictly inside a monotone run (d_{i-1} d_i > 0; ties, plateaus
    and non-finite values stay) of each scalar path, values (k, n)."""
    v = np.asarray(values, dtype=float).T
    n, k = v.shape
    starts = np.asarray(starts, dtype=np.intp).reshape(-1)
    cand = np.ones((n, k), dtype=bool)
    d = np.diff(v, axis=0)
    cand[1:-1] = ~(d[:-1] * d[1:] > 0)
    counts = cand.sum(axis=0)
    # each path's candidates in order, padded with its last point; after[q]
    # counts the candidates at or before starts[q]
    c = np.empty((int(counts.max()), k))
    c[:] = v[-1]
    filled = np.zeros(k, dtype=np.intp)
    after = np.empty((starts.size, k), dtype=np.intp)
    for i in range(n):
        cols = np.flatnonzero(cand[i])
        c[filled[cols], cols] = v[i, cols]
        filled[cols] += 1
        after[starts == i] = filled
    m = c.shape[0]

    def gains(j0, at):
        inc = c[j0:] - at
        np.abs(inc, out=inc)
        inc **= p
        return inc

    best = np.zeros((m, k))
    for i in range(m - 2, -1, -1):
        inc = gains(i + 1, c[i])
        inc += best[i + 1 :]
        best[i] = inc.max(axis=0)
    idx = np.arange(m)[:, None]
    out = np.empty((starts.size, k))
    for q, s in enumerate(starts):
        inc = gains(0, v[s])
        inc += best
        inc[(idx < after[q]) | (idx >= counts)] = 0.0
        out[q] = inc.max(axis=0)
    return (out ** (1.0 / p)).T


def p_variation(path, p: float) -> float:
    """Exact grid p-variation of one path: for a scalar path the full-grid
    case of p_variation_suffixes, and for a vector path the forward
    programme V(j) = max_{i<j} V(i) + |g_j - g_i|^p over every point, with
    Euclidean increments."""
    v = path.values
    if v.ndim == 1:
        return float(p_variation_suffixes(v[None], p, (0,))[0, 0])
    best = np.zeros(v.shape[0])
    for j in range(1, v.shape[0]):
        best[j] = np.max(best[:j] + np.linalg.norm(v[j] - v[:j], axis=1) ** p)
    return float(best[-1] ** (1.0 / p))


def holder_norm(path, gamma: float, interval=None) -> float:
    """Max over grid pairs of |g_b - g_a| / |b - a|**gamma (Euclidean)."""
    if not 0 < gamma <= 1:
        raise ValueError("invalid exponent")
    ia, ib = _slice_indices(path.grid, interval)
    v = path.as_matrix()[ia : ib + 1]
    t = path.grid.points[ia : ib + 1]
    i, j = np.triu_indices(t.size, k=1)
    if i.size == 0:
        return 0.0
    return float(np.max(np.linalg.norm(v[j] - v[i], axis=1) / (t[j] - t[i]) ** gamma))


def uniform_norm(path, interval=None) -> float:
    """Max over the grid points of |g_t| (Euclidean)."""
    ia, ib = _slice_indices(path.grid, interval)
    return float(np.max(np.linalg.norm(path.as_matrix()[ia : ib + 1], axis=1)))


def superadditivity_defect(w, grid, max_triples: int = 2000, seed: int = 0) -> float:
    """Largest w(s, u) + w(u, t) - w(s, t) over sampled grid triples s <= u <= t;
    nonpositive (up to rounding) for a control w."""
    pts = grid.points
    n = pts.size
    triples = [(i, k, j) for i in range(n) for k in range(i, n) for j in range(k, n)]
    if len(triples) > max_triples:
        sel = np.random.default_rng(seed).choice(len(triples), size=max_triples, replace=False)
        triples = [triples[i] for i in sel]
    return max(w(pts[i], pts[k]) + w(pts[k], pts[j]) - w(pts[i], pts[j]) for i, k, j in triples)


def remainder_certificate(grid, germ_defect, controls):
    """The sewing bound l^{e0} / (1 - 2^{-e0}) * sum_i w_i(s, t)^{1 + e_i} on
    every cell of grid, for controls [(w_i, 1 + e_i), ...].
    Returns (germ_defect <= bound per cell, bound)."""
    if not controls:
        raise ValueError("need at least one control")
    e0 = min(ex for _, ex in controls) - 1.0
    if e0 <= 0:
        raise ValueError("exponents must exceed 1")
    pts = grid.points
    bound = sum(np.array([w(s, t) for s, t in zip(pts[:-1], pts[1:])]) ** ex for w, ex in controls)
    bound = bound * len(controls) ** e0 / (1.0 - 2.0 ** (-e0))
    return germ_defect <= bound + 1e-15, bound


def nonlinear_germ_defect(y, x, fieldv, running):
    """|I[t_i, t_{i+1}] - A(t_i, t_{i+1})| per cell of x's grid, for the
    running integral I (a SamplePath) of y against eta(dr, x_r) and the
    level-0 germ A(s, t) = y_s (eta(t, x_s) - eta(s, x_s)), by two
    evaluations of the field."""
    pts, xs = x.grid.points, x.as_matrix()[:-1]
    germ = y.values[:-1] * (fieldv.evaluate(pts[1:], xs) - fieldv.evaluate(pts[:-1], xs))
    return np.abs(np.diff(running.values) - germ)


def nonlinear_young_germs(y, x, fieldv, levels: int) -> np.ndarray:
    """Every germ value ys * increment of the nonlinear Young integral on
    the whole level-``levels`` refinement of x's grid, fine cells in order."""
    pts = dyadic_interp(x.grid.points, levels)
    ys = dyadic_interp(y.values, levels)[:-1]
    xs = dyadic_interp(x.as_matrix(), levels)[:-1]
    return ys * fieldv.increment(pts[:-1], pts[1:], xs)


def nonlinear_young_integral_whole(y, x, fieldv, levels: int) -> np.ndarray:
    """The running nonlinear Young integral at x's grid points with every
    fine cell at once: each base cell's 2^levels germ values summed by
    numpy's pairwise sum, then one cumulative sum over the base cells."""
    cells = nonlinear_young_germs(y, x, fieldv, levels).reshape(x.grid.n - 1, 2**levels)
    return np.concatenate([[0.0], np.cumsum(cells.sum(axis=1))])


def linear_yode_step_factors_whole(alpha, x, fieldv, levels: int) -> np.ndarray:
    """Each base cell's Euler step factor with every fine factor
    I + a^T d_eta built at once, alpha left-constant in cells, then
    multiplied out pairwise inside each cell, later on the left."""
    a = np.asarray(alpha, dtype=float)
    cells, k = x.grid.n - 1, 2**levels
    pts = dyadic_interp(x.grid.points, levels)
    xs = dyadic_interp(x.as_matrix(), levels)[:-1]
    d_eta = fieldv.increment(pts[:-1], pts[1:], xs).reshape(cells, k)
    with np.errstate(over="ignore", invalid="ignore"):
        f = np.einsum("cij,ck->ckji", a[:-1], d_eta) + np.eye(a.shape[-1])
        while f.shape[1] > 1:
            f = f[:, 1::2] @ f[:, 0::2]
    return f[:, 0]


def young_integral_against_path(y, m_path, levels: int = 12):
    """Classical left-point Young integral of a scalar SamplePath y against a
    scalar path M on the same grid, sewn over dyadic refinements."""
    grid = m_path.grid
    if y.grid.n != grid.n or not np.allclose(y.grid.points, grid.points):
        raise ValueError("y and M must share a time grid")

    cells = grid.n - 1

    def germ_fn(s, t):
        # sew hands over the cells of one dyadic refinement of grid at a
        # time, so their number gives the level and the paths are read at the
        # left points by dyadic_interp instead of a search
        level = (s.size // cells).bit_length() - 1
        ys = dyadic_interp(y.as_matrix()[:, 0], level)[:-1]
        return ys * np.diff(dyadic_interp(m_path.as_matrix()[:, 0], level))

    return sew(Germ(germ_fn), grid, levels=levels)


def fbs_values_by_factors(hurst: HurstParams, axes, seed: int) -> np.ndarray:
    """The sheet fbs_generate draws on axes (time first, each holding 0
    exactly), by contraction of the per-axis factors: each axis's lower
    factor is formed whole (the product at rhs = I) and applied to the same
    Philox normals by tensordot."""
    hs = [hurst.h0] + [hurst.h] * hurst.d
    nz = [np.asarray(a) != 0.0 for a in axes]
    core = default_rng(Philox(key=seed)).standard_normal(tuple(int(m.sum()) for m in nz))
    for ax, (a, m, h) in enumerate(zip(axes, nz, hs)):
        low = _chol_axis(np.asarray(a)[m], h, np.eye(int(m.sum())))
        core = np.moveaxis(np.tensordot(low, core, axes=([1], [ax])), 0, ax)
    values = np.zeros(tuple(len(a) for a in axes))
    values[np.ix_(*[np.nonzero(m)[0] for m in nz])] = core
    return values


def load_fbs(prefix):
    """Read back the realization an fbs-generate run wrote, following the
    <prefix>.bin/<prefix>.json layout that the youngbsde.cli docstring
    documents."""
    sidecar = json.loads(Path(f"{prefix}.json").read_text())
    raw = np.frombuffer(Path(f"{prefix}.bin").read_bytes(), dtype=sidecar["dtype"])
    return FbsGridField(
        HurstParams(**sidecar["hurst"]),
        np.asarray(sidecar["time_points"]),
        [np.asarray(a) for a in sidecar["space_axes"]],
        raw.reshape(sidecar["shape"], order=sidecar["order"]),
        sidecar["seed"],
    )
