"""Finite-difference solution of the mollified Dirichlet problem and the
experiments built on it: the (domain, mollification) double-limit table,
Monte Carlo cross-validation through the backward solver, the localization
error sweep on growing boxes, and the 1-D Neumann functional estimate.

The stepping is a backward-in-time theta scheme (Crank-Nicolson default)
for the frozen-coefficient elliptic part, with the nonlinear terms
f(t, x, u, sigma^T grad u) + sum_i g_i(u) dt_eta_i treated explicitly
through one fixed-point sweep per step.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
from scipy.interpolate import RegularGridInterpolator
from scipy.sparse.linalg import splu

from .bsde import (
    BsdeSpec,
    PicardParams,
    RegressionBasis,
    localized_solve,
    terminal_h_of_xt,
)
from .driver import DriverField, mollify, shift_field
from .forward import SdeSpec, euler_maruyama, reflect_1d, step_normals
from .paths import TimeGrid

__all__ = [
    "PdeSpec",
    "PdeSolution",
    "CflError",
    "fd_dirichlet_solve",
    "young_pde_table",
    "feynman_kac_cross_check",
    "localization_error_experiment",
    "neumann_fk_estimate",
]


class CflError(RuntimeError):
    pass


@dataclass(frozen=True)
class PdeSpec:
    """Terminal/boundary problem on the box [-halfwidth, halfwidth]^d.

    sigma(x) and b(x) are time-independent; f(t, x, u, w) takes the
    sigma^T-gradient slot w; g(u) returns one column per driver channel.
    The driver must expose a time derivative (mollified or analytic-smooth).
    """

    halfwidth: float
    dim: int
    horizon: float
    terminal: callable  # h(x (k, d)) -> (k,)
    sigma: object  # scalar, matrix, or callable x -> (k, d, d)
    drift: object  # scalar or callable x -> (k, d)
    generator: callable  # f(t, x (k,d), u (k,), w (k,d)) -> (k,)
    coupling: callable  # g(u (k,)) -> (k, M)
    fieldv: DriverField
    ellipticity: float = 1e-8
    name: str = "pde"

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError("dim must be 1 or 2")
        if not self.fieldv.has_time_derivative:
            raise ValueError("driver must be a mollified or analytic-smooth field")
        # ellipticity floor on sampled points
        probe = np.linspace(-self.halfwidth, self.halfwidth, 9)
        pts = (
            probe[:, None]
            if self.dim == 1
            else np.stack(np.meshgrid(probe, probe), axis=-1).reshape(-1, 2)
        )
        a = self.sigma_matrix(pts)
        dd = np.einsum("kab,kcb->kac", a, a)
        eig = np.linalg.eigvalsh(dd)
        if np.min(eig) < self.ellipticity - 1e-12:
            raise ValueError("sigma sigma^T falls below the ellipticity floor")

    def sigma_matrix(self, x: np.ndarray) -> np.ndarray:
        k, d = x.shape
        if callable(self.sigma):
            return np.asarray(self.sigma(x), dtype=float).reshape(k, d, d)
        s = np.asarray(self.sigma, dtype=float)
        if s.ndim == 0:
            s = float(s) * np.eye(d)
        return np.broadcast_to(s, (k, d, d))

    def drift_vector(self, x: np.ndarray) -> np.ndarray:
        if callable(self.drift):
            return np.asarray(self.drift(x), dtype=float).reshape(x.shape)
        return np.broadcast_to(np.asarray(self.drift, dtype=float), x.shape)

    def content_hash(self) -> str:
        parts = [
            self.name,
            repr(self.halfwidth),
            repr(self.dim),
            repr(self.horizon),
            getattr(self.terminal, "__name__", repr(self.terminal)),
            getattr(self.generator, "__name__", repr(self.generator)),
            getattr(self.coupling, "__name__", repr(self.coupling)),
            self.fieldv.kind,
            repr(getattr(self.fieldv, "m", None)),
        ]
        return hashlib.sha256("|".join(parts).encode()).hexdigest()[:16]


@dataclass
class PdeSolution:
    """Grid solution u(t_k, x): u has shape (nt+1, nx+1) or (nt+1, nx+1, ny+1)."""

    times: np.ndarray
    axes: list
    u: np.ndarray
    theta: float
    dt: float
    dx: float

    def value_at(self, t: float, x) -> float:
        interp = RegularGridInterpolator(
            (self.times, *self.axes), self.u, method="linear", bounds_error=True
        )
        pt = np.atleast_1d(np.asarray(x, dtype=float))
        return float(interp(np.concatenate([[t], pt]))[0])


def _operator_1d(spec: PdeSpec, xs: np.ndarray):
    """Sparse elliptic operator on interior nodes plus the boundary feed-in."""
    nx = xs.size - 1
    dx = xs[1] - xs[0]
    xi = xs[1:-1][:, None]
    a = 0.5 * np.einsum("kab,kcb->kac", spec.sigma_matrix(xi), spec.sigma_matrix(xi))[:, 0, 0]
    c = spec.drift_vector(xi)[:, 0]
    lower = a / dx**2 - c / (2 * dx)
    main = -2 * a / dx**2
    upper = a / dx**2 + c / (2 * dx)
    lmat = sp.diags([lower[1:], main, upper[:-1]], offsets=[-1, 0, 1], format="csc")
    feed = np.zeros(nx - 1)
    feed[0] = lower[0]
    feed_hi = np.zeros(nx - 1)
    feed_hi[-1] = upper[-1]
    return lmat, feed, feed_hi, a


def _operator_2d(spec: PdeSpec, xs: np.ndarray, ys: np.ndarray):
    nx, ny = xs.size - 1, ys.size - 1
    dx, dy = xs[1] - xs[0], ys[1] - ys[0]
    gx, gy = np.meshgrid(xs[1:-1], ys[1:-1], indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel()], axis=-1)
    sig = spec.sigma_matrix(pts)
    dd = np.einsum("kab,kcb->kac", sig, sig)
    b = spec.drift_vector(pts)
    m = (nx - 1) * (ny - 1)

    def idx(i, j):
        return i * (ny - 1) + j

    rows, cols, vals = [], [], []
    rhs_mask = []  # (row, x-index, y-index, coefficient) for boundary feed-in

    def add(r, i, j, v):
        if v == 0.0:
            return
        if 0 <= i < nx - 1 and 0 <= j < ny - 1:
            rows.append(r)
            cols.append(idx(i, j))
            vals.append(v)
        else:
            rhs_mask.append((r, i + 1, j + 1, v))

    for i in range(nx - 1):
        for j in range(ny - 1):
            r = idx(i, j)
            kk = r
            a11 = 0.5 * dd[kk, 0, 0]
            a22 = 0.5 * dd[kk, 1, 1]
            # full u_xy coefficient: (1/2)(D12 + D21) = D12 for symmetric D
            a12 = 0.5 * (dd[kk, 0, 1] + dd[kk, 1, 0])
            bx, by = b[kk]
            add(r, i, j, -2 * a11 / dx**2 - 2 * a22 / dy**2)
            add(r, i + 1, j, a11 / dx**2 + bx / (2 * dx))
            add(r, i - 1, j, a11 / dx**2 - bx / (2 * dx))
            add(r, i, j + 1, a22 / dy**2 + by / (2 * dy))
            add(r, i, j - 1, a22 / dy**2 - by / (2 * dy))
            cross = a12 / (4 * dx * dy)
            add(r, i + 1, j + 1, cross)
            add(r, i - 1, j - 1, cross)
            add(r, i + 1, j - 1, -cross)
            add(r, i - 1, j + 1, -cross)
    lmat = sp.csc_matrix((vals, (rows, cols)), shape=(m, m))
    return lmat, rhs_mask, dd


def fd_dirichlet_solve(
    spec: PdeSpec, time_steps: int, space_steps: int, theta: float = 0.5
) -> PdeSolution:
    """theta-scheme solve of the terminal/boundary problem.

    Boundary rows carry h(x) exactly at all times; the terminal row is
    h(x) exactly.  theta = 0 (fully explicit) is guarded by the CFL bound
    dt <= dx^2 / (2 max a).
    """
    n = spec.halfwidth
    d = spec.dim
    nt = time_steps
    dt = spec.horizon / nt
    times = np.linspace(0.0, spec.horizon, nt + 1)
    if d == 1:
        xs = np.linspace(-n, n, space_steps + 1)
        axes = [xs]
        lmat, feed_lo, feed_hi, a_diag = _operator_1d(spec, xs)
        dx = xs[1] - xs[0]
        if theta == 0.0:
            dt_max = dx**2 / (2 * np.max(a_diag))
            if dt > dt_max:
                raise CflError(f"CFL violation in fully explicit mode; need dt <= {dt_max:.3g}")
        h_vals = np.asarray(spec.terminal(xs[:, None]), dtype=float)
        u = np.empty((nt + 1, xs.size))
        u[-1] = h_vals
        eye = sp.identity(lmat.shape[0], format="csc")
        lhs = splu((eye - theta * dt * lmat).tocsc())
        rhs_op = eye + (1 - theta) * dt * lmat
        bfeed = dt * (feed_lo * h_vals[0] + feed_hi * h_vals[-1])
        grid_pts = xs[1:-1][:, None]

        def nonlinear(t, u_full):
            grad = (u_full[2:] - u_full[:-2]) / (2 * dx)
            sig = spec.sigma_matrix(grid_pts)
            w = np.einsum("kba,kb->ka", sig, grad[:, None])
            dt_eta = spec.fieldv.time_derivative(np.full(grid_pts.shape[0], t), grid_pts)
            return spec.generator(t, grid_pts, u_full[1:-1], w) + np.einsum(
                "km,km->k", spec.coupling(u_full[1:-1]), dt_eta
            )

        for k in range(nt - 1, -1, -1):
            base = rhs_op @ u[k + 1][1:-1] + bfeed
            n_hi = nonlinear(times[k + 1], u[k + 1])
            pred = lhs.solve(base + dt * n_hi)
            u_pred = np.concatenate([[h_vals[0]], pred, [h_vals[-1]]])
            n_lo = nonlinear(times[k], u_pred)
            interior = lhs.solve(base + dt * 0.5 * (n_hi + n_lo))
            u[k] = np.concatenate([[h_vals[0]], interior, [h_vals[-1]]])
        return PdeSolution(times=times, axes=axes, u=u, theta=theta, dt=dt, dx=dx)

    # d == 2
    xs = np.linspace(-n, n, space_steps + 1)
    ys = xs.copy()
    axes = [xs, ys]
    dx = xs[1] - xs[0]
    lmat, rhs_mask, dd = _operator_2d(spec, xs, ys)
    if theta == 0.0:
        dt_max = dx**2 / (2 * np.max(dd))
        if dt > dt_max:
            raise CflError(f"CFL violation in fully explicit mode; need dt <= {dt_max:.3g}")
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    full_pts = np.stack([gx.ravel(), gy.ravel()], axis=-1)
    h_vals = np.asarray(spec.terminal(full_pts), dtype=float).reshape(xs.size, ys.size)
    u = np.empty((nt + 1, xs.size, ys.size))
    u[-1] = h_vals
    eye = sp.identity(lmat.shape[0], format="csc")
    lhs = splu((eye - theta * dt * lmat).tocsc())
    rhs_op = eye + (1 - theta) * dt * lmat
    bvec = np.zeros(lmat.shape[0])
    for r, i, j, v in rhs_mask:
        bvec[r] += v * h_vals[i, j]
    bfeed = dt * bvec
    gxi, gyi = np.meshgrid(xs[1:-1], ys[1:-1], indexing="ij")
    grid_pts = np.stack([gxi.ravel(), gyi.ravel()], axis=-1)
    sig_int = spec.sigma_matrix(grid_pts)

    def nonlinear(t, u_full):
        gradx = (u_full[2:, 1:-1] - u_full[:-2, 1:-1]) / (2 * dx)
        grady = (u_full[1:-1, 2:] - u_full[1:-1, :-2]) / (2 * dx)
        grad = np.stack([gradx.ravel(), grady.ravel()], axis=-1)
        w = np.einsum("kba,kb->ka", sig_int, grad)
        uu = u_full[1:-1, 1:-1].ravel()
        dt_eta = spec.fieldv.time_derivative(np.full(grid_pts.shape[0], t), grid_pts)
        return spec.generator(t, grid_pts, uu, w) + np.einsum(
            "km,km->k", spec.coupling(uu), dt_eta
        )

    shape_int = (xs.size - 2, ys.size - 2)
    for k in range(nt - 1, -1, -1):
        base = rhs_op @ u[k + 1][1:-1, 1:-1].ravel() + bfeed
        n_hi = nonlinear(times[k + 1], u[k + 1])
        pred = lhs.solve(base + dt * n_hi).reshape(shape_int)
        u_pred = h_vals.copy()
        u_pred[1:-1, 1:-1] = pred
        n_lo = nonlinear(times[k], u_pred)
        interior = lhs.solve(base + dt * 0.5 * (n_hi + n_lo)).reshape(shape_int)
        u[k] = h_vals.copy()
        u[k][1:-1, 1:-1] = interior
    return PdeSolution(times=times, axes=axes, u=u, theta=theta, dt=dt, dx=dx)


def save_solution(solution: PdeSolution, prefix, spec: PdeSpec | None = None) -> None:
    """CSV export (t, x..., u) plus a JSON manifest with the grid metadata."""
    import csv as _csv
    import json as _json
    from pathlib import Path as _Path

    prefix = _Path(prefix)
    with open(prefix.with_suffix(".csv"), "w", newline="") as fh:
        writer = _csv.writer(fh, lineterminator="\r\n")
        dim = len(solution.axes)
        writer.writerow(["t"] + [f"x{j+1}" for j in range(dim)] + ["u"])
        if dim == 1:
            for i, t in enumerate(solution.times):
                for j, x in enumerate(solution.axes[0]):
                    writer.writerow([f"{t:.17g}", f"{x:.17g}", f"{solution.u[i, j]:.17g}"])
        else:
            for i, t in enumerate(solution.times):
                for j, x in enumerate(solution.axes[0]):
                    for k, y in enumerate(solution.axes[1]):
                        writer.writerow(
                            [f"{t:.17g}", f"{x:.17g}", f"{y:.17g}", f"{solution.u[i, j, k]:.17g}"]
                        )
    manifest = {
        "spec_hash": None if spec is None else spec.content_hash(),
        "theta": solution.theta,
        "dt": solution.dt,
        "dx": solution.dx,
        "times": [float(t) for t in solution.times[:: max(1, solution.times.size // 8)]],
    }
    prefix.with_suffix(".json").write_text(_json.dumps(manifest, indent=2))


@dataclass
class YoungPdeTable:
    n_list: list
    m_list: list
    points: list
    values: np.ndarray  # (len(n_list), len(m_list), len(points))
    cauchy_n: np.ndarray
    cauchy_m: np.ndarray
    converged: bool


def young_pde_table(
    spec_template: PdeSpec,
    base_field: DriverField,
    n_list,
    m_list,
    points,
    time_steps: int = 128,
    cells_per_unit: int = 24,
    threshold: float = 1e-2,
) -> YoungPdeTable:
    """u^{n,m} at fixed evaluation points over growing boxes and finer
    mollifications, with Cauchy differences along both indices."""
    vals = np.empty((len(n_list), len(m_list), len(points)))
    for i, n in enumerate(n_list):
        for j, m in enumerate(m_list):
            spec = replace(spec_template, halfwidth=float(n), fieldv=mollify(base_field, m))
            sol = fd_dirichlet_solve(spec, time_steps, int(2 * n * cells_per_unit))
            for q, (t, x) in enumerate(points):
                vals[i, j, q] = sol.value_at(t, x)
    cauchy_n = np.max(np.abs(np.diff(vals[:, -1, :], axis=0)), axis=1) if len(n_list) > 1 else np.array([])
    cauchy_m = np.max(np.abs(np.diff(vals[-1, :, :], axis=0)), axis=1) if len(m_list) > 1 else np.array([])
    conv = bool(
        (cauchy_n.size == 0 or cauchy_n[-1] < threshold)
        and (cauchy_m.size == 0 or cauchy_m[-1] < threshold)
    )
    return YoungPdeTable(
        n_list=list(n_list), m_list=list(m_list), points=list(points),
        values=vals, cauchy_n=cauchy_n, cauchy_m=cauchy_m, converged=conv,
    )


def feynman_kac_cross_check(
    spec: PdeSpec,
    points,
    n_paths: int = 20_000,
    seed: int = 0,
    time_steps: int = 128,
    space_steps: int = 256,
    mc_time_steps: int = 128,
    basis: RegressionBasis | None = None,
    picard: PicardParams | None = None,
    bound: float = 8.0,
    mc_values=None,
):
    """|u_FD - u_MC| at interior points with tolerance fd_error + 3 MC SE.

    The MC side solves the stopped BSDE from each point with exit at the
    box boundary, sharing (h, f, g, sigma, b, eta) with the FD side; a
    precomputed MC table is accepted only with a matching spec hash.
    """
    if mc_values is not None and mc_values.get("spec_hash") != spec.content_hash():
        raise ValueError("mismatched spec hash")
    sol = fd_dirichlet_solve(spec, time_steps, space_steps)
    sol_half = fd_dirichlet_solve(spec, 2 * time_steps, 2 * space_steps)
    report = []
    for q, (t0, x0) in enumerate(points):
        u_fd = sol.value_at(t0, x0)
        fd_err = abs(u_fd - sol_half.value_at(t0, x0))
        if mc_values is not None:
            u_mc, se = mc_values["values"][q], mc_values["se"][q]
        else:
            u_mc, se = _mc_point(spec, t0, x0, n_paths, seed + q, mc_time_steps, basis, picard, bound)
        tol = fd_err + 3.0 * se
        report.append(
            {
                "t": float(t0),
                "x": float(np.atleast_1d(x0)[0]) if spec.dim == 1 else list(np.atleast_1d(x0)),
                "u_fd": u_fd,
                "u_mc": u_mc,
                "se": se,
                "fd_err_est": fd_err,
                "abs_diff": abs(u_fd - u_mc),
                "tol": tol,
                "pass": abs(u_fd - u_mc) <= tol,
            }
        )
    return report


def _mc_point(spec, t0, x0, n_paths, seed, mc_time_steps, basis, picard, bound):
    horizon = spec.horizon - t0
    grid = TimeGrid.uniform(horizon, mc_time_steps)
    fwd = SdeSpec(
        drift=lambda t, x: spec.drift_vector(x),
        diffusion=lambda t, x: spec.sigma_matrix(x),
        x0=np.atleast_1d(x0),
        bound=bound,
        name=spec.name + "-forward",
    )
    ens = euler_maruyama(fwd, grid, n_paths, seed)
    fieldv = shift_field(spec.fieldv, t0)

    def gen(t, x, y, z):
        return spec.generator(t0 + t, x, y[:, 0], z[:, 0, :])[:, None]

    def coup(y):
        return spec.coupling(y[:, 0])[:, None, :]

    bspec = BsdeSpec(
        forward=fwd,
        fieldv=fieldv,
        generator=gen,
        coupling=coup,
        terminal=terminal_h_of_xt(lambda x: spec.terminal(x)),
        n_dim=1,
        name=spec.name + "-mc",
    )
    bsol = localized_solve(bspec, ens, spec.halfwidth, basis=basis, picard=picard)
    return float(bsol.y0[0]), float(bsol.y0_se[0])


def localization_error_experiment(
    spec_template: PdeSpec,
    n_list,
    points,
    n_max: float,
    time_steps: int = 96,
    cells_per_unit: int = 16,
):
    """|u^n - u^{n_max}| at fixed points over growing boxes, with the decay
    fit of log-difference against n^2."""
    sols = {}
    for n in list(n_list) + [n_max]:
        spec = replace(spec_template, halfwidth=float(n))
        sols[n] = fd_dirichlet_solve(spec, time_steps, int(2 * n * cells_per_unit))
    rows = []
    for n in n_list:
        diffs = [abs(sols[n].value_at(t, x) - sols[n_max].value_at(t, x)) for t, x in points]
        rows.append({"n": float(n), "max_diff": float(np.max(diffs))})
    # least-squares line through (n^2, log diff)
    u = np.array([r["n"] for r in rows]) ** 2
    v = np.log([max(r["max_diff"], 1e-300) for r in rows])
    u, v = u - u.mean(), v - v.mean()
    suv, suu, svv = u @ v, u @ u, v @ v
    r_squared = suv**2 / (suu * svv) if svv > 0 else 0.0
    return {"rows": rows, "slope": float(suv / suu), "r_squared": float(r_squared)}


def neumann_fk_estimate(
    h,
    fieldv: DriverField,
    interval: tuple[float, float],
    start: tuple[float, float],
    n_paths: int = 20_000,
    seed: int = 0,
    n_steps: int = 256,
):
    """Estimate E[h(X_T) exp(int_t^T B(dr, X_r))] for X reflected in [a, b].

    Reflected paths come from the discrete Skorohod map; the Young integral
    along each path uses the left-point germ at the simulation resolution.
    The driver should sit in the H0 + H/2 > 1 regularity window (warned
    otherwise for sheet realizations).  Returns (estimate, standard error).
    """
    hurst = getattr(fieldv, "hurst", None)
    if hurst is not None and hurst.h0 + hurst.h / 2 <= 1:
        import warnings

        warnings.warn("driver outside the declared window H0 + H/2 > 1", stacklevel=2)
    a, b = interval
    t0, x0 = start
    horizon = fieldv.horizon - t0
    if horizon <= 0:
        raise ValueError("start time beyond the driver horizon")
    dt = horizon / n_steps
    inc = np.empty((n_paths, n_steps))
    for j in range(n_steps):
        inc[:, j] = step_normals(seed, j, n_paths, 1)[:, 0] * np.sqrt(dt)
    x, _ = reflect_1d(inc, (a, b), x0)
    shifted = shift_field(fieldv, t0)
    times = np.linspace(0.0, horizon, n_steps + 1)
    integral = np.zeros(n_paths)
    for j in range(n_steps):
        integral += shifted.increment(times[j], times[j + 1], x[:, j][:, None])[:, 0]
    vals = np.asarray(h(x[:, -1]), dtype=float) * np.exp(integral)
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(n_paths))
