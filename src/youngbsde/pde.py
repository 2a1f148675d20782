"""Finite-difference solution of the mollified Dirichlet problem and the
experiments built on it: the (domain, mollification) double-limit table,
Monte Carlo cross-validation through the backward solver, the localization
error sweep on growing boxes, and the 1-D Neumann functional estimate.

The stepping is a backward-in-time Crank-Nicolson scheme for the
constant-coefficient elliptic part, with the nonlinear terms
f(t, x, u, sigma grad u) + g(u) dt_eta treated explicitly
through one fixed-point sweep per step.  Every axis has the same step, so
one 1-D triple of central-difference coefficients gives both halves of a
step: the explicit operator, applied axis by axis, and the implicit matrix,
the Kronecker sum over the axes of the tridiagonal factor with that triple,
solved by a dense inverse of that factor in 1-D, a sine-transform
diagonalisation in 2-D without drift and a SuperLU factorisation in 2-D with
drift.  The FD experiments read each solve at their points and drop it
before the next, so one solution is held at a time.
"""

from __future__ import annotations

import warnings
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .bsde import (
    BsdeSpec,
    PicardParams,
    RegressionBasis,
    _per_path,
    localized_solve,
    terminal_h_of_xt,
)
from .driver import DriverField, MollifiedField
from .forward import SdeSpec, StepNormals, euler_maruyama, reflect_1d
from .paths import NumericalError, TimeGrid, blend, locate

__all__ = [
    "PdeSpec",
    "PdeSolution",
    "fd_dirichlet_solve",
    "YoungPdeTable",
    "young_pde_table",
    "feynman_kac_cross_check",
    "localization_error_experiment",
    "neumann_fk_estimate",
]

# sigma^2 must be at least this large
ELLIPTICITY_FLOOR = 1e-8
# the largest 1-norm condition number of the 1-D implicit matrix I - dt/2 L
# that fd_dirichlet_solve inverts: configs/cross_check.json gives 7 and 23,
# a 4096-cell grid with one long time step 8e6, and only a drift far above
# sigma^2 / h goes past it
MAX_IMPLICIT_CONDITION = 1e8


@dataclass(frozen=True)
class PdeSpec:
    """Terminal/boundary problem on the box [-halfwidth, halfwidth]^d.

    The diffusion is sigma I and the drift b (1, ..., 1), both constant;
    f(t, x, u, w) takes the gradient slot w = sigma grad u; g(u) multiplies
    the driver's time derivative.  The driver must expose a time derivative
    (mollified or analytic-smooth).
    """

    halfwidth: float
    dim: int
    horizon: float
    terminal: callable  # h(x (k, d)) -> (k,)
    sigma: float
    drift: float
    generator: callable  # f(t, x (k,d), u (k,), w (k,d)) -> (k,)
    coupling: callable  # g(u (k,)) -> (k,)
    fieldv: DriverField

    def __post_init__(self):
        for name in ("sigma", "drift"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if self.dim not in (1, 2):
            raise ValueError("dim must be 1 or 2")
        if not self.fieldv.has_time_derivative:
            raise ValueError("driver must be a mollified or analytic-smooth field")
        if self.sigma**2 < ELLIPTICITY_FLOOR:
            raise ValueError("sigma^2 falls below the ellipticity floor")


@dataclass
class PdeSolution:
    """Grid solution u(t_k, x): u has shape (nt+1, nx+1) or (nt+1, nx+1, ny+1)."""

    times: np.ndarray
    axes: list
    u: np.ndarray

    def value_at(self, t: float, x) -> float:
        """Multilinear interpolation of u at (t, x); ValueError off the grid."""
        grids = (self.times, *self.axes)
        pt = np.concatenate([[t], np.atleast_1d(np.asarray(x, dtype=float))])
        if pt.size != len(grids):
            raise ValueError(f"expected t and {len(grids) - 1} space coordinates, got {pt}")
        if not all(g[0] <= c <= g[-1] for g, c in zip(grids, pt)):
            raise ValueError(f"point {pt} outside the solution grid")
        return float(blend(self.u, [locate(g, pt[i : i + 1]) for i, g in enumerate(grids)])[0])


def _nodes(axes) -> np.ndarray:
    """The nodes of the tensor grid over `axes`, (k, d), in C order."""
    return np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)


def _coefficients(spec: PdeSpec, h: float):
    """The central differences of one axis with step h: the coefficients
    (lo, di, up) of u at -e_j, the centre and +e_j in that axis's share
    1/2 sigma^2 d_jj u + b d_j u of the elliptic operator, and grad, the
    coefficient of u(+e_j) - u(-e_j) in sigma d_j u.  Every axis has the
    same step and the same drift b, so one triple serves them all."""
    dd = spec.sigma * spec.sigma
    side, skew = 0.5 * dd / h**2, spec.drift / (2 * h)
    return side - skew, -dd / h**2, side + skew, spec.sigma / (2 * h)


def _shifted(u: np.ndarray, j: int, s: int) -> np.ndarray:
    """u(p + s e_j) at every interior node p of the grid values u."""
    return u[tuple(slice(1 + s * (a == j), n - 1 + s * (a == j)) for a, n in enumerate(u.shape))]


def _apply(centre: float, lo: float, up: float, u: np.ndarray) -> np.ndarray:
    """centre u(p) + sum_j (up u(p + e_j) + lo u(p - e_j)) at every interior
    node p, axis by axis."""
    out = centre * _shifted(u, 0, 0)
    for j in range(u.ndim):
        out += up * _shifted(u, j, 1)
        out += lo * _shifted(u, j, -1)
    return out


def _sine_solver(diag: float, off: float, m: int):
    """v -> M^{-1} v for M = I - H1 (x) I - I (x) H1 on m x m interior nodes,
    H1 the symmetric m x m tridiagonal Toeplitz matrix of diagonal `diag` and
    off-diagonal `off` (the fast diagonalisation of Lynch, Rice and Thomas,
    1964).  The orthonormal, symmetric DST-I matrix S diagonalises H1, with
    eigenvalues lam_k = diag + 2 off cos(k pi / (m + 1)), so M^{-1} R =
    S ((S R S) / (1 - lam_i - lam_j)) S for the values R on the m x m grid.
    Every lam_k is <= 0, so every denominator is at least 1.  Dense matmuls
    beat an FFT-based DST at these sizes.
    """
    k = np.arange(1, m + 1)
    sine = np.sqrt(2.0 / (m + 1)) * np.sin(np.pi * np.outer(k, k) / (m + 1))
    lam = diag + 2 * off * np.cos(np.pi * k / (m + 1))
    denom = 1.0 - lam[:, None] - lam[None, :]
    return lambda v: (sine @ ((sine @ v.reshape(m, m) @ sine) / denom) @ sine).ravel()


def _implicit_solver(half: tuple, shape: tuple):
    """v -> M^{-1} v for M = I - H on the interior nodes, raveled, where H =
    dt/2 L and `half` is dt/2 times one axis's (lo, di, up).

    H is the Kronecker sum over the axes of one tridiagonal Toeplitz matrix
    H1 on an axis's m interior nodes, with subdiagonal lo, diagonal di and
    superdiagonal up; couplings to boundary nodes enter the right-hand side.
    In 2-D a symmetric H1 (zero drift) goes to _sine_solver.  In 1-D the dense
    I - H1 is inverted once, after its 1-norm condition number is checked
    against MAX_IMPLICIT_CONDITION.  In 2-D with drift SuperLU factors the
    sparse I - kronsum(H1, H1), ordered by minimum degree on A^T + A, which
    suits its symmetric sparsity pattern.
    """
    dim, m = len(shape), shape[0] - 2
    lower, diag, upper = half
    if dim == 2 and lower == upper:
        return _sine_solver(diag, upper, m)
    if dim == 1:
        i = np.arange(m)
        mat = np.zeros((m, m))
        mat[i, i] = 1.0 - diag
        mat[i[:-1], i[1:]] = -upper
        mat[i[1:], i[:-1]] = -lower
        inverse = np.linalg.inv(mat)
        cond = np.linalg.norm(mat, 1) * np.linalg.norm(inverse, 1)
        if not cond <= MAX_IMPLICIT_CONDITION:
            raise NumericalError(
                f"implicit finite-difference matrix has 1-norm condition number {cond:.3g}, "
                f"above {MAX_IMPLICIT_CONDITION:.3g}"
            )
        return lambda v: inverse @ v
    # scipy.sparse and its SuperLU take about 0.3 s to import: only 2-D solves
    # with drift pay it
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu

    h1 = sp.diags([lower, diag, upper], [-1, 0, 1], shape=(m, m))
    mat = sp.identity(m * m, format="csc") - sp.kronsum(h1, h1, format="csc")
    return splu(mat, permc_spec="MMD_AT_PLUS_A").solve


def fd_dirichlet_solve(spec: PdeSpec, time_steps: int, space_steps: int) -> PdeSolution:
    """Crank-Nicolson solve of the terminal/boundary problem on the tensor
    grid with `space_steps` cells per axis.

    Boundary nodes carry h(x) exactly at all times; the terminal slice is
    h(x) exactly.  The explicit half of each step and the sigma grad u of
    the nonlinear terms are applied axis by axis; the implicit matrix
    is inverted (1-D), diagonalised (2-D, no drift) or factored (2-D with
    drift) once.
    """
    nt = time_steps
    dt = spec.horizon / nt
    times = np.linspace(0.0, spec.horizon, nt + 1)
    axes = [np.linspace(-spec.halfwidth, spec.halfwidth, space_steps + 1)] * spec.dim
    shape = tuple(ax.size for ax in axes)
    inner = (slice(1, -1),) * spec.dim

    *lop, grad = _coefficients(spec, axes[0][1] - axes[0][0])
    lo, di, up = half = tuple(0.5 * dt * c for c in lop)
    centre = spec.dim * di  # dt/2 L at the centre: every axis's di
    solve = _implicit_solver(half, shape)
    h_vals = np.asarray(spec.terminal(_nodes(axes)), dtype=float).reshape(shape)
    h_edge = h_vals.copy()
    h_edge[inner] = 0.0
    # the boundary values' share of the implicit half step, fixed in time
    bfeed = _apply(centre, lo, up, h_edge)
    grid_pts = _nodes([ax[1:-1] for ax in axes])

    def nonlinear(t, u_full, dt_eta):
        w = np.stack([grad * _shifted(u_full, j, 1) - grad * _shifted(u_full, j, -1)
                      for j in range(spec.dim)]).reshape(spec.dim, -1).T
        uu = u_full[inner].ravel()
        return spec.generator(t, grid_pts, uu, w) + spec.coupling(uu) * dt_eta

    shape_int = tuple(n - 2 for n in shape)
    u = np.empty((nt + 1, *shape))
    u[-1] = h_vals
    # each level's driver derivative serves two steps: corrector, then predictor
    dt_eta = spec.fieldv.time_derivative(times[-1], grid_pts)
    for k in range(nt - 1, -1, -1):
        base = (_apply(1.0 + centre, lo, up, u[k + 1]) + bfeed).ravel()  # I + dt/2 L
        n_hi = nonlinear(times[k + 1], u[k + 1], dt_eta)
        # predictor in u[k], then the corrector over it
        u[k] = h_vals
        u[k][inner] = solve(base + dt * n_hi).reshape(shape_int)
        dt_eta = spec.fieldv.time_derivative(times[k], grid_pts)
        n_lo = nonlinear(times[k], u[k], dt_eta)
        u[k][inner] = solve(base + dt * 0.5 * (n_hi + n_lo)).reshape(shape_int)
    return PdeSolution(times=times, axes=axes, u=u)


def _values_at(spec: PdeSpec, time_steps: int, space_steps: int, points) -> np.ndarray:
    """u at each (t, x) of `points` from one fd_dirichlet_solve; the solution
    is dropped on return, so the experiments hold one grid at a time."""
    sol = fd_dirichlet_solve(spec, time_steps, space_steps)
    return np.array([sol.value_at(t, x) for t, x in points])


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
    spec_at: Callable[[float, DriverField], PdeSpec],
    base_field: DriverField,
    n_list,
    m_list,
    points,
    *,
    time_steps: int,
    cells_per_unit: int,
    threshold: float = 1e-2,
) -> YoungPdeTable:
    """u^{n,m} at fixed evaluation points over growing boxes and finer
    mollifications, with Cauchy differences along both indices.
    spec_at(halfwidth, fieldv) gives the problem on the box of half-width n
    driven by base_field mollified at scale 1/m."""
    vals = np.empty((len(n_list), len(m_list), len(points)))
    for i, n in enumerate(n_list):
        for j, m in enumerate(m_list):
            spec = spec_at(float(n), MollifiedField(base_field, m))
            vals[i, j] = _values_at(spec, time_steps, int(2 * n * cells_per_unit), points)
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
    *,
    n_paths: int,
    seed: int,
    time_steps: int,
    space_steps: int,
    mc_time_steps: int,
    basis: RegressionBasis | None = None,
    picard: PicardParams | None = None,
):
    """|u_FD - u_MC| at interior points with tolerance fd_error + 3 MC SE.

    The MC side solves the stopped BSDE from each point (t, x) on a grid
    over [t, T] of its own, with exit at the box boundary, sharing
    (h, f, g, sigma, b, eta) with the FD side.  Each row's "x" is the
    point's list of coordinates.
    """
    coarse = _values_at(spec, time_steps, space_steps, points).tolist()
    fine = _values_at(spec, 2 * time_steps, 2 * space_steps, points).tolist()
    report = []
    for q, ((t0, x0), u_fd, u_half) in enumerate(zip(points, coarse, fine)):
        fd_err = abs(u_fd - u_half)
        u_mc, se = _mc_point(spec, t0, x0, n_paths, seed + q, mc_time_steps, basis, picard)
        tol = fd_err + 3.0 * se
        report.append(
            {
                "t": float(t0),
                "x": np.atleast_1d(np.asarray(x0, dtype=float)).tolist(),
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


def _mc_point(spec, t0, x0, n_paths, seed, mc_time_steps, basis, picard):
    grid = TimeGrid(t0 + np.linspace(0.0, spec.horizon - t0, mc_time_steps + 1))
    fwd = SdeSpec(drift=spec.drift, diffusion=spec.sigma, x0=np.atleast_1d(x0))
    ens = euler_maruyama(fwd, grid, n_paths, seed)
    bspec = BsdeSpec(
        forward=fwd,
        fieldv=spec.fieldv,
        generator=spec.generator,
        coupling=spec.coupling,
        terminal=terminal_h_of_xt(spec.terminal),
    )
    bsol = localized_solve(bspec, ens, spec.halfwidth, basis=basis, picard=picard)
    return bsol.y0, bsol.y0_se


def localization_error_experiment(
    spec_at: Callable[[float], PdeSpec],
    n_list,
    points,
    n_max: float,
    *,
    time_steps: int,
    cells_per_unit: int,
):
    """|u^n - u^{n_max}| at fixed points over growing boxes, with the decay
    fit of log-difference against n^2.  spec_at(halfwidth) gives the problem
    on the box of half-width n."""
    *vals, ref = (
        _values_at(spec_at(float(n)), time_steps,
                   int(2 * n * cells_per_unit), points)
        for n in [*n_list, n_max]
    )
    rows = [{"n": float(n), "max_diff": float(np.max(np.abs(v - ref)))}
            for n, v in zip(n_list, vals)]
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
    *,
    n_paths: int,
    seed: int,
    n_steps: int,
):
    """Estimate E[h(X_T) exp(int_t^T B(dr, X_r))] for X reflected in [a, b]
    and started from start = (t, x), with T the driver's horizon; h maps
    X_T (k, 1) -> (k,).

    Reflected paths come from the discrete Skorohod map; the Young integral
    along each path uses the left-point germ on the n_steps-cell uniform
    grid over [t, T].
    The driver should sit in the H0 + H/2 > 1 regularity window (warned
    otherwise for sheet realizations, also under a mollifier, whose Hurst
    indices are read through its base).  Returns (estimate, standard error).
    """
    sheet = fieldv
    while not hasattr(sheet, "hurst") and hasattr(sheet, "base"):
        sheet = sheet.base
    hurst = getattr(sheet, "hurst", None)
    if hurst is not None and hurst.h0 + hurst.h / 2 <= 1:
        warnings.warn("driver outside the declared window H0 + H/2 > 1", stacklevel=2)
    a, b = interval
    t0, x0 = start
    horizon = fieldv.horizon - t0
    if horizon <= 0:
        raise ValueError("start time beyond the driver horizon")
    dt = horizon / n_steps
    inc = np.empty((n_steps, n_paths))  # time-major
    normals = StepNormals(seed)
    for j in range(n_steps):
        inc[j] = normals(j, n_paths, 1)[:, 0] * np.sqrt(dt)
    x = reflect_1d(inc.T, (a, b), x0)[0].T  # time-major
    times = np.linspace(0.0, horizon, n_steps + 1) + t0
    integral = np.zeros(n_paths)
    for j in range(n_steps):
        integral += fieldv.increment(times[j], times[j + 1], x[j][:, None])
    h_vals = _per_path("h", np.asarray(h(x[-1][:, None]), dtype=float), integral)
    vals = h_vals * np.exp(integral)
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(n_paths))
