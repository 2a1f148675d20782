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
drift.  The steps are one generator of time levels, from the terminal slice
back to t = 0; the FD experiments read their points from each pair of
levels as it is stepped, so two levels are held at a time, and only
fd_dirichlet_solve keeps them all.  sigma grad u is built only for a
generator that reads it: one marked reads_z = False gets w = None.
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
    f(t, x, u, w) takes the gradient slot w = sigma grad u (None for an f
    whose attribute reads_z is False, as bsde.zero_generator and the CLI's
    generators are marked); g(u) multiplies
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
        return float(blend(self.u, _cells((self.times, *self.axes), t, x))[0])


def _cells(grids, t: float, x) -> list:
    """locate's cell of (t, x) on each of `grids`, the times and then the
    space axes; ValueError off the grid."""
    pt = np.concatenate([[t], np.atleast_1d(np.asarray(x, dtype=float))])
    if pt.size != len(grids):
        raise ValueError(f"expected t and {len(grids) - 1} space coordinates, got {pt}")
    if not all(g[0] <= c <= g[-1] for g, c in zip(grids, pt)):
        raise ValueError(f"point {pt} outside the solution grid")
    return [locate(g, pt[i : i + 1]) for i, g in enumerate(grids)]


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


def _grid(spec: PdeSpec, time_steps: int, space_steps: int):
    """The solution grid: time_steps + 1 times on [0, horizon] and
    space_steps + 1 nodes on each axis of the box."""
    times = np.linspace(0.0, spec.horizon, time_steps + 1)
    axes = [np.linspace(-spec.halfwidth, spec.halfwidth, space_steps + 1)] * spec.dim
    return times, axes


def _levels(spec: PdeSpec, time_steps: int, space_steps: int):
    """Crank-Nicolson steps of the terminal/boundary problem on _grid's
    tensor grid, yielding (k, u_k) for k = nt, ..., 0, u_k the level at
    _grid's times[k]: the terminal slice first, then each level as it is
    stepped.  Each level is a new array that is never written once yielded,
    and a step reads only the level after it, so the scheme holds two levels
    at a time.

    Boundary nodes carry h(x) exactly at all times; the terminal slice is
    h(x) exactly.  The explicit half of each step and the sigma grad u of
    the nonlinear terms are applied axis by axis; the implicit matrix
    is inverted (1-D), diagonalised (2-D, no drift) or factored (2-D with
    drift) once.  A generator marked reads_z = False gets w = None in place
    of sigma grad u, which is then never built.
    """
    nt = time_steps
    dt = spec.horizon / nt
    times, axes = _grid(spec, time_steps, space_steps)
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
    reads_w = getattr(spec.generator, "reads_z", True)

    def nonlinear(t, u_full, dt_eta):
        w = None
        if reads_w:
            w = np.stack([grad * _shifted(u_full, j, 1) - grad * _shifted(u_full, j, -1)
                          for j in range(spec.dim)]).reshape(spec.dim, -1).T
        uu = u_full[inner].ravel()
        return spec.generator(t, grid_pts, uu, w) + spec.coupling(uu) * dt_eta

    shape_int = tuple(n - 2 for n in shape)
    later = h_vals
    yield nt, later
    # each level's driver derivative serves two steps: corrector, then predictor
    dt_eta = spec.fieldv.time_derivative(times[-1], grid_pts)
    for k in range(nt - 1, -1, -1):
        base = (_apply(1.0 + centre, lo, up, later) + bfeed).ravel()  # I + dt/2 L
        n_hi = nonlinear(times[k + 1], later, dt_eta)
        # predictor in u, then the corrector over it
        u = h_vals.copy()
        u[inner] = solve(base + dt * n_hi).reshape(shape_int)
        dt_eta = spec.fieldv.time_derivative(times[k], grid_pts)
        n_lo = nonlinear(times[k], u, dt_eta)
        u[inner] = solve(base + dt * 0.5 * (n_hi + n_lo)).reshape(shape_int)
        yield k, u
        later = u


def fd_dirichlet_solve(spec: PdeSpec, time_steps: int, space_steps: int) -> PdeSolution:
    """Crank-Nicolson solve of the terminal/boundary problem on the tensor
    grid with `space_steps` cells per axis, every level kept: _levels's
    steps stacked into one (nt+1, ...) array.  The experiments read their
    points from _levels directly (_values_at) and never hold this array.
    """
    times, axes = _grid(spec, time_steps, space_steps)
    u = np.empty((time_steps + 1, *(ax.size for ax in axes)))
    for k, level in _levels(spec, time_steps, space_steps):
        u[k] = level
    return PdeSolution(times=times, axes=axes, u=u)


def _values_at(spec: PdeSpec, time_steps: int, space_steps: int, points) -> np.ndarray:
    """u at each (t, x) of `points`, read from _levels as it steps.  Each
    point is blended in the pair of levels of the time cell that locate finds
    on the full time grid, so every value is bitwise that of
    fd_dirichlet_solve(...).value_at, while two levels are held at a time.
    Every point is checked against the grid before the first step."""
    times, axes = _grid(spec, time_steps, space_steps)
    cells = [_cells((times, *axes), t, x) for t, x in points]
    out = np.empty(len(cells))
    later = None
    for k, level in _levels(spec, time_steps, space_steps):
        # the points whose time cell is [t_k, t_k+1]
        at = [q for q, (time_cell, *_) in enumerate(cells) if time_cell[0][0] == k]
        if at:
            pair = np.stack((level, later))
            for q in at:
                (lo, frac), *space = cells[q]
                out[q] = blend(pair, [(lo - k, frac), *space])[0]
        later = level
    return out


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
