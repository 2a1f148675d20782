"""Least-squares Monte Carlo solver for BSDEs with a Young-type driver.

Backward induction over the grid with one global polynomial regression per
time step standing in for the conditional expectation (Longstaff-Schwartz
style).  At step i the per-path target is

    T_i = Y_{i+1} + f(t_i, X_i, Y, Z_i) dt + g(Y_{i+1}) (eta(t_{i+1}, X_i) - eta(t_i, X_i)),

for the scalar unknown Y, with Z_i from the martingale-increment regression
of Y_{i+1} dW / dt, and an inner Picard loop updating only the Y argument of
f.  If the loop fails to contract the step is halved once (Brownian-bridge
midpoint) and retried.  The full-horizon and the localized (stopped at exit)
solves share one backward loop over the paths still active at each step.

The scalar linear problem (g(y) = alpha y, f = 0) admits the flow closed
form Y_0 = E[G_T^0 xi] used as an oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .driver import DriverField
from .forward import PathEnsemble, SdeSpec, StepNormals, exit_indices
from .paths import NumericalError, p_variation_suffixes

__all__ = [
    "RegressionBasis",
    "PicardParams",
    "terminal_h_of_xt",
    "terminal_running_max",
    "BsdeSpec",
    "zero_generator",
    "zero_coupling",
    "BsdeSolution",
    "backward_solve",
    "linear_closed_form",
    "localized_solve",
    "localization_sweep",
    "comparison_experiment",
    "ComparisonReport",
    "diagnostics",
]


@dataclass(frozen=True)
class PicardParams:
    max_iter: int = 8
    tol: float = 1e-9


@dataclass(frozen=True)
class RegressionBasis:
    """Polynomial-in-state features up to total degree; always includes
    the constant."""

    degree: int = 3
    ridge: float = 1e-8

    def _exponents(self, d: int):
        return [e for e in itertools.product(range(self.degree + 1), repeat=d)
                if 1 <= sum(e) <= self.degree]

    def design(self, x: np.ndarray) -> np.ndarray:
        """The (k, f) design on the states x (k, d), column-major so that
        every feature is one contiguous column."""
        # each monomial is its parent (first non-zero exponent lowered by
        # one, listed earlier by _exponents) times one coordinate
        k, d = x.shape
        exponents = self._exponents(d)
        xt = np.ascontiguousarray(x.T)
        out = np.empty((1 + len(exponents), k)).T
        out[:, 0] = 1.0
        column = {(0,) * d: 0}
        for q, expo in enumerate(exponents, start=1):
            j = next(j for j, e in enumerate(expo) if e)
            parent = expo[:j] + (expo[j] - 1,) + expo[j + 1 :]
            np.multiply(out[:, column[parent]], xt[j], out=out[:, q])
            column[expo] = q
        return out


class _Fit:
    """Ridge fit with unpenalized intercept and per-batch standardization.

    The design is centred and scaled in place, a feature that is constant
    on the batch is dropped, and the Gram matrix is factored once by
    Cholesky, so every fit is a pair of triangular solves.  No explicit
    inverse is formed: on standard normal states the Gram condition number
    is about 1e6 at degree 11 and 1e9 at degree 15, and an inverse loses
    those digits.

    Keeping the intercept penalty-free makes the cross-path mean of the
    fitted values equal the target mean exactly (first normal equation).
    """

    def __init__(self, basis: RegressionBasis, x: np.ndarray):
        a = basis.design(x)
        feats = a[:, 1:]
        feats -= feats.mean(axis=0)
        std = np.sqrt(np.einsum("kf,kf->f", feats, feats) / a.shape[0])
        keep = std > 1e-12
        if not keep.all():
            a = a[:, np.concatenate([[True], keep])]
            feats, std = a[:, 1:], std[keep]
        feats /= std
        self._a = a
        pen = np.eye(a.shape[1]) * basis.ridge
        pen[0, 0] = 0.0
        try:
            self._chol = np.linalg.cholesky(a.T @ a + pen)
        except np.linalg.LinAlgError as exc:
            raise NumericalError("regression normal equations singular") from exc

    def fit(self, targets: np.ndarray) -> np.ndarray:
        """Fitted values of targets (k,) or (k, c), one fit per column."""
        # BLAS sums a strided vector in another order than a contiguous one
        targets = np.ascontiguousarray(targets)
        # G = L L^T: solve L v = A^T y, then L^T beta = v
        half = np.linalg.solve(self._chol, self._a.T @ targets)
        beta = np.linalg.solve(self._chol.T, half)
        if not np.all(np.isfinite(beta)):
            raise NumericalError("regression coefficients not finite")
        return self._a @ beta


def terminal_h_of_xt(h):
    """Xi_t = h(X_t); h maps (k, d) -> (k,), and another shape is a ValueError."""

    def xi(ensemble, idx):
        out = np.asarray(h(ensemble.x[np.arange(ensemble.n_paths), idx]), dtype=float)
        return _per_path("terminal", out, idx)

    return xi


def terminal_running_max():
    """Xi_t = max_{s <= t} X^0_s, the running maximum of the first coordinate."""

    def xi(ensemble, idx):
        # one contiguous maximum per step: maximum.accumulate would walk
        # each path across the time-major storage
        run = ensemble.x[:, :, 0].T.copy()
        for j in range(1, run.shape[0]):
            np.maximum(run[j - 1], run[j], out=run[j])
        return run[idx, np.arange(ensemble.n_paths)]

    return xi


def _terminal(xi, ensemble: PathEnsemble) -> np.ndarray:
    """xi = Xi_T, the terminal data at every path's last grid index."""
    return xi(ensemble, np.full(ensemble.n_paths, ensemble.grid.n - 1))


@dataclass
class BsdeSpec:
    """Problem data: forward SDE, driver field, generator f, coupling g and
    terminal functional."""

    forward: SdeSpec
    fieldv: DriverField
    generator: callable  # f(t, x (k,d), y (k,), z (k,d)) -> (k,)
    coupling: callable  # g(y (k,)) -> (k,)
    terminal: callable  # Xi(ensemble, idx (k,)) -> (k,), Xi at a per-path grid index


def zero_generator(t, x, y, z):
    return np.zeros_like(y)


# it never reads z, so the PDE passes None there and builds no sigma grad u
zero_generator.reads_z = False


def zero_coupling(y):
    return np.zeros_like(y)


@dataclass
class BsdeSolution:
    """Backward-induction output: y (k, n), z (k, n-1, d).

    Time-major storage, path-major views: the solver fills (n, k) and
    (n-1, k, d) arrays and y, z are their np.moveaxis views, so the
    per-step slices y[:, i] and z[:, i] are C-contiguous.
    """

    grid_points: np.ndarray
    y: np.ndarray
    z: np.ndarray
    picard_residuals: list
    halvings: list
    # step index -> final Picard residual of a step accepted after running
    # out of iterations above tol, its trace still shrinking
    unconverged: dict = field(default_factory=dict)

    @property
    def y0(self) -> float:
        return float(self.y[:, 0].mean())

    @property
    def y0_se(self) -> float:
        # every regression preserves its target mean exactly, so mean(Y_0)
        # equals the mean of the per-path realized values
        # xi + sum_i (target_i - Y_{i+1}); their spread is the honest
        # standard error of the Y_0 estimate
        return float(self.realized.std(ddof=1) / np.sqrt(self.y.shape[0]))

    realized: np.ndarray = field(default=None, repr=False)


def _picard_sweep(fit: _Fit, make_target, y_start, picard: PicardParams):
    """Iterate y -> fit(make_target(y)).

    Returns (y, residuals, contracted, final_target, unconverged) where
    final_target is the target whose fit produced y, so the fitted mean
    equals its mean, and unconverged is the last residual of a run that
    ran out of iterations above tol but is accepted because its trace kept
    shrinking (None otherwise).
    """
    target = make_target(y_start)
    y_cur = fit.fit(target)
    residuals = []
    bad_run = 0
    for _ in range(picard.max_iter):
        target = make_target(y_cur)
        y_new = fit.fit(target)
        r = float(np.max(np.abs(y_new - y_cur)))
        residuals.append(r)
        y_cur = y_new
        if r < picard.tol:
            return y_cur, residuals, True, target, None
        if len(residuals) >= 2 and residuals[-1] >= residuals[-2] - 1e-16:
            bad_run += 1
            if bad_run >= 3:
                return y_cur, residuals, False, target, None
        else:
            bad_run = 0
    # ran out of iterations: accept if the trace kept shrinking, and say so
    ok = len(residuals) < 3 or residuals[-1] < residuals[0]
    last = residuals[-1] if residuals else float("nan")
    return y_cur, residuals, ok, target, last if ok else None


def _z_regression(fit: _Fit, y_next: np.ndarray, dw: np.ndarray, dt: float) -> np.ndarray:
    """Martingale-increment regression Z = E[(Y - E[Y|X]) dW^T | X] / dt.

    Centering Y by its own fit leaves the conditional expectation unchanged
    (dW is mean-zero given X) and removes the finite-sample noise entirely
    when Y is X-measurable; a constant Y gives Z = 0 exactly.
    """
    centered = y_next - fit.fit(y_next)
    return fit.fit(centered[:, None] * dw) / dt


def _per_path(name, out, y):
    # what the callable `name` returned, if it is one value per path like y
    if np.shape(out) != y.shape:
        raise ValueError(f"{name} must return shape {y.shape}, got shape {np.shape(out)}")
    return out


def _step(spec, basis, picard, t_i, t_next, x, dw, y_next):
    """One regression step on [t_i, t_next] for the paths at x with Brownian
    increments dw and values y_next at t_next.

    Returns (y, z, residuals, contracted, target, unconverged) as
    _picard_sweep does, with z from the martingale-increment regression.
    """
    dt = t_next - t_i
    fit = _Fit(basis, x)
    z = _z_regression(fit, y_next, dw, dt)
    g = _per_path("coupling", spec.coupling(y_next), y_next)
    young = g * spec.fieldv.increment(t_i, t_next, x)

    def make_target(y_for_f):
        f = _per_path("generator", spec.generator(t_i, x, y_for_f, z), y_next)
        return y_next + f * dt + young

    y, residuals, ok, target, unconverged = _picard_sweep(fit, make_target, y_next, picard)
    return y, z, residuals, ok, target, unconverged


def _halved_step(spec, ensemble, basis, picard, i, rows, y_next):
    """Retry step i for the paths in rows on a half mesh: insert a
    Brownian-bridge midpoint, solve [mid, t_{i+1}] then [t_i, mid]; raise
    NumericalError("no contraction") if either half still fails to contract,
    and _backward names the step.

    The bridge normals are drawn for every path and then restricted to rows,
    so a path gets the same midpoint whichever other paths are active.
    Returns (y, z, realized increment over y_next, the larger unconverged
    residual of the two halves or None).
    """
    t_i, t_next = ensemble.grid.points[i], ensemble.grid.points[i + 1]
    dt = t_next - t_i
    x, dw = ensemble.x[:, i][rows], ensemble.dw[:, i][rows]
    bridge = StepNormals(ensemble.seed)(2**32 + i, ensemble.n_paths, x.shape[1])[rows]
    dw1 = dw / 2 + np.sqrt(dt) / 2 * bridge
    x_mid = x + spec.forward.drift * dt / 2 + spec.forward.diffusion * dw1
    t_mid = t_i + dt / 2
    y_mid, _, _, ok, target_hi, open_hi = _step(
        spec, basis, picard, t_mid, t_next, x_mid, dw - dw1, y_next
    )
    if ok:
        y, z, _, ok, target_lo, open_lo = _step(spec, basis, picard, t_i, t_mid, x, dw1, y_mid)
    if not ok:
        raise NumericalError("no contraction")
    unconverged = max((r for r in (open_hi, open_lo) if r is not None), default=None)
    return y, z, (target_hi - y_next) + (target_lo - y_mid), unconverged


def _backward(spec, ensemble, k_exit, basis, picard) -> BsdeSolution:
    """Backward induction in which path p is active at the steps i < k_exit[p].

    From its exit index on a path stays frozen at the running terminal value
    Xi and has Z = 0; the regressions at step i use the active paths only.
    A step whose Picard loop fails to contract is halved once before giving
    up with "no contraction".  A NumericalError of a step, or a RuntimeWarning
    raised as an error, is raised again as one ending " at step i (t = t_i)".
    """
    basis = basis or RegressionBasis()
    picard = picard or PicardParams()
    grid = ensemble.grid
    k, n, d = ensemble.x.shape
    xi = spec.terminal(ensemble, k_exit)
    # time-major; frozen entries hold xi and the loop below fills every
    # active one
    y = np.where(np.arange(n)[:, None] >= k_exit, xi, 0.0)
    z = np.zeros((n - 1, k, d))

    residual_log = [None] * (n - 1)
    halvings = []
    unconverged = {}
    realized = xi.copy()
    for i in range(n - 2, -1, -1):
        active = k_exit > i
        if not active.any():
            continue
        rows = slice(None) if active.all() else active
        y_next = y[i + 1, rows]
        try:
            y_i, z_i, residuals, ok, target, open_r = _step(
                spec, basis, picard, grid.points[i], grid.points[i + 1],
                ensemble.x[:, i][rows], ensemble.dw[:, i][rows], y_next,
            )
            gain = target - y_next
            if not ok:
                y_i, z_i, gain, open_r = _halved_step(spec, ensemble, basis, picard, i, rows, y_next)
                halvings.append(i)
                residuals = residuals + ["halved"]
        except (NumericalError, RuntimeWarning) as exc:
            raise NumericalError(f"{exc} at step {i} (t = {grid.points[i]:.6g})") from exc
        if open_r is not None:
            unconverged[i] = open_r
        residual_log[i] = residuals
        realized[rows] += gain
        y[i, rows] = y_i
        z[i, rows] = z_i
    return BsdeSolution(
        grid_points=grid.points,
        y=y.T,
        z=np.moveaxis(z, 0, 1),
        picard_residuals=residual_log,
        halvings=halvings,
        unconverged=unconverged,
        realized=realized,
    )


def backward_solve(
    spec: BsdeSpec,
    ensemble: PathEnsemble,
    basis: RegressionBasis | None = None,
    picard: PicardParams | None = None,
) -> BsdeSolution:
    """Full-horizon backward induction; terminal values are set per path
    bit-exactly, and a failed Picard step triggers one local mesh halving
    before giving up with "no contraction"."""
    k_exit = np.full(ensemble.n_paths, ensemble.grid.n - 1)
    return _backward(spec, ensemble, k_exit, basis, picard)


def linear_closed_form(
    ensemble: PathEnsemble,
    fieldv: DriverField,
    terminal,
    alpha: float = 1.0,
) -> tuple[float, float]:
    """Monte Carlo evaluation of the flow representation of the scalar
    linear problem g(y) = alpha y, f = 0, with terminal data Xi.

    Per path: w = G_T^0 xi, with the flow G the left-point Euler product of
    1 + alpha d_eta.  Returns (Y_0, standard error): the sample mean of w
    and its standard error.
    """
    if np.ndim(alpha) != 0:
        raise ValueError("alpha must be a scalar")
    k, n, _ = ensemble.x.shape
    grid = ensemble.grid
    flow = np.ones(k)
    for j in range(n - 1):
        d_eta = fieldv.increment(grid.points[j], grid.points[j + 1], ensemble.x[:, j])
        flow = (1.0 + alpha * d_eta) * flow
    weights = flow * _terminal(terminal, ensemble)
    return float(weights.mean()), float(weights.std(ddof=1) / np.sqrt(k))


def localized_solve(
    spec: BsdeSpec,
    ensemble: PathEnsemble,
    radius: float,
    basis: RegressionBasis | None = None,
    picard: PicardParams | None = None,
) -> BsdeSolution:
    """Backward induction stopped at each path's first exit above |X| = radius.

    The terminal value on an exited path is the running functional Xi at its
    exit index; after the exit Y stays frozen and Z = 0.  Regressions at
    step i use the still-active paths only.
    """
    return _backward(spec, ensemble, exit_indices(ensemble, radius), basis, picard)


def localization_sweep(
    spec: BsdeSpec,
    ensemble: PathEnsemble,
    radii,
    basis: RegressionBasis | None = None,
    picard: PicardParams | None = None,
):
    """Solve the stopped problem for each radius; rows hold (radius, Y0, its
    standard error, |Y0 - previous Y0|, exit probability P{T_n < T}).  Only
    one radius's solution is alive at a time."""
    rows = []
    prev = None
    n_last = ensemble.grid.n - 1
    for r in radii:
        k_exit = exit_indices(ensemble, r)
        sol = _backward(spec, ensemble, k_exit, basis, picard)
        y0, y0_se = sol.y0, sol.y0_se
        del sol  # before the next radius's solve allocates its own
        diff = np.nan if prev is None else abs(y0 - prev)
        rows.append({"radius": float(r), "y0": y0, "y0_se": y0_se, "diff_prev": diff,
                     "p_exit": float(np.mean(k_exit < n_last))})
        prev = y0
    return rows


@dataclass
class ComparisonReport:
    fraction_ordered: float
    y0_gap: float
    y0_gap_se: float


def comparison_experiment(
    spec_a: BsdeSpec,
    spec_b: BsdeSpec,
    ensemble: PathEnsemble,
    basis: RegressionBasis | None = None,
    picard: PicardParams | None = None,
    eps_reg: float = 1e-2,
) -> ComparisonReport:
    """Solve two ordered problems (xi_a >= xi_b, f_a >= f_b, same g) on one
    ensemble and report how often the discrete solutions stay ordered."""
    xi_a = _terminal(spec_a.terminal, ensemble)
    xi_b = _terminal(spec_b.terminal, ensemble)
    if np.any(xi_a < xi_b - 1e-12):
        raise ValueError("inputs not ordered")
    k, n, d = ensemble.x.shape
    probe_y = np.zeros(k)
    probe_z = np.zeros((k, d))
    for j in range(0, n - 1, max(1, (n - 1) // 8)):
        fa = spec_a.generator(ensemble.grid.points[j], ensemble.x[:, j], probe_y, probe_z)
        fb = spec_b.generator(ensemble.grid.points[j], ensemble.x[:, j], probe_y, probe_z)
        if np.any(fa < fb - 1e-12):
            raise ValueError("inputs not ordered")
    sol_a = backward_solve(spec_a, ensemble, basis=basis, picard=picard)
    sol_b = backward_solve(spec_b, ensemble, basis=basis, picard=picard)
    ordered = sol_a.y >= sol_b.y - eps_reg
    gap_targets = sol_a.realized - sol_b.realized
    return ComparisonReport(
        fraction_ordered=float(np.mean(ordered)),
        y0_gap=sol_a.y0 - sol_b.y0,
        y0_gap_se=float(gap_targets.std(ddof=1) / np.sqrt(k)),
    )


# diagnostics reads the first this many paths of a solution
DIAG_MAX_PATHS = 4000


def diagnostics(
    solution: BsdeSolution,
    ensemble: PathEnsemble,
    p: float = 2.5,
    k_mom: float = 2.0,
    times=None,
    basis: RegressionBasis | None = None,
) -> dict:
    """Empirical surrogates for the solution seminorms.

    Conditional expectations are regression fits on basis(X_u), the outer
    essential sup a max over (path, u) of the fitted values; labeled
    estimates, not certified bounds.
    """
    basis = basis or RegressionBasis()
    pts = solution.grid_points
    n = pts.size
    if times is None:
        times = pts[:: max(1, (n - 1) // 4)][:4]
    sel = slice(0, min(solution.y.shape[0], DIAG_MAX_PATHS))
    y = solution.y[sel]
    z = solution.z[sel]
    x = ensemble.x[sel]
    dts = np.diff(pts)
    starts = [int(np.argmin(np.abs(pts - u))) for u in times]
    with np.errstate(over="ignore"):  # an overflow is reported below
        pvar = p_variation_suffixes(y, p, starts)  # column q: y[:, starts[q]:]
    if np.all(np.isfinite(y)) and not np.all(np.isfinite(pvar)):
        raise NumericalError(f"p-variation of Y overflows at diag_p = {p}")

    def moment(base, k):
        with np.errstate(over="ignore"):
            out = base**k
        if np.all(np.isfinite(base)) and not np.all(np.isfinite(out)):
            raise NumericalError(f"moment of the diagnostics overflows at diag_k = {k_mom}")
        return out

    # |Z|^2 dt, C-contiguous (k, n - 1), so row sums do not depend on z's layout
    zsq = np.einsum("kjd,kjd->kj", z, z, order="C") * dts[None, :]
    m_pk = 0.0
    bmo = 0.0
    for q, j in enumerate(starts):
        pv = moment(pvar[:, q], k_mom)
        fit = _Fit(basis, x[:, j])
        m_pk = max(m_pk, float(np.max(fit.fit(pv))) ** (1.0 / k_mom) if np.max(pv) > 0 else 0.0)
        tail = moment(zsq[:, j:].sum(axis=1), k_mom / 2.0)
        bmo = max(bmo, float(np.max(fit.fit(tail))) ** (1.0 / k_mom) if np.max(tail) > 0 else 0.0)
    return {
        "m_pk": m_pk,
        "z_bmo": bmo,
        "sup_y": float(np.max(np.abs(solution.y))),
        "p": p,
        "k": k_mom,
        "times": np.asarray(times, dtype=float).tolist(),
    }
