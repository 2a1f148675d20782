"""Linear Young ODE flows and their inverses.

The flow G_s^t solves dG = sum_i (a^i_r)^T G eta_i(dr, x_r) from G_t^t = I.
The scheme is the explicit left-point Euler step

    G_{j+1} = (I + sum_i (a^i_{t_j})^T d_eta^i_j) G_j,
    d_eta^i_j = eta_i(t_{j+1}, x_{t_j}) - eta_i(t_j, x_{t_j}),

which matches the sewing germ and makes the cocycle G_T^s G_s^t = G_T^t
exact on grid-aligned triples (it is just re-bracketing the same product of
step factors).  In one dimension the closed form exp(int a eta(dr, x_r))
is available for cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .driver import DriverField
from .paths import SamplePath, TimeGrid
from .sewing import nonlinear_young_integral

__all__ = ["FlowMatrix", "FlowError", "solve_linear_yode", "inverse_flow", "exp_formula_1d"]

COND_LIMIT = 1e12


class FlowError(RuntimeError):
    pass


@dataclass
class FlowMatrix:
    """Flow matrices G_s^t on the grid tail s >= t_base.

    ``matrices[j]`` is G_{tail[j]}^{t_base} (so matrices[0] = identity);
    ``step_factors[j]`` is the aggregated one-cell factor mapping
    G_{tail[j]} to G_{tail[j+1]}.
    """

    base_time: float
    tail: np.ndarray
    matrices: np.ndarray
    step_factors: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.matrices.shape[-1]

    def segment(self, a: float, b: float) -> np.ndarray:
        """G_b^a for grid-aligned base_time <= a <= b, product of step factors."""
        if self.step_factors is None:
            raise ValueError("flow stored without step factors")
        ia = int(np.argmin(np.abs(self.tail - a)))
        ib = int(np.argmin(np.abs(self.tail - b)))
        out = np.eye(self.dim)
        for j in range(ia, ib):
            out = self.step_factors[j] @ out
        return out


def _alpha_array(alpha, grid: TimeGrid, channels: int, dim: int) -> np.ndarray:
    """Normalize alpha to shape (n, M, N, N)."""
    n = grid.n
    if isinstance(alpha, SamplePath):
        v = alpha.values
        if v.ndim == 1:
            v = v[:, None, None, None]
        alpha = v
    a = np.asarray(alpha, dtype=float)
    if a.ndim == 0:
        a = np.full((n, channels, dim, dim), float(a)) * np.eye(dim)
    if a.ndim == 2 and a.shape == (dim, dim):
        a = np.broadcast_to(a, (n, channels, dim, dim)).copy()
    if a.ndim == 3:  # (n, N, N) single channel
        a = a[:, None, :, :]
    if a.shape != (n, channels, dim, dim):
        raise ValueError(f"alpha must broadcast to (n, M, N, N) = {(n, channels, dim, dim)}")
    return a


def solve_linear_yode(
    alpha,
    x: SamplePath,
    fieldv: DriverField,
    base_time: float = 0.0,
    levels: int = 0,
    dim: int | None = None,
) -> FlowMatrix:
    """Euler flow of the linear Young ODE from base_time along x's grid.

    ``alpha`` is an (n, M, N, N) array (or anything broadcastable: scalar,
    single matrix, per-time (n, N, N) path).  ``levels`` refines each grid
    cell dyadically before stepping; the returned matrices and step factors
    live on the original grid tail, so the cocycle identity holds exactly.
    """
    grid = x.grid
    i0 = grid.index_of(base_time)
    m = fieldv.channels
    if dim is None:
        a_probe = np.asarray(alpha, dtype=float)
        dim = a_probe.shape[-1] if a_probe.ndim >= 2 else 1
    a = _alpha_array(alpha, grid, m, dim)

    fine = grid.refine(levels)
    k = 2**levels
    xf = x.interp(fine.points)
    if xf.ndim == 1:
        xf = xf[:, None]
    af = np.repeat(a, k, axis=0)[: fine.n]  # left-constant alpha inside cells

    # batched field increments eta(t_{j+1}, x_j) - eta(t_j, x_j) per fine step
    d_eta = fieldv.evaluate(fine.points[1:], xf[:-1]) - fieldv.evaluate(
        fine.points[:-1], xf[:-1]
    )

    tail = grid.points[i0:]
    n_tail = tail.size
    eye = np.eye(dim)
    mats = np.empty((n_tail, dim, dim))
    steps = np.empty((n_tail - 1, dim, dim))
    mats[0] = eye
    j0 = i0 * k
    cur = eye.copy()
    for jc in range(n_tail - 1):
        factor = eye.copy()
        for jf in range(j0 + jc * k, j0 + (jc + 1) * k):
            incr = np.einsum("cij,c->ji", af[jf], d_eta[jf])
            factor = (eye + incr) @ factor
        steps[jc] = factor
        with np.errstate(over="ignore", invalid="ignore"):
            cur = factor @ cur
        if not np.all(np.isfinite(cur)):
            raise FlowError(f"flow blew up at step {jc} (t = {tail[jc]:.6g})")
        mats[jc + 1] = cur
    return FlowMatrix(base_time=float(base_time), tail=tail, matrices=mats, step_factors=steps)


def inverse_flow(flow: FlowMatrix) -> FlowMatrix:
    """Exact matrix inverses of the stored flow; guards the condition number."""
    inv = np.empty_like(flow.matrices)
    for j, g in enumerate(flow.matrices):
        cond = np.linalg.cond(g)
        if not np.isfinite(cond) or cond > COND_LIMIT:
            raise FlowError(f"singular flow matrix at grid index {j}")
        inv[j] = np.linalg.inv(g)
    inv_steps = None
    if flow.step_factors is not None:
        inv_steps = np.array([np.linalg.inv(f) for f in flow.step_factors])
    return FlowMatrix(
        base_time=flow.base_time, tail=flow.tail, matrices=inv, step_factors=inv_steps
    )


def exp_formula_1d(
    alpha,
    x: SamplePath,
    fieldv: DriverField,
    interval=None,
    levels: int = 0,
) -> np.ndarray:
    """Closed-form scalar flow exp(sum_i int a^i eta_i(dr, x_r)) on the grid.

    Returns the flow values at the grid points of the (restricted) interval;
    the integrand is the sewing-module nonlinear Young integral.
    """
    grid = x.grid
    n = grid.n
    m = fieldv.channels
    if isinstance(alpha, SamplePath):
        av = alpha.values
    else:
        av = np.asarray(alpha, dtype=float)
        if av.ndim == 0:
            av = np.full((n, m), float(av))
    if av.ndim == 1:
        av = av[:, None]
    if av.shape != (n, m):
        raise ValueError("alpha must have shape (n,) or (n, M)")
    y = SamplePath(grid, av if m > 1 else av[:, 0])
    res = nonlinear_young_integral(y, x, fieldv, interval=interval, levels=levels, tol=0.0)
    return np.exp(res.cumulative)
