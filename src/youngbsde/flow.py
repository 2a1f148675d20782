"""Linear Young ODE flows and their inverses.

The flow G_s^t solves dG = a_r^T G eta(dr, x_r) from G_t^t = I.
The scheme is the explicit left-point Euler step on the grid refined
dyadically ``levels`` times,

    G_{j+1} = (I + a_{t_j}^T d_eta_j) G_j,
    d_eta_j = eta(t_{j+1}, x_{t_j}) - eta(t_j, x_{t_j}),

which is the one left-point sum sewing.nonlinear_young_integral forms on
the same refinement, and both bracket a base cell pairwise: the integral
adds the cell's 2^levels germ values by numpy's pairwise sum, and the step
factor of one base cell is the product of its 2^levels fine factors,
formed pairwise in ``levels`` rounds; the pairwise bracketing moves it by
rounding only.  The fine factors are built and multiplied out in blocks of
whole base cells (paths.dyadic_blocks), so only one block's are held at a
time.
The flow matrices are the sequential product of the stored step factors
over the base cells, and FlowMatrix.segment re-brackets that same product
(from the first grid point it is the flow matrix itself), so the cocycle
G_T^s G_s^t = G_T^t is still exact on grid-aligned triples.
inverse_flow inverts the flow matrices only (the flow representation of
linear BSDEs reads G_s^0 and its inverse).  In one dimension the closed
form exp(int a eta(dr, x_r)) is available for cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .driver import DriverField
from .paths import NumericalError, SamplePath, aligned_index, dyadic_blocks
from .sewing import nonlinear_young_integral

__all__ = ["FlowMatrix", "solve_linear_yode", "inverse_flow", "exp_formula_1d"]

COND_LIMIT = 1e12


@dataclass
class FlowMatrix:
    """Flow matrices G_s^0 at the grid points s.

    ``matrices[j]`` is G_{times[j]}^0 (so matrices[0] = identity);
    ``step_factors[j]`` is the aggregated one-cell factor mapping
    G_{times[j]} to G_{times[j+1]}.
    """

    times: np.ndarray
    matrices: np.ndarray
    step_factors: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrices.shape[-1]

    def segment(self, a: float, b: float) -> np.ndarray:
        """G_b^a for grid points a <= b, the product of step factors; a or b
        off the grid, or a > b, raises ValueError.  From the first grid
        point it is a copy of matrices[ib], the same product bitwise."""
        ia, ib = aligned_index(self.times, a), aligned_index(self.times, b)
        if ia > ib:
            raise ValueError("interval must satisfy a <= b")
        if ia == 0:
            return self.matrices[ib].copy()
        out = np.eye(self.dim)
        for j in range(ia, ib):
            out = self.step_factors[j] @ out
        return out


def solve_linear_yode(
    alpha,
    x: SamplePath,
    fieldv: DriverField,
    levels: int = 0,
) -> FlowMatrix:
    """Euler flow of the linear Young ODE from the first point of x's grid.

    ``alpha`` is an (n, N, N) array: one N x N matrix per grid point.
    ``levels`` refines each grid cell dyadically before stepping; the fine
    factors are formed one block of base cells at a time.  The returned
    matrices and step factors live on the original grid, so the cocycle
    identity holds exactly.
    """
    grid = x.grid
    a = np.asarray(alpha, dtype=float)
    if a.ndim != 3 or a.shape[0] != grid.n or a.shape[1] != a.shape[2]:
        raise ValueError(f"alpha must have shape (n, N, N) with n = {grid.n}")
    dim = a.shape[-1]

    cells, k = grid.n - 1, 2**levels
    eye = np.eye(dim)
    steps = np.empty((cells, dim, dim))
    for c, (t, xs) in dyadic_blocks(levels, grid.points, x.as_matrix()):
        m = (t.size - 1) // k
        # field increments at the fine left points
        d_eta = fieldv.increment(t[:-1], t[1:], xs[:-1]).reshape(m, k)
        with np.errstate(over="ignore", invalid="ignore"):
            # every fine factor I + a^T d_eta, alpha left-constant in cells,
            # then pairwise products inside each cell, later on the left
            f = np.einsum("cij,ck->ckji", a[c : c + m], d_eta) + eye
            while f.shape[1] > 1:
                f = f[:, 1::2] @ f[:, 0::2]
        steps[c : c + m] = f[:, 0]
    mats = np.empty((cells + 1, dim, dim))
    mats[0] = eye
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(cells):
            np.matmul(steps[j], mats[j], out=mats[j + 1])
    finite = np.isfinite(mats).all(axis=(1, 2))
    if not finite.all():
        jc = int(np.argmin(finite)) - 1
        raise NumericalError(f"flow blew up at step {jc} (t = {grid.points[jc]:.6g})")
    return FlowMatrix(times=grid.points, matrices=mats, step_factors=steps)


def inverse_flow(flow: FlowMatrix) -> np.ndarray:
    """Matrix inverses (n, N, N) of the flow matrices, one batched call,
    each guarded by its condition number."""
    bad = ~(np.linalg.cond(flow.matrices) <= COND_LIMIT)
    if bad.any():
        raise NumericalError(f"singular flow matrix at grid index {int(np.argmax(bad))}")
    return np.linalg.inv(flow.matrices)


def exp_formula_1d(
    alpha,
    x: SamplePath,
    fieldv: DriverField,
    levels: int = 0,
) -> np.ndarray:
    """Closed-form scalar flow exp(int a eta(dr, x_r)) on the grid.

    ``alpha`` is an (n,) array.  Returns the flow values at the grid
    points; the exponent is sewing.nonlinear_young_integral, one
    left-point sum on the same level-``levels`` refinement as the Euler
    flow's (no Cauchy record; sew a Germ for one).
    """
    grid = x.grid
    av = np.asarray(alpha, dtype=float)
    if av.shape != (grid.n,):
        raise ValueError(f"alpha must have shape (n,) = {(grid.n,)}")
    y = SamplePath(grid, av)
    return np.exp(nonlinear_young_integral(y, x, fieldv, levels=levels).values)
