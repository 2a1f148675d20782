"""Sewing-lemma integration and the nonlinear Young integral.

``sew`` forms the left-point Riemann sums of a two-point germ A(s, t), a
``Germ``, on every dyadic refinement of a base grid, levels 0 through a
given one, and keeps their Cauchy record.  The nonlinear Young integral of
a scalar path y against eta(dr, x_r) is one such sum, of A(s, t) =
y_s (eta(t, x_s) - eta(s, x_s)), on the requested level only.  Paths are
extended to the refinement points by linear interpolation, matching the
grid-supremum path-norm convention used throughout, and read there by one
blend instead of a search.  ``left_point_sums`` is the one walk of that
refinement, in blocks of whole base cells (paths.dyadic_blocks), so its
memory is one block's, not the fine grid's: a germ gives any number of
columns per block, and each is summed as it comes.  Each base cell's
2^levels germ values are added pairwise (numpy's sum), as the flow
brackets a cell's fine factors, and the running sum is the sequential sum
of the cell sums, carried from block to block.  The integral is that walk
over the increments of one driver field, or of each of a sequence; ``sew``
refines its grid whole (paths.dyadic_interp) at each level.
"""

from __future__ import annotations

import warnings
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .driver import DriverField
from .paths import NumericalError, SamplePath, TimeGrid, dyadic_blocks, dyadic_interp

__all__ = ["Germ", "IntegralResult", "sew", "left_point_sums", "nonlinear_young_integral"]


def _finite(out, s, t) -> np.ndarray:
    out = np.asarray(out, dtype=float)
    if not np.all(np.isfinite(out)):
        bad = np.nonzero(~np.isfinite(np.atleast_1d(out)))[0]
        i = int(bad[0])
        raise NumericalError(
            f"non-finite germ value on subinterval ({np.atleast_1d(s)[i]}, {np.atleast_1d(t)[i]})"
        )
    return out


@dataclass(frozen=True)
class Germ:
    """Two-point function A(s, t), vectorized over pair arrays, A(s, s) = 0."""

    fn: callable

    def __call__(self, s: np.ndarray, t: np.ndarray) -> np.ndarray:
        s, t = np.asarray(s, dtype=float), np.asarray(t, dtype=float)
        return _finite(self.fn(s, t), s, t)


@dataclass
class IntegralResult:
    """Dyadic-refinement record of a sewn integral.

    ``cumulative`` holds the running integral at the base grid points at the
    finest level, ``levels_used``; ``level_totals`` the whole-interval value
    per level; ``cauchy_increments`` the observed |I_{l+1} - I_l|.  ``germ_defect`` is
    |I[t_i, t_{i+1}] - A(t_i, t_{i+1})| per base cell, the quantity the
    sewing bound controls.
    """

    grid: TimeGrid
    cumulative: np.ndarray
    level_totals: np.ndarray
    cauchy_increments: np.ndarray
    levels_used: int
    germ_defect: np.ndarray

    @property
    def value(self) -> float:
        return float(self.cumulative[-1])


def sew(germ: Germ, grid: TimeGrid, levels: int = 12) -> IntegralResult:
    """Riemann sums of a germ over the dyadic refinements of grid at every
    level 0..levels; the Cauchy record shows the geometric decay the sewing
    bound guarantees."""
    if levels < 0:
        raise ValueError("levels must be >= 0")
    totals = []
    for lev in range(levels + 1):
        pts = dyadic_interp(grid.points, lev)
        cum = np.concatenate([[0.0], np.cumsum(germ(pts[:-1], pts[1:]))])
        totals.append(cum[-1])
    last_cum = cum[:: 2**levels]  # restriction to base grid points
    totals = np.asarray(totals)
    base_s, base_t = grid.points[:-1], grid.points[1:]
    defect = np.abs(np.diff(last_cum) - germ(base_s, base_t))
    return IntegralResult(
        grid=grid,
        cumulative=last_cum,
        level_totals=totals,
        cauchy_increments=np.abs(np.diff(totals)),
        levels_used=levels,
        germ_defect=defect,
    )


def left_point_sums(
    germ, y: SamplePath, x: SamplePath, columns: int, levels: int = 12
) -> SamplePath:
    """Running left-point sums, at x's grid points, of ``columns`` germs on
    the level-``levels`` dyadic refinement of that grid, in one walk of it.

    y is a scalar path on x's grid.  ``germ(s, t, ys, xs)`` takes one block
    of fine cells: their left points s (b,), right points t (b,), and the
    paths at the left points, ys (b,) and xs (b, d).  It returns an
    iterable of ``columns`` germ columns, each (b,); each is summed before
    the next is drawn, so a generator holds one at a time.  Each base
    cell's 2^levels values of a column are added pairwise (numpy's sum),
    then the cell sums in order, carried from block to block.  A non-finite
    value raises NumericalError naming its subinterval.  Returns values
    (n, columns).
    """
    grid = x.grid
    if y.grid.n != grid.n or not np.allclose(y.grid.points, grid.points):
        raise ValueError("y and x must share a time grid")
    if y.values.ndim != 1:
        raise ValueError("y must be a scalar path, values of shape (n,)")
    k = 2**levels
    running = np.zeros((grid.n, columns))
    for c, (t, ys, xs) in dyadic_blocks(levels, grid.points, y.values, x.as_matrix()):
        left, right = t[:-1], t[1:]
        m = left.size // k
        for q, vals in enumerate(germ(left, right, ys[:-1], xs[:-1])):
            vals = np.asarray(vals, dtype=float)
            # a non-finite term makes its cell sum non-finite (+inf and -inf
            # terms make a NaN, silently), so only a column with a
            # non-finite cell sum is searched for one
            with np.errstate(invalid="ignore"):
                cell = vals.reshape(m, k).sum(axis=1)
            if not np.isfinite(cell).all():
                _finite(vals, left, right)
            cell[0] += running[c, q]  # the sum so far
            np.cumsum(cell, out=running[c + 1 : c + 1 + m, q])
    return SamplePath(grid, running)


def nonlinear_young_integral(
    y: SamplePath, x: SamplePath, fieldv: DriverField | Sequence[DriverField], levels: int = 12
) -> SamplePath:
    """Running integral of the scalar path y against eta(dr, x_r) at x's grid
    points: the left-point sum of y_s (eta(t, x_s) - eta(s, x_s)) over the
    cells of the level-``levels`` dyadic refinement of that grid, by
    left_point_sums.

    ``fieldv`` is one DriverField, for values (n,), or a sequence of F of
    them, for values (n, F) whose column q is the integral against
    ``fieldv[q]``; every field is summed in the one walk of the refinement.
    A warning is emitted for each field whose declared exponents violate
    tau + lam/p > 1; the sum is still formed.
    """
    single = isinstance(fieldv, DriverField)
    fields = [fieldv] if single else list(fieldv)
    if not fields:
        raise ValueError("need at least one driver field")
    for q, fld in enumerate(fields):
        if fld.params.tau + fld.params.lam / fld.params.p <= 1:
            name = "declared exponents" if single else f"declared exponents of field {q}"
            warnings.warn(
                f"{name} do not guarantee convergence: tau + lam/p <= 1", stacklevel=2
            )

    def germ(s, t, ys, xs):
        return (ys * fld.increment(s, t, xs) for fld in fields)

    out = left_point_sums(germ, y, x, len(fields), levels)
    return SamplePath(out.grid, out.values[:, 0]) if single else out
