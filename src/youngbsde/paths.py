"""Time grids, sampled paths, the interpolation kernels (dyadic refinement,
whole or in blocks of base cells, and clamped multilinear locate-and-blend),
the p-variation, and NumericalError, the one type of a numerical failure.

The p-variation is the exact supremum over sub-partitions of the
observation grid, which coincides with the continuous-time value for the
piecewise-linear interpolant when p >= 1.  That grid-supremum convention is
used everywhere in this package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "NumericalError",
    "TimeGrid",
    "SamplePath",
    "aligned_index",
    "dyadic_interp",
    "dyadic_blocks",
    "locate",
    "blend",
    "p_variation_suffixes",
    "p_variation_brute_force",
]

_ALIGN_RTOL = 1e-10

# fine cells per block of dyadic_blocks: 2^16 fine values take 0.5 MB, so a
# block's arrays stay in cache while a caller works through them
_BLOCK_CELLS = 2**16


class NumericalError(RuntimeError):
    """A result that cannot be trusted: the one type of a numerical failure."""


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing grid t_0 < t_1 < ... < t_{n-1} = T of finite
    times; a problem posed on [t_0, T] starts where its grid starts."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or pts.size < 2:
            raise ValueError("grid needs at least 2 points")
        if not np.all(np.diff(pts) > 0):
            raise ValueError("grid points must be strictly increasing")
        if not np.all(np.isfinite(pts)):
            raise ValueError("grid points must be finite")
        pts = pts.copy()
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @classmethod
    def uniform(cls, horizon: float, n_steps: int) -> "TimeGrid":
        if horizon <= 0 or n_steps < 1:
            raise ValueError("need horizon > 0 and n_steps >= 1")
        return cls(np.linspace(0.0, horizon, n_steps + 1))

    @property
    def n(self) -> int:
        return self.points.size

    @property
    def dt(self) -> np.ndarray:
        return np.diff(self.points)

    def refine(self, levels: int) -> "TimeGrid":
        """Split every cell into 2**levels equal parts."""
        if levels < 0:
            raise ValueError("levels must be >= 0")
        if levels == 0:
            return self
        return TimeGrid(dyadic_interp(self.points, levels))


def aligned_index(points: np.ndarray, t: float) -> int:
    """Index of the entry of the increasing array points equal to t, up to
    a relative 1e-10 of max(1, points[-1]); error if t is off the points."""
    i = int(np.searchsorted(points, t))
    tol = _ALIGN_RTOL * max(1.0, float(points[-1]))
    for j in (i - 1, i, i + 1):
        if 0 <= j < points.size and abs(points[j] - t) <= tol:
            return j
    raise ValueError("misaligned interval")


def _dyadic_rows(v: np.ndarray, diff: np.ndarray, frac: np.ndarray, c: int, e: int) -> np.ndarray:
    # rows of the refinement of v from the first point of base cell c through
    # base point e; diff = np.diff(v, axis=0) and frac = arange(2^level) / 2^level
    k = frac.size
    out = np.empty(((e - c) * k + 1,) + v.shape[1:])
    body = out[:-1].reshape((e - c, k) + v.shape[1:])
    np.multiply(frac.reshape((1, k) + (1,) * (v.ndim - 1)), diff[c:e, None], out=body)
    body += v[c:e, None]
    # base point e is the last value, or the first point of cell e
    out[-1] = v[e] if e == diff.shape[0] else frac[0] * diff[e] + v[e]
    return out


def dyadic_interp(values: np.ndarray, level: int) -> np.ndarray:
    """Piecewise-linear values at every point of the level-``level`` dyadic
    refinement of the grid that values (n,) or (n, d) are sampled on.

    Point i of the refinement lies in cell i >> level at fraction
    (i mod 2^level) / 2^level, so the values are one broadcast blend
    v_c + f (v_{c+1} - v_c), with no search and no gather.  Returns
    (n - 1) 2^level + 1 rows, the last being values[-1]; applied to a
    grid's own points it gives the refined grid's points.
    """
    v = np.asarray(values, dtype=float)
    k = 2**level
    return _dyadic_rows(v, np.diff(v, axis=0), np.arange(k) / k, 0, v.shape[0] - 1)


def dyadic_blocks(level: int, *values):
    """The rows of dyadic_interp(v, level) for each of values, arrays (n,)
    or (n, d) sampled on one grid, in blocks of consecutive whole base cells.

    Yields (c, [block of each value]): a block covers base cells c, c + 1,
    ..., about _BLOCK_CELLS fine cells (a single base cell finer than that
    is a block of its own), and holds their fine points and its last base
    point, so consecutive blocks share one row.  Each block is bitwise equal
    to the matching rows of dyadic_interp, and only one block of each value
    is alive at a time.
    """
    vs = [np.asarray(v, dtype=float) for v in values]
    diffs = [np.diff(v, axis=0) for v in vs]
    k = 2**level
    frac = np.arange(k) / k
    cells = vs[0].shape[0] - 1
    step = max(1, _BLOCK_CELLS >> level)
    for c in range(0, cells, step):
        e = min(c + step, cells)
        yield c, [_dyadic_rows(v, d, frac, c, e) for v, d in zip(vs, diffs)]


def locate(axis: np.ndarray, c: np.ndarray):
    """Cell (lo index, fraction) of each coordinate c clamped into the
    increasing array axis of n >= 2 points: lo = hi - 1, with hi the first
    index in [1, n - 1] where axis[hi] >= c, the cell np.searchsorted
    finds.

    hi is guessed as ceil((c - a)(n - 1) / (b - a)) for the ends a, b of
    the axis, as if it were uniform, and checked against
    axis[hi - 1] < c <= axis[hi]; a NaN takes the last cell, as the search
    puts it there.  A guess that fails (one a step off at a node, or a
    coordinate at a, whose cell 1 the check's strict bound excludes) is
    moved by one step each way and checked again with the outer bounds open,
    and only the coordinates that still fail (cells of an axis far from
    uniform) are searched.  So the result is exact on every increasing
    axis, and on a linspace axis, as every lattice axis is, nothing is
    searched.
    """
    n = axis.size
    c = np.clip(c, axis[0], axis[-1])
    hi = np.ceil((c - axis[0]) * ((n - 1) / (axis[-1] - axis[0])))
    hi = np.fmax(np.fmin(hi, n - 1, out=hi), 1, out=hi).astype(np.intp)
    lo = hi - 1
    lower, upper = axis[lo], axis[hi]
    miss = np.flatnonzero((c <= lower) | (c > upper))
    if miss.size:
        edges = np.concatenate(([-np.inf], axis[1:-1], [np.inf]))
        cm, hm = c[miss], hi[miss]
        hm -= cm <= edges[hm - 1]
        hm += cm > edges[hm]
        far = (cm <= edges[hm - 1]) | (cm > edges[hm])
        if far.any():
            hm[far] = np.clip(np.searchsorted(axis, cm[far]), 1, n - 1)
        hi[miss] = hm
        lo = hi - 1
        lower, upper = axis[lo], axis[hi]
    return lo, (c - lower) / (upper - lower)


def blend(values: np.ndarray, cells) -> np.ndarray:
    """Multilinear blend over the 2^n corners of cells [(lo, frac), ...]
    from locate on the leading n axes of values; trailing axes are carried
    along."""
    out = 0.0
    for mask in range(2 ** len(cells)):
        idx = []
        w = 1.0
        for a, (lo, frac) in enumerate(cells):
            if mask >> a & 1:
                idx.append(lo + 1)
                w = w * frac
            else:
                idx.append(lo)
                w = w * (1.0 - frac)
        corner = values[tuple(idx)]
        out = out + w.reshape(w.shape + (1,) * (corner.ndim - w.ndim)) * corner
    return out


@dataclass(frozen=True)
class SamplePath:
    """Values of a d-vector path observed on a shared time grid.

    ``values`` has shape (n,) for scalar paths or (n, d); rows follow the
    grid points.
    """

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape[0] != self.grid.n:
            raise ValueError("values length must equal grid length")
        if vals.ndim not in (1, 2):
            raise ValueError("values must be 1-D or 2-D")
        if not np.all(np.isfinite(vals)):
            raise ValueError("path values must be finite")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def as_matrix(self) -> np.ndarray:
        v = self.values
        return v[:, None] if v.ndim == 1 else v


def _check_exponent(p: float) -> None:
    if not 1 <= p < np.inf:  # also rejects nan
        raise ValueError("invalid exponent: need 1 <= p < inf")


def _alternating_extrema(v: np.ndarray, starts: np.ndarray):
    """The partition candidates of scalar paths v (n, k), time-major.

    One pass over time keeps, per path, the first point of every run of
    equal values that is not strictly inside a monotone run, so the kept
    points strictly alternate between local maxima and minima.  A point
    is pending until the path next moves: a turn keeps it, a move on in the
    same direction replaces it.  A NaN step (at a NaN, just after one, or
    between equal infinities) always counts as a turn.  Returns
    (c, counts, after): the candidates (m, k) in order, padded with the last
    value; their number per path; and per start s, the number of candidates
    at or before s (S, k).
    """
    n, k = v.shape
    c = np.empty((n, k))
    cols = np.arange(k)
    filled = np.zeros(k, dtype=np.intp)  # kept so far; c[filled] is pending
    tail = v[0].copy()  # the pending value
    rise = np.zeros(k)  # sign of the move into it, 0 before the first
    c[0] = tail
    after = np.zeros((starts.size, k), dtype=np.intp)
    # a start's pending point lies at or before it; the path's next move
    # decides whether it is kept (a turn) or replaced by a later point
    undecided = np.zeros((starts.size, k), dtype=bool)
    undecided[starts == 0] = True
    for i in range(1, n):
        step = v[i] - tail
        sign = np.sign(step)
        moved = step != 0  # NaN moves
        turned = moved & (sign != rise)
        after += undecided & turned
        undecided &= ~moved
        filled += turned
        np.copyto(tail, v[i], where=moved)
        np.copyto(rise, sign, where=moved)
        c[filled, cols] = tail
        at = starts == i
        after[at] = filled
        undecided[at] = True
    after += undecided
    counts = filled + 1
    c = c[: int(counts.max())]
    np.copyto(c, tail, where=np.arange(c.shape[0])[:, None] >= counts)
    return c, counts, after


def p_variation_suffixes(values: np.ndarray, p: float, starts) -> np.ndarray:
    """Exact grid p-variation of the suffixes values[:, s:] for s in starts,
    for each of k scalar paths on one grid, values of shape (k, n).

    Backward dynamic programme W(i) = max_{j>i} |g_j - g_i|^p + W(j) over
    the last point and the candidate partition points, then one dense row
    max_{j>s} |g_j - g_s|^p + W(j) per start s.

    The candidates are a path's alternating extrema: one point per run of
    equal values (equal values give equal increments), and none strictly
    inside a monotone run; for p >= 1 the supremum is attained on
    local extrema (Butkus & Norvaisa, Lith. Math. J. 58, 2018).  What is
    left alternates between local maxima and minima, and in an optimal
    partition the point after a maximum is a minimum and the reverse: if
    two consecutive points i < j were both maxima, the lowest candidate l
    between them lies strictly below both, and for p >= 1
    |g_i - g_l|^p + |g_l - g_j|^p > |g_i - g_j|^p, so inserting l would
    raise the sum.  W(i) therefore takes its max over every second
    candidate after i only, O(m^2 k / 4) for at most m candidates per path.
    A NaN propagates to every suffix that contains an increment touching it.
    Returns shape (k, len(starts)): column q is the p-variation of
    values[:, starts[q]:].
    """
    _check_exponent(p)
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise ValueError(f"values must be scalar paths (k, n), got shape {values.shape}")
    v = values.T  # time-major view
    n, k = v.shape
    starts = np.asarray(starts, dtype=np.intp).reshape(-1)
    if np.any((starts < 0) | (starts >= n)):
        raise ValueError("starts must lie in [0, n)")
    c, counts, after = _alternating_extrema(v, starts)
    m = c.shape[0]

    def gains(cand, at):
        # |cand - at|^p for a block of candidates
        inc = cand - at
        np.abs(inc, out=inc)
        inc **= p
        return inc

    best = np.zeros((m, k))
    for i in range(m - 2, -1, -1):
        inc = gains(c[i + 1 :: 2], c[i])
        inc += best[i + 1 :: 2]
        best[i] = inc.max(axis=0)
    idx = np.arange(m)[:, None]
    out = np.empty((starts.size, k))
    for q, s in enumerate(starts):
        inc = gains(c, v[s])
        inc += best
        inc[(idx < after[q]) | (idx >= counts)] = 0.0
        out[q] = inc.max(axis=0)
    return (out ** (1.0 / p)).T


def p_variation_brute_force(path: SamplePath, p: float) -> float:
    """Direct enumeration of all sub-partitions of a scalar path; oracle
    for small grids."""
    _check_exponent(p)
    v = path.values
    if v.ndim != 1:
        raise ValueError(f"path must be scalar, values of shape (n,), got shape {v.shape}")
    n = v.shape[0]
    if n < 2:
        return 0.0
    if n > 22:
        raise ValueError("brute force limited to 22 points")
    interior = n - 2
    best = 0.0
    for mask in range(2**interior):
        idx = [0]
        for k in range(interior):
            if mask >> k & 1:
                idx.append(k + 1)
        idx.append(n - 1)
        best = max(best, float(np.sum(np.abs(np.diff(v[idx])) ** p)))
    return best ** (1.0 / p)
