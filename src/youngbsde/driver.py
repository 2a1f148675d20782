"""Space-time driver fields eta(t, x) and checks of their declared regularity.

Fields vanish at t = 0: a sampled sheet's t = 0 slice is zero, and an
analytic field's function must vanish there (it is evaluated as given).
Concrete fields: closed-form analytic fields, grid-sampled fractional
Brownian sheets with multilinear interpolation, and time-mollified wrappers
with a quadrature time derivative.  Each has one per-point kernel; the
queries and the field increment eta(t1, x) - eta(t0, x) are implemented
once, on the base class.  Times are absolute: a problem that starts at an
interior time evaluates the field at its own grid's times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
# numpy 2 imports numpy.random on first use; importing it here keeps that
# cost in start-up, outside the first run
from numpy.random import Philox, default_rng

from .paths import NumericalError, blend, locate

__all__ = [
    "RegularityParams",
    "HurstParams",
    "DriverField",
    "AnalyticField",
    "FbsGridField",
    "MollifiedField",
    "fbs_generate",
    "assumption_check",
    "AssumptionReport",
]

MAX_FBS_AXIS = 2048
_CHOL_JITTER = 1e-10
_PANEL = 64  # columns of the Schur factor applied to the normals per GEMM


@dataclass(frozen=True)
class RegularityParams:
    """Declared Holder/variation exponents of a driver and its paths.

    tau, lam are the time/space Holder exponents, beta the spatial weight
    exponent, p the path variation exponent.
    """

    tau: float
    lam: float
    beta: float = 0.0
    p: float = 2.5

    def __post_init__(self):
        if not 0 < self.tau <= 1:
            raise ValueError("tau must lie in (0, 1]")
        if not 0 < self.lam <= 1:
            raise ValueError("lam must lie in (0, 1]")
        if self.beta < 0:
            raise ValueError("beta must be >= 0")
        if self.p <= 2:
            raise ValueError("p must be > 2")


@dataclass(frozen=True)
class HurstParams:
    """Hurst indices of a fractional Brownian sheet: H0 in time, common H in space."""

    h0: float
    h: float
    d: int = 1

    def __post_init__(self):
        if not 0 < self.h0 < 1 or not 0 < self.h < 1:
            raise ValueError("Hurst indices must lie in (0, 1)")
        if self.d < 1:
            raise ValueError("d must be >= 1")

    def regularity(self, theta: float = 0.05, p: float = 2.5) -> RegularityParams:
        """Holder exponents of a realization: tau = H0 - theta, lam = H - theta,
        beta = 2 theta + (d - 1) H.  theta > 0 is free and exposed."""
        if not 0 < theta < min(self.h0, self.h):
            raise ValueError("theta must lie in (0, min(H0, H))")
        return RegularityParams(
            tau=self.h0 - theta,
            lam=self.h - theta,
            beta=2 * theta + (self.d - 1) * self.h,
            p=p,
        )


class DriverField:
    """Base class: deterministic scalar field (t, x) -> R with eta(0, x) = 0.

    Every field has one per-point kernel, ``_at(t, where, derivative)``,
    at per-point times t (k,) and ``where = self._where(x)``, worked out
    once per query: the points x (k, d) themselves, or on a field sampled
    on a space lattice (``_lattice`` is its list of space axes) their
    clamped lattice cells.  A lattice field also gives its slices at
    single times as profiles on that lattice (``_rows``), so a query at
    one time reduces time first and then blends space once per point.
    Every other query, and every increment, goes to ``_at``.
    """

    _lattice = None
    has_time_derivative = False

    def __init__(self, params: RegularityParams, dim: int, horizon: float):
        self.params = params
        self.dim = dim
        self.horizon = float(horizon)

    def evaluate(self, t, x) -> np.ndarray:
        """Evaluate at times t (scalar or (k,)) and points x (k, d); returns
        (k,)."""
        return self._query(t, x, False)

    def time_derivative(self, t, x) -> np.ndarray:
        """d/dt eta with evaluate's argument shapes."""
        return self._query(t, x, True)

    def _query(self, t, x, derivative: bool) -> np.ndarray:
        if derivative and not self.has_time_derivative:
            raise NotImplementedError(f"{type(self).__name__} has no time derivative")
        x = np.asarray(x, dtype=float)
        where = self._where(x)
        if np.ndim(t) == 0 and self._lattice is not None:
            return blend(self._rows(np.array([t], dtype=float), derivative)[0], where)
        return self._at(_per_point(t, x), where, derivative)

    def increment(self, t0, t1, x) -> np.ndarray:
        """eta(t1, x) - eta(t0, x) at points x (k, d), for one pair of times
        or for (k,) arrays of them, one pair per point; returns (k,)."""
        x = np.asarray(x, dtype=float)
        where = self._where(x)
        if self._lattice is not None and np.ndim(t0) == 0 and np.ndim(t1) == 0:
            rows = self._rows(np.array([t0, t1], dtype=float))
            return blend(rows[1] - rows[0], where)
        return self._at(_per_point(t1, x), where, False) - self._at(_per_point(t0, x), where, False)

    def _where(self, x: np.ndarray):
        # x itself, or on a lattice field the cell of each point, clamped
        # into the lattice box
        if self._lattice is None:
            return x
        return [locate(axis, x[:, j]) for j, axis in enumerate(self._lattice)]

    def _rows(self, t: np.ndarray, derivative: bool = False) -> np.ndarray:
        """Slices of the field (or of its time derivative) at times t (n,)
        on the space lattice: shape (n, *lattice shape)."""
        raise NotImplementedError

    def _at(self, t: np.ndarray, where, derivative: bool) -> np.ndarray:
        """The field (or its time derivative) at per-point times t (k,) and
        located points where = _where(x): shape (k,)."""
        raise NotImplementedError


def _per_point(t, x: np.ndarray) -> np.ndarray:
    # a scalar time or one time per point, as (k,)
    return np.broadcast_to(np.asarray(t, dtype=float), x.shape[:1])


class AnalyticField(DriverField):
    """Closed-form field. ``fn(t, x)`` is vectorized: t (k,), x (k, d) -> (k,),
    and must vanish at t = 0; it is evaluated as given."""

    def __init__(self, fn, params, dim=1, horizon=1.0, dt_fn=None):
        super().__init__(params, dim, horizon)
        self._fn = fn
        self._dt_fn = dt_fn

    @property
    def has_time_derivative(self) -> bool:
        return self._dt_fn is not None

    def _at(self, t, x, derivative):
        return np.asarray((self._dt_fn if derivative else self._fn)(t, x), dtype=float)


def _fbm_cov(u: np.ndarray, v: np.ndarray, h: float) -> np.ndarray:
    return 0.5 * (
        np.abs(u) ** (2 * h) + np.abs(v) ** (2 * h) - np.abs(u - v) ** (2 * h)
    )


def _dense_chol(points: np.ndarray, h: float) -> np.ndarray:
    cov = _fbm_cov(points[:, None], points[None, :], h)
    cov[np.diag_indices_from(cov)] += _CHOL_JITTER
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("covariance factorization failed") from exc


def _fgn_column(n: int, step: float, h: float) -> np.ndarray:
    """First column m = (gamma_0 + eps, gamma_1 - eps, gamma_2, ...) of
    M = Gamma + eps D D^T, with Gamma the Toeplitz covariance of fractional
    Gaussian noise at spacing step, D the first-difference matrix and eps
    the jitter.  B M B^T = Sigma + eps I for B = D^{-1}, the cumulative sum,
    and Sigma the fBm covariance at the times k step, k = 1..n."""
    a = np.arange(n + 1.0) ** (2 * h)
    m = np.empty(n)
    m[0] = 1.0
    m[1:] = 0.5 * (a[2:] - 2 * a[1:-1] + a[:-2])
    m *= step ** (2 * h)
    m[0] += _CHOL_JITTER
    m[1:2] -= _CHOL_JITTER
    return m


def _schur_chol(m: np.ndarray, rhs: np.ndarray) -> np.ndarray | None:
    """The product B chol(M) rhs, for rhs (n, c), with B chol(M) the lower
    Cholesky factor of B M B^T = Sigma + eps I, from the first column m of
    M = Gamma + eps D D^T, by the generalized Schur recursion in O(n^2 c)
    time and O(n c) memory; None when a hyperbolic rotation meets
    |rho| >= 1.  The factor itself is the product at rhs = I.

    With Z the down-shift, M - Z M Z^T = p p^T + eps e e^T - q q^T, where
    p = m / sqrt(m_0), e is the second unit vector and q is p with its lead
    entry zeroed.  Column 0 of chol(M) is p.  Step k reduces the
    generator's lead entries (p_k, e_k, q_k) to (r, 0, 0): a Givens
    rotation folds e into p and a hyperbolic rotation with rho = q_k / r
    folds q into p.  The rotated p is column k of chol(M), and the next
    generator is the shifted Z p with the rotated e and q, leads dropped.
    The columns are kept _PANEL at a time, each from its diagonal down, and
    each panel is multiplied into the product by one GEMM; B, the
    cumulative sum, runs once over the product.
    """
    n = m.size
    out = np.zeros((n, rhs.shape[1]))
    prod = np.empty_like(out)  # each panel's product, in one buffer
    panel = np.zeros((_PANEL, n))
    p = m / math.sqrt(m[0])
    panel[0] = p
    # rows Z p, e, q; step k reads columns k..n-1
    gen = np.zeros((3, n))
    gen[0, 1:] = p[:-1]
    gen[1, 1:2] = math.sqrt(_CHOL_JITTER)
    gen[2, 1:] = p[1:]
    for k0 in range(0, n, _PANEL):
        k1 = min(k0 + _PANEL, n)
        for k in range(max(k0, 1), k1):
            a, b, c = gen[:, k].tolist()
            r = math.hypot(a, b)
            rho = c / r
            if abs(rho) >= 1:
                return None
            cg, sg, kap = a / r, b / r, 1 / math.sqrt((1 - rho) * (1 + rho))
            rot = np.array([
                [kap * cg, kap * sg, -kap * rho],
                [-sg, cg, 0.0],
                [-kap * rho * cg, -kap * rho * sg, kap],
            ]) @ gen[:, k:]
            panel[k - k0, k:] = rot[0]
            gen[1:, k:] = rot[1:]
            gen[0, k + 1:] = rot[0, :-1]
        np.matmul(panel[:k1 - k0, k0:].T, rhs[k0:k1], out=prod[:n - k0])
        out[k0:] += prod[:n - k0]
        panel.fill(0.0)
    return np.cumsum(out, axis=0, out=out)


def _chol_axis(points: np.ndarray, h: float, rhs: np.ndarray) -> np.ndarray:
    """L rhs for rhs (n, c), with L the lower Cholesky factor of the
    jittered fBm covariance Sigma + eps I at points.  Points k step,
    k = 1..n (up to rounding), are factored through Sigma + eps I = B M B^T
    by the Schur recursion on M, which never forms L; any other axis, and
    one whose recursion meets |rho| >= 1, densely."""
    n = points.size
    step = points[-1] / n if n else 0.0
    # linspace(0, T, n + 1) gives k (T / n) to within an ulp
    if step > 0 and np.allclose(points, step * np.arange(1, n + 1), rtol=1e-13, atol=0.0):
        out = _schur_chol(_fgn_column(n, step, h), rhs)
        if out is not None:
            return out
    return _dense_chol(points, h) @ rhs


class FbsGridField(DriverField):
    """One realization of a fractional Brownian sheet on a product grid.

    Values off the nodes come from multilinear interpolation; coordinates
    outside the lattice are clamped to its boundary, so the field stays
    bounded.
    """

    def __init__(self, hurst: HurstParams, time_points, space_axes, values, seed, theta=0.05, p=2.5):
        params = hurst.regularity(theta=theta, p=p)
        d = len(space_axes)
        super().__init__(params, dim=d, horizon=float(time_points[-1]))
        self.hurst = hurst
        self.time_points = np.asarray(time_points, dtype=float)
        self.space_axes = [np.asarray(a, dtype=float) for a in space_axes]
        self.values = np.asarray(values, dtype=float)
        self.seed = int(seed)

    @property
    def _lattice(self):
        return self.space_axes

    def _at(self, t, where, derivative):
        # multilinear blend over the 2^(1+d) cell corners, times clamped
        # into the lattice
        return blend(self.values, [locate(self.time_points, t)] + where)

    def _rows(self, t, derivative=False):
        # two lattice rows blended in time
        return blend(self.values, [locate(self.time_points, t)])


def fbs_generate(hurst: HurstParams, time_grid, space_grid, seed: int, theta: float = 0.05, p: float = 2.5) -> FbsGridField:
    """Sample a fractional Brownian sheet on time_grid x space_grid: time_grid
    is a 1-D array of times, space_grid a list of hurst.d axis arrays.

    The covariance is an exact product of per-axis fractional-Brownian
    covariances, so each axis's Cholesky factor (with a small diagonal
    jitter) is applied in turn to i.i.d. standard normals along that axis.
    An axis whose non-zero points are k h, k = 1..n (a uniform grid from 0,
    as every CLI time axis is), is factored by a Schur recursion on the
    Toeplitz structure of its increments and applied 64 columns at a time,
    so its n x n factor is never held; any other axis, such as a two-sided
    space axis, by a dense O(n^3) Cholesky.  Both apply the factor of the
    same jittered covariance, up to rounding.  The 0-slices are exactly zero.
    """
    t_pts = np.asarray(time_grid, dtype=float)
    axes = [np.asarray(a, dtype=float) for a in space_grid]
    if len(axes) != hurst.d:
        raise ValueError("space_grid must be a list of hurst.d axes")

    full_axes = []
    nz_idx = []
    for a in [t_pts, *axes]:
        if a.ndim != 1 or not np.all(np.diff(a) > 0):
            raise ValueError("grid axes must be strictly increasing 1-D arrays")
        # the points at 0, as np.isclose(a, 0.0) finds them at its default
        # tolerances
        zero = np.abs(a) <= 1e-8
        if not zero.any():
            a = np.sort(np.append(a, 0.0))
            zero = a == 0.0
        if a.size > MAX_FBS_AXIS:
            raise ValueError(f"axis too large: {a.size} points, 0 included (> {MAX_FBS_AXIS})")
        full_axes.append(a)
        nz_idx.append(~zero)

    rng = default_rng(Philox(key=seed))
    core = rng.standard_normal(tuple(int(m.sum()) for m in nz_idx))
    hs = [hurst.h0] + [hurst.h] * hurst.d
    for ax, (a, m, h) in enumerate(zip(full_axes, nz_idx, hs)):
        # each axis's factor applied to the normals as an (n, rest) matrix
        front = np.moveaxis(core, ax, 0)
        flat = front.reshape(front.shape[0], math.prod(front.shape[1:]))
        core = np.moveaxis(_chol_axis(a[m], h, flat).reshape(front.shape), 0, ax)

    values = np.zeros(tuple(a.size for a in full_axes))
    values[np.ix_(*[np.nonzero(m)[0] for m in nz_idx])] = core
    return FbsGridField(hurst, full_axes[0], full_axes[1:], values, seed, theta=theta, p=p)


def _bump_nodes(n_nodes: int):
    # compactly supported bump on [-1/2, 1/2], midpoint rule; weights
    # normalized so the discrete mass is exactly 1
    u = (np.arange(n_nodes) + 0.5) / n_nodes - 0.5
    du = 1.0 / n_nodes
    with np.errstate(divide="ignore", over="ignore"):
        rho = np.where(np.abs(u) < 0.5, np.exp(-1.0 / np.maximum(1 - (2 * u) ** 2, 1e-300)), 0.0)
    mass = np.sum(rho) * du
    rho = rho / mass
    drho = rho * (-8 * u) / np.maximum((1 - (2 * u) ** 2) ** 2, 1e-300)
    # project the derivative weights so the discrete moment identities
    # int rho' = 0 and int u rho'(u) du = -1 hold exactly; this makes the
    # quadrature derivative exact on fields affine in t
    drho = drho - np.mean(drho)
    drho = drho / (-np.sum(u * drho) * du)
    return u, rho, drho, du


class MollifiedField(DriverField):
    """Time mollification of a base field at scale 1/m.

    eta_m(t, x) = int rho_m(t - s) eta(s, x) ds with rho_m(t) = m rho(m t),
    rho the standard bump on [-1/2, 1/2].  Since every field here vanishes
    at t = 0, the base is extended below 0 by odd reflection (and constantly
    above T): with the even kernel this makes eta_m(0, x) = 0 exact with no
    offset, reproduces fields affine in t exactly at interior times, and
    keeps the m^{-tau} sup-distance rate (the reflection at most doubles the
    time-Holder constant).  The time derivative uses the same quadrature
    nodes applied to rho'.
    """

    has_time_derivative = True

    N_QUAD = 64

    def __init__(self, base: DriverField, m: int):
        if m <= 0:
            raise ValueError("m must be a positive integer")
        super().__init__(base.params, base.dim, base.horizon)
        self.base = base
        self.m = int(m)
        u, rho, drho, du = _bump_nodes(self.N_QUAD)
        self._s_nodes = u / m                    # quadrature offsets
        self._w = rho * du                       # weights for eta_m
        self._wd = drho * du * m                 # weights for d/dt eta_m

    @property
    def _lattice(self):
        return self.base._lattice

    def _fold(self, t, weights, base_at):
        # quadrature over the base at the nodes s = t - s_i, oddly reflected
        # below 0 and held above T; base_at maps the reflected times (q, n)
        # to base values (q, n, ...).  Terms are folded over the symmetric
        # node pairs first, so an even weight profile cancels exactly at
        # t = 0 (the kernel is even and the extension odd), keeping
        # eta_m(0, x) = 0 without a second pass
        q = self._s_nodes.size
        s = t[None, :] - self._s_nodes[:, None]  # (q, n)
        sign = np.where(s < 0, -1.0, 1.0)
        base = base_at(np.minimum(np.abs(s), self.horizon))
        w = (weights[:, None] * sign).reshape(s.shape + (1,) * (base.ndim - 2))
        terms = w * base
        folded = terms[: q // 2] + terms[q // 2 :][::-1]
        return folded.sum(axis=0)

    def _at(self, t, where, derivative):
        # one batched base evaluation across all quadrature nodes, with the
        # points located once and repeated over the nodes
        q, k = self._s_nodes.size, t.shape[0]
        if self._lattice is None:
            rep = np.tile(where, (q, 1))
        else:
            rep = [(np.tile(lo, q), np.tile(frac, q)) for lo, frac in where]
        return self._fold(
            t, self._wd if derivative else self._w,
            lambda s: self.base._at(s.reshape(q * k), rep, False).reshape(q, k),
        )

    def _rows(self, t, derivative=False):
        # the weighted base rows at every node, folded into one profile per time
        def base_at(s):
            rows = self.base._rows(s.ravel())
            return rows.reshape(s.shape + rows.shape[1:])

        return self._fold(t, self._wd if derivative else self._w, base_at)


_EPS_SEARCH = np.round(np.arange(0.01, 1.0, 0.01), 2)


@dataclass(frozen=True)
class AssumptionReport:
    h0: bool
    h0_weak: bool
    h2_1: bool
    h2_eps: float | None
    hurst_region: bool | None

    def lines(self):
        out = [
            f"(H0) tau+lam/p>1 with p>2, tau in (1/2,1]: {'PASS' if self.h0 else 'FAIL'}",
            f"(H0') tau+lam/2>1: {'PASS' if self.h0_weak else 'FAIL'}",
        ]
        if self.h2_1:
            out.append(f"(H2)(1) interpolation window: PASS (eps = {self.h2_eps})")
        else:
            out.append("(H2)(1) interpolation window: FAIL")
        if self.hurst_region is not None:
            out.append(f"hurst-region H0+H/2>1 and dH<2H0-1: {'PASS' if self.hurst_region else 'FAIL'}")
        return out


def assumption_check(params: RegularityParams, hurst: HurstParams | None = None) -> AssumptionReport:
    """Check which of the standing parameter regimes hold for the tuple.

    (H2)(1) requires a witnessing eps in (0, 1) with tau + (1-eps)/p > 1 and
    lam + beta < 2 eps tau / (1 + eps); eps is searched over the grid
    {0.01, ..., 0.99} and reported.
    """
    tau, lam, beta, p = params.tau, params.lam, params.beta, params.p
    h0 = p > 2 and 0.5 < tau <= 1 and 0 < lam <= 1 and tau + lam / p > 1
    h0_weak = 0.5 < tau <= 1 and 0 < lam <= 1 and tau + lam / 2 > 1
    h2_eps = None
    for eps in _EPS_SEARCH:
        if tau + (1 - eps) / p > 1 and lam + beta < 2 * eps / (1 + eps) * tau:
            h2_eps = float(eps)
            break
    region = None
    if hurst is not None:
        region = bool(
            hurst.h0 + hurst.h / 2 > 1 and hurst.d * hurst.h < 2 * hurst.h0 - 1
        )
    return AssumptionReport(
        h0=bool(h0),
        h0_weak=bool(h0_weak),
        h2_1=h2_eps is not None,
        h2_eps=h2_eps,
        hurst_region=region,
    )
