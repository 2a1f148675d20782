"""Forward diffusion simulation, exit indices, and 1-D reflection.

Brownian increments come from counter-based Philox streams: the increment
block for step j is generated from (key=seed, counter=[0,0,j,0]) and the
k-th value inside the block belongs to path k, so the ensemble is a pure
function of (seed, path, step) and identical however the work is scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .paths import SamplePath, TimeGrid

__all__ = [
    "SdeSpec",
    "PathEnsemble",
    "euler_maruyama",
    "StepNormals",
    "exit_indices",
    "reflect_1d",
]


@dataclass(frozen=True)
class SdeSpec:
    """dX = b dt + sigma dW with a constant scalar drift b and diffusion
    sigma (sigma I in d dimensions), and the start point.
    """

    drift: float
    diffusion: float
    x0: np.ndarray

    def __post_init__(self):
        for name in ("drift", "diffusion"):
            object.__setattr__(self, name, float(getattr(self, name)))
        object.__setattr__(self, "x0", np.atleast_1d(np.asarray(self.x0, dtype=float)))

    @property
    def dim(self) -> int:
        return self.x0.size


@dataclass
class PathEnsemble:
    """Simulated paths: x has shape (n_paths, n_times, d), dw (n_paths, n_times-1, d).

    Time-major storage, path-major views: euler_maruyama fills (n_times,
    n_paths, d) arrays and x, dw are their np.moveaxis views, so the
    per-step slices x[:, j] and dw[:, j] are C-contiguous.
    """

    grid: TimeGrid
    x: np.ndarray
    dw: np.ndarray
    seed: int

    @property
    def n_paths(self) -> int:
        return self.x.shape[0]

    @property
    def dim(self) -> int:
        return self.x.shape[2]

    def path(self, i: int) -> SamplePath:
        vals = self.x[i]
        return SamplePath(self.grid, vals[:, 0] if self.dim == 1 else vals)


class StepNormals:
    """Standard normals keyed by (seed, step): the block for step j is drawn
    from the Philox stream with key seed and counter [0, 0, j, 0].

    One Philox serves every step.  A call resets its counter (and the
    buffered state) instead of building a new generator, so the blocks do
    not depend on which steps were drawn before.
    """

    def __init__(self, seed: int):
        self._bits = Philox(key=seed)
        self._state = self._bits.state
        self._draw = Generator(self._bits).standard_normal

    def __call__(self, step: int, n_paths: int, dim: int) -> np.ndarray:
        self._state["state"]["counter"][:] = (0, 0, step, 0)
        self._bits.state = self._state
        return self._draw((n_paths, dim))


def euler_maruyama(spec: SdeSpec, grid: TimeGrid, n_paths: int, seed: int) -> PathEnsemble:
    """Euler-Maruyama ensemble with reproducible counter-based increments."""
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    d = spec.dim
    n = grid.n
    x = np.empty((n, n_paths, d))
    dw = np.empty((n - 1, n_paths, d))
    x[0] = spec.x0
    dts = grid.dt
    normals = StepNormals(seed)
    for j in range(n - 1):
        dw[j] = np.sqrt(dts[j]) * normals(j, n_paths, d)
        x[j + 1] = x[j] + spec.drift * dts[j] + spec.diffusion * dw[j]
    return PathEnsemble(grid=grid, x=np.moveaxis(x, 0, 1), dw=np.moveaxis(dw, 0, 1),
                        seed=int(seed))


def exit_indices(ensemble: PathEnsemble, radius: float) -> np.ndarray:
    """Per path, the first grid index with |X| > radius, else the last index."""
    x = np.moveaxis(ensemble.x, 1, 0)  # the time-major storage
    # |X| as np.linalg.norm computes it, without its (n, k, d) temporary:
    # sqrt(x^2) is |x| exactly, and numpy adds up to 7 squares in coordinate
    # order (from 8 on it sums pairwise, which may differ in the last bit)
    if x.shape[2] == 1:
        norms = np.abs(x[..., 0])
    else:
        norms = x[..., 0] ** 2
        for j in range(1, x.shape[2]):
            norms += x[..., j] ** 2
        np.sqrt(norms, out=norms)
    exceeded = norms > radius
    return np.where(exceeded.any(axis=0), exceeded.argmax(axis=0), ensemble.grid.n - 1)


def reflect_1d(increments: np.ndarray, interval: tuple[float, float], x0):
    """Discrete two-sided Skorohod map on [a, b].

    Proposes X' = X + dW each step, clips into [a, b], and accumulates the
    clipped amount into the nondecreasing local time L (the inward push;
    both boundaries push inward, so magnitudes add).  increments has shape
    (n_paths, n_steps); x0 is one start or one per path.

    Returns (X, L) with one more column than increments: time-major
    storage, path-major views, so each step X[:, j] is C-contiguous.
    """
    a, b = interval
    if not a < b:
        raise ValueError("need a < b")
    x0_arr = np.asarray(x0, dtype=float)
    if np.any(x0_arr < a) or np.any(x0_arr > b):
        raise ValueError("x0 outside the reflection interval")
    inc = np.ascontiguousarray(np.transpose(increments), dtype=float)  # time-major
    n_steps, n_paths = inc.shape
    x = np.empty((n_steps + 1, n_paths))
    loc = np.zeros((n_steps + 1, n_paths))
    x[0] = x0_arr
    for j in range(n_steps):
        prop = x[j] + inc[j]
        x[j + 1] = np.clip(prop, a, b)
        loc[j + 1] = loc[j] + np.abs(prop - x[j + 1])
    return x.T, loc.T
