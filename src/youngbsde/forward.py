"""Forward diffusion simulation, exit times, and 1-D reflection.

Brownian increments come from counter-based Philox streams: the increment
block for step j is generated from (key=seed, counter=[0,0,j,0]) and the
k-th value inside the block belongs to path k, so the ensemble is a pure
function of (seed, path, step) and identical however the work is scheduled.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .paths import SamplePath, TimeGrid, write_csv

__all__ = [
    "SdeSpec",
    "PathEnsemble",
    "euler_maruyama",
    "step_normals",
    "exit_time",
    "exit_indices",
    "reflect_1d",
    "save_ensemble",
    "load_ensemble",
]


@dataclass(frozen=True)
class SdeSpec:
    """Drift b(t, x), diffusion sigma(t, x), start point, and declared bound L.

    b maps (t, x-batch (k, d)) -> (k, d); sigma -> (k, d, d).  Scalars and
    constant arrays are accepted and wrapped.  L is the declared sup bound
    of |b| and |sigma|, asserted on every sampled point during simulation.
    """

    drift: object
    diffusion: object
    x0: np.ndarray
    bound: float
    name: str = "sde"

    def __post_init__(self):
        object.__setattr__(self, "x0", np.atleast_1d(np.asarray(self.x0, dtype=float)))
        if self.bound <= 0:
            raise ValueError("bound L must be positive")

    @property
    def dim(self) -> int:
        return self.x0.size

    def b(self, t: float, x: np.ndarray) -> np.ndarray:
        if callable(self.drift):
            return np.asarray(self.drift(t, x), dtype=float).reshape(x.shape)
        return np.broadcast_to(np.asarray(self.drift, dtype=float), x.shape)

    def sigma(self, t: float, x: np.ndarray) -> np.ndarray:
        k, d = x.shape
        if callable(self.diffusion):
            return np.asarray(self.diffusion(t, x), dtype=float).reshape(k, d, d)
        s = np.asarray(self.diffusion, dtype=float)
        if s.ndim == 0:
            s = float(s) * np.eye(d)
        return np.broadcast_to(s, (k, d, d))

    def content_hash(self) -> str:
        parts = [
            self.name,
            getattr(self.drift, "__name__", repr(self.drift)),
            getattr(self.diffusion, "__name__", repr(self.diffusion)),
            repr(self.x0.tolist()),
            repr(self.bound),
        ]
        return hashlib.sha256("|".join(parts).encode()).hexdigest()[:16]


@dataclass
class PathEnsemble:
    """Simulated paths: x has shape (n_paths, n_times, d), dw (n_paths, n_times-1, d)."""

    grid: TimeGrid
    x: np.ndarray
    dw: np.ndarray
    seed: int
    spec_hash: str = ""

    @property
    def n_paths(self) -> int:
        return self.x.shape[0]

    @property
    def dim(self) -> int:
        return self.x.shape[2]

    def path(self, i: int) -> SamplePath:
        vals = self.x[i]
        return SamplePath(self.grid, vals[:, 0] if self.dim == 1 else vals)

    def increment_moments_ok(self, z: float = 5.0) -> bool:
        """Smoke check: per-step mean within z SE of 0, variance within z SE of dt."""
        n = self.n_paths
        dts = self.grid.dt
        for j in range(self.dw.shape[1]):
            for a in range(self.dim):
                col = self.dw[:, j, a]
                se_mean = np.sqrt(dts[j] / n)
                if abs(col.mean()) > z * se_mean:
                    return False
                se_var = dts[j] * np.sqrt(2.0 / (n - 1))
                if abs(col.var(ddof=1) - dts[j]) > z * se_var:
                    return False
        return True


def step_normals(seed: int, step: int, n_paths: int, dim: int) -> np.ndarray:
    """Standard normals for one time step, keyed by (seed, step)."""
    bg = np.random.Philox(key=seed, counter=[0, 0, step, 0])
    return np.random.Generator(bg).standard_normal((n_paths, dim))


def euler_maruyama(spec: SdeSpec, grid: TimeGrid, n_paths: int, seed: int) -> PathEnsemble:
    """Euler-Maruyama ensemble with reproducible counter-based increments."""
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    d = spec.dim
    n = grid.n
    x = np.empty((n_paths, n, d))
    dw = np.empty((n_paths, n - 1, d))
    x[:, 0] = spec.x0
    dts = grid.dt
    for j in range(n - 1):
        xj = x[:, j]
        bj = spec.b(grid.points[j], xj)
        sj = spec.sigma(grid.points[j], xj)
        if np.max(np.abs(bj)) > spec.bound + 1e-12 or np.max(np.abs(sj)) > spec.bound + 1e-12:
            raise ValueError("drift/diffusion exceeded the declared bound L")
        z = step_normals(seed, j, n_paths, d)
        dw[:, j] = np.sqrt(dts[j]) * z
        x[:, j + 1] = xj + bj * dts[j] + np.einsum("kab,kb->ka", sj, dw[:, j])
    return PathEnsemble(grid=grid, x=x, dw=dw, seed=int(seed), spec_hash=spec.content_hash())


def exit_indices(ensemble: PathEnsemble, radius: float) -> np.ndarray:
    """Per path, the first grid index with |X| > radius, else the last index."""
    norms = np.linalg.norm(ensemble.x, axis=2)
    exceeded = norms > radius
    out = np.where(exceeded.any(axis=1), exceeded.argmax(axis=1), ensemble.grid.n - 1)
    return out


def exit_time(path: SamplePath, radius: float) -> float:
    """First grid time with |X_t| > radius, else the horizon T."""
    v = path.as_matrix()
    norms = np.linalg.norm(v, axis=1)
    hits = np.nonzero(norms > radius)[0]
    if hits.size == 0:
        return path.grid.horizon
    return float(path.grid.points[hits[0]])


def reflect_1d(increments: np.ndarray, interval: tuple[float, float], x0: float, dts=None):
    """Discrete two-sided Skorohod map on [a, b].

    Proposes X' = X + dW each step, clips into [a, b], and accumulates the
    clipped amount into the nondecreasing local time L (the inward push;
    both boundaries push inward, so magnitudes add).  increments may be
    (n_steps,) for one path or (n_paths, n_steps).

    Returns (X, L) with one more column than increments.
    """
    a, b = interval
    if not a < b:
        raise ValueError("need a < b")
    x0_arr = np.asarray(x0, dtype=float)
    if np.any(x0_arr < a) or np.any(x0_arr > b):
        raise ValueError("x0 outside the reflection interval")
    inc = np.asarray(increments, dtype=float)
    single = inc.ndim == 1
    if single:
        inc = inc[None, :]
    n_paths, n_steps = inc.shape
    x = np.empty((n_paths, n_steps + 1))
    loc = np.zeros((n_paths, n_steps + 1))
    x[:, 0] = x0_arr
    for j in range(n_steps):
        prop = x[:, j] + inc[:, j]
        clipped = np.clip(prop, a, b)
        loc[:, j + 1] = loc[:, j] + np.abs(prop - clipped)
        x[:, j + 1] = clipped
    if single:
        return x[0], loc[0]
    return x, loc


def save_ensemble(ensemble: PathEnsemble, prefix: str | Path, paths_csv: int = 0) -> None:
    """Binary tensor + JSON sidecar; optionally the first paths as CSV."""
    prefix = Path(prefix)
    data = np.ascontiguousarray(ensemble.x, dtype="<f8")
    prefix.with_suffix(".bin").write_bytes(data.tobytes())
    dw = np.ascontiguousarray(ensemble.dw, dtype="<f8")
    prefix.with_suffix(".dw.bin").write_bytes(dw.tobytes())
    sidecar = {
        "spec_hash": ensemble.spec_hash,
        "grid": ensemble.grid.points.tolist(),
        "seed": ensemble.seed,
        "shape": list(data.shape),
        "dtype": "<f8",
    }
    prefix.with_suffix(".json").write_text(json.dumps(sidecar, indent=2))
    if paths_csv > 0:
        write_csv(
            prefix.with_suffix(".csv"),
            ["t"] + [f"path{i}_x{a}" for i in range(paths_csv) for a in range(ensemble.dim)],
            (
                [t, *ensemble.x[np.arange(paths_csv), j].ravel()]
                for j, t in enumerate(ensemble.grid.points)
            ),
        )


def load_ensemble(prefix: str | Path) -> PathEnsemble:
    prefix = Path(prefix)
    sidecar = json.loads(prefix.with_suffix(".json").read_text())
    shape = sidecar["shape"]
    x = np.frombuffer(prefix.with_suffix(".bin").read_bytes(), dtype="<f8").reshape(shape)
    dw = np.frombuffer(prefix.with_suffix(".dw.bin").read_bytes(), dtype="<f8").reshape(
        shape[0], shape[1] - 1, shape[2]
    )
    return PathEnsemble(
        grid=TimeGrid(np.asarray(sidecar["grid"])),
        x=x.copy(),
        dw=dw.copy(),
        seed=sidecar["seed"],
        spec_hash=sidecar["spec_hash"],
    )
