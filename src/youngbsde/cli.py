"""Config-driven experiment runner.

A single self-describing JSON document names one experiment and its inputs;
"_comment" keys are ignored, unknown keys are rejected.  Each run writes
results.csv, manifest.json (the validated config with every default filled
in, seed, library version, wall time, and the OPENBLAS_NUM_THREADS and
OMP_NUM_THREADS values the process started with, null when unset), and
summary.txt; this module writes every file the package writes.  Exit
status: 0 success, 2 config error (also a file that cannot be read or is
not UTF-8 JSON), 3 numerical failure (a paths.NumericalError, numpy's own
LinAlgError or FloatingPointError, or a RuntimeWarning raised as an error).

    youngbsde run  config.json [--out DIR]   (DIR defaults to youngbsde-out)
    youngbsde check config.json

results.csv is RFC-4180 with CRLF line ends: floats at 17 significant
digits, '.' decimal, every other cell as str(); a point's x is a number in
1-D and a list in 2-D.  fbs-generate also writes <prefix>.bin, the C-ordered
little-endian float64 values, and the <prefix>.json sidecar: hurst
{h0, h, d}, time_points, space_axes (one list per axis), seed, shape (time
points, space points per axis...), dtype ("<f8") and order ("C").  Both
suffixes are appended to the whole prefix, dots included.

To cap BLAS threads, set OPENBLAS_NUM_THREADS (or OMP_NUM_THREADS) before
the process starts.  At a fixed thread count an identical config writes
identical bytes; across thread counts BLAS may split its sums differently,
so results can differ at the rounding level.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .bsde import (
    BsdeSpec,
    PicardParams,
    RegressionBasis,
    backward_solve,
    comparison_experiment,
    diagnostics,
    linear_closed_form,
    localization_sweep,
    terminal_h_of_xt,
    terminal_running_max,
    zero_coupling,
    zero_generator,
)
from .driver import (
    MAX_FBS_AXIS,
    HurstParams,
    MollifiedField,
    RegularityParams,
    SeparableField,
    assumption_check,
    fbs_generate,
)
from .flow import exp_formula_1d, inverse_flow, solve_linear_yode
from .forward import SdeSpec, euler_maruyama
from .paths import NumericalError, SamplePath, TimeGrid
from .pde import (
    PdeSpec,
    feynman_kac_cross_check,
    localization_error_experiment,
    neumann_fk_estimate,
    young_pde_table,
)
from .sewing import left_point_sums


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------- registries

def _affine_in_time(phi):
    # the field t phi(x): a(t) = t, and a'(t) = 1 at every time, as a scalar
    return SeparableField(
        lambda t: t, phi, RegularityParams(tau=1.0, lam=1.0, p=2.5), da=lambda t: 1.0
    )


ANALYTIC_FIELDS = {
    "time": _affine_in_time(lambda x: np.ones(x.shape[0])),
    "bilinear": _affine_in_time(lambda x: x[:, 0]),
    "sin_x_time": _affine_in_time(lambda x: np.sin(x[:, 0])),
    "cos_x_time": _affine_in_time(lambda x: np.cos(x[:, 0])),
    "gauss_x_time": _affine_in_time(lambda x: np.exp(-x[:, 0] ** 2)),
    "sin_x_t08": SeparableField(
        lambda t: t**0.8, lambda x: np.sin(x[:, 0]), RegularityParams(tau=0.8, lam=1.0, p=2.5)
    ),
    "zero": _affine_in_time(lambda x: np.zeros(x.shape[0])),
}


def build_field(cfg: dict):
    """The driver field of a validated driver section."""
    if cfg["kind"] == "analytic":
        return ANALYTIC_FIELDS[cfg["name"]]
    if cfg["kind"] == "mollified":
        return MollifiedField(build_field(cfg["base"]), cfg["m"])
    hurst = HurstParams(**cfg["hurst"])
    t_ax = np.linspace(0.0, cfg["horizon"], cfg["time_cells"] + 1)
    x_ax = np.linspace(cfg["space_min"], cfg["space_max"], cfg["space_cells"] + 1)
    return fbs_generate(hurst, t_ax, [x_ax] * hurst.d, seed=cfg["seed"], theta=cfg["theta"],
                        p=cfg["p"])


TERMINALS = {
    "cos": lambda shift: terminal_h_of_xt(lambda x: np.cos(x[:, 0]) + shift),
    "gauss": lambda shift: terminal_h_of_xt(lambda x: np.exp(-np.sum(x**2, axis=1)) + shift),
    "constant": lambda shift: terminal_h_of_xt(lambda x: np.full(x.shape[0], shift)),
    "running-max": lambda shift: lambda ens, idx: terminal_running_max()(ens, idx) + shift,
}


def _ignores_z(generator):
    # f(t, x, y, z) never reads z: the PDE passes None there and builds no
    # sigma grad u
    generator.reads_z = False
    return generator


GENERATORS = {
    "zero": lambda coef: zero_generator,
    "linear-y": lambda coef: _ignores_z(lambda t, x, y, z: coef * y),
    "sin-y": lambda coef: _ignores_z(lambda t, x, y, z: coef * np.sin(y)),
    "sqrt-sin": lambda coef: _ignores_z(
        lambda t, x, y, z: coef * np.sqrt(np.abs(x[:, 0])) * np.sin(y)),
}

COUPLINGS = {
    "zero": zero_coupling,
    "identity": lambda y: y,
    "sin": np.sin,
    "cos": np.cos,
}

PDE_TERMINALS = {
    "cos": lambda x: np.cos(x[:, 0]),
    "gauss": lambda x: np.exp(-np.sum(x**2, axis=1) / (2 * 0.15**2)),
}

# f(t, x, u, w) of the PDE is the BSDE generator at coef 1, w in the z slot
PDE_GENERATORS = {name: GENERATORS[name](1.0) for name in ("zero", "sqrt-sin")}

PDE_COUPLINGS = {name: COUPLINGS[name] for name in ("zero", "identity", "sin")}

NEUMANN_TERMINALS = {
    "one": lambda x: np.ones(x.shape[0]),
    "cos-pi": lambda x: np.cos(np.pi * x[:, 0]),
}


def build_forward(cfg: dict) -> tuple[SdeSpec, TimeGrid]:
    spec = {key: cfg[key] for key in ("drift", "diffusion", "x0")}
    return SdeSpec(**spec), TimeGrid.uniform(cfg["horizon"], cfg["steps"])


def build_pde_spec(cfg: dict, fieldv) -> PdeSpec:
    return PdeSpec(**{
        **cfg, "terminal": PDE_TERMINALS[cfg["terminal"]],
        "generator": PDE_GENERATORS[cfg["generator"]], "coupling": PDE_COUPLINGS[cfg["coupling"]],
    }, fieldv=fieldv)


# ------------------------------------------------------------------- schema
#
# One table gives every key of every experiment: a _Leaf (a test of the
# value and its default), a dict (an object with exactly those keys, {} when
# absent), or an _Obj (an object with its own default, or whose keys depend
# on its "kind").  A default of None also accepts null; _REQUIRED makes the
# key mandatory.  validate_config walks the table once and returns the
# config with every default filled in.

_REQUIRED = object()
_ABSENT = object()


class _Leaf:
    def __init__(self, what: str, ok, default=_REQUIRED):
        self.what, self.ok, self.default = what, ok, default


class _Obj:
    # fields maps each key to its rule; with kinds, fields maps each "kind"
    # to the rules of that variant
    def __init__(self, default, fields: dict, kinds=False):
        self.default, self.fields, self.kinds = default, fields, kinds


def _is_real(v) -> bool:
    # a finite float, or an int within float range
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _num(default=_REQUIRED, lo=-np.inf, hi=np.inf, lo_in=False, hi_in=False) -> _Leaf:
    """A finite number between lo and hi, each bound included when its
    lo_in/hi_in is set."""
    what = f"a number in {'[' if lo_in else '('}{lo}, {hi}{']' if hi_in else ')'}"
    return _Leaf(what, lambda v: _is_real(v) and (
        (lo <= v if lo_in else lo < v) and (v <= hi if hi_in else v < hi)
    ), default)


def _count(default=_REQUIRED, lo=1, hi=None) -> _Leaf:
    what = f"an integer >= {lo}" if hi is None else f"an integer in [{lo}, {hi}]"
    return _Leaf(what, lambda v: isinstance(v, int) and not isinstance(v, bool) and lo <= v
                 and (hi is None or v <= hi), default)


def _seed(default=_REQUIRED) -> _Leaf:
    return _count(default, lo=0, hi=2**63 - 1)


def _enum(default, names) -> _Leaf:
    return _Leaf(f"one of {sorted(names)}", lambda v: isinstance(v, str) and v in names, default)


def _list(default, item: _Leaf, size=None) -> _Leaf:
    """A non-empty list of `item` values (of `size` entries when given)."""
    return _Leaf(
        f"{'a non-empty list' if size is None else f'a list of {size}'}, each {item.what}",
        lambda v: isinstance(v, list) and len(v) >= 1 and (size is None or len(v) == size)
        and all(map(item.ok, v)),
        default,
    )


def _text(default=_REQUIRED) -> _Leaf:
    return _Leaf("a string", lambda v: isinstance(v, str), default)


def _is_point(v) -> bool:
    # [t, x] with x a number or a list of coordinates
    return isinstance(v, list) and len(v) == 2 and _is_real(v[0]) and (
        _is_real(v[1]) or isinstance(v[1], list) and len(v[1]) >= 1 and all(map(_is_real, v[1]))
    )


_HURST = {"h0": _num(lo=0, hi=1), "h": _num(lo=0, hi=1), "d": _count(1)}

_FBS_CELLS = MAX_FBS_AXIS - 2  # cells + 1 nodes, plus 0 when the axis misses it

# the most fine cells, cells * 2^levels, that integrate and flow refine to
# (flow counts the dim^2 entries of each fine factor); both walk the fine
# cells in blocks (paths.dyadic_blocks), so a run at the bound peaks at about
# 44 MB resident, 36 MB of it the interpreter and numpy
MAX_FINE_POINTS = 2**22

# the most (path, time, coordinate) entries, paths * (steps + 1) * dim, of
# the Euler-Maruyama or reflected ensemble an experiment simulates; X and dW
# at 2^23 entries take about 0.13 GB, and a run at the bound peaks at about
# 0.32 GB (localize, one radius's solution at a time) to 0.37 GB
# (nonlinear-bsde)
MAX_PATH_POINTS = 2**23

# the most cells of a 1-D finite-difference grid, cross-check's doubled grid
# included; the dense inverse of the implicit matrix then takes 0.13 GB
MAX_FD_CELLS_1D = 2**12

# the most nodes, (time_steps + 1) * (cells + 1)^2, of a 2-D finite-difference
# grid, cross-check's doubled grid included; the experiments hold two time
# levels at a time, so this bounds the run time (a whole solution of it would
# take 0.27 GB), and the default 2-D cross-check has 2.9e7
MAX_FD_NODES_2D = 2**25

_DRIVERS = {
    "analytic": {"name": _enum("time", ANALYTIC_FIELDS)},
    "fbs": {
        "hurst": _Obj(_REQUIRED, _HURST),
        "horizon": _num(1.0, lo=0),
        "time_cells": _count(512, hi=_FBS_CELLS),
        "space_min": _num(-6.0),
        "space_max": _num(6.0),
        "space_cells": _count(128, hi=_FBS_CELLS),
        "seed": _seed(0),
        "theta": _num(0.05, lo=0),
        "p": _num(2.05, lo=2),
    },
}
_DRIVERS["mollified"] = {"base": _Obj(_REQUIRED, _DRIVERS, kinds=True), "m": _count(8)}


_FORWARD = {
    "drift": _num(0.0),
    "diffusion": _num(1.0),
    "x0": _list([0.0], _num()),
    "steps": _count(64),
    "horizon": _num(1.0, lo=0),
}

_BSDE = {
    "terminal": {"name": _enum("cos", TERMINALS), "shift": _num(0.0)},
    "generator": {"name": _enum("zero", GENERATORS), "coef": _num(1.0)},
    "coupling": {"name": _enum("zero", COUPLINGS)},
}

_BASIS = {"degree": _count(3, lo=0), "ridge": _num(1e-8, lo=0, lo_in=True)}

_PICARD = {"max_iter": _count(8), "tol": _num(1e-9, lo=0, lo_in=True)}

# the box experiments give each box its own half-width; cross-check adds
# "halfwidth"
_PDE = {
    "dim": _count(1, hi=2),
    "horizon": _num(0.5, lo=0),
    "terminal": _enum("cos", PDE_TERMINALS),
    # sigma^2 stays above pde.ELLIPTICITY_FLOOR = 1e-8
    "sigma": _num(1.0, lo=1e-4, lo_in=True),
    "drift": _num(0.0),
    "generator": _enum("zero", PDE_GENERATORS),
    "coupling": _enum("zero", PDE_COUPLINGS),
}

_POINTS = _list([[0.0, 0.0]], _Leaf("a [t, x] point", _is_point))

# the couplings g(y) = alpha y, with their alpha, that the linear-bsde
# closed form covers (with the zero generator)
_LINEAR_COUPLINGS = {"zero": 0.0, "identity": 1.0}

_BSDE_KEYS = {
    "driver": _Obj({"name": "time"}, _DRIVERS, kinds=True),
    "forward": _FORWARD,
    "bsde": _BSDE,
    "basis": _BASIS,
    "picard": _PICARD,
    # every experiment with paths estimates a standard error over them
    # (localize one per radius, which results.csv leaves out), so needs two
    "paths": _count(4000, lo=2),
}


def _experiment(seed=_REQUIRED, **keys) -> dict:
    return {
        "experiment": _text(),
        "seed": _seed(seed),
        **keys,
    }


_TABLE = {
    "integrate": _experiment(
        seed=0, levels=_count(14, lo=0), cells=_count(64), path_seed=_seed(2024),
    ),
    "flow": _experiment(
        driver=_Obj({"name": "sin_x_t08"}, _DRIVERS, kinds=True), cells=_count(32),
        levels=_count(0, lo=0), alpha_seed=_seed(1), path_seed=_seed(7), dim=_count(2),
    ),
    "linear-bsde": _experiment(**{**_BSDE_KEYS, "bsde": {
        **_BSDE,
        "generator": {"name": _enum("zero", ["zero"]), "coef": _num(1.0)},
        "coupling": {"name": _enum("zero", _LINEAR_COUPLINGS)},
    }}),
    "nonlinear-bsde": _experiment(
        **_BSDE_KEYS, diag_p=_num(2.5, lo=1, lo_in=True), diag_k=_num(2.0, lo=0),
    ),
    "localize": _experiment(**_BSDE_KEYS, radii=_list([1.0, 2.0, 3.0], _num(lo=0))),
    "compare": _experiment(
        **_BSDE_KEYS, shift=_num(0.1, lo=0, lo_in=True), eps_reg=_num(1e-2, lo=0, lo_in=True),
    ),
    "pde-table": _experiment(
        seed=0, pde=_PDE, driver=_Obj(_REQUIRED, _DRIVERS, kinds=True),
        n_list=_list([2.0, 3.0], _num(lo=0)), m_list=_list([4, 8], _count()),
        points=_POINTS, time_steps=_count(64), cells_per_unit=_count(16),
        threshold=_num(1e-2, lo=0),
    ),
    "cross-check": _experiment(
        pde={"halfwidth": _num(2.0, lo=0), **_PDE}, driver=_Obj(_REQUIRED, _DRIVERS, kinds=True),
        points=_POINTS, paths=_count(20_000, lo=2), time_steps=_count(96),
        space_steps=_count(192, lo=2), mc_time_steps=_count(96), basis=_BASIS, picard=_PICARD,
    ),
    "localization-error": _experiment(
        seed=0, pde=_PDE, driver=_Obj({"name": "time"}, _DRIVERS, kinds=True),
        n_list=_list([2.0, 4.0, 6.0], _num(lo=0)), n_max=_num(8.0, lo=0), points=_POINTS,
        time_steps=_count(96), cells_per_unit=_count(16),
    ),
    "neumann": _experiment(
        driver=_Obj(_REQUIRED, _DRIVERS, kinds=True), interval=_list([0.0, 1.0], _num(), size=2),
        start=_list([0.0, 0.5], _num(), size=2), paths=_count(20_000, lo=2), steps=_count(256),
        terminal_name=_enum("cos-pi", NEUMANN_TERMINALS),
    ),
    "fbs-generate": _experiment(
        driver=_Obj(_REQUIRED, {"fbs": _DRIVERS["fbs"]}, kinds=True),
        # the run writes <prefix>.bin and <prefix>.json next to manifest.json,
        # so no NUL or lone surrogate (no UTF-8), and <prefix>.json within the
        # 255-byte file-name limit of Linux and macOS
        prefix=_Leaf("a file name other than manifest, of at most 250 UTF-8 bytes",
                     lambda v: isinstance(v, str) and v not in ("", ".", "..", "manifest")
                     and Path(v).name == v and "\0" not in v
                     and not any("\ud800" <= c <= "\udfff" for c in v) and len(v.encode()) <= 250,
                     "fbs_realization"),
    ),
    "assumptions": _experiment(
        seed=0,
        params={
            "tau": _num(0.9, lo=0, hi=1, hi_in=True),
            "lam": _num(0.5, lo=0, hi=1, hi_in=True),
            "beta": _num(0.0, lo=0, lo_in=True),
            "p": _num(2.05, lo=2),
        },
        hurst=_Obj(None, _HURST),
    ),
}


def _walk(node, value, key: str):
    """`value` (or _ABSENT) at `key` checked against `node`, defaults filled."""
    default = node.default if isinstance(node, (_Leaf, _Obj)) else {}
    if value is _ABSENT:
        if default is _REQUIRED:
            raise ConfigError(f"missing required key: {key}")
        value = default
    if value is None and default is None:
        return None
    if isinstance(node, _Leaf):
        if not node.ok(value):
            raise ConfigError(f"{key}: expected {node.what}, got {value!r}")
        return value
    if not isinstance(value, dict):
        raise ConfigError(f"{key}: expected an object, got {value!r}")
    value = {name: v for name, v in value.items() if not name.startswith("_comment")}
    if isinstance(node, _Obj) and node.kinds:
        kind = _walk(_enum("analytic", node.fields), value.get("kind", _ABSENT), f"{key}.kind")
        value, node = {**value, "kind": kind}, {"kind": _text(), **node.fields[kind]}
    elif isinstance(node, _Obj):
        node = node.fields
    prefix = f"{key}." if key else ""
    for name in value:
        if name not in node:
            raise ConfigError(f"unknown key: {prefix}{name}")
    return {name: _walk(rule, value.get(name, _ABSENT), prefix + name)
            for name, rule in node.items()}


def validate_config(cfg: dict) -> dict:
    """The config with every default filled in, or ConfigError naming the
    offending key."""
    if not isinstance(cfg, dict):
        raise ConfigError("expected a JSON object")
    if "experiment" not in cfg:
        raise ConfigError("missing required key: experiment")
    name = cfg["experiment"]
    if not (isinstance(name, str) and name in _TABLE):
        raise ConfigError(f"unknown experiment {name!r}; expected one of {sorted(_TABLE)}")
    cfg = _walk(_TABLE[name], cfg, "")
    _check_relations(cfg)
    return cfg


# ------------------------------------------------- checks that relate keys

def _check_relations(cfg: dict) -> None:
    """The checks that relate two keys of a walked config."""
    exp = cfg["experiment"]
    driver, key = cfg.get("driver"), "driver"
    while driver is not None and driver["kind"] == "mollified":
        driver, key = driver["base"], f"{key}.base"
    horizon = None if driver is None else (
        driver["horizon"] if driver["kind"] == "fbs" else ANALYTIC_FIELDS[driver["name"]].horizon)
    if driver is not None and driver["kind"] == "fbs":
        if not driver["space_min"] < driver["space_max"]:
            raise ConfigError(f"{key}.space_min: expected a number below {key}.space_max")
        if not driver["theta"] < min(driver["hurst"]["h0"], driver["hurst"]["h"]):
            raise ConfigError(f"{key}.theta: expected a number below {key}.hurst.h0 and .h")
        # the space dimension of the points the experiment evaluates the driver at
        state_dim = (len(cfg["forward"]["x0"]) if "forward" in cfg
                     else cfg["pde"]["dim"] if "pde" in cfg else 1)
        if exp != "fbs-generate" and driver["hurst"]["d"] > state_dim:
            raise ConfigError(f"{key}.hurst.d: expected at most the state dimension {state_dim}")
    if exp in ("integrate", "flow"):
        level0 = cfg["cells"] * (cfg["dim"] ** 2 if exp == "flow" else 1)
        if level0 > MAX_FINE_POINTS >> cfg["levels"]:
            raise ConfigError(
                f"levels: cells * 2^levels{' * dim^2' if exp == 'flow' else ''} must be at "
                f"most {MAX_FINE_POINTS}, got {level0} * 2^{cfg['levels']}"
            )
    fwd = cfg.get("forward")
    if "paths" in cfg:
        # the forward SDE of the BSDE experiments, cross-check's Monte Carlo
        # side, or neumann's reflected paths
        if fwd is not None:
            steps_key, steps, dim = "forward.steps", fwd["steps"], len(fwd["x0"])
        elif exp == "cross-check":
            steps_key, steps, dim = "mc_time_steps", cfg["mc_time_steps"], cfg["pde"]["dim"]
        else:
            steps_key, steps, dim = "steps", cfg["steps"], 1
        if cfg["paths"] * (steps + 1) * dim > MAX_PATH_POINTS:
            raise ConfigError(
                f"paths: paths * ({steps_key} + 1) * dim must be at most {MAX_PATH_POINTS}, "
                f"got {cfg['paths']} * {steps + 1} * {dim}"
            )
    top = cfg.get("driver")
    if cfg["experiment"] in ("cross-check", "localization-error") and not (
        top["kind"] == "mollified"
        or top["kind"] == "analytic" and ANALYTIC_FIELDS[top["name"]].has_time_derivative
    ):
        raise ConfigError("driver: the PDE needs a driver with a time derivative")
    if exp == "localization-error" and len(set(cfg["n_list"])) < 2:
        raise ConfigError("n_list: expected at least two distinct box half-widths")
    if exp == "localization-error" and not cfg["n_max"] > max(cfg["n_list"]):
        raise ConfigError(f"n_max: expected a half-width above every entry of n_list, "
                          f"got {cfg['n_max']}")
    if exp in ("pde-table", "localization-error"):
        boxes = [("n_list", n) for n in cfg["n_list"]]
        boxes += [("n_max", cfg["n_max"])] if exp == "localization-error" else []
        for name, n in boxes:
            if int(2 * n * cfg["cells_per_unit"]) < 2:
                raise ConfigError(f"{name}: half-width {n} gives under 2 cells per axis "
                                  f"at cells_per_unit {cfg['cells_per_unit']}")
    if exp in ("pde-table", "cross-check", "localization-error"):
        pde = cfg["pde"]
        half = pde["halfwidth"] if exp == "cross-check" else min(n for _, n in boxes)
        # the Monte Carlo side of cross-check starts the driver at t
        t_end = min(pde["horizon"], horizon) if exp == "cross-check" else pde["horizon"]
        for point, (t, xs) in zip(cfg["points"], _points(cfg)):
            if not (0 <= t < t_end and len(xs) == pde["dim"] and all(abs(c) <= half for c in xs)):
                raise ConfigError(
                    f"points: expected [t, x] with t in [0, {t_end}) and x of "
                    f"{pde['dim']} coordinates in [-{half}, {half}], got {point}"
                )
        key, cells, steps = (
            ("space_steps", 2 * cfg["space_steps"], 2 * cfg["time_steps"]) if exp == "cross-check"
            else ("cells_per_unit", max(int(2 * n * cfg["cells_per_unit"]) for _, n in boxes),
                  cfg["time_steps"]))
        if pde["dim"] == 1 and cells > MAX_FD_CELLS_1D:
            raise ConfigError(f"{key}: a 1-D grid may have at most {MAX_FD_CELLS_1D} cells, "
                              f"got {cells}")
        if pde["dim"] == 2 and (steps + 1) * (cells + 1) ** 2 > MAX_FD_NODES_2D:
            raise ConfigError(f"{key}: a 2-D grid may have at most {MAX_FD_NODES_2D} nodes "
                              f"(time steps + 1) * (cells + 1)^2, got {steps + 1} * {cells + 1}^2")
    if exp == "neumann":
        (a, b), (t0, x0) = cfg["interval"], cfg["start"]
        if not a < b:
            raise ConfigError(f"interval: expected [a, b] with a < b, got {[a, b]}")
        if not (0 <= t0 < horizon and a <= x0 <= b):
            raise ConfigError(f"start: expected [t, x] with t in [0, {horizon}) and x in "
                              f"[{a}, {b}], got {[t0, x0]}")


# -------------------------------------------------------------- experiments

def _points(cfg: dict) -> list:
    """Each [t, x] of cfg["points"] as (t, coordinates): x becomes a list of
    floats whether the config gives a number or a list."""
    return [(float(t), [float(c) for c in (x if isinstance(x, list) else [x])])
            for t, x in cfg["points"]]


def _x_cell(xs: list):
    # a point's coordinates as results.csv writes them
    return xs[0] if len(xs) == 1 else xs


def _brownian_sample(cells: int, seed: int, horizon: float = 1.0) -> SamplePath:
    spec = SdeSpec(drift=0.0, diffusion=1.0, x0=[0.0])
    ens = euler_maruyama(spec, TimeGrid.uniform(horizon, cells), 1, seed)
    return ens.path(0)


def _run_integrate(cfg, out_dir):
    x = _brownian_sample(cfg["cells"], cfg["path_seed"])
    grid, levels = x.grid, cfg["levels"]
    cases = ["time", "bilinear", "sin_x_time", "cos_x_time", "gauss_x_time"]
    fields = [ANALYTIC_FIELDS[name] for name in cases]
    y = SamplePath(grid, np.cos(grid.points))

    def germ(s, t, ys, xs):
        # per case, y_s phi(x_s) once, for the Young term y_s phi(x_s)
        # (a(t) - a(s)) and the left quadrature term of y d_t eta,
        # y_s phi(x_s) a'(s) (t - s)
        dt = t - s
        for fld in fields:
            yphi = ys * fld.phi(xs)
            yield yphi * (fld.a(t) - fld.a(s))
            yield yphi * (fld.da(s) * dt)

    sums = left_point_sums(germ, y, x, 2 * len(fields), levels).values[-1].tolist()
    rows = [
        {"case": name, "young": young, "riemann": quad, "abs_diff": abs(young - quad)}
        for name, young, quad in zip(cases, sums[0::2], sums[1::2])
    ]
    summary = [f"{r['case']}: |Young - Riemann| = {r['abs_diff']:.3e}" for r in rows]
    ok = all(r["abs_diff"] <= 1e-6 for r in rows)
    summary.append(f"smooth reduction (tol 1e-6): {'PASS' if ok else 'FAIL'}")
    return rows, summary


def _run_flow(cfg, out_dir):
    fld = build_field(cfg["driver"])
    cells = cfg["cells"]
    dim = cfg["dim"]
    x = _brownian_sample(cells, cfg["path_seed"])
    rng = np.random.default_rng(cfg["alpha_seed"])
    alpha = rng.standard_normal((x.grid.n, dim, dim)) * 0.4
    flow = solve_linear_yode(alpha, x, fld, levels=cfg["levels"])
    inv = inverse_flow(flow)
    full = flow.segment(0.0, 1.0)
    coc = 0.0
    for s in x.grid.points[1:-1][:: max(1, cells // 8)]:
        gap = np.max(np.abs(flow.segment(s, 1.0) @ flow.segment(0.0, s) - full))
        coc = max(coc, gap / max(1.0, np.max(np.abs(full))))
    inv_res = float(np.max(np.abs(flow.matrices @ inv - np.eye(dim))))
    errs = []
    for lev in range(3):
        euler = solve_linear_yode(np.ones((x.grid.n, 1, 1)), x, fld, levels=lev).matrices[:, 0, 0]
        closed = exp_formula_1d(np.ones(x.grid.n), x, fld, levels=lev)
        errs.append(float(np.max(np.abs(euler - closed))))
    rows = [
        {
            "cocycle_residual": coc,
            "inverse_residual": inv_res,
            "exp_err_l0": errs[0],
            "exp_err_l1": errs[1],
            "exp_err_l2": errs[2],
        }
    ]
    summary = [
        f"cocycle residual: {coc:.3e}",
        f"inverse residual: {inv_res:.3e}",
        f"euler-vs-exp errors by level: {errs}",
    ]
    return rows, summary


def _bsde_ingredients(cfg):
    fld = build_field(cfg["driver"])
    fwd, grid = build_forward(cfg["forward"])
    ens = euler_maruyama(fwd, grid, cfg["paths"], cfg["seed"])
    bc = cfg["bsde"]
    spec = BsdeSpec(
        forward=fwd,
        fieldv=fld,
        generator=GENERATORS[bc["generator"]["name"]](bc["generator"]["coef"]),
        coupling=COUPLINGS[bc["coupling"]["name"]],
        terminal=TERMINALS[bc["terminal"]["name"]](bc["terminal"]["shift"]),
    )
    return spec, ens, RegressionBasis(**cfg["basis"]), PicardParams(**cfg["picard"])


def _run_linear_bsde(cfg, out_dir):
    spec, ens, basis, picard = _bsde_ingredients(cfg)
    sol = backward_solve(spec, ens, basis=basis, picard=picard)
    ref_y0, ref_se = linear_closed_form(
        ens, spec.fieldv, spec.terminal, alpha=_LINEAR_COUPLINGS[cfg["bsde"]["coupling"]["name"]]
    )
    combined = float(np.sqrt(sol.y0_se ** 2 + ref_se ** 2))
    diff = abs(sol.y0 - ref_y0)
    rows = [
        {
            "y0_backward": sol.y0,
            "se_backward": sol.y0_se,
            "y0_closed_form": ref_y0,
            "se_closed_form": ref_se,
            "combined_se": combined,
            "abs_diff": diff,
            "z_score": diff / combined if combined > 0 else 0.0,
        }
    ]
    ok = diff <= 3 * combined
    summary = [
        f"backward Y0 = {sol.y0:.6f} (se {sol.y0_se:.2e})",
        f"closed form Y0 = {ref_y0:.6f} (se {ref_se:.2e})",
        f"agreement within 3 combined se: {'PASS' if ok else 'FAIL'}",
    ]
    return rows, summary


def _run_nonlinear_bsde(cfg, out_dir):
    spec, ens, basis, picard = _bsde_ingredients(cfg)
    sol = backward_solve(spec, ens, basis=basis, picard=picard)
    diag = diagnostics(sol, ens, p=cfg["diag_p"], k_mom=cfg["diag_k"])
    rows = [
        {
            "y0": sol.y0,
            "se": sol.y0_se,
            "sup_y": diag["sup_y"],
            "m_pk": diag["m_pk"],
            "z_bmo": diag["z_bmo"],
            "halvings": len(sol.halvings),
        }
    ]
    summary = [
        f"Y0 = {sol.y0:.6f} (se {sol.y0_se:.2e})",
        f"diagnostics: {diag}",
        f"Picard steps accepted unconverged: {len(sol.unconverged)}",
    ]
    return rows, summary


def _run_localize(cfg, out_dir):
    spec, ens, basis, picard = _bsde_ingredients(cfg)
    rows_raw = localization_sweep(spec, ens, cfg["radii"], basis=basis, picard=picard)
    rows = [
        {"radius": r["radius"], "y0": r["y0"], "diff_prev": r["diff_prev"], "p_exit": r["p_exit"]}
        for r in rows_raw
    ]
    summary = [f"n = {r['radius']}: Y0 = {r['y0']:.6f}, P(exit) = {r['p_exit']:.4f}" for r in rows]
    return rows, summary


def _run_compare(cfg, out_dir):
    spec_b, ens, basis, picard = _bsde_ingredients(cfg)
    shift = cfg["shift"]
    term = cfg["bsde"]["terminal"]
    spec_a = replace(spec_b, terminal=TERMINALS[term["name"]](term["shift"] + shift))
    rep = comparison_experiment(
        spec_a, spec_b, ens, basis=basis, picard=picard, eps_reg=cfg["eps_reg"],
    )
    rows = [
        {
            "fraction_ordered": rep.fraction_ordered,
            "y0_gap": rep.y0_gap,
            "y0_gap_se": rep.y0_gap_se,
            "shift": shift,
        }
    ]
    summary = [
        f"ordered fraction = {rep.fraction_ordered:.4f}",
        f"Y0 gap = {rep.y0_gap:.5f} (se {rep.y0_gap_se:.2e})",
    ]
    return rows, summary


def _run_pde_table(cfg, out_dir):
    points = _points(cfg)
    table = young_pde_table(
        lambda n, fld: build_pde_spec({**cfg["pde"], "halfwidth": n}, fld),
        build_field(cfg["driver"]), cfg["n_list"], cfg["m_list"], points,
        time_steps=cfg["time_steps"], cells_per_unit=cfg["cells_per_unit"],
        threshold=cfg["threshold"],
    )
    rows = []
    for i, n in enumerate(table.n_list):
        for j, m in enumerate(table.m_list):
            for q, (t, x) in enumerate(points):
                rows.append({"n": n, "m": m, "t": t, "x": _x_cell(x),
                             "u": float(table.values[i, j, q])})
    summary = [
        f"cauchy in n: {np.round(table.cauchy_n, 6).tolist()}",
        f"cauchy in m: {np.round(table.cauchy_m, 6).tolist()}",
        f"declared converged: {table.converged}",
    ]
    return rows, summary


def _run_cross_check(cfg, out_dir):
    fld = build_field(cfg["driver"])
    spec = build_pde_spec(cfg["pde"], fld)
    report = feynman_kac_cross_check(
        spec, _points(cfg), n_paths=cfg["paths"], seed=cfg["seed"],
        time_steps=cfg["time_steps"], space_steps=cfg["space_steps"],
        mc_time_steps=cfg["mc_time_steps"],
        basis=RegressionBasis(**cfg["basis"]), picard=PicardParams(**cfg["picard"]),
    )
    rows = [{**r, "x": _x_cell(r["x"])} for r in report]
    summary = [
        f"({r['t']}, {r['x']}): |u_FD - u_MC| = {r['abs_diff']:.4e} tol {r['tol']:.4e} "
        f"{'PASS' if r['pass'] else 'FAIL'}"
        for r in rows
    ]
    return rows, summary


def _run_localization_error(cfg, out_dir):
    fld = build_field(cfg["driver"])
    out = localization_error_experiment(
        lambda n: build_pde_spec({**cfg["pde"], "halfwidth": n}, fld), cfg["n_list"],
        _points(cfg), n_max=cfg["n_max"],
        time_steps=cfg["time_steps"], cells_per_unit=cfg["cells_per_unit"],
    )
    rows = [dict(r) for r in out["rows"]]
    rows.append({"n": "fit", "max_diff": out["slope"]})
    summary = [
        *(f"n = {r['n']}: |u^n - u^max| = {r['max_diff']:.4e}" for r in out["rows"]),
        f"log-diff vs n^2: slope = {out['slope']:.4f}, R^2 = {out['r_squared']:.3f}",
    ]
    return rows, summary


def _run_neumann(cfg, out_dir):
    fld = build_field(cfg["driver"])
    est, se = neumann_fk_estimate(
        NEUMANN_TERMINALS[cfg["terminal_name"]], fld, tuple(cfg["interval"]),
        tuple(cfg["start"]), n_paths=cfg["paths"], seed=cfg["seed"], n_steps=cfg["steps"],
    )
    rows = [{"estimate": est, "se": se}]
    summary = [f"E[h(X_T) exp(int B)] = {est:.6f} (se {se:.2e})"]
    return rows, summary


def _run_fbs_generate(cfg, out_dir):
    fld = build_field(cfg["driver"])
    rows = [
        {
            "time_cells": fld.time_points.size - 1,
            "space_cells": fld.space_axes[0].size - 1,
            "min": float(fld.values.min()),
            "max": float(fld.values.max()),
            "sup_abs": float(np.max(np.abs(fld.values))),
        }
    ]
    data = np.ascontiguousarray(fld.values, dtype="<f8")
    (out_dir / f"{cfg['prefix']}.bin").write_bytes(data.tobytes())
    sidecar = {
        "hurst": {"h0": fld.hurst.h0, "h": fld.hurst.h, "d": fld.hurst.d},
        "time_points": fld.time_points.tolist(),
        "space_axes": [a.tolist() for a in fld.space_axes],
        "seed": fld.seed,
        "shape": list(data.shape),
        "dtype": "<f8",
        "order": "C",
    }
    (out_dir / f"{cfg['prefix']}.json").write_text(json.dumps(sidecar, indent=2))
    summary = [f"realization range [{rows[0]['min']:.4f}, {rows[0]['max']:.4f}]"]
    return rows, summary


def _run_assumptions(cfg, out_dir):
    params = RegularityParams(**cfg["params"])
    hurst = HurstParams(**cfg["hurst"]) if cfg["hurst"] is not None else None
    rep = assumption_check(params, hurst)
    rows = [
        {"check": "H0", "result": "PASS" if rep.h0 else "FAIL"},
        {"check": "H0-weak", "result": "PASS" if rep.h0_weak else "FAIL"},
        {"check": "H2-1", "result": "PASS" if rep.h2_1 else "FAIL"},
        {"check": "H2-eps", "result": repr(rep.h2_eps)},
    ]
    if rep.hurst_region is not None:
        rows.append({"check": "hurst-region", "result": "PASS" if rep.hurst_region else "FAIL"})
    return rows, rep.lines()


_RUNNERS = {
    "integrate": _run_integrate,
    "flow": _run_flow,
    "linear-bsde": _run_linear_bsde,
    "nonlinear-bsde": _run_nonlinear_bsde,
    "localize": _run_localize,
    "compare": _run_compare,
    "pde-table": _run_pde_table,
    "cross-check": _run_cross_check,
    "localization-error": _run_localization_error,
    "neumann": _run_neumann,
    "fbs-generate": _run_fbs_generate,
    "assumptions": _run_assumptions,
}

# the BLAS thread settings for the manifest, read at import: BLAS reads
# them once, when numpy loads
_BLAS_THREADS = {name: os.environ.get(name) for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}


def run_config(cfg: dict, out_dir: Path) -> int:
    """Runs a config that validate_config returned and writes its outputs."""
    name = cfg["experiment"]
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    try:
        rows, summary = _RUNNERS[name](cfg, out_dir)
    except (NumericalError, np.linalg.LinAlgError, FloatingPointError, RuntimeWarning) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    wall = time.perf_counter() - t0
    fields = list(rows[0].keys())
    with open(out_dir / "results.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(fields)
        for row in rows:
            cells = (row.get(f, "") for f in fields)
            writer.writerow([f"{v:.17g}" if isinstance(v, float) else str(v) for v in cells])
    manifest = {
        "config": cfg,
        "seed": cfg["seed"],
        "library_version": __version__,
        "wall_time_s": wall,
        "blas_threads": _BLAS_THREADS,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2))
    (out_dir / "summary.txt").write_text(
        "\n".join([f"experiment: {name}", *summary, ""])
    )
    for line in summary:
        print(line)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="youngbsde", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config", type=Path)
    p_run.add_argument("--out", type=Path, default=Path("youngbsde-out"))
    p_check = sub.add_parser("check", help="validate a config without running")
    p_check.add_argument("config", type=Path)
    args = parser.parse_args(argv)

    # not UTF-8, not JSON, an integer over the digit limit, a ConfigError:
    # each is a ValueError; JSON nested deeper than the decoder's recursion
    # limit is a RecursionError
    try:
        cfg = validate_config(json.loads(Path(args.config).read_text()))
    except (OSError, ValueError, RecursionError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if args.command == "check":
        print("config ok")
        return 0
    return run_config(cfg, args.out)


if __name__ == "__main__":
    sys.exit(main())
