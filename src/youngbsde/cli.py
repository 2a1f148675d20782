"""Config-driven experiment runner.

A single self-describing JSON document names one experiment and its inputs;
"_comment" keys are ignored, unknown keys are rejected.  Each run writes
results.csv (RFC-4180, '.' decimal, 17 significant digits), manifest.json
(config echo, seed, library version, wall time), and summary.txt.  Exit
status: 0 success, 2 config error, 3 numerical failure.

    youngbsde run  config.json [--threads N] [--out DIR]
    youngbsde check config.json

YOUNGBSDE_OUT sets the default output directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
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
    scalar_coupling,
    terminal_h_of_xt,
    terminal_running_max,
    zero_coupling,
    zero_generator,
)
from .driver import (
    AnalyticField,
    HurstParams,
    RegularityParams,
    assumption_check,
    fbs_generate,
    mollify,
    save_fbs,
)
from .flow import exp_formula_1d, inverse_flow, solve_linear_yode
from .forward import SdeSpec, euler_maruyama
from .paths import SamplePath, TimeGrid, dyadic_interp, write_csv
from .pde import (
    PdeSpec,
    feynman_kac_cross_check,
    localization_error_experiment,
    neumann_fk_estimate,
    young_pde_table,
)
from .sewing import nonlinear_young_integral

EXPERIMENTS = [
    "integrate",
    "flow",
    "linear-bsde",
    "nonlinear-bsde",
    "localize",
    "compare",
    "pde-table",
    "cross-check",
    "localization-error",
    "neumann",
    "fbs-generate",
    "assumptions",
]


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------- registries

def _field_time(scale=1.0):
    return AnalyticField(
        lambda t, x: scale * t,
        RegularityParams(tau=1.0, lam=1.0, p=2.5),
        dt_fn=lambda t, x: np.full(t.shape, scale),
        name="time",
    )


ANALYTIC_FIELDS = {
    "time": lambda: _field_time(),
    "bilinear": lambda: AnalyticField(
        lambda t, x: t * x[:, 0], RegularityParams(tau=1.0, lam=1.0, p=2.5),
        dt_fn=lambda t, x: x[:, 0], name="bilinear",
    ),
    "sin_x_time": lambda: AnalyticField(
        lambda t, x: np.sin(x[:, 0]) * t, RegularityParams(tau=1.0, lam=1.0, p=2.5),
        dt_fn=lambda t, x: np.sin(x[:, 0]), name="sin_x_time",
    ),
    "cos_x_time": lambda: AnalyticField(
        lambda t, x: np.cos(x[:, 0]) * t, RegularityParams(tau=1.0, lam=1.0, p=2.5),
        dt_fn=lambda t, x: np.cos(x[:, 0]), name="cos_x_time",
    ),
    "gauss_x_time": lambda: AnalyticField(
        lambda t, x: np.exp(-x[:, 0] ** 2) * t, RegularityParams(tau=1.0, lam=1.0, p=2.5),
        dt_fn=lambda t, x: np.exp(-x[:, 0] ** 2), name="gauss_x_time",
    ),
    "sin_x_t08": lambda: AnalyticField(
        lambda t, x: np.sin(x[:, 0]) * t**0.8,
        RegularityParams(tau=0.8, lam=1.0, p=2.5),
        name="sin_x_t08",
    ),
    "zero": lambda: AnalyticField(
        lambda t, x: np.zeros(t.shape), RegularityParams(tau=1.0, lam=1.0, p=2.5),
        dt_fn=lambda t, x: np.zeros(t.shape), name="zero",
    ),
}


def build_field(cfg: dict):
    kind = cfg.get("kind", "analytic")
    if kind == "analytic":
        name = cfg.get("name", "time")
        if name not in ANALYTIC_FIELDS:
            raise ConfigError(f"unknown analytic driver '{name}'")
        return ANALYTIC_FIELDS[name]()
    if kind == "fbs":
        hurst = HurstParams(**cfg["hurst"])
        t_ax = np.linspace(0.0, cfg.get("horizon", 1.0), cfg.get("time_cells", 512) + 1)
        x_ax = np.linspace(
            cfg.get("space_min", -6.0), cfg.get("space_max", 6.0), cfg.get("space_cells", 128) + 1
        )
        grids = [x_ax] * hurst.d
        return fbs_generate(
            hurst, t_ax, grids if hurst.d > 1 else x_ax,
            seed=cfg.get("seed", 0), theta=cfg.get("theta", 0.05), p=cfg.get("p", 2.05),
        )
    if kind == "mollified":
        return mollify(build_field(cfg["base"]), cfg.get("m", 8))
    raise ConfigError(f"unknown driver kind '{kind}'")


TERMINALS = {
    "cos": lambda shift=0.0: terminal_h_of_xt(lambda x: np.cos(x[:, 0]) + shift, name=f"cos+{shift}"),
    "gauss": lambda shift=0.0: terminal_h_of_xt(
        lambda x: np.exp(-np.sum(x**2, axis=1)) + shift, name=f"gauss+{shift}"
    ),
    "constant": lambda shift=0.0: terminal_h_of_xt(
        lambda x: np.full(x.shape[0], shift), name=f"const {shift}"
    ),
    "running-max": lambda shift=0.0: terminal_running_max(),
}


def build_terminal(cfg: dict):
    name = cfg.get("name", "cos")
    if name not in TERMINALS:
        raise ConfigError(f"unknown terminal '{name}'")
    return TERMINALS[name](cfg.get("shift", 0.0))


def build_generator(cfg: dict):
    name = cfg.get("name", "zero")
    coef = cfg.get("coef", 1.0)
    if name == "zero":
        return zero_generator
    if name == "linear-y":
        def gen(t, x, y, z):
            return coef * y
        return gen
    if name == "sin-y":
        def gen(t, x, y, z):
            return coef * np.sin(y)
        return gen
    if name == "sqrt-sin":
        def gen(t, x, y, z):
            return coef * np.sqrt(np.abs(x[:, :1])) * np.sin(y)
        return gen
    raise ConfigError(f"unknown generator '{name}'")


def build_coupling(cfg: dict):
    name = cfg.get("name", "zero")
    if name == "zero":
        return zero_coupling
    if name == "identity":
        return scalar_coupling(lambda y: y, name="identity")
    if name == "sin":
        return scalar_coupling(np.sin, name="sin")
    if name == "cos":
        return scalar_coupling(np.cos, name="cos")
    raise ConfigError(f"unknown coupling '{name}'")


def build_forward(cfg: dict) -> tuple[SdeSpec, TimeGrid]:
    spec = SdeSpec(
        drift=cfg.get("drift", 0.0),
        diffusion=cfg.get("diffusion", 1.0),
        x0=cfg.get("x0", [0.0]),
        bound=cfg.get("bound", 4.0),
        name=cfg.get("name", "forward"),
    )
    grid = TimeGrid.uniform(cfg.get("horizon", 1.0), cfg.get("steps", 64))
    return spec, grid


def build_basis(cfg: dict) -> RegressionBasis:
    return RegressionBasis(degree=cfg.get("degree", 3), ridge=cfg.get("ridge", 1e-8))


def build_picard(cfg: dict) -> PicardParams:
    return PicardParams(max_iter=cfg.get("max_iter", 8), tol=cfg.get("tol", 1e-9))


PDE_TERMINALS = {
    "cos": lambda x: np.cos(x[:, 0]),
    "gauss": lambda x: np.exp(-np.sum(x**2, axis=1) / (2 * 0.15**2)),
}

PDE_GENERATORS = {
    "zero": lambda t, x, u, w: np.zeros_like(u),
    "sqrt-sin": lambda t, x, u, w: np.sqrt(np.abs(x[:, 0])) * np.sin(u),
}

PDE_COUPLINGS = {
    "zero": lambda u: np.zeros((u.shape[0], 1)),
    "identity": lambda u: u[:, None],
    "sin": lambda u: np.sin(u)[:, None],
}


def build_pde_spec(cfg: dict, fieldv) -> PdeSpec:
    return PdeSpec(
        halfwidth=cfg.get("halfwidth", 2.0),
        dim=int(cfg.get("dim", 1)),
        horizon=cfg.get("horizon", 0.5),
        terminal=PDE_TERMINALS[cfg.get("terminal", "cos")],
        sigma=cfg.get("sigma", 1.0),
        drift=cfg.get("drift", 0.0),
        generator=PDE_GENERATORS[cfg.get("generator", "zero")],
        coupling=PDE_COUPLINGS[cfg.get("coupling", "zero")],
        fieldv=fieldv,
        name=cfg.get("name", "pde"),
    )


# ------------------------------------------------------------------- schema

_COMMON = {"experiment", "seed", "output_dir", "tolerances", "threads"}

_SCHEMA = {
    "integrate": {"levels", "cells", "path_seed"},
    "flow": {"driver", "cells", "levels", "alpha_seed", "path_seed", "dim"},
    "linear-bsde": {"driver", "forward", "bsde", "basis", "picard", "paths"},
    "nonlinear-bsde": {"driver", "forward", "bsde", "basis", "picard", "paths", "diag_p", "diag_k"},
    "localize": {"driver", "forward", "bsde", "basis", "picard", "paths", "radii"},
    "compare": {"driver", "forward", "bsde", "basis", "picard", "paths", "shift", "eps_reg"},
    "pde-table": {"driver", "pde", "n_list", "m_list", "points", "time_steps", "cells_per_unit", "threshold"},
    "cross-check": {"driver", "pde", "points", "paths", "time_steps", "space_steps", "mc_time_steps", "basis", "picard"},
    "localization-error": {"driver", "pde", "n_list", "n_max", "points", "time_steps", "cells_per_unit"},
    "neumann": {"driver", "interval", "start", "paths", "steps", "terminal_name"},
    "fbs-generate": {"driver", "prefix", "probe"},
    "assumptions": {"params", "hurst"},
}

_SECTION_KEYS = {
    "driver": {"kind", "name", "hurst", "horizon", "time_cells", "space_min", "space_max",
               "space_cells", "seed", "theta", "p", "base", "m"},
    "forward": {"drift", "diffusion", "x0", "bound", "steps", "horizon", "name"},
    "bsde": {"terminal", "generator", "coupling"},
    "basis": {"degree", "ridge"},
    "picard": {"max_iter", "tol"},
    "pde": {"halfwidth", "dim", "horizon", "terminal", "sigma", "drift", "generator",
            "coupling", "name"},
}


def _strip_comments(obj):
    if isinstance(obj, dict):
        return {k: _strip_comments(v) for k, v in obj.items() if not k.startswith("_comment")}
    if isinstance(obj, list):
        return [_strip_comments(v) for v in obj]
    return obj


def _check_section(sub, key: str) -> None:
    """A config section at `key` is an object with known keys.  A driver
    names a known kind (and analytic name), an fbs driver valid Hurst
    indices, and a mollified driver's `base` is a driver section of its own;
    a pde section names a known terminal, generator and coupling."""
    if not isinstance(sub, dict):
        raise ConfigError(f"{key}: expected an object")
    sec = key.split(".")[0]
    if sec == "bsde":
        return  # its subsections are checked per experiment
    for name in sub:
        if name not in _SECTION_KEYS[sec]:
            raise ConfigError(f"unknown key: {key}.{name}")
    if sec == "driver":
        kind = sub.get("kind", "analytic")
        name = sub.get("name", "time")
        if kind == "analytic" and not (isinstance(name, str) and name in ANALYTIC_FIELDS):
            raise ConfigError(f"{key}.name: unknown analytic driver {name!r}")
        if kind == "fbs":
            _check_hurst(sub.get("hurst"), f"{key}.hurst")
        elif kind == "mollified":
            _check_section(sub.get("base"), f"{key}.base")
        elif kind != "analytic":
            raise ConfigError(f"{key}.kind: unknown driver kind {kind!r}")
    if sec == "pde":
        for name, table in (("terminal", PDE_TERMINALS), ("generator", PDE_GENERATORS),
                            ("coupling", PDE_COUPLINGS)):
            if name in sub and not (isinstance(sub[name], str) and sub[name] in table):
                raise ConfigError(
                    f"{key}.{name}: expected one of {sorted(table)}, got {sub[name]!r}"
                )


def _check_hurst(sub, key: str) -> None:
    """Hurst indices {h0, h[, d]} that HurstParams accepts."""
    if not isinstance(sub, dict):
        raise ConfigError(f"{key}: expected an object with h0 and h")
    for name in sub:
        if name not in ("h0", "h", "d"):
            raise ConfigError(f"unknown key: {key}.{name}")
    for name in ("h0", "h"):
        v = sub.get(name)
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not 0 < v < 1:
            raise ConfigError(f"{key}.{name}: expected a number in (0, 1)")
    if not _is_count(sub.get("d", 1)):
        raise ConfigError(f"{key}.d: expected an integer >= 1")


def _is_count(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= 1


def validate_config(cfg: dict) -> dict:
    cfg = _strip_comments(cfg)
    if "experiment" not in cfg:
        raise ConfigError("missing required key: experiment")
    name = cfg["experiment"]
    if name not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment '{name}'")
    allowed = _SCHEMA[name] | _COMMON
    for key in cfg:
        if key not in allowed:
            raise ConfigError(f"unknown key: {key}")
    for sec in _SECTION_KEYS:
        if sec in cfg:
            _check_section(cfg[sec], sec)
    if "seed" not in cfg and name not in ("assumptions", "integrate", "pde-table", "localization-error"):
        raise ConfigError("missing required key: seed")
    if "bsde" in _SCHEMA[name]:
        bc = cfg.get("bsde", {})
        for key, build in (("terminal", build_terminal), ("generator", build_generator),
                           ("coupling", build_coupling)):
            sub = bc.get(key, {})
            if not isinstance(sub, dict):
                raise ConfigError(f"bsde.{key}: expected an object")
            try:
                build(sub)
            except ConfigError as exc:
                raise ConfigError(f"bsde.{key}: {exc}") from None
    if "paths" in cfg and not _is_count(cfg["paths"]):
        raise ConfigError(f"paths: expected an integer >= 1, got {cfg['paths']!r}")
    if "hurst" in cfg:
        _check_hurst(cfg["hurst"], "hurst")
    if name == "linear-bsde":
        _closed_form_alpha(cfg)
    if name == "localization-error" and "n_list" in cfg:
        n_list = cfg["n_list"]
        numbers = isinstance(n_list, list) and all(isinstance(n, (int, float)) for n in n_list)
        if not numbers or len(set(n_list)) < 2:
            raise ConfigError("n_list: expected at least two distinct box half-widths")
    pde = cfg.get("pde", {})
    if pde.get("dim", 1) not in (1, 2):
        raise ConfigError(f"pde.dim: expected 1 or 2, got {pde['dim']!r}")
    return cfg


# coupling g(y) = alpha y of the linear problems the closed form covers
_LINEAR_COUPLINGS = {"zero": 0.0, "identity": 1.0}


def _closed_form_alpha(cfg: dict) -> float:
    """The alpha of linear_closed_form for a validated linear-bsde config;
    rejects the generators and couplings it does not cover."""
    bc = cfg.get("bsde", {})
    generator, coupling = (
        bc.get(key, {}).get("name", "zero") for key in ("generator", "coupling")
    )
    if generator != "zero":
        raise ConfigError(f"bsde.generator: the closed form needs 'zero', got '{generator}'")
    if coupling not in _LINEAR_COUPLINGS:
        raise ConfigError(
            f"bsde.coupling: the closed form needs one of {sorted(_LINEAR_COUPLINGS)}, got '{coupling}'"
        )
    return _LINEAR_COUPLINGS[coupling]


# -------------------------------------------------------------- experiments

def _brownian_sample(cells: int, seed: int, horizon: float = 1.0) -> SamplePath:
    spec = SdeSpec(drift=0.0, diffusion=1.0, x0=[0.0], bound=2.0)
    ens = euler_maruyama(spec, TimeGrid.uniform(horizon, cells), 1, seed)
    return ens.path(0)


def _run_integrate(cfg, rng_seed):
    levels = cfg.get("levels", 14)
    cells = cfg.get("cells", 64)
    x = _brownian_sample(cells, cfg.get("path_seed", 2024))
    grid = x.grid
    cases = ["time", "bilinear", "sin_x_time", "cos_x_time", "gauss_x_time"]
    rows = []
    for name in cases:
        fld = ANALYTIC_FIELDS[name]()
        y = SamplePath(grid, np.cos(grid.points))
        res = nonlinear_young_integral(y, x, fld, levels=levels, tol=0.0)
        fine = dyadic_interp(grid.points, res.levels_used)
        ys = dyadic_interp(y.values, res.levels_used)[:-1]
        xs = dyadic_interp(x.as_matrix(), res.levels_used)[:-1]
        quad = float(np.sum(ys * fld.time_derivative(fine[:-1], xs)[:, 0] * np.diff(fine)))
        rows.append(
            {"case": name, "young": res.value, "riemann": quad, "abs_diff": abs(res.value - quad)}
        )
    summary = [f"{r['case']}: |Young - Riemann| = {r['abs_diff']:.3e}" for r in rows]
    ok = all(r["abs_diff"] <= 1e-6 for r in rows)
    summary.append(f"smooth reduction (tol 1e-6): {'PASS' if ok else 'FAIL'}")
    return rows, summary


def _run_flow(cfg, seed):
    fld = build_field(cfg.get("driver", {"kind": "analytic", "name": "sin_x_t08"}))
    cells = cfg.get("cells", 32)
    dim = cfg.get("dim", 2)
    x = _brownian_sample(cells, cfg.get("path_seed", 7))
    rng = np.random.default_rng(cfg.get("alpha_seed", 1))
    alpha = rng.standard_normal((x.grid.n, fld.channels, dim, dim)) * 0.4
    flow = solve_linear_yode(alpha, x, fld, levels=cfg.get("levels", 0), dim=dim)
    inv = inverse_flow(flow)
    full = flow.segment(0.0, 1.0)
    coc = 0.0
    for s in x.grid.points[1:-1][:: max(1, cells // 8)]:
        gap = np.max(np.abs(flow.segment(s, 1.0) @ flow.segment(0.0, s) - full))
        coc = max(coc, gap / max(1.0, np.max(np.abs(full))))
    inv_res = max(
        np.max(np.abs(g @ gi - np.eye(dim))) for g, gi in zip(flow.matrices, inv.matrices)
    )
    alpha_1d = np.ones((x.grid.n, fld.channels))
    errs = []
    for lev in range(3):
        euler = solve_linear_yode(
            np.ones((x.grid.n, fld.channels, 1, 1)), x, fld, levels=lev
        ).matrices[:, 0, 0]
        closed = exp_formula_1d(alpha_1d, x, fld, levels=lev)
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


def _bsde_ingredients(cfg, seed):
    fld = build_field(cfg.get("driver", {"kind": "analytic", "name": "time"}))
    fwd, grid = build_forward(cfg.get("forward", {}))
    ens = euler_maruyama(fwd, grid, cfg.get("paths", 4000), seed)
    bc = cfg.get("bsde", {})
    spec = BsdeSpec(
        forward=fwd,
        fieldv=fld,
        generator=build_generator(bc.get("generator", {})),
        coupling=build_coupling(bc.get("coupling", {})),
        terminal=build_terminal(bc.get("terminal", {})),
        n_dim=1,
    )
    basis = build_basis(cfg.get("basis", {}))
    picard = build_picard(cfg.get("picard", {}))
    return spec, ens, basis, picard, fld


def _run_linear_bsde(cfg, seed):
    spec, ens, basis, picard, fld = _bsde_ingredients(cfg, seed)
    sol = backward_solve(spec, ens, basis=basis, picard=picard)
    ref = linear_closed_form(ens, fld, spec.terminal, alpha=_closed_form_alpha(cfg))
    combined = float(np.sqrt(sol.y0_se[0] ** 2 + ref.se[0] ** 2))
    diff = float(abs(sol.y0[0] - ref.y0[0]))
    rows = [
        {
            "y0_backward": float(sol.y0[0]),
            "se_backward": float(sol.y0_se[0]),
            "y0_closed_form": float(ref.y0[0]),
            "se_closed_form": float(ref.se[0]),
            "combined_se": combined,
            "abs_diff": diff,
            "z_score": diff / combined if combined > 0 else 0.0,
        }
    ]
    ok = diff <= 3 * combined
    summary = [
        f"backward Y0 = {sol.y0[0]:.6f} (se {sol.y0_se[0]:.2e})",
        f"closed form Y0 = {ref.y0[0]:.6f} (se {ref.se[0]:.2e})",
        f"agreement within 3 combined se: {'PASS' if ok else 'FAIL'}",
    ]
    return rows, summary


def _run_nonlinear_bsde(cfg, seed):
    spec, ens, basis, picard, _ = _bsde_ingredients(cfg, seed)
    sol = backward_solve(spec, ens, basis=basis, picard=picard)
    diag = diagnostics(sol, ens, p=cfg.get("diag_p", 2.5), k_mom=cfg.get("diag_k", 2.0))
    rows = [
        {
            "y0": float(sol.y0[0]),
            "se": float(sol.y0_se[0]),
            "sup_y": diag["sup_y"],
            "m_pk": diag["m_pk"],
            "z_bmo": diag["z_bmo"],
            "halvings": len(sol.halvings),
        }
    ]
    summary = [f"Y0 = {sol.y0[0]:.6f} (se {sol.y0_se[0]:.2e})", f"diagnostics: {diag}"]
    return rows, summary


def _run_localize(cfg, seed):
    spec, ens, basis, picard, _ = _bsde_ingredients(cfg, seed)
    rows_raw = localization_sweep(spec, ens, cfg.get("radii", [1.0, 2.0, 3.0]), basis=basis, picard=picard)
    rows = [
        {"radius": r["radius"], "y0": r["y0"], "diff_prev": r["diff_prev"], "p_exit": r["p_exit"]}
        for r in rows_raw
    ]
    summary = [f"n = {r['radius']}: Y0 = {r['y0']:.6f}, P(exit) = {r['p_exit']:.4f}" for r in rows]
    return rows, summary


def _run_compare(cfg, seed):
    fld = build_field(cfg.get("driver", {"kind": "analytic", "name": "time"}))
    fwd, grid = build_forward(cfg.get("forward", {}))
    ens = euler_maruyama(fwd, grid, cfg.get("paths", 4000), seed)
    bc = cfg.get("bsde", {})
    shift = cfg.get("shift", 0.1)
    term_cfg = bc.get("terminal", {"name": "cos"})
    term_a = build_terminal({**term_cfg, "shift": term_cfg.get("shift", 0.0) + shift})
    term_b = build_terminal(term_cfg)
    gen = build_generator(bc.get("generator", {}))
    coup = build_coupling(bc.get("coupling", {}))
    spec_a = BsdeSpec(forward=fwd, fieldv=fld, generator=gen, coupling=coup, terminal=term_a, name="A")
    spec_b = BsdeSpec(forward=fwd, fieldv=fld, generator=gen, coupling=coup, terminal=term_b, name="B")
    rep = comparison_experiment(
        spec_a, spec_b, ens, basis=build_basis(cfg.get("basis", {})),
        picard=build_picard(cfg.get("picard", {})), eps_reg=cfg.get("eps_reg", 1e-2),
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


def _run_pde_table(cfg, seed):
    base = build_field(cfg["driver"])
    spec = build_pde_spec(cfg.get("pde", {}), _field_time())
    points = [tuple(p) for p in cfg.get("points", [[0.0, 0.0]])]
    table = young_pde_table(
        spec, base, cfg.get("n_list", [2.0, 3.0]), cfg.get("m_list", [4, 8]),
        points, time_steps=cfg.get("time_steps", 64),
        cells_per_unit=cfg.get("cells_per_unit", 16),
        threshold=cfg.get("threshold", 1e-2),
    )
    rows = []
    for i, n in enumerate(table.n_list):
        for j, m in enumerate(table.m_list):
            for q, (t, x) in enumerate(points):
                rows.append({"n": n, "m": m, "t": t, "x": x, "u": float(table.values[i, j, q])})
    summary = [
        f"cauchy in n: {list(np.round(table.cauchy_n, 6))}",
        f"cauchy in m: {list(np.round(table.cauchy_m, 6))}",
        f"declared converged: {table.converged}",
    ]
    return rows, summary


def _run_cross_check(cfg, seed):
    fld = build_field(cfg["driver"])
    spec = build_pde_spec(cfg.get("pde", {}), fld)
    report = feynman_kac_cross_check(
        spec, [tuple(p) for p in cfg.get("points", [[0.0, 0.0]])],
        n_paths=cfg.get("paths", 20_000), seed=seed,
        time_steps=cfg.get("time_steps", 96), space_steps=cfg.get("space_steps", 192),
        mc_time_steps=cfg.get("mc_time_steps", 96),
        basis=build_basis(cfg.get("basis", {})), picard=build_picard(cfg.get("picard", {})),
    )
    summary = [
        f"({r['t']}, {r['x']}): |u_FD - u_MC| = {r['abs_diff']:.4e} tol {r['tol']:.4e} "
        f"{'PASS' if r['pass'] else 'FAIL'}"
        for r in report
    ]
    return report, summary


def _run_localization_error(cfg, seed):
    fld = build_field(cfg.get("driver", {"kind": "analytic", "name": "time"}))
    spec = build_pde_spec(cfg.get("pde", {}), fld)
    out = localization_error_experiment(
        spec, cfg.get("n_list", [2.0, 4.0, 6.0]),
        [tuple(p) for p in cfg.get("points", [[0.0, 0.0]])],
        n_max=cfg.get("n_max", 8.0), time_steps=cfg.get("time_steps", 96),
        cells_per_unit=cfg.get("cells_per_unit", 16),
    )
    rows = [dict(r) for r in out["rows"]]
    rows.append({"n": "fit", "max_diff": out["slope"]})
    summary = [
        *(f"n = {r['n']}: |u^n - u^max| = {r['max_diff']:.4e}" for r in out["rows"]),
        f"log-diff vs n^2: slope = {out['slope']:.4f}, R^2 = {out['r_squared']:.3f}",
    ]
    return rows, summary


def _run_neumann(cfg, seed):
    fld = build_field(cfg["driver"])
    a, b = cfg.get("interval", [0.0, 1.0])
    t0, x0 = cfg.get("start", [0.0, 0.5])
    h = {"one": lambda x: np.ones_like(x), "cos-pi": lambda x: np.cos(np.pi * x)}[
        cfg.get("terminal_name", "cos-pi")
    ]
    est, se = neumann_fk_estimate(
        h, fld, (a, b), (t0, x0), n_paths=cfg.get("paths", 20_000), seed=seed,
        n_steps=cfg.get("steps", 256),
    )
    rows = [{"estimate": est, "se": se}]
    summary = [f"E[h(X_T) exp(int B)] = {est:.6f} (se {se:.2e})"]
    return rows, summary


def _run_fbs_generate(cfg, seed):
    fld = build_field(cfg["driver"])
    prefix = cfg.get("prefix", "fbs_realization")
    rows = [
        {
            "time_cells": fld.time_points.size - 1,
            "space_cells": fld.space_axes[0].size - 1,
            "min": float(fld.values.min()),
            "max": float(fld.values.max()),
            "sup_abs": float(np.max(np.abs(fld.values))),
        }
    ]
    summary = [f"realization range [{rows[0]['min']:.4f}, {rows[0]['max']:.4f}]"]
    return rows, summary, ("fbs", fld, prefix)


def _run_assumptions(cfg, seed):
    p = cfg.get("params", {})
    params = RegularityParams(
        tau=p.get("tau", 0.9), lam=p.get("lam", 0.5), beta=p.get("beta", 0.0),
        p=p.get("p", 2.05), eps=p.get("eps"), k=p.get("k"),
    )
    hurst = HurstParams(**cfg["hurst"]) if "hurst" in cfg else None
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

_NUMERIC_FAILURES = (
    FloatingPointError,
    np.linalg.LinAlgError,
)


def write_results(rows: list[dict], path: Path) -> None:
    if not rows:
        rows = [{"empty": True}]
    fields = list(rows[0].keys())
    write_csv(path, fields, ([row.get(f, "") for f in fields] for row in rows))


def run_config(cfg: dict, out_dir: Path) -> int:
    from .bsde import NoContractionError, RegressionError
    from .flow import FlowError
    from .pde import CflError
    from .sewing import SewingError

    cfg = validate_config(cfg)
    name = cfg["experiment"]
    seed = cfg.get("seed", 0)
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.time()
    try:
        result = _RUNNERS[name](cfg, seed)
    except (NoContractionError, RegressionError, FlowError, CflError, SewingError,
            *_NUMERIC_FAILURES) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    if len(result) == 3:
        rows, summary, extra = result
        if extra[0] == "fbs":
            save_fbs(extra[1], out_dir / extra[2])
    else:
        rows, summary = result
    wall = time.time() - t0
    write_results(rows, out_dir / "results.csv")
    manifest = {
        "config": cfg,
        "seed": seed,
        "library_version": __version__,
        "wall_time_s": wall,
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
    p_run.add_argument("--threads", type=int, default=None,
                       help="cap worker threads (results are independent of the cap)")
    p_run.add_argument("--out", type=Path, default=None)
    p_check = sub.add_parser("check", help="validate a config without running")
    p_check.add_argument("config", type=Path)
    args = parser.parse_args(argv)

    try:
        cfg = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if args.command == "check":
        try:
            validate_config(cfg)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        print("config ok")
        return 0

    if getattr(args, "threads", None):
        os.environ.setdefault("OMP_NUM_THREADS", str(args.threads))
    out_dir = args.out or Path(
        _strip_comments(cfg).get("output_dir", os.environ.get("YOUNGBSDE_OUT", "youngbsde-out"))
    )
    try:
        return run_config(cfg, Path(out_dir))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
