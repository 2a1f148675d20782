"""The benchmark workloads: experiment configs made from a seed, and the
correctness criteria every run of them must meet.

Workload seed 0 gives the default configs.  Seed s adds s to every seed
the configs carry (Monte Carlo, driver synthesis, ``path_seed`` and
``alpha_seed``), so one seed fixes every input of a run.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Output:
    """What one experiment run left in its output directory."""

    csv_bytes: bytes
    rows: list[dict]
    summary: list[str]


def read_output(out_dir: Path) -> Output:
    raw = (out_dir / "results.csv").read_bytes()
    rows = list(csv.DictReader(io.StringIO(raw.decode())))
    summary = (out_dir / "summary.txt").read_text().splitlines()
    return Output(raw, rows, summary)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    configs: Callable[[int], list[dict]]
    # failure messages for the outputs of one run, one Output per config
    check: Callable[[list[Output]], list[str]]


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


# ------------------------------------------------------------------- lsmc

def _lsmc_configs(seed: int) -> list[dict]:
    return [{
        "experiment": "nonlinear-bsde",
        "seed": 123 + seed,
        "paths": 10_000,
        "driver": {"kind": "fbs", "hurst": {"h0": 0.9, "h": 0.5, "d": 1},
                   "time_cells": 512, "space_cells": 128, "seed": 202 + seed},
        "forward": {"steps": 128},
        "bsde": {"terminal": {"name": "cos"}, "generator": {"name": "sin-y"},
                 "coupling": {"name": "sin"}},
        "basis": {"degree": 11},
    }]


def _lsmc_check(outs: list[Output]) -> list[str]:
    (row,) = outs[0].rows
    errs = [f"non-finite {k} = {row[k]}" for k in ("y0", "se") if not _finite(row[k])]
    if row["halvings"] != "0":
        errs.append(f"{row['halvings']} step halvings, expected none")
    return errs


# ------------------------------------------------------------- crosscheck

def _crosscheck_configs(seed: int) -> list[dict]:
    # configs/cross_check.json with two of its five points and 500 paths,
    # so that one run fits the benchmark's run length
    return [{
        "experiment": "cross-check",
        "seed": 4 + seed,
        "paths": 500,
        "driver": {
            "kind": "mollified",
            "m": 8,
            "base": {"kind": "fbs", "hurst": {"h0": 0.9, "h": 0.6, "d": 1},
                     "horizon": 0.5, "time_cells": 256, "space_cells": 64,
                     "space_min": -4.0, "space_max": 4.0, "seed": 55 + seed},
        },
        "pde": {"halfwidth": 3.0, "horizon": 0.5, "terminal": "cos", "coupling": "sin"},
        "points": [[0.0, 0.0], [0.1, 0.25]],
        "time_steps": 64,
        "space_steps": 160,
        "mc_time_steps": 64,
    }]


def _crosscheck_check(outs: list[Output]) -> list[str]:
    out = outs[0]
    errs = [f"point ({r['t']}, {r['x']}) failed: |u_FD - u_MC| = {r['abs_diff']} > tol {r['tol']}"
            for r in out.rows if r["pass"] != "True"]
    passes = [line for line in out.summary if line.endswith(" PASS")]
    if len(passes) != len(out.rows) or len(out.rows) != 2:
        errs.append(f"expected 2 PASS lines, summary reads {out.summary[1:]}")
    return errs


# ------------------------------------------------------------------- fd2d

def _fd2d_configs(seed: int) -> list[dict]:
    # analytic driver and deterministic finite differences: no input here
    # depends on the seed
    return [{
        "experiment": "localization-error",
        "driver": {"kind": "analytic", "name": "gauss_x_time"},
        "pde": {"dim": 2, "horizon": 0.5, "terminal": "cos",
                "generator": "sqrt-sin", "coupling": "sin"},
        "n_list": [1.0, 1.5, 2.0],
        "n_max": 3.0,
        "points": [[0.0, [0.0, 0.0]]],
        "cells_per_unit": 24,
        "time_steps": 128,
    }]


def _fd2d_check(outs: list[Output]) -> list[str]:
    out = outs[0]
    diffs = [float(r["max_diff"]) for r in out.rows if r["n"] != "fit"]
    errs = []
    if not all(a > b for a, b in zip(diffs, diffs[1:])):
        errs.append(f"localization differences not decreasing: {diffs}")
    fit_line = next((line for line in out.summary if line.startswith("log-diff vs n^2")), "")
    try:
        slope_part, r2_part = fit_line.split(": slope = ")[1].split(", R^2 = ")
        slope, r2 = float(slope_part), float(r2_part)
    except (IndexError, ValueError):
        return errs + [f"no decay fit in summary: {out.summary}"]
    if not slope < 0:
        errs.append(f"decay slope {slope} is not negative")
    if not r2 >= 0.8:
        errs.append(f"decay fit R^2 {r2} < 0.8")
    return errs


# ------------------------------------------------------------------ young

def _young_configs(seed: int) -> list[dict]:
    return [
        {"experiment": "integrate", "levels": 15, "cells": 64, "path_seed": 2024 + seed},
        {
            "experiment": "flow",
            "seed": seed,
            "driver": {"kind": "fbs", "hurst": {"h0": 0.8, "h": 0.6, "d": 1},
                       "time_cells": 2046, "space_cells": 64,
                       "space_min": -4.0, "space_max": 4.0, "seed": 21 + seed, "p": 2.05},
            "cells": 2048,
            "levels": 6,
            "dim": 2,
            "path_seed": 7 + seed,
            "alpha_seed": 1 + seed,
        },
    ]


def _young_check(outs: list[Output]) -> list[str]:
    integ, flow = outs
    errs = [f"smooth reduction {r['case']}: |Young - Riemann| = {r['abs_diff']} > 1e-6"
            for r in integ.rows if not float(r["abs_diff"]) <= 1e-6]
    if "smooth reduction (tol 1e-6): PASS" not in integ.summary:
        errs.append("smooth reduction summary does not read PASS")
    (row,) = flow.rows
    if not float(row["cocycle_residual"]) <= 1e-12:
        errs.append(f"cocycle residual {row['cocycle_residual']} > 1e-12")
    if not float(row["inverse_residual"]) <= 1e-10:
        errs.append(f"inverse residual {row['inverse_residual']} > 1e-10")
    return errs


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "lsmc",
            "backward induction dominates: regression design, Picard sweeps and "
            "the p-variation diagnostics, with lattice-driver increments at one time",
            _lsmc_configs, _lsmc_check,
        ),
        Workload(
            "crosscheck",
            "mollified-driver evaluation dominates both sides of the FD-vs-MC "
            "check, twice over through ShiftedField at the interior start",
            _crosscheck_configs, _crosscheck_check,
        ),
        Workload(
            "fd2d",
            "2-D finite differences alone (operator assembly, SuperLU, value_at); "
            "the analytic driver is about 2%, so driver changes are bypassed",
            _fd2d_configs, _fd2d_check,
        ),
        Workload(
            "young",
            "sewing, paths and flow do the work on large dyadic grids, and the "
            "driver is evaluated with a distinct time per point",
            _young_configs, _young_check,
        ),
    )
}
