import ast
import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from oracles import load_fbs

from youngbsde import cli
from youngbsde.cli import (
    MAX_FD_CELLS_1D, MAX_FD_NODES_2D, MAX_FINE_POINTS, MAX_PATH_POINTS, main, validate_config,
    ConfigError,
)
from youngbsde.paths import NumericalError


def write_cfg(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return p


class TestValidation:
    def test_unknown_experiment(self):
        with pytest.raises(ConfigError, match="unknown experiment"):
            validate_config({"experiment": "nope"})

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="unknown key: bogus"):
            validate_config({"experiment": "integrate", "bogus": 1})

    def test_unknown_section_key_named(self):
        with pytest.raises(ConfigError, match="unknown key: forward.wrong"):
            validate_config(
                {"experiment": "linear-bsde", "seed": 1, "forward": {"wrong": 2}}
            )

    def test_missing_seed(self):
        with pytest.raises(ConfigError, match="missing required key: seed"):
            validate_config({"experiment": "linear-bsde"})

    def test_comments_ignored(self):
        cfg = validate_config(
            {"experiment": "integrate", "_comment": "note", "levels": 10}
        )
        assert "_comment" not in cfg


class TestCliRuns:
    def test_check_mode(self, tmp_path, capsys):
        p = write_cfg(tmp_path, {"experiment": "integrate", "levels": 8})
        assert main(["check", str(p)]) == 0
        assert "config ok" in capsys.readouterr().out

    def test_check_rejects_bad_key(self, tmp_path, capsys):
        p = write_cfg(tmp_path, {"experiment": "integrate", "oops": 1})
        assert main(["check", str(p)]) == 2
        assert "oops" in capsys.readouterr().err

    def test_missing_key_exit_2(self, tmp_path, capsys):
        p = write_cfg(tmp_path, {"experiment": "linear-bsde"})
        assert main(["run", str(p), "--out", str(tmp_path / "o")]) == 2
        assert "seed" in capsys.readouterr().err

    def test_integrate_battery(self, tmp_path):
        p = write_cfg(tmp_path, {"experiment": "integrate", "levels": 10, "cells": 32})
        out = tmp_path / "out"
        assert main(["run", str(p), "--out", str(out)]) == 0
        lines = (out / "results.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        idx = header.index("abs_diff")
        for line in lines[1:]:
            assert float(line.split(",")[idx]) <= 1e-6
        assert (out / "manifest.json").exists()
        assert "PASS" in (out / "summary.txt").read_text()

    _INTEGRATE_CASES = ["time", "bilinear", "sin_x_time", "cos_x_time", "gauss_x_time"]

    def test_integrate_evaluates_each_profile_once_per_fine_point(self, monkeypatch):
        # 8 cells at level 6: one walk, each case's phi called on each of the
        # 512 fine left points once, for its Young term and its quadrature
        # term both; no opaque AnalyticField function is reached
        from youngbsde.driver import AnalyticField

        counts = dict.fromkeys(self._INTEGRATE_CASES, 0)

        def counted(name, phi):
            def wrapped(x):
                counts[name] += x.shape[0]
                return phi(x)
            return wrapped

        for name in self._INTEGRATE_CASES:
            fld = cli.ANALYTIC_FIELDS[name]
            monkeypatch.setattr(fld, "phi", counted(name, fld.phi))
        monkeypatch.setattr(AnalyticField, "_at", lambda *a: pytest.fail("AnalyticField reached"))
        rows, summary = cli._run_integrate({"cells": 8, "levels": 6, "path_seed": 5}, None)
        assert counts == dict.fromkeys(self._INTEGRATE_CASES, 8 * 2**6)
        assert [r["case"] for r in rows] == self._INTEGRATE_CASES
        assert summary[-1] == "smooth reduction (tol 1e-6): PASS"

    def test_integrate_non_finite_quadrature_exits_3_naming_its_subinterval(
            self, tmp_path, capsys, monkeypatch):
        # a' NaN past t = 0.5: the quadrature column is checked as the Young
        # columns are, so the run fails instead of writing FAIL; at 8 cells
        # and level 2 the first fine cell past 0.5 is (0.53125, 0.5625)
        fld = cli.ANALYTIC_FIELDS["gauss_x_time"]
        monkeypatch.setattr(fld, "da", lambda t: np.where(t > 0.5, np.nan, 1.0))
        with pytest.raises(NumericalError, match=r"subinterval \(0\.53125, 0\.5625\)"):
            cli._run_integrate({"cells": 8, "levels": 2, "path_seed": 5}, None)
        p = write_cfg(tmp_path, {"experiment": "integrate", "levels": 2, "cells": 8})
        assert main(["run", str(p), "--out", str(tmp_path / "o")]) == 3
        assert "subinterval (0.53125, 0.5625)" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment", ["cross-check", "localization-error"])
    def test_pde_experiments_need_a_time_derivative(self, tmp_path, capsys, experiment):
        # t^0.8 sin x has none
        p = write_cfg(tmp_path, {"experiment": experiment, "seed": 1,
                                 "driver": {"kind": "analytic", "name": "sin_x_t08"}})
        assert main(["check", str(p)]) == 2
        assert main(["run", str(p), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.count("needs a driver with a time derivative") == 2

    def test_assumptions_region_pass(self, tmp_path, capsys):
        p = write_cfg(
            tmp_path,
            {
                "experiment": "assumptions",
                "params": {"tau": 0.85, "lam": 0.45, "p": 2.05},
                "hurst": {"h0": 0.9, "h": 0.5, "d": 1},
            },
        )
        out = tmp_path / "out"
        assert main(["run", str(p), "--out", str(out)]) == 0
        text = (out / "summary.txt").read_text()
        assert "hurst-region" in text and "PASS" in text

    def test_assumptions_region_fail_3d(self, tmp_path):
        p = write_cfg(
            tmp_path,
            {
                "experiment": "assumptions",
                "params": {"tau": 0.85, "lam": 0.45, "p": 2.05},
                "hurst": {"h0": 0.9, "h": 0.5, "d": 3},
            },
        )
        out = tmp_path / "out"
        assert main(["run", str(p), "--out", str(out)]) == 0
        summary = (out / "summary.txt").read_text()
        region_line = [l for l in summary.splitlines() if "hurst-region" in l][0]
        assert "FAIL" in region_line

    def test_byte_identical_reruns(self, tmp_path):
        cfg = {
            "experiment": "linear-bsde",
            "seed": 11,
            "paths": 500,
            "forward": {"steps": 16},
            "driver": {"kind": "analytic", "name": "sin_x_time"},
            "bsde": {"coupling": {"name": "identity"}},
        }
        p = write_cfg(tmp_path, cfg)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", str(p), "--out", str(out1)]) == 0
        assert main(["run", str(p), "--out", str(out2)]) == 0
        assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()

    def test_linear_bsde_zero_coupling_passes(self, tmp_path):
        cfg = {
            "experiment": "linear-bsde",
            "seed": 11,
            "paths": 500,
            "forward": {"steps": 16},
            "bsde": {"coupling": {"name": "zero"}},
        }
        p = write_cfg(tmp_path, cfg)
        out = tmp_path / "lz"
        assert main(["run", str(p), "--out", str(out)]) == 0
        assert "within 3 combined se: PASS" in (out / "summary.txt").read_text()

    def test_nonlinear_summary_counts_unconverged_steps(self, tmp_path):
        cfg = {"experiment": "nonlinear-bsde", "seed": 1, "paths": 300, "forward": {"steps": 8}}
        out = tmp_path / "nl"
        assert main(["run", str(write_cfg(tmp_path, cfg)), "--out", str(out)]) == 0
        assert "Picard steps accepted unconverged: 0" in (out / "summary.txt").read_text()
        header = (out / "results.csv").read_text().splitlines()[0]
        assert header == "y0,se,sup_y,m_pk,z_bmo,halvings"

    def test_overflowing_diag_p_exits_3_naming_it(self, tmp_path, capsys):
        cfg = {"experiment": "nonlinear-bsde", "seed": 1, "paths": 500,
               "forward": {"steps": 16}, "diag_p": 1e6}
        p = write_cfg(tmp_path, cfg)
        assert main(["run", str(p), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "diag_p" in err and "singular" not in err

    def test_overflowing_diag_k_exits_3_naming_it(self, tmp_path, capsys):
        cfg = {"experiment": "nonlinear-bsde", "seed": 1, "paths": 500,
               "forward": {"steps": 16}, "diag_k": 1e4}
        p = write_cfg(tmp_path, cfg)
        assert main(["run", str(p), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "diag_k" in err and "singular" not in err

    @pytest.mark.parametrize(
        "bsde, key",
        [
            ({"coupling": {"name": "sin"}}, "bsde.coupling"),
            ({"generator": {"name": "linear-y"}}, "bsde.generator"),
        ],
    )
    def test_linear_bsde_rejects_uncovered_problem(self, tmp_path, capsys, bsde, key):
        cfg = {"experiment": "linear-bsde", "seed": 11, "paths": 100, "bsde": bsde}
        p = write_cfg(tmp_path, cfg)
        assert main(["check", str(p)]) == 2
        assert main(["run", str(p), "--out", str(tmp_path / "lr")]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize(
        "cfg, key",
        [
            ({"experiment": "nonlinear-bsde", "seed": 1, "bsde": {"coupling": "sin"}},
             "bsde.coupling"),
            ({"experiment": "localize", "seed": 1, "bsde": {"terminal": "cos"}}, "bsde.terminal"),
            ({"experiment": "compare", "seed": 1, "bsde": {"generator": "zero"}},
             "bsde.generator"),
            ({"experiment": "localization-error", "n_list": [1.0]}, "n_list"),
            ({"experiment": "localization-error", "n_list": [2.0, 2]}, "n_list"),
            ({"experiment": "localization-error", "pde": {"dim": 3}}, "pde.dim"),
            ({"experiment": "nonlinear-bsde", "seed": 1, "forward": 5}, "forward"),
            ({"experiment": "nonlinear-bsde", "seed": 1, "basis": [3]}, "basis"),
            ({"experiment": "compare", "seed": 1, "picard": "fast"}, "picard"),
            ({"experiment": "localization-error", "pde": "x"}, "pde"),
            ({"experiment": "cross-check", "seed": 1, "driver": "x"}, "driver"),
            ({"experiment": "cross-check", "seed": 1,
              "driver": {"kind": "mollified", "m": 8, "base": "fbs"}}, "driver.base"),
            ({"experiment": "cross-check", "seed": 1,
              "driver": {"kind": "mollified", "base": {"kind": "fbs", "cells": 8}}},
             "driver.base.cells"),
            ({"experiment": "cross-check", "seed": 1, "driver": {"kind": "fbs"}},
             "driver.hurst"),
            ({"experiment": "nonlinear-bsde", "seed": 1, "driver": {"kind": "fbs", "hurst": 5}},
             "driver.hurst"),
            ({"experiment": "nonlinear-bsde", "seed": 1,
              "driver": {"kind": "fbs", "hurst": {"h0": 1.5, "h": 0.5}}}, "driver.hurst.h0"),
            ({"experiment": "nonlinear-bsde", "seed": 1,
              "driver": {"kind": "fbs", "hurst": {"h0": 0.9, "h": 0.5, "d": 1.5}}},
             "driver.hurst.d"),
            ({"experiment": "cross-check", "seed": 1,
              "driver": {"kind": "mollified", "base": {"kind": "fbs"}}}, "driver.base.hurst"),
            ({"experiment": "cross-check", "seed": 1,
              "driver": {"kind": "mollified",
                         "base": {"kind": "fbs", "hurst": {"h0": 0.9, "h": 0.5, "H": 1}}}},
             "driver.base.hurst.H"),
            ({"experiment": "nonlinear-bsde", "seed": 1, "paths": "many"}, "paths"),
            ({"experiment": "localize", "seed": 1, "paths": 0}, "paths"),
            ({"experiment": "cross-check", "seed": 1, "pde": {"terminal": "nope"}},
             "pde.terminal"),
            ({"experiment": "localization-error", "pde": {"generator": "nope"}}, "pde.generator"),
            ({"experiment": "pde-table", "pde": {"coupling": ["sin"]}}, "pde.coupling"),
            ({"experiment": "nonlinear-bsde", "seed": 1, "bsde": {"terminal": {"name": "nope"}}},
             "bsde.terminal"),
            ({"experiment": "nonlinear-bsde", "seed": 1, "driver": {"name": "nope"}},
             "driver.name"),
            ({"experiment": "nonlinear-bsde", "seed": 1, "driver": {"kind": "nope"}},
             "driver.kind"),
            ({"experiment": "assumptions", "hurst": {"h0": 0.9}}, "hurst.h"),
            ({"experiment": "linear-bsde", "seed": 1, "bsde": {"terminal": {"name": []}}},
             "bsde.terminal.name"),
            ({"experiment": "linear-bsde", "seed": 1, "bsde": {"terminal": {"name": {}}}},
             "bsde.terminal.name"),
            ({"experiment": "localize", "seed": 1, "bsde": {"terminal": {"name": []}}},
             "bsde.terminal.name"),
            ({"experiment": "localize", "seed": 1, "bsde": {"terminal": {"name": {}}}},
             "bsde.terminal.name"),
            ({"experiment": "neumann", "seed": 1, "driver": {"kind": "analytic"},
              "terminal_name": "nope"}, "terminal_name"),
            ({"experiment": "nonlinear-bsde", "seed": 1, "basis": {"degree": -1}}, "basis.degree"),
            ({"experiment": "nonlinear-bsde", "seed": 1, "picard": {"max_iter": "x"}},
             "picard.max_iter"),
            ({"experiment": "nonlinear-bsde", "seed": 1, "diag_p": 0.5}, "diag_p"),
            ({"experiment": "integrate", "tolerances": {"picard": 1e-9}}, "tolerances"),
            ({"experiment": "integrate", "threads": 2}, "threads"),
            # PDE points outside the smallest box, off the time range or of
            # the wrong dimension, and boxes under two cells
            ({"experiment": "cross-check", "seed": 1, "driver": {"kind": "analytic"},
              "points": [[0.0, 5.0]]}, "points"),
            ({"experiment": "cross-check", "seed": 1, "driver": {"kind": "analytic"},
              "points": [[0.5, 0.0]]}, "points"),
            ({"experiment": "pde-table", "driver": {"kind": "analytic"}, "pde": {"dim": 2}},
             "points"),
            ({"experiment": "localization-error", "points": [[0.0, [0.0, 0.0]]]}, "points"),
            ({"experiment": "localization-error", "points": [[0.1, 2.5]]}, "points"),
            ({"experiment": "pde-table", "driver": {"kind": "analytic"},
              "points": [[-0.1, 0.0]]}, "points"),
            ({"experiment": "pde-table", "driver": {"kind": "analytic"}, "n_list": [0.01, 1.0]},
             "n_list"),
            ({"experiment": "localization-error", "n_list": [1.0, 2.0], "n_max": 0.01}, "n_max"),
            ({"experiment": "cross-check", "seed": 1, "driver": {"kind": "analytic"},
              "pde": {"horizon": 2.0}, "points": [[1.5, 0.0]]}, "points"),
            # neumann start and interval, and an fbs driver wider than the state
            ({"experiment": "neumann", "seed": 1, "driver": {"kind": "analytic"},
              "start": [0.0, 5.0]}, "start"),
            ({"experiment": "neumann", "seed": 1, "driver": {"kind": "analytic"},
              "interval": [1.0, 0.0]}, "interval"),
            ({"experiment": "neumann", "seed": 1, "driver": {"kind": "analytic"},
              "start": [2.0, 0.5]}, "start"),
            ({"experiment": "linear-bsde", "seed": 1,
              "driver": {"kind": "fbs", "hurst": {"h0": 0.9, "h": 0.5, "d": 2}}},
             "driver.hurst.d"),
            ({"experiment": "localization-error",
              "driver": {"kind": "mollified",
                         "base": {"kind": "fbs", "hurst": {"h0": 0.9, "h": 0.5, "d": 2}}}},
             "driver.base.hurst.d"),
            # n_max must lie above every n_list box
            ({"experiment": "localization-error", "n_list": [1.0, 2.0], "n_max": 2.0,
              "time_steps": 16, "points": [[0.0, 0.5]]}, "n_max"),
            # manifest.json would overwrite the sidecar manifest.json
            ({"experiment": "fbs-generate", "seed": 1, "prefix": "manifest",
              "driver": {"kind": "fbs", "hurst": {"h0": 0.7, "h": 0.5},
                         "time_cells": 4, "space_cells": 4}}, "prefix"),
            # inputs that fed no result are no longer keys
            ({"experiment": "assumptions", "params": {"tau": 0.85, "lam": 0.45, "eps": 0.9}},
             "params.eps"),
            ({"experiment": "assumptions", "params": {"tau": 0.85, "lam": 0.45, "k": 7}},
             "params.k"),
            ({"experiment": "localize", "seed": 1, "forward": {"name": "bm"}}, "forward.name"),
            ({"experiment": "localization-error", "pde": {"name": "heat"}}, "pde.name"),
            ({"experiment": "nonlinear-bsde", "seed": 1,
              "forward": {"diffusion": -2.5, "bound": 2.0}}, "forward.bound"),
            # each box of the box experiments has its own half-width
            ({"experiment": "pde-table", "driver": {"kind": "analytic", "name": "time"},
              "pde": {"halfwidth": 2.0}}, "pde.halfwidth"),
            ({"experiment": "localization-error", "pde": {"halfwidth": 7.0}}, "pde.halfwidth"),
            # names no file system takes: a NUL, a lone surrogate (not UTF-8)
            # and 300 bytes, beyond the 255-byte name limit with ".json"
            *[({"experiment": "fbs-generate", "seed": 1, "prefix": prefix,
                "driver": {"kind": "fbs", "hurst": {"h0": 0.7, "h": 0.5},
                           "time_cells": 4, "space_cells": 4}}, "prefix")
              for prefix in ("a\u0000b", "a\ud800", "x" * 300)],
            # an integer beyond float range is not a finite number
            ({"experiment": "nonlinear-bsde", "seed": 1,
              "driver": {"kind": "fbs", "hurst": {"h0": 0.9, "h": 0.5}, "horizon": 10**400}},
             "driver.horizon"),
        ],
    )
    def test_checked_configs_that_cannot_run(self, tmp_path, capsys, cfg, key):
        p = write_cfg(tmp_path, cfg)
        assert main(["check", str(p)]) == 2
        assert main(["run", str(p), "--out", str(tmp_path / "bad")]) == 2
        assert capsys.readouterr().err.count(key) == 2

    def test_cross_check_with_a_large_drift_runs(self, tmp_path):
        # no bound on the coefficients: a drift of 9 checks and runs
        p = write_cfg(tmp_path, {"experiment": "cross-check", "seed": 1, "paths": 200,
                                 "driver": {"kind": "analytic", "name": "time"},
                                 "pde": {"drift": 9.0}, "time_steps": 8, "space_steps": 16,
                                 "mc_time_steps": 8})
        assert main(["check", str(p)]) == 0
        assert main(["run", str(p), "--out", str(tmp_path / "ok")]) == 0

    @pytest.mark.parametrize("cfg", [
        {"experiment": "integrate", "levels": 40, "cells": 2},
        {"experiment": "integrate", "levels": 10**18},
        {"experiment": "integrate", "levels": 17},
        # 32 * 2^16 fine cells, each with a 2 x 2 factor
        {"experiment": "flow", "seed": 0, "levels": 16, "cells": 32, "dim": 2},
    ], ids=["integrate-40", "integrate-huge", "integrate-17", "flow-dim2"])
    def test_fine_point_count_bounded(self, tmp_path, capsys, cfg):
        p = write_cfg(tmp_path, cfg)
        for argv in (["check", str(p)], ["run", str(p), "--out", str(tmp_path / "o")]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert "levels" in err and str(MAX_FINE_POINTS) in err

    def test_fine_point_count_at_the_bound_passes(self):
        validate_config({"experiment": "integrate", "levels": 16})
        validate_config({"experiment": "flow", "seed": 0, "levels": 15, "cells": 32, "dim": 2})

    @staticmethod
    def _ensembles(paths, steps):
        # paths * (steps + 1) * dim = MAX_PATH_POINTS at 2^16 paths and 128
        # time points, with dim 1 except where the state is 2-D
        return [
            {"experiment": "nonlinear-bsde", "seed": 1, "paths": paths, "forward": {"steps": steps}},
            {"experiment": "localize", "seed": 1, "paths": paths // 2,
             "forward": {"steps": steps, "x0": [0.0, 0.0]}},
            {"experiment": "cross-check", "seed": 1, "paths": paths // 2,
             "driver": {"kind": "analytic", "name": "time"}, "pde": {"dim": 2},
             "points": [[0.0, [0.0, 0.0]]], "mc_time_steps": steps},
            {"experiment": "neumann", "seed": 1, "driver": {"kind": "analytic", "name": "time"},
             "paths": paths, "steps": steps},
        ]

    @pytest.mark.parametrize("q", range(4))
    @pytest.mark.parametrize("paths, steps", [(2**16 + 2, 127), (2**16, 128), (10**9, 10**6)])
    def test_path_point_count_bounded(self, tmp_path, capsys, monkeypatch, q, paths, steps):
        # rejected before any experiment code allocates the ensemble
        monkeypatch.setattr(cli, "run_config", lambda *a: pytest.fail("run_config reached"))
        p = write_cfg(tmp_path, self._ensembles(paths, steps)[q])
        for argv in (["check", str(p)], ["run", str(p), "--out", str(tmp_path / "o")]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert "paths" in err and str(MAX_PATH_POINTS) in err

    def test_path_point_count_at_the_bound_passes(self):
        assert MAX_PATH_POINTS == 2**16 * 128
        for cfg in self._ensembles(2**16, 127):
            validate_config(cfg)

    # every experiment with paths estimates a standard error, NaN at one path
    _SE_EXPERIMENTS = [
        {"experiment": "linear-bsde", "seed": 1},
        {"experiment": "nonlinear-bsde", "seed": 1},
        {"experiment": "localize", "seed": 1},
        {"experiment": "compare", "seed": 1},
        {"experiment": "cross-check", "seed": 1, "driver": {"kind": "analytic", "name": "time"}},
        {"experiment": "neumann", "seed": 1, "driver": {"kind": "analytic", "name": "time"}},
    ]

    @pytest.mark.parametrize("q", range(len(_SE_EXPERIMENTS)))
    def test_one_path_exits_2_naming_paths(self, tmp_path, capsys, monkeypatch, q):
        monkeypatch.setattr(cli, "run_config", lambda *a: pytest.fail("run_config reached"))
        p = write_cfg(tmp_path, {**self._SE_EXPERIMENTS[q], "paths": 1})
        for argv in (["check", str(p)], ["run", str(p), "--out", str(tmp_path / "o")]):
            assert main(argv) == 2
            assert "paths: expected an integer >= 2, got 1" in capsys.readouterr().err

    @pytest.mark.parametrize("q", range(len(_SE_EXPERIMENTS)))
    def test_two_paths_pass_check(self, q):
        assert validate_config({**self._SE_EXPERIMENTS[q], "paths": 2})["paths"] == 2

    def test_two_paths_give_a_finite_se(self, tmp_path):
        p = write_cfg(tmp_path, {"experiment": "linear-bsde", "seed": 1, "paths": 2,
                                 "forward": {"steps": 4}, "basis": {"degree": 0}})
        assert main(["run", str(p), "--out", str(tmp_path / "o")]) == 0
        (row,) = csv.DictReader(open(tmp_path / "o" / "results.csv"))
        assert np.isfinite(float(row["combined_se"]))

    @staticmethod
    def _fd_grids(cells):
        # each config's largest 1-D grid has `cells` cells: cross-check's
        # second solve doubles space_steps, the others have 2 n cells_per_unit
        return [
            ("space_steps", {"experiment": "cross-check", "seed": 1,
                             "driver": {"kind": "analytic", "name": "time"},
                             "space_steps": cells // 2}),
            ("cells_per_unit", {"experiment": "localization-error", "n_list": [1.0, 2.0],
                                "n_max": 4.0, "cells_per_unit": cells // 8}),
            ("cells_per_unit", {"experiment": "pde-table", "driver": {"kind": "analytic"},
                                "n_list": [2.0, 1.0], "m_list": [4],
                                "cells_per_unit": cells // 4}),
        ]

    @pytest.mark.parametrize("q", range(3))
    def test_1d_fd_cells_bounded(self, tmp_path, capsys, monkeypatch, q):
        # the dense 1-D implicit inverse is never allocated
        monkeypatch.setattr(cli, "run_config", lambda *a: pytest.fail("run_config reached"))
        key, cfg = self._fd_grids(2 * MAX_FD_CELLS_1D)[q]
        p = write_cfg(tmp_path, cfg)
        for argv in (["check", str(p)], ["run", str(p), "--out", str(tmp_path / "o")]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert key in err and str(MAX_FD_CELLS_1D) in err

    def test_1d_fd_cells_at_the_bound_pass(self):
        for _, cfg in self._fd_grids(MAX_FD_CELLS_1D):
            validate_config(cfg)

    @staticmethod
    def _fd_grids_2d(over):
        # each config's largest 2-D grid has the most nodes the bound admits
        # at its time steps, and over = 1 adds a time step: cross-check's
        # doubled grid has 3 * 3343^2 (its largest at 1 step), the others
        # 8 * 2048^2 and 2 * 4096^2, both 2^25
        point = [[0.0, [0.0, 0.0]]]
        return [
            ("space_steps", {"experiment": "cross-check", "seed": 1, "pde": {"dim": 2},
                             "driver": {"kind": "analytic", "name": "time"}, "points": point,
                             "time_steps": 1 + over, "space_steps": 1671}),
            ("cells_per_unit", {"experiment": "localization-error", "pde": {"dim": 2},
                                "points": point, "n_list": [1.0, 2.0], "n_max": 1023.5,
                                "time_steps": 7 + over, "cells_per_unit": 1}),
            ("cells_per_unit", {"experiment": "pde-table", "driver": {"kind": "analytic"},
                                "pde": {"dim": 2}, "points": point, "n_list": [2047.5, 1.0],
                                "m_list": [4], "time_steps": 1 + over, "cells_per_unit": 1}),
        ]

    @pytest.mark.parametrize("q", range(3))
    def test_2d_fd_nodes_bounded(self, tmp_path, capsys, monkeypatch, q):
        # the stored 2-D solution is never allocated
        monkeypatch.setattr(cli, "run_config", lambda *a: pytest.fail("run_config reached"))
        key, cfg = self._fd_grids_2d(1)[q]
        p = write_cfg(tmp_path, cfg)
        for argv in (["check", str(p)], ["run", str(p), "--out", str(tmp_path / "o")]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert key in err and str(MAX_FD_NODES_2D) in err

    def test_2d_fd_nodes_at_the_bound_pass(self):
        assert 8 * 2048**2 == MAX_FD_NODES_2D < 3 * 3345**2
        for _, cfg in self._fd_grids_2d(0):
            validate_config(cfg)
        # the default 2-D cross-check: 193 * 385^2 nodes
        validate_config({"experiment": "cross-check", "seed": 1, "pde": {"dim": 2},
                         "driver": {"kind": "analytic", "name": "time"},
                         "points": [[0.0, [0.0, 0.0]]]})

    def test_manifest_roundtrip(self, tmp_path):
        cfg = {
            "experiment": "localize",
            "seed": 3,
            "paths": 400,
            "forward": {"steps": 16},
            "radii": [1.0, 2.0],
        }
        p = write_cfg(tmp_path, cfg)
        out1 = tmp_path / "r1"
        assert main(["run", str(p), "--out", str(out1)]) == 0
        echoed = json.loads((out1 / "manifest.json").read_text())["config"]
        assert echoed["basis"] == {"degree": 3, "ridge": 1e-8}  # defaults filled in
        p2 = write_cfg(tmp_path, echoed, name="echo.json")
        out2 = tmp_path / "r2"
        assert main(["run", str(p2), "--out", str(out2)]) == 0
        assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()

    def test_numerical_failure_exit_3(self, tmp_path, capsys):
        cfg = {
            "experiment": "nonlinear-bsde",
            "seed": 5,
            "paths": 200,
            "forward": {"steps": 4},
            "bsde": {"generator": {"name": "linear-y", "coef": -100.0}},
        }
        p = write_cfg(tmp_path, cfg)
        assert main(["run", str(p), "--out", str(tmp_path / "o3")]) == 3
        assert "no contraction" in capsys.readouterr().err

    def test_numerical_failure_names_its_step(self, tmp_path, capsys):
        # a contraction constant far above 1: the last step fails even on a
        # half mesh, and stderr names that step and its time
        cfg = {
            "experiment": "nonlinear-bsde",
            "seed": 5,
            "paths": 200,
            "bsde": {"generator": {"name": "linear-y", "coef": 1e6}},
        }
        p = write_cfg(tmp_path, cfg)
        assert main(["run", str(p), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "numerical failure: no contraction at step 63 (t = 0.984375)" in err

    def test_overflowed_targets_name_the_regression_and_its_step(self, tmp_path, capsys):
        # coef * y overflows, so the first step's fit meets non-finite
        # targets: its coefficients are not finite, while the normal
        # equations themselves factor
        cfg = json.loads((CONFIGS / "nonlinear_bsde.json").read_text())
        cfg["bsde"]["generator"] = {"name": "linear-y", "coef": 1e300}
        cfg["paths"] = 200
        p = write_cfg(tmp_path, cfg)
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["run", str(p), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "numerical failure: regression coefficients not finite at step 31 (t = 0.96875)" in err
        assert "singular" not in err

    def test_overflow_raised_as_an_error_exits_3_naming_its_step(self, tmp_path, capsys):
        # the same overflow with RuntimeWarning made an error, as CI runs
        # every config: numpy's warning is the numerical failure, at its step
        cfg = json.loads((CONFIGS / "nonlinear_bsde.json").read_text())
        cfg["bsde"]["generator"] = {"name": "linear-y", "coef": 1e300}
        cfg["paths"] = 200
        p = write_cfg(tmp_path, cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["run", str(p), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "numerical failure: overflow encountered in multiply at step 31 (t = 0.96875)" in err

    @pytest.mark.parametrize("text", [
        b"\xff\xfe{}",  # not UTF-8
        b'{"experiment": "integrate", "levels": ' + b"1" * 5000 + b"}",  # over 4,300 digits
        b"[" * 100000 + b"]" * 100000,  # nested past the decoder's recursion limit
    ], ids=["not-utf8", "too-many-digits", "nested-arrays"])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, text):
        p = tmp_path / "cfg.json"
        p.write_bytes(text)
        assert main(["check", str(p)]) == 2
        assert main(["run", str(p), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.count("config error") == 2

    def test_fbs_generate_prefix_of_250_bytes_is_written(self, tmp_path):
        # 125 two-byte characters: <prefix>.json takes the whole 255 bytes
        prefix = "\u00e9" * 125
        cfg = {"experiment": "fbs-generate", "seed": 1, "prefix": prefix,
               "driver": {"kind": "fbs", "hurst": {"h0": 0.7, "h": 0.5},
                          "time_cells": 4, "space_cells": 4}}
        out = tmp_path / "fb"
        assert main(["run", str(write_cfg(tmp_path, cfg)), "--out", str(out)]) == 0
        assert (out / f"{prefix}.json").is_file() and (out / f"{prefix}.bin").is_file()
        cfg["prefix"] += "\u00e9"
        assert main(["check", str(write_cfg(tmp_path, cfg))]) == 2

    def test_output_dir_key_rejected(self, tmp_path, capsys):
        # --out is the only way to name the output directory
        p = write_cfg(tmp_path, {"experiment": "integrate", "levels": 4, "output_dir": "x"})
        assert main(["check", str(p)]) == 2
        assert main(["run", str(p), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.count("unknown key: output_dir") == 2
        assert not (tmp_path / "o").exists()

    def test_out_defaults_to_youngbsde_out(self, tmp_path, monkeypatch):
        # YOUNGBSDE_OUT is not read: without --out a run writes ./youngbsde-out
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("YOUNGBSDE_OUT", str(tmp_path / "elsewhere"))
        p = write_cfg(tmp_path, {"experiment": "integrate", "levels": 4, "cells": 4})
        assert main(["run", str(p)]) == 0
        assert (tmp_path / "youngbsde-out" / "results.csv").is_file()
        assert not (tmp_path / "elsewhere").exists()

    def test_compare_running_max_gap_is_shift(self, tmp_path):
        # zero generator and coupling: Y is the conditional expectation of the
        # terminal, so shifting the terminal by s shifts Y0 by s
        cfg = {
            "experiment": "compare",
            "seed": 9,
            "paths": 300,
            "forward": {"steps": 8},
            "bsde": {"terminal": {"name": "running-max"}},
            "shift": 0.5,
        }
        p = write_cfg(tmp_path, cfg)
        out = tmp_path / "cmp"
        assert main(["run", str(p), "--out", str(out)]) == 0
        header, vals = (out / "results.csv").read_text().strip().splitlines()
        row = dict(zip(header.split(","), vals.split(",")))
        assert float(row["y0_gap"]) == pytest.approx(0.5, abs=1e-12)

    def test_compare_experiment(self, tmp_path):
        cfg = {
            "experiment": "compare",
            "seed": 9,
            "paths": 800,
            "forward": {"steps": 16},
            "driver": {"kind": "analytic", "name": "sin_x_time"},
            "bsde": {"coupling": {"name": "sin"}},
            "shift": 0.1,
        }
        p = write_cfg(tmp_path, cfg)
        out = tmp_path / "cmp"
        assert main(["run", str(p), "--out", str(out)]) == 0
        rows = (out / "results.csv").read_text().strip().splitlines()
        header, vals = rows[0].split(","), rows[1].split(",")
        frac = float(vals[header.index("fraction_ordered")])
        assert frac >= 0.99

    def test_fbs_generate_writes_field(self, tmp_path):
        cfg = {
            "experiment": "fbs-generate",
            "seed": 1,
            "driver": {
                "kind": "fbs",
                "hurst": {"h0": 0.7, "h": 0.5, "d": 1},
                "time_cells": 16,
                "space_cells": 16,
                "seed": 4,
            },
            "prefix": "field",
        }
        p = write_cfg(tmp_path, cfg)
        out = tmp_path / "fb"
        assert main(["run", str(p), "--out", str(out)]) == 0
        assert (out / "field.bin").exists() and (out / "field.json").exists()
        g = load_fbs(out / "field")
        assert g.seed == 4 and g.values.shape == (17, 17) and np.all(g.values[0] == 0.0)

    def test_save_load_roundtrip(self, tmp_path):
        driver = {"kind": "fbs", "hurst": {"h0": 0.6, "h": 0.7, "d": 1}, "time_cells": 5,
                  "space_min": 0.0, "space_max": 1.0, "space_cells": 5, "seed": 9}
        cfg = {"experiment": "fbs-generate", "seed": 1, "driver": driver, "prefix": "real"}
        out = tmp_path / "fb"
        assert main(["run", str(write_cfg(tmp_path, cfg)), "--out", str(out)]) == 0
        f = cli.build_field(validate_config(cfg)["driver"])
        g = load_fbs(out / "real")
        np.testing.assert_array_equal(f.values, g.values)
        assert g.hurst == f.hurst and g.seed == 9

    def test_fbs_generate_prefix_keeps_its_dots(self, tmp_path):
        cfg = {
            "experiment": "fbs-generate",
            "seed": 1,
            "driver": {"kind": "fbs", "hurst": {"h0": 0.7, "h": 0.5}, "time_cells": 4,
                       "space_cells": 4, "seed": 4},
            "prefix": "fbs.2024",
        }
        out = tmp_path / "fb"
        assert main(["run", str(write_cfg(tmp_path, cfg)), "--out", str(out)]) == 0
        assert sorted(f.name for f in out.iterdir() if f.name.startswith("fbs")) == [
            "fbs.2024.bin", "fbs.2024.json"]
        assert load_fbs(out / "fbs.2024").values.shape == (5, 5)

    def test_neumann_smooth_driver(self, tmp_path):
        cfg = {
            "experiment": "neumann",
            "seed": 2,
            "driver": {"kind": "analytic", "name": "time"},
            "interval": [0.0, 1.0],
            "start": [0.0, 0.5],
            "paths": 200,
            "steps": 32,
            "terminal_name": "one",
        }
        p = write_cfg(tmp_path, cfg)
        out = tmp_path / "nm"
        assert main(["run", str(p), "--out", str(out)]) == 0
        rows = (out / "results.csv").read_text().strip().splitlines()
        est = float(rows[1].split(",")[0])
        assert est == pytest.approx(np.e, rel=1e-9)

    def test_pde_table_rows_and_plain_summary(self, tmp_path):
        cfg = {
            "experiment": "pde-table",
            "driver": {"kind": "analytic", "name": "sin_x_t08"},
            "pde": {"coupling": "sin"},
            "n_list": [1.0, 1.5, 2.0],
            "m_list": [2, 4],
            "points": [[0.0, 0.0], [0.25, 0.5]],
            "time_steps": 8,
            "cells_per_unit": 8,
        }
        out = tmp_path / "pt"
        assert main(["run", str(write_cfg(tmp_path, cfg)), "--out", str(out)]) == 0
        rows = (out / "results.csv").read_text().strip().splitlines()
        assert len(rows) - 1 == 3 * 2 * 2
        summary = (out / "summary.txt").read_text()
        assert "np." not in summary
        # the Cauchy differences are written as plain JSON-style lists
        cauchy = dict(line.split(": ", 1) for line in summary.splitlines()[1:3])
        assert len(json.loads(cauchy["cauchy in n"])) == 2
        assert len(json.loads(cauchy["cauchy in m"])) == 1

    def test_pde_table_writes_a_1d_x_as_a_number(self, tmp_path):
        # [t, [x]] and [t, x] are one point, and results.csv writes both as x
        cfg = {"experiment": "pde-table", "driver": {"kind": "analytic", "name": "sin_x_t08"},
               "n_list": [1.0, 1.5], "m_list": [2], "points": [[0.0, [0.5]], [0.25, 0.5]],
               "time_steps": 8, "cells_per_unit": 8}
        out = tmp_path / "pt"
        assert main(["run", str(write_cfg(tmp_path, cfg)), "--out", str(out)]) == 0
        with open(out / "results.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["x"] for row in rows] == ["0.5"] * 4

    def test_manifest_records_the_blas_thread_settings(self, tmp_path):
        src = str(Path(cli.__file__).resolve().parents[1])
        cfg = write_cfg(tmp_path, {"experiment": "integrate", "levels": 4, "cells": 8})
        env = {k: v for k, v in os.environ.items() if k != "OMP_NUM_THREADS"}
        env.update(PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
        out = tmp_path / "o"
        subprocess.run([sys.executable, "-m", "youngbsde.cli", "run", str(cfg), "--out", str(out)],
                       check=True, capture_output=True, env=env)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["blas_threads"] == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None}

    def test_2d_cross_check_writes_plain_x(self, tmp_path):
        cfg = {"experiment": "cross-check", "seed": 1, "paths": 300,
               "driver": {"kind": "analytic", "name": "sin_x_time"},
               "pde": {"dim": 2, "halfwidth": 2.0}, "points": [[0.0, [0, 0.1]]],
               "time_steps": 8, "space_steps": 16, "mc_time_steps": 8}
        out = tmp_path / "cc"
        assert main(["run", str(write_cfg(tmp_path, cfg)), "--out", str(out)]) == 0
        with open(out / "results.csv", newline="") as fh:
            (row,) = csv.DictReader(fh)
        assert row["x"] == "[0.0, 0.1]"
        assert (out / "summary.txt").read_text().splitlines()[1].startswith("(0.0, [0.0, 0.1]): ")


def test_only_cli_imports_the_file_modules():
    # the CLI writes every file; the library modules only compute
    found = []
    for path in sorted(Path(cli.__file__).resolve().parent.glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}: {n}" for n in names
                      if n.split(".")[0] in ("csv", "json", "pathlib")]
    assert found == []


CONFIGS =Path(__file__).resolve().parents[1] / "configs"

# the shipped configs cut to sizes that run in milliseconds
_CUT = {"paths": 40, "steps": 8, "time_cells": 32, "space_cells": 16, "levels": 6, "cells": 16,
        "time_steps": 8, "space_steps": 16, "mc_time_steps": 8}


def _cut(obj):
    if isinstance(obj, dict):
        return {k: _CUT[k] if k in _CUT and isinstance(v, int) else _cut(v) for k, v in obj.items()}
    return obj


def _leaves(obj, prefix=()):
    for k, v in obj.items():
        if k.startswith("_comment"):
            continue
        if isinstance(v, dict):
            yield from _leaves(v, prefix + (k,))
        else:
            yield prefix + (k,)


def _mutant(cfg, path, value):
    cfg = json.loads(json.dumps(cfg))
    sub = cfg
    for k in path[:-1]:
        sub = sub[k]
    sub[path[-1]] = value
    return cfg


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.json")))
def test_mutation_sweep_check_passing_means_run_builds(tmp_path, capsys, name):
    """Every leaf of a shipped config set in turn to each of seven values:
    either check and run both exit 2 naming the key, or check passes and
    run exits 0 or 3."""
    base = _cut(json.loads((CONFIGS / name).read_text()))
    bad = []
    for path in _leaves(base):
        key = ".".join(path)
        for value in (0, -1, "x", 2.5, None, [], {}):
            p = write_cfg(tmp_path, _mutant(base, path, value))
            try:
                codes = main(["check", str(p)]), main(["run", str(p), "--out", str(tmp_path / "o")])
            except Exception as exc:  # a crash is a finding, reported with the others
                codes = repr(exc)
            err = capsys.readouterr().err
            if not (codes == (2, 2) and err.count(key) >= 2 or codes in ((0, 0), (0, 3))):
                bad.append(f"{key} = {value!r}: {codes} {err.strip()}")
    assert not bad, "\n".join(bad)


# a linear BSDE and a 1-D finite-difference table, both on analytic drivers
# (at 2 OpenBLAS threads the Cholesky factors of fbs_generate can be slow)
_THREAD_CONFIGS = {
    "bsde": {"experiment": "linear-bsde", "seed": 5, "paths": 4000,
             "driver": {"kind": "analytic", "name": "bilinear"}, "forward": {"steps": 16},
             "bsde": {"coupling": {"name": "identity"}}, "basis": {"degree": 7}},
    "fd": {"experiment": "pde-table", "driver": {"kind": "analytic", "name": "sin_x_t08"},
           "pde": {"coupling": "sin"}, "n_list": [2.0, 3.0], "m_list": [4],
           "points": [[0.0, 0.0], [0.25, 0.5]], "time_steps": 32, "cells_per_unit": 64},
}


@pytest.mark.parametrize("name", sorted(_THREAD_CONFIGS))
def test_blas_thread_count_moves_results_by_rounding_only(tmp_path, name):
    # results are byte-identical at a fixed thread count; across counts
    # BLAS may split its sums differently, which moves the last digits
    src = str(Path(cli.__file__).resolve().parents[1])
    cfg = write_cfg(tmp_path, _THREAD_CONFIGS[name])
    tables = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads}
        subprocess.run([sys.executable, "-m", "youngbsde.cli", "run", str(cfg), "--out", str(out)],
                       check=True, capture_output=True, env=env)
        with open(out / "results.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        tables.append((header, np.array(rows, dtype=float)))
    (head1, one), (head2, two) = tables
    assert head1 == head2 and one.shape == two.shape
    assert np.all(np.abs(one - two) <= 1e-9 * np.maximum(1.0, np.abs(one)))
