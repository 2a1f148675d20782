"""Spans around calls into each youngbsde module, installed from outside.

``Tracer.install`` wraps every public function defined in a ``youngbsde``
module, plus ``DriverField.evaluate``, each driver class's
``time_derivative``, ``RegressionBasis.design``, ``PdeSolution.value_at``
and ``TimeGrid.refine``, and rebinds every ``youngbsde.*`` module
attribute that is one of the original functions, so calls between modules
go through the wrappers too.  Spans (name, layer, start, end, parent,
run id) are kept in memory and written out once, by ``dump``.  A layer is
one module; ``layer_metrics`` turns the spans and the counters gathered at
the same boundaries into the per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYERS = ("cli", "driver", "forward", "bsde", "pde", "sewing", "flow", "paths")

_DRIVER_EVAL = ("evaluate", "time_derivative")
_SOLVES = ("bsde.backward_solve", "bsde.localized_solve")


def _lattice_box(field):
    """(t_lo, t_hi, [(x_lo, x_hi), ...]) of the sampled lattice under a
    field, in the field's own time, or None for a field with no lattice."""
    shift = 0.0
    while field is not None:
        if hasattr(field, "time_points") and hasattr(field, "space_axes"):
            tp = field.time_points
            return tp[0] - shift, tp[-1] - shift, [(a[0], a[-1]) for a in field.space_axes]
        shift += getattr(field, "t0", 0.0)
        field = getattr(field, "base", None)
    return None


class Tracer:
    def __init__(self):
        # span: [name, layer, start, end, parent index, run id]
        self.spans: list[list] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._runs = 0

    # ---------------------------------------------------------- wrapping

    def _wrap(self, fn, layer: str, name: str, count=None):
        spans, stack, counters = self.spans, self._stack, self.counters
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if parent < 0:
                self._runs += 1
            idx = len(spans)
            span = [name, layer, 0.0, 0.0, parent, self._runs - 1]
            spans.append(span)
            stack.append(idx)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if count is not None:
                count(counters, sig.bind(*args, **kwargs).arguments, result,
                      parent >= 0 and spans[parent][1] == layer)
            return result

        return traced

    def install(self) -> None:
        import youngbsde.cli  # noqa: F401  (imports every youngbsde module)
        from youngbsde import bsde, driver, paths, pde

        modules = {name.split(".")[-1]: mod for name, mod in sys.modules.items()
                   if name.startswith("youngbsde.") and mod is not None}
        replaced = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    name = f"{layer}.{attr}"
                    replaced[id(obj)] = self._wrap(obj, layer, name, _COUNTERS.get(name))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    setattr(mod, attr, replaced[id(obj)])

        methods = [(driver.DriverField, "evaluate")]
        methods += [(cls, "time_derivative") for cls in vars(driver).values()
                    if inspect.isclass(cls) and issubclass(cls, driver.DriverField)
                    and "time_derivative" in vars(cls)]
        methods += [(bsde.RegressionBasis, "design"), (pde.PdeSolution, "value_at"),
                    (paths.TimeGrid, "refine")]
        for cls, attr in methods:
            layer = cls.__module__.split(".")[-1]
            fn = vars(cls)[attr]
            count = _count_driver_points if layer == "driver" else None
            setattr(cls, attr, self._wrap(fn, layer, f"{layer}.{cls.__name__}.{attr}", count))

    def dump(self, path: Path, wall_s: float) -> None:
        path.write_text(json.dumps(
            {"spans": self.spans, "counters": dict(self.counters), "wall_s": wall_s}
        ))


# ------------------------------------------------------ counters at spans
# Each takes (counters, bound arguments, result, nested) where nested says
# the call came from the same layer.

def _count_driver_points(counters, args, result, nested):
    if nested:  # count only calls into the driver layer from outside it
        return
    field = args["self"]
    t = np.atleast_1d(np.asarray(args["t"], dtype=float))
    x = np.asarray(args["x"], dtype=float)
    if x.ndim == 0:
        x = x[None]
    if x.ndim == 1:
        x = x[None, :] if x.size == field.dim and t.size == 1 else x[:, None]
    k = max(t.size, x.shape[0])
    counters["driver.eval_calls"] += 1
    counters["driver.eval_points"] += k
    if t.size == 1 or np.all(t == t[0]):
        counters["driver.same_time_points"] += k
    box = _lattice_box(field)
    if box is not None:
        t_lo, t_hi, space = box
        out = (t < t_lo) | (t > t_hi)
        for j, (lo, hi) in enumerate(space):
            out = out | (x[:, j] < lo) | (x[:, j] > hi)
        counters["driver.clamped_points"] += np.count_nonzero(np.broadcast_to(out, (k,)))


def _count_solve(counters, args, sol, nested):
    counters["bsde.solves"] += 1
    counters["bsde.steps"] += sol.grid_points.size - 1
    counters["bsde.picard_iters"] += sum(
        sum(1 for r in log if not isinstance(r, str))
        for log in sol.picard_residuals if log is not None
    )
    counters["bsde.halvings"] += len(sol.halvings)


def _count_fd(counters, args, sol, nested):
    counters["pde.fd_solves"] += 1
    counters["pde.fd_node_steps"] += (sol.u.shape[0] - 1) * int(np.prod(sol.u.shape[1:]))


def _count_sew(counters, args, res, nested):
    # every level l <= levels_used evaluates the germ on cells * 2^l
    # subintervals, and the defect check once more on the base cells
    cells = res.grid.n - 1
    counters["sewing.germ_points"] += cells * (2 ** (res.levels_used + 1) - 1) + cells


def _count_flow(counters, args, flow, nested):
    counters["flow.fine_steps"] += flow.step_factors.shape[0] * 2 ** args.get("levels", 0)


def _count_forward(counters, args, ens, nested):
    counters["forward.path_steps"] += ens.x.shape[0] * (ens.x.shape[1] - 1)


_COUNTERS = {
    "bsde.backward_solve": _count_solve,
    "bsde.localized_solve": _count_solve,
    "pde.fd_dirichlet_solve": _count_fd,
    "sewing.sew": _count_sew,
    "flow.solve_linear_yode": _count_flow,
    "forward.euler_maruyama": _count_forward,
}


# -------------------------------------------------------------- analysis

class AccountingError(ValueError):
    pass


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(trace: dict, out_bytes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced child, as {name: (value, unit)};
    ``out_bytes`` is the size of the files the runs wrote.

    A span's self time is its duration less its direct children's; a
    layer's self time is the sum over its spans.  Raises AccountingError
    when the layer self times do not add up to the traced wall time.
    """
    spans, c = trace["spans"], defaultdict(float, trace["counters"])
    n = len(spans)
    dur = [s[3] - s[2] for s in spans]
    self_t = dur[:]
    for i, s in enumerate(spans):
        if s[4] >= 0:
            self_t[s[4]] -= dur[i]

    layer_self = defaultdict(float)
    total_by_name = defaultdict(float)
    calls_by_layer = defaultdict(int)
    for i, s in enumerate(spans):
        layer_self[s[1]] += self_t[i]
        total_by_name[s[0]] += dur[i]
        calls_by_layer[s[1]] += 1

    def self_within(layer: str, names) -> float:
        # self time of `layer` spent inside spans named in `names`; parents
        # start before their children, so one forward pass suffices
        inside = [False] * n
        total = 0.0
        for i, s in enumerate(spans):
            inside[i] = s[0] in names or (s[4] >= 0 and inside[s[4]])
            if inside[i] and s[1] == layer:
                total += self_t[i]
        return total

    entry_eval_s = sum(
        dur[i] for i, s in enumerate(spans)
        if s[1] == "driver" and s[0].rsplit(".", 1)[-1] in _DRIVER_EVAL
        and (s[4] < 0 or spans[s[4]][1] != "driver")
    )

    accounted = sum(layer_self.values())
    wall = trace["wall_s"]
    if abs(accounted - wall) > 0.01 * wall + 1e-3:
        raise AccountingError(
            f"layer self times sum to {accounted:.4f} s, traced wall time is {wall:.4f} s"
        )

    pts = c["driver.eval_points"]
    m = {f"{layer}.self_s": (layer_self[layer], "s") for layer in LAYERS}
    m.update({
        "cli.out_bytes": (out_bytes, "bytes"),
        "driver.synth_s": (total_by_name["driver.fbs_generate"], "s"),
        "driver.eval_calls": (c["driver.eval_calls"], "count"),
        "driver.eval_points": (pts, "count"),
        "driver.ns_per_point": (_ratio(entry_eval_s, pts, 1e9), "ns"),
        "driver.same_time_fraction": (_ratio(c["driver.same_time_points"], pts), "ratio"),
        "driver.clamped_fraction": (_ratio(c["driver.clamped_points"], pts), "ratio"),
        "forward.path_steps": (c["forward.path_steps"], "count"),
        "forward.ns_per_path_step": (
            _ratio(layer_self["forward"], c["forward.path_steps"], 1e9), "ns"),
        "bsde.solves": (c["bsde.solves"], "count"),
        "bsde.steps": (c["bsde.steps"], "count"),
        "bsde.ms_per_step": (_ratio(self_within("bsde", _SOLVES), c["bsde.steps"], 1e3), "ms"),
        "bsde.design_s": (total_by_name["bsde.RegressionBasis.design"], "s"),
        "bsde.diag_s": (total_by_name["bsde.diagnostics"], "s"),
        "bsde.picard_iters": (c["bsde.picard_iters"], "count"),
        "bsde.halvings": (c["bsde.halvings"], "count"),
        "pde.fd_solves": (c["pde.fd_solves"], "count"),
        "pde.fd_node_steps": (c["pde.fd_node_steps"], "count"),
        "pde.ns_per_node_step": (
            _ratio(self_within("pde", ("pde.fd_dirichlet_solve",)), c["pde.fd_node_steps"], 1e9),
            "ns"),
        "pde.value_at_calls": (
            sum(1 for s in spans if s[0] == "pde.PdeSolution.value_at"), "count"),
        "pde.value_at_s": (total_by_name["pde.PdeSolution.value_at"], "s"),
        "sewing.germ_points": (c["sewing.germ_points"], "count"),
        "sewing.ns_per_germ_point": (
            _ratio(layer_self["sewing"], c["sewing.germ_points"], 1e9), "ns"),
        "flow.fine_steps": (c["flow.fine_steps"], "count"),
        "flow.ns_per_fine_step": (
            _ratio(layer_self["flow"], c["flow.fine_steps"], 1e9), "ns"),
        "paths.calls": (calls_by_layer["paths"], "count"),
    })
    return m
