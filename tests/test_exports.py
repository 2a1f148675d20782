import ast
import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import pytest

LIBRARY = ["paths", "driver", "sewing", "flow", "forward", "bsde", "pde"]


@pytest.mark.parametrize("name", LIBRARY)
def test_all_is_exact(name):
    # __all__ names only what the module has, and every public function or
    # class the module defines
    mod = importlib.import_module(f"youngbsde.{name}")
    missing = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert not missing, f"{name}.__all__ names undefined {missing}"
    public = {
        n for n, obj in vars(mod).items()
        if not n.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == mod.__name__
    }
    unlisted = sorted(public - set(mod.__all__))
    assert not unlisted, f"{name}.__all__ leaves out {unlisted}"


def _name(node):
    # the last name of a Name or dotted Attribute, as raised or subclassed
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def test_one_type_for_a_numerical_failure():
    # the package defines two exception classes, and a numerical failure is
    # raised as a NumericalError, never as a numpy or builtin runtime error
    src = Path(importlib.import_module("youngbsde").__file__).resolve().parent
    defined, raised = [], []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(
                (_name(b) or "").endswith(("Error", "Exception", "Warning")) for b in node.bases
            ):
                defined.append(f"{path.stem}.{node.name}")
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if _name(exc) in ("FloatingPointError", "LinAlgError", "RuntimeError"):
                    raised.append(f"{path.stem}:{node.lineno} {_name(exc)}")
    assert sorted(defined) == ["cli.ConfigError", "paths.NumericalError"]
    assert raised == []


# ------------------------------------------- the names perfbench/tracer.py binds

def _tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod, ast.parse(path.read_text())


def _resolve(name):
    # "layer.function" or "layer.Class.method" to the library object
    layer, *attrs = name.split(".")
    obj = importlib.import_module(f"youngbsde.{layer}")
    for attr in attrs:
        obj = getattr(obj, attr, None)
    return obj


def _params(fn):
    return list(inspect.signature(fn).parameters)


def test_tracer_wrapped_methods_keep_their_parameters():
    # Tracer.install wraps these by name, and its counters bind t, x and
    # levels by keyword
    from youngbsde import bsde, driver, flow, paths, pde

    assert _params(driver.DriverField.evaluate) == ["self", "t", "x"]
    derivatives = [cls for cls in vars(driver).values() if inspect.isclass(cls)
                   and issubclass(cls, driver.DriverField) and "time_derivative" in vars(cls)]
    assert derivatives
    assert all(_params(cls.time_derivative) == ["self", "t", "x"] for cls in derivatives)
    assert _params(bsde.RegressionBasis.design) == ["self", "x"]
    assert _params(pde.PdeSolution.value_at) == ["self", "t", "x"]
    assert _params(paths.TimeGrid.refine) == ["self", "levels"]
    assert "levels" in _params(flow.solve_linear_yode)


def test_tracer_reads_functions_the_library_has():
    # every span name the counters and layer_metrics read: the keys of
    # _COUNTERS, _SOLVES, and the dotted library names in layer_metrics that
    # are neither metric names (dict keys) nor counter names (c[...] keys)
    mod, tree = _tracer()
    names = set(mod._COUNTERS) | set(mod._SOLVES)
    metrics = next(node for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef) and node.name == "layer_metrics")
    skip = set()
    for node in ast.walk(metrics):
        if isinstance(node, ast.Dict):
            skip.update(id(k) for k in node.keys)
        if isinstance(node, ast.Subscript) and getattr(node.value, "id", None) == "c":
            skip.add(id(node.slice))
    dotted = re.compile(rf"^({'|'.join(mod.LAYERS)})(\.[A-Za-z_]\w*)+$")
    names |= {node.value for node in ast.walk(metrics)
              if isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in skip and dotted.match(node.value)}
    assert {"driver.fbs_generate", "bsde.diagnostics", "pde.PdeSolution.value_at"} <= names
    missing = sorted(n for n in names if not callable(_resolve(n)))
    assert not missing, f"perfbench/tracer.py reads {missing}, which the library lacks"
