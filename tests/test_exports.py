import importlib
import inspect

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
