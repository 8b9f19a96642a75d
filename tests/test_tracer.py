"""The benchmark's span tracer names library functions and parameters by
string; these checks read it and fail on a rename in the library."""

import importlib
import inspect
import types
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    # compiled from its text, so no bytecode is written beside it
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), vars(module))
    return module


def _resolve(modname: str, qualname: str):
    obj = importlib.import_module(f"resgraph.{modname}")
    for attr in qualname.split("."):
        obj = getattr(obj, attr)
    return obj


def test_every_target_resolves(tracer):
    for modname, qualname, layer in tracer.TARGETS:
        assert callable(_resolve(modname, qualname)), (modname, qualname)
        assert layer in tracer.LAYERS
        owner, _, attr = qualname.rpartition(".")
        if owner:  # the tracer rewraps a method as a classmethod
            assert isinstance(vars(_resolve(modname, owner))[attr], classmethod)


@pytest.mark.parametrize("modname, name, params", [
    ("counting", "quasipoly_value", {"spec", "positions"}),
    ("counting", "sw_norm", {"graph", "h"}),
])
def test_counter_parameters_exist(tracer, modname, name, params):
    assert (modname, name) in {(m, q) for m, q, _ in tracer.TARGETS}
    assert params <= set(inspect.signature(_resolve(modname, name)).parameters)


def test_counted_functions_are_targets(tracer):
    names = {q for _, q, _ in tracer.TARGETS}
    assert {fn for fn in tracer.CALLS.values() if fn is not None} <= names
    assert "expand" in names
