"""The benchmark's tracer wraps mfquant functions by name; each name must exist."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through sys.modules
    spec.loader.exec_module(module)
    return module


LAYER_FUNCTIONS = load_tracing().LAYER_FUNCTIONS


@pytest.mark.parametrize(
    "layer,name", [(layer, name) for layer, names in LAYER_FUNCTIONS.items() for name in names]
)
def test_traced_name_is_callable(layer, name):
    module = importlib.import_module(f"mfquant.{layer}")
    assert callable(getattr(module, name, None)), f"mfquant.{layer}.{name}"
