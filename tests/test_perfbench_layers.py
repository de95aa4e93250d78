"""The bench tracer's layer table names functions that exist in lossqfi.

``perfbench/tracer.py`` looks each (module, function) pair up with
``getattr`` when it installs its wrappers, so a layer that was renamed or
deleted crashes every traced bench run. This reads the table and changes
nothing under ``perfbench/``.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.LAYERS


@pytest.mark.parametrize("module,function", _layers())
def test_traced_layer_resolves(module, function):
    assert callable(getattr(importlib.import_module(f"lossqfi.{module}"), function, None))
