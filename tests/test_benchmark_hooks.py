"""The benchmark's per-layer tracer wraps package functions by name; they must all exist.

`perfbench/tracer.py` lists (module, function) pairs in `TRACED` and patches
them while a traced round runs. A refactor that renames or moves one of them
fails here instead of in the benchmark. The tracer module is loaded from its
file, read-only, without registering it in `sys.modules`.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced_hooks():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(module, function) for module, function, _ in tracer.TRACED]


@pytest.mark.parametrize("module, function", _traced_hooks())
def test_traced_function_resolves(module, function):
    assert callable(getattr(importlib.import_module(f"lccn_lab.{module}"), function, None))
