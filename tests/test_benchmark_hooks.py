"""The benchmark's tracer and the microbenchmarks must keep working against the package.

`perfbench/tracer.py` lists (module, function) pairs in `TRACED` and patches
them while a traced round runs. A refactor that renames or moves one of them
fails here instead of in the benchmark. `benchmarks/test_micro.py` sits
outside `testpaths`; every one of its bodies runs here once, with a stand-in
for pytest-benchmark's fixture, so an API change that breaks `scripts/bench.py`
fails here too. Both files are loaded read-only, without registering them in
`sys.modules`.
"""

import importlib
import importlib.util
import itertools
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load(relative: str, name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / relative)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_hooks():
    tracer = _load("perfbench/tracer.py", "_perfbench_tracer")
    return [(module, function) for module, function, _ in tracer.TRACED]


@pytest.mark.parametrize("module, function", _traced_hooks())
def test_traced_function_resolves(module, function):
    assert callable(getattr(importlib.import_module(f"lccn_lab.{module}"), function, None))


def _micro_cases():
    """One (body, kwargs) case per parametrization of each microbenchmark."""
    micro = _load("benchmarks/test_micro.py", "_micro_benchmarks")
    cases = []
    for name, body in vars(micro).items():
        if not name.startswith("test_"):
            continue
        axes = []
        for mark in getattr(body, "pytestmark", []):
            if mark.name == "parametrize":
                names = [n.strip() for n in mark.args[0].split(",")]
                axes.append([dict(zip(names, v if len(names) > 1 else (v,))) for v in mark.args[1]])
        for combo in itertools.product(*axes):
            kwargs = {k: v for part in combo for k, v in part.items()}
            case_id = f"{name}[{'-'.join(str(v) for v in kwargs.values())}]"
            cases.append(pytest.param(body, kwargs, id=case_id))
    return cases


@pytest.mark.parametrize("body, kwargs", _micro_cases())
def test_microbenchmark_runs_once(body, kwargs):
    calls = []

    def benchmark(fn, *args):
        calls.append(fn)
        return fn(*args)

    body(benchmark, **kwargs)
    assert len(calls) == 1
