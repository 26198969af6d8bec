"""The benchmark's tracer and the microbenchmarks must keep working against the package.

`perfbench/tracer.py` lists (module, function) pairs in `TRACED` and patches
them while a traced round runs. A refactor that renames or moves one of them
fails here instead of in the benchmark. `benchmarks/test_micro.py` sits
outside `testpaths`; every one of its bodies runs here once, with a stand-in
for pytest-benchmark's fixture, so an API change that breaks `scripts/bench.py`
fails here too. Both files are loaded read-only, without registering them in
`sys.modules`. `scripts/run_noise_benchmark.py`, the all-trainers recipe,
runs once on a tiny grid.

Every traced function must also run: the eight trainer kinds on the golden
config call each of them, except those that `SILENT_TRACED` names with its
reason, and they make one momentum update per classifier step.

Every public name must be used by the program itself: a name in
`lccn_lab.__all__` that only tests or the package's own `__init__.py` refer
to is dead, unless `PUBLIC_WITHOUT_CALLER` names it with its reason. A
public function also needs a caller outside its own module; one that only
its neighbours call is a second way to do their job. Classes and constants
may be used in their own module alone, since they are return types.
"""

import ast
import importlib
import importlib.util
import inspect
import itertools
from pathlib import Path

import pytest
from test_golden import BASE_CFG

from lccn_lab import cli
from lccn_lab.trainers import TRAINER_KINDS

ROOT = Path(__file__).resolve().parents[1]
PROGRAM_DIRS = ("src", "scripts", "benchmarks", "perfbench")
PUBLIC_WITHOUT_CALLER = {
    # Reads back what `save_checkpoint` writes; the only reader of checkpoint.json.
    "load_checkpoint",
    # The sampler's one-draw reference, which `gibbs_sample_batch` replays bit for bit.
    "sampling_distribution",
    # The exact-enumeration posterior that `mixing_diagnostic` checks the chain against.
    "exact_posterior_bruteforce",
    # The distance `mixing_diagnostic` reports between chain and exact marginals.
    "total_variation_rows",
}


SILENT_TRACED = {
    # Dead: the eval loop scores with `top1_accuracy`. Removing it also removes
    # its per-layer benchmark metric, so it goes with the next benchmark change.
    "metrics.test_accuracy",
    # The latent trainers and `mixing_diagnostic` step a `sampler.GibbsChain`
    # and take its certificate, so no training path calls these two by name;
    # they stay as the chain's one-batch entry point and its whole-matrix reference.
    "sampler.gibbs_sample_batch",
    "noise_model.update_bound",
}


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


def test_every_traced_layer_runs_and_each_step_updates_once(tmp_path):
    tracer = _load("perfbench/tracer.py", "_perfbench_tracer").Tracer()
    with tracer:
        for kind in TRAINER_KINDS:
            cfg = {**BASE_CFG, "train": {**BASE_CFG["train"], "kind": kind}}
            cli.run_experiment(cfg, 0, tmp_path / kind)
    calls = {key: stat.calls for key, stat in tracer.stats.items()}
    assert {key for key, n in calls.items() if n == 0} == SILENT_TRACED
    steps = ("classifier.sgd_step", "classifier.sgd_step_soft", "trainers._composed_loss_grads")
    assert calls["classifier.apply_gradients"] == sum(calls[key] for key in steps)


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

    def benchmark(fn, *args, **kwargs):  # pytest-benchmark's signature
        calls.append(fn)
        return fn(*args, **kwargs)

    body(benchmark, **kwargs)
    assert len(calls) == 1


def test_noise_benchmark_script_runs_its_grid(tmp_path):
    script = _load("scripts/run_noise_benchmark.py", "_noise_benchmark")
    script.main([
        "--k", "2", "--n-per-class", "10", "--epochs", "1", "--pretrain-epochs", "0",
        "--hidden-width", "0", "--seeds", "0", "--out", str(tmp_path),
    ])
    rows = (tmp_path / "benchmark.csv").read_text().splitlines()[1:]
    assert len(rows) == len(script.NOISE_GRID) * len(script.TRAINER_GRID) == 18


def _program_references() -> dict[str, set[str]]:
    """Per program file outside __init__.py, every name, attribute and identifier-like string.

    A package file is keyed by its module name, any other file by its path.
    """
    found = {}
    for folder in PROGRAM_DIRS:
        for path in (ROOT / folder).rglob("*.py"):
            if path.name == "__init__.py":
                continue
            key = str(path)
            if path.parent == ROOT / "src" / "lccn_lab":
                key = f"lccn_lab.{path.stem}"
            names = found.setdefault(key, set())
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    if node.value.isidentifier():
                        names.add(node.value)
    return found


def test_every_public_name_has_a_caller():
    package = importlib.import_module("lccn_lab")
    public = set(package.__all__)
    assert PUBLIC_WITHOUT_CALLER <= public
    references = _program_references()

    def has_caller(name: str) -> bool:
        value = getattr(package, name)
        home = value.__module__ if inspect.isfunction(value) else None
        return any(name in names for key, names in references.items() if key != home)

    assert sorted(n for n in public - PUBLIC_WITHOUT_CALLER if not has_caller(n)) == []
