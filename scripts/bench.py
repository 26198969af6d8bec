#!/usr/bin/env python3
"""Record one BENCH_<n>.json: benchmark workloads, microbenchmarks and a timed Tier-1 run.

Usage, from the repository root:

    python3 scripts/bench.py 6 --seeds 1 2 3
    python3 scripts/bench.py 5 --checkout ../lccn-lab-parent

In the checkout (this repository by default) it runs `perfbench/run.py`
untraced on every workload of BENCHMARK.json for each seed, for the
benchmark's `run_seconds`; then times each microbenchmark of
`benchmarks/micro.py` in this process (`record_micro`); then the
Tier-1 suite under a timer; and it counts the lines of each module of
`src/lccn_lab` (`source`) and of each script of `scripts/` and
`benchmarks/` (`tooling`). It writes the machine facts and every result to
BENCH_<n>.json at the root of this repository and prints the deltas against
the previous file (BENCH_<n-1>.json unless --previous names another; n/a
where the previous file has none). The runs go one after another, so that
none competes with another for a core. A file's `lines` count every line
and its `code` only lines that are not blank, not a comment and not part of
a docstring, so that deleting comments or docstrings does not read as less
code.

This module is also the one microbenchmark harness; `scripts/ab.py --micro`
uses it too. `micro_table` runs the text of a tree's `benchmarks/micro.py`
as a plain module and returns its `CASES`: by id, a function that takes an
`lccn_lab` package and returns the call to time. `load_package` imports the
tree's own package under a name of its own, to hand to a case.
`micro_round` times the call over a round, as many calls in a row as fill
MICRO_ROUND_S (`micro_calls`), with perfbench's `Calibrated`, and reads the
calibrated mean per call, `norm_mean_us`, and the raw one, `mean_us`. A
BENCH file records, per microbenchmark, the median and quartiles of
`norm_mean_us` over MICRO_ROUNDS rounds (the sizing calls warm it up) and
the median `mean_us`. Two files are read at different times, whose drift
can exceed a small change, so only `scripts/ab.py --micro` pairs judge a
microbenchmark change.
"""

from __future__ import annotations

import argparse
import ast
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MICRO = "benchmarks/micro.py"
SOURCE = "src/lccn_lab"
TOOLING = ("scripts", "benchmarks")
# The nodes whose body can open with a docstring.
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
# Seconds of one microbenchmark round, and the rounds of each in a BENCH file.
MICRO_ROUND_S = 0.25
MICRO_ROUNDS = 10

sys.path.insert(0, str(ROOT / "perfbench"))
from calibrate import Calibrated  # noqa: E402


def _run(cmd: list[str], cwd: Path) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(cwd / "src")}
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True)


def _git(checkout: Path, *args: str) -> str | None:
    done = subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def run_workload(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One untraced benchmark run: its result record and the machine facts it printed."""
    done = _run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        checkout,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"perfbench failed on {workload} seed {seed}:\n{done.stderr}")
    summary = json.loads(lines[-1])
    facts = next(
        (json.loads(line[len("# machine "):]) for line in lines if line.startswith("# machine ")),
        {},
    )
    record = json.loads(
        (checkout / "perfbench_out" / f"{workload}-seed{seed}-trace0.json").read_text()
    )
    return {
        "seed": seed,
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "end_to_end": record["end_to_end"],
        "fingerprints": record["fingerprints"],
    }, facts


def load_package(src: Path, name: str):
    """Import the `lccn_lab` package under src as `name`; its submodules import as `name.x`."""
    init = src / "lccn_lab" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def micro_table(text: str) -> dict:
    """The CASES of MICRO's text, run as a plain module: each case's function of a package by id."""
    module = types.ModuleType("micro")
    exec(compile(text, MICRO, "exec"), vars(module))
    return module.CASES


def micro_calls(call) -> int:
    """How many calls of `call` in a row fill MICRO_ROUND_S: the calls of one round."""
    calls, start = 0, time.perf_counter()
    while time.perf_counter() - start < MICRO_ROUND_S:
        call()
        calls += 1
    return calls


def micro_round(call, calls: int) -> dict[str, float]:
    """Calibrated and raw microseconds per call, `norm_mean_us` and `mean_us`, of `calls` in a row."""
    timed = Calibrated()

    def run() -> None:
        for _ in range(calls):
            call()

    timed.time_call(run)
    return {"norm_mean_us": timed.scaled[0] / calls * 1e6, "mean_us": timed.raw[0] / calls * 1e6}


def record_micro(checkout: Path) -> dict:
    """Per microbenchmark of checkout, `norm_mean_us` median and quartiles over MICRO_ROUNDS rounds.

    Each record also holds the median raw `mean_us` and the calls of a round.
    """
    package = load_package(checkout / "src", "lccn_lab_bench")
    micro = {}
    for name, case in micro_table((checkout / MICRO).read_text()).items():
        call = case(package)
        calls = micro_calls(call)
        rounds = [micro_round(call, calls) for _ in range(MICRO_ROUNDS)]
        q1, median, q3 = statistics.quantiles(
            [r["norm_mean_us"] for r in rounds], n=4, method="inclusive"
        )
        micro[name] = {
            "norm_mean_us": median, "norm_q1_us": q1, "norm_q3_us": q3,
            "mean_us": statistics.median(r["mean_us"] for r in rounds),
            "calls": calls, "rounds": MICRO_ROUNDS,
        }
    return micro


def run_tier1(checkout: Path) -> dict:
    start = time.perf_counter()
    done = _run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"],
        checkout,
    )
    seconds = time.perf_counter() - start
    lines = done.stdout.strip().splitlines()
    summary = lines[-1] if lines else ""
    return {"seconds": seconds, "returncode": done.returncode, "summary": summary}


def _line_counts(path: Path) -> dict[str, int]:
    """A file's total `lines` and its `code` lines.

    A code line is not blank, not a comment and not part of a docstring (the
    string that opens a module, class or function body, found with `ast`).
    """
    text = path.read_text()
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    lines = text.splitlines()
    code = [
        number for number, line in enumerate(lines, 1)
        if number not in docstrings and line.strip() and not line.lstrip().startswith("#")
    ]
    return {"lines": len(lines), "code": len(code)}


def source_lines(checkout: Path) -> dict[str, dict[str, int]]:
    """Per module of SOURCE in checkout, its `_line_counts`."""
    return {path.name: _line_counts(path) for path in sorted((checkout / SOURCE).glob("*.py"))}


def tooling_lines(checkout: Path) -> dict[str, dict[str, int]]:
    """Per Python file of the TOOLING directories in checkout, by its path there, its `_line_counts`."""
    return {f"{folder}/{path.name}": _line_counts(path)
            for folder in TOOLING for path in sorted((checkout / folder).glob("*.py"))}


def _change(old: float | None, new: float | None) -> str:
    if old is None or new is None:
        return "n/a"
    return f"{old:.4g} -> {new:.4g} ({(new - old) / old:+.1%})" if old else f"{old} -> {new}"


def _total(source: dict[str, dict[str, int]]) -> dict[str, int]:
    """A `source_lines` record's lines and code lines summed over its modules; {} for none."""
    if not source:
        return {}
    return {key: sum(counts[key] for counts in source.values()) for key in ("lines", "code")}


def print_deltas(previous: dict, current: dict) -> None:
    print(f"deltas BENCH_{previous['n']} -> BENCH_{current['n']} (medians over seeds)")
    for workload, result in current["workloads"].items():
        old = previous["workloads"].get(workload, {}).get("median", {})
        for metric, value in result["median"].items():
            print(f"  {workload} {metric}: {_change(old.get(metric), value)}")
    for name, stats in current["micro"].items():
        old = previous["micro"].get(name, {})
        deltas = "; ".join(
            f"{key}: {_change(old.get(key), stats.get(key))}"
            for key in ("norm_mean_us", "mean_us")
        )
        print(f"  micro {name} {deltas}")
    old_source, source = previous.get("source", {}), current.get("source", {})
    rows = [("source", module, old_source.get(module, {}), counts)
            for module, counts in source.items()]
    rows.append(("source", "total", _total(old_source), _total(source)))
    rows.append(("tooling", "total", _total(previous.get("tooling", {})),
                 _total(current.get("tooling", {}))))
    for kind, name, old, counts in rows:
        if counts:
            deltas = "; ".join(f"{key}: {_change(old.get(key), counts[key])}" for key in counts)
            print(f"  {kind} {name} {deltas}")
    print(f"  tier1 s: {_change(previous['tier1']['seconds'], current['tier1']['seconds'])}"
          f" ({previous['tier1']['summary']} -> {current['tier1']['summary']})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("n", type=int, help="number of the BENCH file to write")
    parser.add_argument("--checkout", type=Path, default=ROOT, help="tree to measure")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--previous", type=Path, help="BENCH file to compare against")
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    metrics = [m["name"] for m in spec["end_to_end"]]

    facts: dict = {}
    workloads = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in args.seeds:
            run, facts = run_workload(checkout, workload, seed, spec["run_seconds"])
            print(f"{workload} seed {seed}: norm_wall_s {run['end_to_end']['norm_wall_s']:.3f}"
                  f" failed {run['failed']}/{run['attempted']}", flush=True)
            runs.append(run)
        median = {m: statistics.median(r["end_to_end"][m] for r in runs) for m in metrics}
        workloads[workload] = {"runs": runs, "median": median}
    bench = {
        "n": args.n,
        "commit": _git(checkout, "rev-parse", "HEAD"),
        "uncommitted": _git(checkout, "status", "--porcelain", "--untracked-files=no"),
        "machine": facts,
        "settings": {"seeds": args.seeds, "run_seconds": spec["run_seconds"]},
        "workloads": workloads,
        "micro": record_micro(checkout),
        "tier1": run_tier1(checkout),
        "source": source_lines(checkout),
        "tooling": tooling_lines(checkout),
    }
    path = ROOT / f"BENCH_{args.n}.json"
    path.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    previous = args.previous or ROOT / f"BENCH_{args.n - 1}.json"
    if previous.is_file():
        print_deltas(json.loads(previous.read_text()), bench)
    return 0


if __name__ == "__main__":
    sys.exit(main())
