#!/usr/bin/env python3
"""Record one BENCH_<n>.json: benchmark workloads, microbenchmarks and a timed Tier-1 run.

Usage, from the repository root:

    python3 scripts/bench.py 6 --seeds 1 2 3
    python3 scripts/bench.py 5 --checkout ../lccn-lab-parent

In the checkout (this repository by default) it runs `perfbench/run.py`
untraced on every workload of BENCHMARK.json for each seed, for the
benchmark's `run_seconds`; then each microbenchmark of
`benchmarks/test_micro.py` in its own pytest process with `--benchmark-json`;
then the Tier-1 suite under a timer; and it counts the lines of each
module of `src/lccn_lab`. `calibration_sample` readings
(perfbench/calibrate.py) taken just before and after each microbenchmark
rescale its median to a fixed core speed, `norm_median_us`, with perfbench's
formula, so that two files compare despite the host's drift. It writes the
machine facts and every result to BENCH_<n>.json at the root of this
repository and prints the deltas against the previous file (BENCH_<n-1>.json
unless --previous names another; n/a where the previous file has none). A
microbenchmark's line gives its calibrated and its raw median delta and both
files' `calibration_sample_s`: when the calibration readings of the two files
differ, the rescale alone can make up most of the calibrated delta. One
process per node and file cannot tell a change from the host's drift, so only
`scripts/ab.py --micro` pairs judge a microbenchmark change. The runs go one
after another, so that none competes with another for a core. A module's
`lines` count every line and its `code` only lines that are not blank, not
a comment and not part of a docstring, so that deleting comments or
docstrings does not read as less code.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MICRO = "benchmarks/test_micro.py"
SOURCE = "src/lccn_lab"
# The nodes whose body can open with a docstring.
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
# Readings of `calibration_sample` taken before and again after each microbenchmark.
CALIBRATION_SAMPLES = 5

sys.path.insert(0, str(ROOT / "perfbench"))
from calibrate import Calibrated, calibration_sample  # noqa: E402


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


def _calibration_samples() -> list[float]:
    return [calibration_sample() for _ in range(CALIBRATION_SAMPLES)]


def run_micro(checkout: Path, nodes: list[str] | None = None) -> dict:
    """Median and quartiles, in microseconds, of every microbenchmark; the median also calibrated.

    nodes, when given, are the pytest node ids to run instead of all of MICRO's.
    """
    pytest = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
    if nodes is None:
        listing = _run([*pytest, "--collect-only", MICRO], checkout)
        nodes = [line for line in listing.stdout.splitlines() if "::" in line]
        if listing.returncode != 0 or not nodes:
            raise SystemExit(f"no microbenchmarks collected:\n{listing.stdout}{listing.stderr}")
    micro = {}
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "micro.json"
        for node in nodes:
            samples = _calibration_samples()
            done = _run([*pytest, node, f"--benchmark-json={out}"], checkout)
            samples += _calibration_samples()
            if done.returncode != 0:
                raise SystemExit(f"microbenchmark {node} failed:\n{done.stdout}{done.stderr}")
            (bench,) = json.loads(out.read_text())["benchmarks"]
            stats = bench["stats"]
            calibrated = Calibrated()
            calibrated.record(stats["median"], samples)
            micro[bench["name"]] = {
                "median_us": stats["median"] * 1e6,
                "norm_median_us": calibrated.scaled[0] * 1e6,
                "q1_us": stats["q1"] * 1e6,
                "q3_us": stats["q3"] * 1e6,
                "rounds": stats["rounds"],
                "calibration_sample_s": statistics.median(samples),
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


def source_lines(checkout: Path) -> dict[str, dict[str, int]]:
    """Per module of SOURCE in checkout, its total `lines` and its `code` lines.

    A code line is not blank, not a comment and not part of a docstring (the
    string that opens a module, class or function body, found with `ast`).
    """
    counts = {}
    for path in sorted((checkout / SOURCE).glob("*.py")):
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
        counts[path.name] = {"lines": len(lines), "code": len(code)}
    return counts


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
            for key in ("norm_median_us", "median_us", "calibration_sample_s")
        )
        print(f"  micro {name} {deltas}")
    old_source, source = previous.get("source", {}), current.get("source", {})
    modules = [(module, old_source.get(module, {}), counts) for module, counts in source.items()]
    for module, old, counts in [*modules, ("total", _total(old_source), _total(source))]:
        deltas = "; ".join(f"{key}: {_change(old.get(key), counts[key])}" for key in counts)
        print(f"  source {module} {deltas}")
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
        "micro": run_micro(checkout),
        "tier1": run_tier1(checkout),
        "source": source_lines(checkout),
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
