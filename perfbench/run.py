#!/usr/bin/env python3
"""lccn-lab benchmark: closed-loop training workloads through `lccn_lab.cli.run_experiment`.

Usage, from the repository root:

    python3 perfbench/run.py --workload latent-recovery --seed 0 --seconds 35 --trace 0

One process runs the workload's rounds back to back for --seconds (at least
MIN_ROUNDS rounds); a round is every run of the workload, artifacts
included, as `lccn-lab train` makes them. After each round the benchmark
checks every run's outputs. With --trace 0 it prints the end-to-end metrics
named in BENCHMARK.json; with --trace 1 it alternates untraced and traced
rounds and prints the per-layer metrics. The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

Timings are calibrated to a fixed core speed (see calibrate.py), because
on a shared host the speed of a core drifts by up to 1.7x. `norm_wall_s` is
the sum, over the runs of a round, of each run's median calibrated seconds
over the untraced rounds; `norm_samples_per_s` is the round's SGD rows over
it; `setup_s` is the median calibrated set-up probe. The raw medians
(`wall_s`, `samples_per_s`, `setup_raw_s`) and the median calibration
sample are printed beside them, so a change can be read in plain seconds too.
"""

from __future__ import annotations

import os

# Pin every thread pool before numpy loads, here and in the set-up probes.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "LCCN_LAB_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from calibrate import Calibrated  # noqa: E402
from checks import CheckFailed, RunCheck, bound_violations, check_run, fingerprint  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import FLIP_RATIO, WORKLOADS, data_config, run_configs, samples_per_round  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench_out"
SETUP_PROBES = 7
MIN_ROUNDS = 2
PROBE_TIMEOUT_S = 60


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _probe_setup(workload: str, seed: int) -> tuple[float, list[float]]:
    """Seconds of one cold import of lccn_lab plus one build of the workload's datasets.

    Also returns the calibration samples the probe took on its own core.
    """
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), str(HERE)])}
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    seconds, *samples = map(float, done.stdout.strip().splitlines()[-1].split())
    return seconds, samples


def _openblas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS library loaded in this process."""
    found = {}
    try:
        with open("/proc/self/maps") as handle:
            paths = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        return found
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads", "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas_threads": _openblas_threads(),
        "LCCN_LAB_THREADS": os.environ["LCCN_LAB_THREADS"],
    }


class WorkloadRunner:
    """Runs rounds of one workload and checks every run's outputs.

    Every repetition of a run must write byte-identical fingerprinted
    artifacts, traced or not.
    """

    def __init__(self, workload: str, seed: int, out_dir: Path):
        import lccn_lab.cli
        from lccn_lab.datagen import NoiseSpec
        from lccn_lab.errors import InvariantError, ParameterError, TrainingError

        self._cli = lccn_lab.cli
        self._run_errors = (ParameterError, TrainingError, InvariantError)
        self.runs = run_configs(workload, seed)
        data = data_config(workload, seed)
        self.test_ds = lccn_lab.cli.build_datasets(data)[1]
        k = data["generator"]["k"]
        self.true_phi = NoiseSpec(kind="asymmetric", ratio=FLIP_RATIO).true_transition(k)
        self.floor = WORKLOADS[workload]["accuracy_floor"]
        self.out_dir = out_dir
        self.attempted = 0
        self.failures: list[str] = []
        self.bound_violations = 0
        self.fingerprint_mismatches = 0
        self.checked: dict[str, RunCheck] = {}
        self.fingerprints: dict[str, dict[str, str]] = {}
        self._rounds = 0

    def round(self, tracer=None) -> Calibrated:
        """Run every run of the workload once, under `tracer` if given.

        Returns each run's raw and calibrated seconds, in the order of
        `self.runs`; a traced round is not sampled while it runs, so that the
        samples do not add to the traced spans. The runs' outputs are checked
        after the clocks stop and outside the tracer.
        """
        round_dir = self.out_dir / f"round{self._rounds}"
        self._rounds += 1
        outcomes = []
        timed = Calibrated()
        with tracer or contextlib.nullcontext():
            for name, cfg, train_seed in self.runs:
                run_dir = round_dir / name
                outcome = timed.time_call(
                    lambda: self._run(cfg, train_seed, run_dir), sample_during=tracer is None
                )
                outcomes.append((name, run_dir, outcome))
        for name, run_dir, outcome in outcomes:
            self._check(name, run_dir, outcome)
        shutil.rmtree(round_dir)
        return timed

    def _run(self, cfg: dict, train_seed: int, run_dir: Path):
        try:
            return self._cli.run_experiment(cfg, train_seed, run_dir)
        except self._run_errors as exc:
            return exc

    def _check(self, name: str, run_dir: Path, outcome) -> None:
        self.attempted += 1
        try:
            if isinstance(outcome, Exception):
                raise CheckFailed(f"{type(outcome).__name__}: {outcome}")
            violations = bound_violations(run_dir)
            self.bound_violations += violations
            if violations:
                raise CheckFailed(f"{violations} batches exceed the per-batch update bound")
            checked = check_run(run_dir, name, outcome, self.test_ds, self.true_phi, self.floor)
            prints = fingerprint(run_dir)
            if prints != self.fingerprints.setdefault(name, prints):
                self.fingerprint_mismatches += 1
                raise CheckFailed("artifact fingerprints differ between repetitions")
        except (CheckFailed, OSError, ValueError, KeyError) as exc:
            self.failures.append(f"round {self._rounds - 1} {name}: {exc}")
            return
        self.checked[name] = checked

    def quality(self) -> dict:
        """Output quality of the runs that passed their checks (not part of the bounds)."""
        checked = list(self.checked.values())
        phi_errors = [c.phi_error for c in checked if c.phi_error is not None]
        return {
            "test_accuracy": _median(c.accuracy for c in checked),
            "phi_l1_error": _median(phi_errors),
            "label_switched_runs": sum(c.label_switched for c in checked),
            "bound_violations": self.bound_violations,
            "fingerprint_mismatches": self.fingerprint_mismatches,
            "error_rate": len(self.failures) / self.attempted,
        }


def _median(values) -> float | None:
    values = list(values)
    return statistics.median(values) if values else None


def measure(args) -> tuple[WorkloadRunner, dict, dict, bool]:
    """Run rounds for --seconds.

    Returns (runner, end-to-end values, per-layer values, whether the
    per-layer counts repeated exactly across traced rounds).
    """
    out_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    runner = WorkloadRunner(args.workload, args.seed, out_dir)
    setup = Calibrated()
    plain: list[Calibrated] = []
    traced: list[Calibrated] = []
    counts: list[dict[str, int]] = []
    times: list[dict[str, float]] = []
    start = time.perf_counter()
    while True:
        if args.trace and len(traced) < len(plain):
            tracer = Tracer()
            traced.append(runner.round(tracer))
            counts.append(tracer.counts())
            times.append(tracer.times())
        else:
            # Set-up probes are spread between rounds, so that one slow spell
            # of a shared machine does not move all of them.
            if not args.trace and len(setup.raw) < SETUP_PROBES:
                setup.record(*_probe_setup(args.workload, args.seed))
            plain.append(runner.round())
        enough = min(len(plain), len(traced)) if args.trace else len(plain)
        # Stop before a further round would run past --seconds.
        elapsed = time.perf_counter() - start
        round_s = statistics.median(sum(r.raw) for r in plain)
        if enough >= MIN_ROUNDS and elapsed + round_s > args.seconds:
            break
    shutil.rmtree(out_dir, ignore_errors=True)
    while not args.trace and len(setup.raw) < SETUP_PROBES:
        setup.record(*_probe_setup(args.workload, args.seed))

    # Per run of the round, the median over its repetitions; then summed.
    wall = sum(map(statistics.median, zip(*(r.raw for r in plain))))
    norm_wall = sum(map(statistics.median, zip(*(r.scaled for r in plain))))
    samples = samples_per_round(args.workload)
    end_to_end = {
        "norm_wall_s": norm_wall,
        "norm_samples_per_s": samples / norm_wall,
        "wall_s": wall,
        "samples_per_s": samples / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rounds": len(plain),
        "run_s": [r.raw for r in plain],
        "calibration_sample_s": statistics.median(x for r in plain for x in r.samples),
        **runner.quality(),
    }
    if setup.raw:
        end_to_end.update(
            setup_s=statistics.median(setup.scaled),
            setup_raw_s=statistics.median(setup.raw),
            setup_probe_s=setup.raw,
        )
    per_layer: dict = {}
    counts_repeat = all(c == counts[0] for c in counts)
    if args.trace:
        per_layer.update(counts[0])
        per_layer.update({key: statistics.median(t[key] for t in times) for key in times[0]})
        draws = counts[0]["sampler.gibbs_sample_batch.draws"]
        per_layer["sampler.gibbs_sample_batch.us_per_draw"] = (
            1e6 * per_layer["sampler.gibbs_sample_batch.busy_s"] / draws if draws else 0.0
        )
        # Rounds alternate, so each traced round is paired with the untraced one before it.
        per_layer["trace.overhead_s"] = statistics.median(
            sum(t.raw) - sum(p.raw) for p, t in zip(plain, traced)
        )
        per_layer["trace.run_s"] = [t.raw for t in traced]
    return runner, end_to_end, per_layer, counts_repeat


# Units of the values printed besides the metrics in BENCHMARK.json; the
# rest are counts (names ending in .calls, .draws or .rows) or seconds.
EXTRA_UNITS = {
    "samples_per_s": "1/s",
    "test_accuracy": "fraction",
    "phi_l1_error": "fraction",
    "label_switched_runs": "count",
    "bound_violations": "count",
    "fingerprint_mismatches": "count",
    "error_rate": "fraction",
    "rounds": "count",
}


def _unit(name: str, spec: dict) -> str:
    for metric in spec["end_to_end"] + spec["per_layer"]:
        if metric["name"] == name:
            return metric["unit"]
    if name.endswith((".calls", ".draws", ".rows")):
        return "count"
    return EXTRA_UNITS.get(name, "s")


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "lccn_lab" / "__init__.py").is_file():
        print(f"error: no lccn_lab sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))

    runner, end_to_end, per_layer, counts_repeat = measure(args)
    facts = machine_facts()
    section = "per_layer" if args.trace else "end_to_end"
    values = per_layer if args.trace else end_to_end
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[section]}

    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"# machine {json.dumps(facts, sort_keys=True)}")
    for failure in runner.failures:
        print(f"# FAILED {failure}")
    if not counts_repeat:
        print("# FAILED per-layer counts differ between traced rounds")
    for name, value in sorted({**end_to_end, **per_layer}.items()):
        print(f"# {name} = {value!r} {_unit(name, spec)}")
    OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": facts, "end_to_end": end_to_end, "per_layer": per_layer,
        "failures": runner.failures, "fingerprints": runner.fingerprints,
    }
    result_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": not runner.failures and counts_repeat,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
