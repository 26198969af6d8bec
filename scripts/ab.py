#!/usr/bin/env python3
"""Time two revisions against each other in alternating pairs of benchmark runs.

Usage, from the repository root:

    python3 scripts/ab.py HEAD~1
    python3 scripts/ab.py HEAD~1 HEAD --workload latent-ordering --seeds 1 2 --pairs 10
    python3 scripts/ab.py HEAD~1 --micro "test_gibbs_sample_batch[3-8]"
    python3 scripts/ab.py HEAD~1 --workload baselines-ordering --in-process --pairs 20

BASE and REV name git revisions; REV defaults to the working tree. Each side
is exported into its own temporary directory: a revision with a local
`git archive`, the working tree as its tracked and untracked, not ignored
files. If the two sides differ in `perfbench/` or BENCHMARK.json, the script
refuses, since the numbers would not compare. Pair i runs
`perfbench/run.py --trace 0` (through `scripts/bench.py`'s `run_workload`) for
the workload at seed seeds[i % len(seeds)] on each side for BENCHMARK.json's
`run_seconds`; the base runs first in even pairs and REV in odd ones.

It prints every end-to-end metric of BENCHMARK.json per pair, and whether
the two sides wrote the same fingerprinted artifacts. Then, for each metric:
both medians, the base's interquartile range, REV's wins (judged by the
metric's `better` direction; a tie is no win) and whether a gain claim
holds: at least CLAIM_PAIRS pairs, REV winning at least 9 in 10 of them,
a median gap in REV's favour larger than the base's interquartile range, no
larger share of failed training runs on REV than on the base (runs last a
fixed time, so the two sides may attempt different numbers), and the same
fingerprints on both sides in every pair.

`--in-process` runs the workload pairs in this one process instead, since
separate processes drift apart by about 5% on a shared host. Each side's
`lccn_lab` is imported under a name of its own (`lccn_lab_base`,
`lccn_lab_rev`). After one warm-up round per side, pair i runs one round of
the workload at seed seeds[i % len(seeds)] on each side, in `pair_order`: a
round is every run of the workload through the side's
`cli.run_experiment`, timed with perfbench's `Calibrated` as
`perfbench/run.py` times it, and fingerprinted with perfbench's
`checks.fingerprint`. A pair's readings are the sums over the round's runs,
`norm_wall_s` (calibrated) and `wall_s` (raw), and `norm_samples_per_s`;
the summary is the same as above. `setup_s` and `peak_rss_mb` belong to a
process, so only the separate-process mode reads them.

`--micro NODE` times one microbenchmark of benchmarks/test_micro.py instead,
named by its pytest node id or its bare test id (`test_sgd_step[linear-batch8]`).
Each side of a pair is one run of `scripts/bench.py`'s `run_micro` in the
side's tree: a pytest-benchmark process with `calibration_sample` readings
before and after it, whose calibrated median `norm_median_us` is the pair's
reading. The summary is the same, for that one reading, with no failures or
fingerprints to compare.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

if __name__ == "__main__":
    # Pin every thread pool before numpy loads, as perfbench/run.py does, so that
    # in-process rounds run as the benchmark's do; child processes inherit it.
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "LCCN_LAB_THREADS"):
        os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))
from bench import MICRO, run_micro, run_workload  # noqa: E402
from calibrate import Calibrated  # noqa: E402  (perfbench/, which bench puts on the path)

BENCHMARK_FILES = ("BENCHMARK.json", "perfbench")
CLAIM_PAIRS = 10
CLAIM_WIN_SHARE = 0.9
# (name, unit, better) of the readings of an in-process pair.
IN_PROCESS_METRICS = (
    ("norm_wall_s", "s", "lower"), ("norm_samples_per_s", "1/s", "higher"), ("wall_s", "s", "lower"),
)


def pair_order(pair: int) -> tuple[str, str]:
    """The sides of pair `pair` (counted from 0) in the order they run."""
    return ("base", "rev") if pair % 2 == 0 else ("rev", "base")


def wins(base: list[float], rev: list[float], better: str) -> int:
    """Pairs in which REV reads strictly better than the base."""
    if better == "lower":
        return sum(r < b for b, r in zip(base, rev, strict=True))
    return sum(r > b for b, r in zip(base, rev, strict=True))


def iqr(values: list[float]) -> float:
    """Distance between the quartiles (linear interpolation between order statistics)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarize(
    base: list[float], rev: list[float], better: str, failed_share: dict[str, float],
    fingerprints_match: bool,
) -> dict:
    """Medians, the base's IQR, REV's wins and whether a gain claim holds, for one metric.

    `failed_share` holds each side's share of failed training runs over all
    pairs, and `fingerprints_match` whether both sides wrote the same artifacts
    in every pair: a gain bought with more failures or other results is no gain.
    """
    base_median, rev_median = statistics.median(base), statistics.median(rev)
    gain = base_median - rev_median if better == "lower" else rev_median - base_median
    won = wins(base, rev, better)
    spread = iqr(base)
    return {
        "base_median": base_median,
        "rev_median": rev_median,
        "base_iqr": spread,
        "wins": won,
        "pairs": len(base),
        "claim_holds": (
            len(base) >= CLAIM_PAIRS and won >= CLAIM_WIN_SHARE * len(base) and gain > spread
            and failed_share["rev"] <= failed_share["base"] and fingerprints_match
        ),
    }


def benchmark_differs(base: Path, rev: Path) -> list[str]:
    """Paths under BENCHMARK_FILES whose bytes differ between two trees, or exist in one only."""

    def files(root: Path) -> dict[str, bytes]:
        found = {}
        for name in BENCHMARK_FILES:
            top = root / name
            paths = [top] if top.is_file() else sorted(p for p in top.rglob("*") if p.is_file())
            found.update((str(p.relative_to(root)), p.read_bytes()) for p in paths)
        return found

    a, b = files(base), files(rev)
    return sorted(path for path in a.keys() | b.keys() if a.get(path) != b.get(path))


def _git(*args: str, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=True, **kwargs)


def export(rev: str | None, dest: Path) -> None:
    """Write revision `rev` of this repository, or the working tree when None, into dest."""
    dest.mkdir(parents=True)
    if rev is not None:
        archive = _git("archive", "--format=tar", rev).stdout
        subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
        return
    listing = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard").stdout
    for name in listing.decode().split("\0"):
        source = ROOT / name
        if name and source.is_file():  # a tracked file deleted in the working tree is skipped
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


def _resolve(rev: str) -> str:
    return _git("rev-parse", "--verify", f"{rev}^{{commit}}", text=True).stdout.strip()


def micro_node(name: str) -> str:
    """The pytest node id of a microbenchmark given by its node id or its bare test id."""
    node = name if "::" in name else f"{MICRO}::{name}"
    if node.partition("::")[0] != MICRO or not node.partition("::")[2]:
        raise argparse.ArgumentTypeError(f"{name!r} is no test of {MICRO}")
    return node


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="git revision of the base side")
    parser.add_argument("rev", nargs="?", help="git revision of the other side (working tree)")
    what = parser.add_mutually_exclusive_group()
    what.add_argument("--workload", help="workload of BENCHMARK.json (its first one)")
    what.add_argument("--micro", type=micro_node, metavar="NODE",
                      help=f"time one microbenchmark of {MICRO} instead of a workload")
    parser.add_argument("--in-process", action="store_true",
                        help="run the workload pairs in this process, rounds alternating")
    parser.add_argument("--seeds", type=int, nargs="+", help="workload seeds (0)")
    parser.add_argument("--pairs", type=int, default=CLAIM_PAIRS)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if args.micro and args.seeds is not None:
        parser.error("--seeds applies to workload runs only, not to --micro")
    if args.micro and args.in_process:
        parser.error("--in-process applies to workload runs only, not to --micro")
    args.seeds = args.seeds or [0]
    return args


def print_summary(name: str, unit: str, better: str, s: dict) -> None:
    change = (s["rev_median"] - s["base_median"]) / s["base_median"] if s["base_median"] else 0
    print(f"{name} [{unit}, {better} is better]: median "
          f"{s['base_median']:.4g} -> {s['rev_median']:.4g} ({change:+.1%}), "
          f"base IQR {s['base_iqr']:.4g}, wins {s['wins']}/{s['pairs']}, "
          f"claim holds: {'yes' if s['claim_holds'] else 'no'}")


def micro_pairs(trees: dict[str, Path], node: str, pairs: int) -> None:
    readings = {"base": [], "rev": []}
    for pair in range(pairs):
        for side in pair_order(pair):
            (stats,) = run_micro(trees[side], [node]).values()
            readings[side].append(stats["norm_median_us"])
        print(f"pair {pair + 1} ({pair_order(pair)[0]} first): norm_median_us "
              f"{readings['base'][-1]:.4g} -> {readings['rev'][-1]:.4g}", flush=True)
    summary = summarize(readings["base"], readings["rev"], "lower", {"base": 0.0, "rev": 0.0}, True)
    print_summary("norm_median_us", "us", "lower", summary)


def workload_pairs(trees: dict[str, Path], spec: dict, workload: str, seeds: list[int],
                   pairs: int) -> None:
    metrics = spec["end_to_end"]
    runs = {"base": [], "rev": []}
    fingerprints_match = True
    for pair in range(pairs):
        seed = seeds[pair % len(seeds)]
        for side in pair_order(pair):
            runs[side].append(run_workload(trees[side], workload, seed, spec["run_seconds"])[0])
        base, rev = runs["base"][-1], runs["rev"][-1]
        cells = ", ".join(
            f"{m['name']} {base['end_to_end'][m['name']]:.4g} -> "
            f"{rev['end_to_end'][m['name']]:.4g}"
            for m in metrics
        )
        same = base["fingerprints"] == rev["fingerprints"]
        fingerprints_match = fingerprints_match and same
        print(f"pair {pair + 1} seed {seed} ({pair_order(pair)[0]} first): {cells}; "
              f"fingerprints {'identical' if same else 'DIFFER'}", flush=True)

    failed = {side: sum(r["failed"] for r in rs) for side, rs in runs.items()}
    attempted = {side: sum(r["attempted"] for r in rs) for side, rs in runs.items()}
    print(f"# failed training runs: base {failed['base']}/{attempted['base']}, "
          f"rev {failed['rev']}/{attempted['rev']}")
    failed_share = {side: failed[side] / max(attempted[side], 1) for side in runs}
    for metric in metrics:
        name = metric["name"]
        summary = summarize([r["end_to_end"][name] for r in runs["base"]],
                            [r["end_to_end"][name] for r in runs["rev"]], metric["better"],
                            failed_share, fingerprints_match)
        print_summary(name, metric["unit"], metric["better"], summary)


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


def round_reading(raw: list[float], scaled: list[float], samples: int) -> dict[str, float]:
    """An in-process pair's readings of one side's round, from its runs' raw and calibrated seconds."""
    norm_wall = sum(scaled)
    return {"norm_wall_s": norm_wall, "norm_samples_per_s": samples / norm_wall,
            "wall_s": sum(raw)}


class _Side:
    """One side's `lccn_lab`, imported under its own name, and its runs of one workload."""

    def __init__(self, tree: Path, name: str, workloads, checks, workload: str, out: Path):
        load_package(tree / "src", name)
        self.cli = importlib.import_module(f"{name}.cli")
        errors = importlib.import_module(f"{name}.errors")
        self.errors = (errors.ParameterError, errors.TrainingError, errors.InvariantError)
        self.workloads, self.checks, self.workload, self.out = workloads, checks, workload, out

    def round(self, seed: int) -> tuple[dict[str, float], dict, int, int]:
        """Readings, fingerprints by run, failed and attempted runs of one round at `seed`."""
        timed, prints, failed = Calibrated(), {}, 0
        runs = self.workloads.run_configs(self.workload, seed)
        for name, cfg, train_seed in runs:
            run_dir = self.out / name
            try:
                timed.time_call(lambda: self.cli.run_experiment(cfg, train_seed, run_dir))
                prints[name] = self.checks.fingerprint(run_dir)
            except self.errors:
                failed += 1
            shutil.rmtree(run_dir, ignore_errors=True)
        samples = self.workloads.samples_per_round(self.workload)
        return round_reading(timed.raw, timed.scaled, samples), prints, failed, len(runs)


def in_process_pairs(trees: dict[str, Path], workload: str, seeds: list[int], pairs: int,
                     tmp: Path) -> None:
    sys.path.insert(0, str(trees["base"] / "perfbench"))
    import checks
    import workloads

    sides = {side: _Side(tree, f"lccn_lab_{side}", workloads, checks, workload, tmp / f"out-{side}")
             for side, tree in trees.items()}
    for seed in seeds:  # warm-up: one unrecorded round per side and seed
        for side in sides.values():
            side.round(seed)
    readings = {"base": [], "rev": []}
    failed, attempted = {"base": 0, "rev": 0}, {"base": 0, "rev": 0}
    fingerprints_match = True
    for pair in range(pairs):
        seed = seeds[pair % len(seeds)]
        prints = {}
        for side in pair_order(pair):
            reading, prints[side], fails, runs = sides[side].round(seed)
            readings[side].append(reading)
            failed[side] += fails
            attempted[side] += runs
        base, rev = readings["base"][-1], readings["rev"][-1]
        same = prints["base"] == prints["rev"]
        fingerprints_match = fingerprints_match and same
        cells = ", ".join(f"{name} {base[name]:.4g} -> {rev[name]:.4g}"
                          for name, _, _ in IN_PROCESS_METRICS)
        print(f"pair {pair + 1} seed {seed} ({pair_order(pair)[0]} first): {cells}; "
              f"fingerprints {'identical' if same else 'DIFFER'}", flush=True)
    print(f"# failed training runs: base {failed['base']}/{attempted['base']}, "
          f"rev {failed['rev']}/{attempted['rev']}")
    failed_share = {side: failed[side] / max(attempted[side], 1) for side in sides}
    for name, unit, better in IN_PROCESS_METRICS:
        summary = summarize([r[name] for r in readings["base"]], [r[name] for r in readings["rev"]],
                            better, failed_share, fingerprints_match)
        print_summary(name, unit, better, summary)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        revs = {"base": _resolve(args.base), "rev": args.rev and _resolve(args.rev)}
    except subprocess.CalledProcessError as exc:
        print(f"error: unknown revision: {exc.stderr.strip()}", file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory(prefix="lccn-ab-") as tmp:
        trees = {side: Path(tmp) / side for side in revs}
        for side, rev in revs.items():
            export(rev, trees[side])
        differ = benchmark_differs(trees["base"], trees["rev"])
        if differ:
            print(f"error: the benchmark differs between the sides: {', '.join(differ)}",
                  file=sys.stderr)
            return 2
        spec = json.loads((trees["base"] / "BENCHMARK.json").read_text())
        what = args.micro or args.workload or spec["workloads"][0]["name"]
        print(f"# {what}: base {revs['base'][:12]} against rev "
              f"{(revs['rev'] or 'working tree')[:12]}, {args.pairs} pairs"
              + ("" if args.micro else
                 " of rounds in one process" if args.in_process else
                 f" of {spec['run_seconds']:g} s"))
        if args.micro:
            micro_pairs(trees, args.micro, args.pairs)
        elif args.in_process:
            in_process_pairs(trees, what, args.seeds, args.pairs, Path(tmp))
        else:
            workload_pairs(trees, spec, what, args.seeds, args.pairs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
