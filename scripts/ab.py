#!/usr/bin/env python3
"""Time two revisions against each other in alternating pairs of benchmark runs.

Usage, from the repository root:

    python3 scripts/ab.py HEAD~1
    python3 scripts/ab.py HEAD~1 HEAD --workload latent-ordering --seeds 1 2 --pairs 10
    python3 scripts/ab.py HEAD~1 --workload baselines-ordering --in-process --pairs 20
    python3 scripts/ab.py HEAD~1 --micro "test_chain_certify[4-32]" --pairs 20

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

`--micro ID` times one microbenchmark of benchmarks/micro.py instead, named
by its id in that file's `CASES` (`test_sgd_step[linear-batch8]`), with
`scripts/bench.py`'s microbenchmark harness, and always alternates the two
sides in this process, as `--workload --in-process` does (separate
processes cannot resolve a change much under 40%). Before anything is
exported, each revision's `benchmarks/micro.py` is read and run as a plain
module (`micro_case`); an id that either side's table lacks exits 2, as an
unknown workload does. Each side's case is then given that side's package,
imported under a name of its own, and returns the call it times. A
sizing run on the base fixes the calls per round, as many as fill
`bench.MICRO_ROUND_S`, and one warm-up round per side follows; pair i then runs
one round per side in `pair_order` (`micro_round`) and reads its calibrated
mean per call, `norm_mean_us`. The summary is the same, for that one
reading, with no failures or fingerprints to compare. On a 2-vCPU VM, two
sides of the same tree read within 1% of each other, with a base IQR of
10-16% of the median over 20 pairs.

All three modes share one pair loop, `run_pairs`: each builds its two sides,
a function per side from a seed to one pair's readings, fingerprints, failed
and attempted training runs, and sizes and warms them up as it needs.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NoReturn

if __name__ == "__main__":
    # Pin every thread pool before numpy loads, as perfbench/run.py does, so that
    # in-process rounds run as the benchmark's do; child processes inherit it.
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "LCCN_LAB_THREADS"):
        os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))
from bench import (  # noqa: E402
    MICRO, load_package, micro_calls, micro_round, micro_table, run_workload,
)
from calibrate import Calibrated  # noqa: E402  (perfbench/, which bench puts on the path)

BENCHMARK_FILES = ("BENCHMARK.json", "perfbench")
CLAIM_PAIRS = 10
CLAIM_WIN_SHARE = 0.9
# (name, unit, better) of the readings of an in-process pair, and of a micro pair.
IN_PROCESS_METRICS = (
    ("norm_wall_s", "s", "lower"), ("norm_samples_per_s", "1/s", "higher"), ("wall_s", "s", "lower"),
)
MICRO_METRICS = (("norm_mean_us", "us", "lower"),)


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


def _show(rev: str | None, path: str) -> str:
    """The text of `path` at revision `rev`, or in the working tree when None."""
    if rev is None:
        return (ROOT / path).read_text()
    return _git("show", f"{rev}:{path}", text=True).stdout


def micro_case(rev: str | None, name: str):
    """Case `name` of MICRO's table at revision `rev` (None: the working tree); exit 2 if none."""
    where = rev[:12] if rev else "the working tree"
    try:
        text = _show(rev, MICRO)
    except (OSError, subprocess.CalledProcessError):
        _refuse(f"{where} has no {MICRO}")
    case = micro_table(text).get(name)
    if case is None:
        _refuse(f"{name!r} names no microbenchmark of {MICRO} in {where}")
    return case


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="git revision of the base side")
    parser.add_argument("rev", nargs="?", help="git revision of the other side (working tree)")
    what = parser.add_mutually_exclusive_group()
    what.add_argument("--workload", help="workload of BENCHMARK.json (its first one)")
    what.add_argument("--micro", metavar="ID",
                      help=f"time one microbenchmark of {MICRO}, by its id, instead of a workload")
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
        parser.error("--in-process applies to workload runs; --micro always runs in this process")
    args.seeds = args.seeds or [0]
    return args


def print_summary(name: str, unit: str, better: str, s: dict) -> None:
    change = (s["rev_median"] - s["base_median"]) / s["base_median"] if s["base_median"] else 0
    print(f"{name} [{unit}, {better} is better]: median "
          f"{s['base_median']:.4g} -> {s['rev_median']:.4g} ({change:+.1%}), "
          f"base IQR {s['base_iqr']:.4g}, wins {s['wins']}/{s['pairs']}, "
          f"claim holds: {'yes' if s['claim_holds'] else 'no'}")


def run_pairs(metrics, sides: dict, seeds: list, pairs: int) -> dict[str, dict]:
    """Run `pairs` pairs of two sides in `pair_order`, print them and each metric's summary.

    `metrics` are (name, unit, better) triples of the readings, and `sides`
    maps "base" and "rev" to a function from a seed to one run's readings (a
    dict by metric name), its fingerprints, and its failed and attempted
    training runs; pair i runs at seed seeds[i % len(seeds)]. A side without
    training runs gives None for fingerprints, and its pairs print neither a
    seed nor fingerprints. Returns each metric's `summarize` by name.
    """
    readings = {"base": [], "rev": []}
    failed, attempted = {"base": 0, "rev": 0}, {"base": 0, "rev": 0}
    fingerprints_match = True
    for pair in range(pairs):
        seed = seeds[pair % len(seeds)]
        prints = {}
        for side in pair_order(pair):
            reading, prints[side], fails, runs = sides[side](seed)
            readings[side].append(reading)
            failed[side] += fails
            attempted[side] += runs
        base, rev = readings["base"][-1], readings["rev"][-1]
        same = prints["base"] == prints["rev"]
        fingerprints_match = fingerprints_match and same
        cells = ", ".join(f"{name} {base[name]:.4g} -> {rev[name]:.4g}" for name, _, _ in metrics)
        if prints["base"] is None:
            print(f"pair {pair + 1} ({pair_order(pair)[0]} first): {cells}", flush=True)
        else:
            print(f"pair {pair + 1} seed {seed} ({pair_order(pair)[0]} first): {cells}; "
                  f"fingerprints {'identical' if same else 'DIFFER'}", flush=True)
    if any(attempted.values()):
        print(f"# failed training runs: base {failed['base']}/{attempted['base']}, "
              f"rev {failed['rev']}/{attempted['rev']}")
    failed_share = {side: failed[side] / max(attempted[side], 1) for side in failed}
    summaries = {}
    for name, unit, better in metrics:
        summaries[name] = summarize([r[name] for r in readings["base"]],
                                    [r[name] for r in readings["rev"]], better,
                                    failed_share, fingerprints_match)
        print_summary(name, unit, better, summaries[name])
    return summaries


def micro_sides(trees: dict[str, Path], cases: dict) -> dict:
    """Each side's round of its microbenchmark case, sized on the base and warmed up once."""
    calls = {side: cases[side](load_package(tree / "src", f"lccn_lab_{side}"))
             for side, tree in trees.items()}
    per_round = micro_calls(calls["base"])
    for call in calls.values():  # warm-up: one unrecorded round per side
        micro_round(call, per_round)
    print(f"# {per_round} calls per round")

    def run(call, seed: int) -> tuple[dict, None, int, int]:
        return micro_round(call, per_round), None, 0, 0

    return {side: functools.partial(run, call) for side, call in calls.items()}


def workload_sides(trees: dict[str, Path], workload: str, seconds: float) -> dict:
    """Each side's separate `perfbench/run.py` process of `workload` for `seconds`."""

    def run(tree: Path, seed: int) -> tuple[dict, dict, int, int]:
        record = run_workload(tree, workload, seed, seconds)[0]
        return record["end_to_end"], record["fingerprints"], record["failed"], record["attempted"]

    return {side: functools.partial(run, tree) for side, tree in trees.items()}


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


def in_process_sides(trees: dict[str, Path], workload: str, seeds: list[int], tmp: Path) -> dict:
    """Each side's in-process round of `workload`, warmed up once per seed."""
    sys.path.insert(0, str(trees["base"] / "perfbench"))
    import checks
    import workloads

    sides = {side: _Side(tree, f"lccn_lab_{side}", workloads, checks, workload, tmp / f"out-{side}")
             for side, tree in trees.items()}
    for seed in seeds:  # warm-up: one unrecorded round per side and seed
        for side in sides.values():
            side.round(seed)
    return {name: side.round for name, side in sides.items()}


def _refuse(message: str) -> NoReturn:
    """Exit 2 with `message`, as argparse refuses a bad argument."""
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        revs = {"base": _resolve(args.base), "rev": args.rev and _resolve(args.rev)}
    except subprocess.CalledProcessError as exc:
        _refuse(f"unknown revision: {exc.stderr.strip()}")
    spec = json.loads(_show(revs["base"], "BENCHMARK.json"))
    known = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in known:
        _refuse(f"unknown workload {args.workload!r}; BENCHMARK.json names {', '.join(known)}")
    if args.micro is not None:
        cases = {side: micro_case(rev, args.micro) for side, rev in revs.items()}

    with tempfile.TemporaryDirectory(prefix="lccn-ab-") as tmp:
        trees = {side: Path(tmp) / side for side in revs}
        for side, rev in revs.items():
            export(rev, trees[side])
        differ = benchmark_differs(trees["base"], trees["rev"])
        if differ:
            _refuse(f"the benchmark differs between the sides: {', '.join(differ)}")
        what = args.micro or args.workload or known[0]
        print(f"# {what}: base {revs['base'][:12]} against rev "
              f"{(revs['rev'] or 'working tree')[:12]}, {args.pairs} pairs"
              + (" of rounds in one process" if args.in_process or args.micro else
                 f" of {spec['run_seconds']:g} s"))
        if args.micro:
            run_pairs(MICRO_METRICS, micro_sides(trees, cases), args.seeds, args.pairs)
        elif args.in_process:
            sides = in_process_sides(trees, what, args.seeds, Path(tmp))
            run_pairs(IN_PROCESS_METRICS, sides, args.seeds, args.pairs)
        else:
            metrics = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
            sides = workload_sides(trees, what, spec["run_seconds"])
            run_pairs(metrics, sides, args.seeds, args.pairs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
