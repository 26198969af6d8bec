#!/usr/bin/env python3
"""Time two revisions against each other in alternating pairs of benchmark runs.

Usage, from the repository root:

    python3 scripts/ab.py HEAD~1
    python3 scripts/ab.py HEAD~1 HEAD --workload latent-ordering --seeds 1 2 --pairs 10

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
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))
from bench import run_workload  # noqa: E402

BENCHMARK_FILES = ("BENCHMARK.json", "perfbench")
CLAIM_PAIRS = 10
CLAIM_WIN_SHARE = 0.9


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="git revision of the base side")
    parser.add_argument("rev", nargs="?", help="git revision of the other side (working tree)")
    parser.add_argument("--workload", help="workload of BENCHMARK.json (its first one)")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    parser.add_argument("--pairs", type=int, default=CLAIM_PAIRS)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    try:
        revs = {"base": _resolve(args.base), "rev": args.rev and _resolve(args.rev)}
    except subprocess.CalledProcessError as exc:
        parser.error(f"unknown revision: {exc.stderr.strip()}")

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
        workload = args.workload or spec["workloads"][0]["name"]
        seconds = spec["run_seconds"]
        metrics = spec["end_to_end"]
        print(f"# {workload}: base {revs['base'][:12]} against rev "
              f"{(revs['rev'] or 'working tree')[:12]}, {args.pairs} pairs of {seconds:g} s")

        runs = {"base": [], "rev": []}
        fingerprints_match = True
        for pair in range(args.pairs):
            seed = args.seeds[pair % len(args.seeds)]
            for side in pair_order(pair):
                runs[side].append(run_workload(trees[side], workload, seed, seconds)[0])
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
        s = summarize([r["end_to_end"][name] for r in runs["base"]],
                      [r["end_to_end"][name] for r in runs["rev"]], metric["better"],
                      failed_share, fingerprints_match)
        change = (s["rev_median"] - s["base_median"]) / s["base_median"] if s["base_median"] else 0
        print(f"{name} [{metric['unit']}, {metric['better']} is better]: median "
              f"{s['base_median']:.4g} -> {s['rev_median']:.4g} ({change:+.1%}), "
              f"base IQR {s['base_iqr']:.4g}, wins {s['wins']}/{s['pairs']}, "
              f"claim holds: {'yes' if s['claim_holds'] else 'no'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
