#!/usr/bin/env python3
"""Benchmark every trainer across noise settings; writes one CSV row per cell.

Example:
    python3 scripts/run_noise_benchmark.py --out results/benchmark --seeds 0 1 2
"""

import argparse
import statistics
import time
from pathlib import Path

from lccn_lab import TrainConfig, run_trainer
from lccn_lab.cli import build_datasets
from lccn_lab.metrics import write_csv

TRAINER_GRID = ["ce", "bootstrap_hard", "forward_fixed", "s_adaptation", "em_reference", "lccn"]
NOISE_GRID = [("symmetric", 0.3), ("symmetric", 0.5), ("asymmetric", 0.4)]


def config_for(kind: str, seed: int, args) -> TrainConfig:
    common = dict(
        batch_size=args.batch_size,
        learning_rate=args.learning_rate,
        hidden_width=args.hidden_width,
        activation="tanh",
        eval_every=15,
        seed=seed,
    )
    if kind == "ce" or kind == "bootstrap_hard":
        return TrainConfig(kind=kind, epochs=args.epochs + args.pretrain_epochs, **common)
    return TrainConfig(
        kind=kind, epochs=args.epochs, pretrain_epochs=args.pretrain_epochs, **common
    )


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/benchmark")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    parser.add_argument("--k", type=int, default=4)
    parser.add_argument("--n-per-class", type=int, default=250)
    parser.add_argument("--separation", type=float, default=4.0)
    parser.add_argument("--epochs", type=int, default=60)
    parser.add_argument("--pretrain-epochs", type=int, default=30)
    parser.add_argument("--batch-size", type=int, default=32)
    parser.add_argument("--learning-rate", type=float, default=0.02)
    parser.add_argument("--hidden-width", type=int, default=64)
    parser.add_argument("--data-seed", type=int, default=42)
    args = parser.parse_args(argv)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    generator = {"k": args.k, "d": 2, "n_per_class": args.n_per_class,
                 "separation": args.separation, "seed": args.data_seed}

    rows = []
    for noise_kind, ratio in NOISE_GRID:
        noisy, test, report, _ = build_datasets({
            "generator": generator,
            "noise": {"kind": noise_kind, "ratio": ratio, "seed": 17},
            "test": {"n_per_class": 200},
        })
        print(f"--- {noise_kind} r={ratio} (realized flips {report.realized_flip_fraction:.3f})")
        for trainer in TRAINER_GRID:
            t0 = time.perf_counter()
            accs = [
                run_trainer(noisy, config_for(trainer, seed, args), test).final_test_accuracy()
                for seed in args.seeds
            ]
            med = statistics.median(accs)
            print(f"  {trainer:15s} median {med:.4f} (min {min(accs):.4f}, "
                  f"max {max(accs):.4f}, {time.perf_counter() - t0:.1f}s)")
            rows.append([noise_kind, ratio, trainer, repr(med), repr(min(accs)),
                         repr(max(accs)), len(args.seeds)])

    write_csv(
        out / "benchmark.csv",
        ["noise", "ratio", "trainer", "median_acc", "min_acc", "max_acc", "n_seeds"],
        rows,
    )
    print(f"wrote {out / 'benchmark.csv'}")


if __name__ == "__main__":
    main()
