#!/usr/bin/env python3
"""Sweep the Dirichlet concentration and record how accuracy responds.

Large concentrations pin the transition near uniform and should visibly hurt;
small ones let the counts speak.

Example:
    python3 scripts/run_alpha_ablation.py --alphas 0.1 1 10 100 1000
"""

import argparse
import statistics
from pathlib import Path

from lccn_lab import NoiseSpec, TrainConfig, apply_noise, make_gaussian_mixture, train_lccn
from lccn_lab.metrics import write_csv


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/alpha")
    parser.add_argument("--alphas", type=float, nargs="+", default=[0.1, 1.0, 10.0, 100.0, 1000.0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3, 4])
    parser.add_argument("--epochs", type=int, default=60)
    parser.add_argument("--pretrain-epochs", type=int, default=30)
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    clean = make_gaussian_mixture(n_classes=4, dim=2, n_per_class=250, separation=4.0, seed=42)
    noisy, _ = apply_noise(clean, NoiseSpec(kind="asymmetric", ratio=0.4, seed=17))
    test = make_gaussian_mixture(n_classes=4, dim=2, n_per_class=200, separation=4.0, seed=10049)

    rows = []
    for alpha in args.alphas:
        accs = [
            train_lccn(
                noisy,
                TrainConfig(
                    kind="lccn", epochs=args.epochs, pretrain_epochs=args.pretrain_epochs,
                    batch_size=32, learning_rate=0.02, hidden_width=64, activation="tanh",
                    eval_every=15, alpha=alpha, seed=seed,
                ),
                test,
            ).final_test_accuracy()
            for seed in args.seeds
        ]
        med = statistics.median(accs)
        rows.append([repr(alpha), repr(med), repr(min(accs)), repr(max(accs)), len(args.seeds)])
        print(f"alpha {alpha:>8.1f}: median accuracy {med:.4f} (min {min(accs):.4f})")

    header = ["alpha", "median_acc", "min_acc", "max_acc", "n_seeds"]
    write_csv(out / "alpha_ablation.csv", header, rows)
    print(f"wrote {out / 'alpha_ablation.csv'}")


if __name__ == "__main__":
    main()
