#!/usr/bin/env python3
"""Contrast per-batch transition variation: count updates vs gradient layer.

Runs paired latent-label and adaptation-layer trainings on identical data and
seeds, then writes both variation histograms plus a per-seed summary.

Example:
    python3 scripts/run_stability_contrast.py --out results/stability
"""

import argparse
from pathlib import Path

from lccn_lab import (
    NoiseSpec,
    TrainConfig,
    apply_noise,
    make_gaussian_mixture,
    train_lccn,
    train_s_adaptation,
    variation_histogram,
    write_histogram_csv,
)
from lccn_lab.metrics import write_csv


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/stability")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3, 4])
    parser.add_argument("--n-per-class", type=int, default=1000)
    parser.add_argument("--epochs", type=int, default=30)
    parser.add_argument("--transition-lr", type=float, default=0.1)
    parser.add_argument("--bins", type=int, default=50)
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    clean = make_gaussian_mixture(
        n_classes=3, dim=2, n_per_class=args.n_per_class, separation=6.0, seed=42
    )
    spec = NoiseSpec(kind="asymmetric", ratio=0.4, seed=17)
    noisy, _ = apply_noise(clean, spec)
    phi_star = spec.true_transition(3)
    shared = dict(
        epochs=args.epochs, batch_size=8, learning_rate=0.01,
        pretrain_epochs=10, eval_every=10, reference_phi=phi_star,
    )

    counts_all, layer_all, rows = [], [], []
    for seed in args.seeds:
        counted = train_lccn(noisy, TrainConfig(kind="lccn", seed=seed, **shared))
        layered = train_s_adaptation(
            noisy,
            TrainConfig(kind="s_adaptation", seed=seed, transition_lr=args.transition_lr, **shared),
        )
        a = [v.measured for v in counted.batch_variations]
        b = [v.measured for v in layered.batch_variations]
        counts_all += a
        layer_all += b
        rows.append([seed, repr(max(a)), repr(max(b)), max(a) < max(b)])
        print(f"seed {seed}: count-update max {max(a):.4f}  vs  gradient-layer max {max(b):.4f}")

    write_histogram_csv(variation_histogram(counts_all, bins=args.bins),
                        out / "histogram_count_updates.csv")
    write_histogram_csv(variation_histogram(layer_all, bins=args.bins),
                        out / "histogram_gradient_layer.csv")
    write_csv(
        out / "stability.csv",
        ["seed", "count_update_max", "gradient_layer_max", "count_is_steadier"],
        rows,
    )
    print(f"wrote {out / 'stability.csv'} and both histograms")


if __name__ == "__main__":
    main()
