"""Golden-hash gate: every artifact of every trainer kind, pinned byte for byte.

Each case runs `cli.run_experiment` for one trainer kind and one config
variant on a 120-sample K=3 mixture (symmetric noise plus open-set
outliers, 12 trusted samples, MLP-8, batch 16, 2 pretrain + 3 epochs,
eval_every 2). Two variants change what the optimizer sees: a linear model
("linear") and a tanh MLP with weight decay 0.05 and momentum 0.5
("tanh_decay"). The latent kinds add a channel-only annealing variant and a
120-sample K=8 "wide" variant. Each case compares the sha256 of every file
the run writes with the hashes in `golden_hashes.json`. A refactor or
speed-up that keeps these hashes keeps the trainers' arithmetic and RNG
streams exactly.

The `cli/<case>` entries pin every file that one or more `lccn-lab`
commands write (generate, train with one and two seeds, train from saved
files, sweep and the four diagnose commands). They run inside a fresh
directory with relative paths, because some outputs echo the paths they
were given.

The hashes are specific to the numpy/OpenBLAS build they were recorded
with (numpy 2.4.6 with scipy-openblas 0.3.31, a DYNAMIC_ARCH build, on
x86-64); another BLAS build or CPU kernel may round differently. Any update
of the pinned hashes is recorded in CHANGES.md with its reason.

To re-record the hashes: `PYTHONPATH=src python tests/test_golden.py`.
"""

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from lccn_lab.cli import EXIT_OK, main, run_experiment
from lccn_lab.trainers import TRAINER_KINDS

HASHES_PATH = Path(__file__).with_name("golden_hashes.json")

BASE_CFG = {
    "generator": {"k": 3, "d": 2, "n_per_class": 40, "separation": 4.0, "seed": 5},
    "noise": {"kind": "symmetric", "ratio": 0.3, "ood_fraction": 0.1, "seed": 6},
    "clean": {"n_clean": 12, "seed": 7},
    "test": {"n_per_class": 20},
    "train": {
        "epochs": 3,
        "pretrain_epochs": 2,
        "batch_size": 16,
        "hidden_width": 8,
        "learning_rate": 0.1,
        "eval_every": 2,
    },
}

VARIANTS = {
    "base": {},
    "short_cap": {"total_iterations": 5},
    "long_cap": {"total_iterations": 40, "lr_milestones": [[1, 0.05]]},
    "knobs": {
        "warmup_kind": "identity",
        "warmup_steps": 3,
        "anneal": {"enabled": True, "target": "product"},
        "em_m_epochs": 2,
        "grad_clip": 0.01,
    },
    "no_epochs": {"epochs": 0},
    "linear": {"hidden_width": 0},
    "tanh_decay": {"activation": "tanh", "weight_decay": 0.05, "momentum": 0.5},
}

# Sampler branches that only the latent kinds reach: annealing of the channel
# factor alone, and rows of 8 or more latent classes (K=8; lccn_star has 9),
# whose sums take numpy's unrolled order instead of a left-to-right loop.
LATENT_VARIANTS = {
    "anneal_transition": {"anneal": {"enabled": True, "target": "transition"}},
    "wide": {},
}
GENERATOR_OVERRIDES = {"wide": {"k": 8, "n_per_class": 15}}
LATENT_KINDS = ("lccn", "lccn_star", "lccn_plus")

CASES = [f"{kind}/{variant}" for kind in TRAINER_KINDS for variant in VARIANTS] + [
    f"{kind}/{variant}" for kind in LATENT_KINDS for variant in LATENT_VARIANTS
]


def artifact_hashes(case: str, out_dir: Path) -> dict[str, str]:
    kind, variant = case.split("/")
    train = {**BASE_CFG["train"], "kind": kind, **{**VARIANTS, **LATENT_VARIANTS}[variant]}
    generator = {**BASE_CFG["generator"], **GENERATOR_OVERRIDES.get(variant, {})}
    cfg = {**BASE_CFG, "generator": generator, "train": train}
    run_experiment(cfg, 0, out_dir)
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.iterdir())
    }


CLI_INPUTS = {
    "cfg.json": {
        "generator": {"k": 3, "n_per_class": 15, "separation": 4.0, "seed": 2},
        "noise": {"kind": "asymmetric", "ratio": 0.3, "seed": 3},
        "clean": {"n_clean": 5, "seed": 4},
        "test": {"n_per_class": 10},
        "train": {
            "kind": "lccn", "epochs": 2, "pretrain_epochs": 1, "batch_size": 8,
            "hidden_width": 4, "learning_rate": 0.05, "eval_every": 1, "seed": 0,
        },
    },
    "files.json": {
        "dataset": "gen/dataset.json",
        "test_dataset": "gen/dataset.json",
        "train": {
            "kind": "lccn_star", "epochs": 1, "pretrain_epochs": 1, "batch_size": 8,
            "learning_rate": 0.05, "oracle_phi": "oracle.json",
        },
    },
    "oracle.json": {"matrix": [[0.7, 0.3, 0.0], [0.0, 0.7, 0.3], [0.3, 0.0, 0.7]]},
}

GENERATE = [
    "generate", "--k", "3", "--n-per-class", "12", "--noise", "asymmetric", "--ratio", "0.3",
    "--ood-fraction", "0.1", "--n-clean", "4", "--seed", "9", "--out", "gen",
]
TRAIN = ["train", "--config", "cfg.json", "--out", "run"]
TRAIN_2 = ["train", "--config", "cfg.json", "--out", "runs", "--seeds", "0", "1"]

CLI_CASES = {
    "generate": [GENERATE],
    "train_1seed": [TRAIN],
    "train_2seeds": [TRAIN_2],
    "train_from_files": [GENERATE, ["train", "--config", "files.json", "--out", "filerun"]],
    "sweep": [
        ["sweep", "--config", "cfg.json", "--param", "alpha", "--values", "1", "10",
         "--seeds", "0", "--out", "sweep"],
    ],
    "diagnose_mixing": [
        ["diagnose", "mixing", "--n", "4", "--k", "2", "--sweeps", "300", "--burn-in", "50",
         "--out", "mix"],
    ],
    "diagnose_transition": [
        TRAIN, ["diagnose", "transition", "--run", "run", "--oracle", "oracle.json", "--out", "phi"],
    ],
    "diagnose_variation": [
        TRAIN_2,
        ["diagnose", "variation", "--run-a", "runs/seed_0", "--run-b", "runs/seed_1",
         "--bins", "5", "--out", "var"],
    ],
    "diagnose_correction": [TRAIN, ["diagnose", "correction", "--run", "run", "--out", "corr"]],
}


def cli_output_hashes(case: str, work: Path) -> dict[str, str]:
    """Run one CLI case inside `work` and hash every file found there afterwards."""
    work.mkdir(parents=True, exist_ok=True)
    for name, payload in CLI_INPUTS.items():
        (work / name).write_text(json.dumps(payload))
    previous = os.getcwd()
    os.chdir(work)
    try:
        for argv in CLI_CASES[case]:
            assert main(argv) == EXIT_OK, argv
    finally:
        os.chdir(previous)
    return {
        path.relative_to(work).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(work.rglob("*"))
        if path.is_file()
    }


@pytest.mark.parametrize("case", CASES)
def test_artifacts_match_pinned_hashes(case, tmp_path):
    pinned = json.loads(HASHES_PATH.read_text())
    assert artifact_hashes(case, tmp_path) == pinned[case]


@pytest.mark.parametrize("case", CLI_CASES)
def test_cli_outputs_match_pinned_hashes(case, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("LCCN_LAB_THREADS", "1")
    pinned = json.loads(HASHES_PATH.read_text())
    assert cli_output_hashes(case, tmp_path) == pinned[f"cli/{case}"]


if __name__ == "__main__":
    os.environ["LCCN_LAB_THREADS"] = "1"
    with tempfile.TemporaryDirectory() as scratch:
        recorded = {case: artifact_hashes(case, Path(scratch) / case) for case in CASES}
        for case in CLI_CASES:
            recorded[f"cli/{case}"] = cli_output_hashes(case, Path(scratch) / "cli" / case)
    HASHES_PATH.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(recorded)} cases to {HASHES_PATH}", file=sys.stderr)
