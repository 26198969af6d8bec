"""Golden-hash gate: every artifact of every trainer kind, pinned byte for byte.

Each case runs `cli.run_experiment` for one trainer kind and one config
variant on a 120-sample K=3 mixture (symmetric noise plus open-set
outliers, 12 trusted samples, MLP-8, batch 16, 2 pretrain + 3 epochs,
eval_every 2). Two variants change what the optimizer sees: a linear model
("linear") and a tanh MLP with weight decay 0.05 and momentum 0.5
("tanh_decay"). The latent kinds add an annealing variant and a 120-sample
K=8 "wide" variant, and each knob that no variant sets gets one case on a
kind that reads it (`KIND_CASES`). Every `TrainConfig` field is set by some
case, and each of those cases changes a training artifact of its kind's base
case. Each case compares the sha256 of every file
the run writes with the hashes in `golden_hashes.json`. A refactor or
speed-up that keeps these hashes keeps the trainers' arithmetic and RNG
streams exactly.

The `cli/<case>` entries pin every file that one or more `lccn-lab`
commands write (generate under each noise kind, train with one and two
seeds, train from saved files, sweep and the four diagnose commands). They
run inside a fresh directory with relative paths, because some outputs echo
the paths they were given.

The hashes are specific to the numpy/OpenBLAS build they were recorded
with (numpy 2.4.6 with scipy-openblas 0.3.31, a DYNAMIC_ARCH build, on
x86-64); another BLAS build or CPU kernel may round differently. Any update
of the pinned hashes is recorded in CHANGES.md with its reason.

To re-record the hashes: `PYTHONPATH=src python tests/test_golden.py`. Before
it rewrites `golden_hashes.json` it prints each case whose hashes changed,
with the names of the files that changed, and each case added or dropped.
"""

import dataclasses
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from lccn_lab.cli import EXIT_OK, main, run_experiment
from lccn_lab.datagen import NOISE_KINDS
from lccn_lab.trainers import TRAINER_KINDS, TrainConfig

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
    "milestones": {"lr_milestones": [[1, 0.05]]},
    "knobs": {
        "oracle_phi": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        "warmup_steps": 3,
        "anneal": True,
    },
    "no_epochs": {"epochs": 0},
    "linear": {"hidden_width": 0},
    "tanh_decay": {"activation": "tanh", "weight_decay": 0.05, "momentum": 0.5},
}

# Sampler branches that only the latent kinds reach: annealing with no other
# knob set, and rows of 8 or more latent classes (K=8; lccn_star has 9),
# whose sums take numpy's unrolled order instead of a left-to-right loop.
LATENT_VARIANTS = {
    "anneal_transition": {"anneal": True},
    "wide": {},
}
GENERATOR_OVERRIDES = {"wide": {"k": 8, "n_per_class": 15}}
LATENT_KINDS = ("lccn", "lccn_star", "lccn_plus")

# Knobs that no variant above sets, each on one kind that reads it.
KIND_CASES = {
    "ce/clip": {"clip": 0.1},
    "bootstrap_hard/bootstrap_beta": {"bootstrap_beta": 0.5},
    "s_adaptation/transition_lr": {"transition_lr": 0.5},
}

CASES = [f"{kind}/{variant}" for kind in TRAINER_KINDS for variant in VARIANTS] + [
    f"{kind}/{variant}" for kind in LATENT_KINDS for variant in LATENT_VARIANTS
] + list(KIND_CASES)


def artifact_hashes(case: str, out_dir: Path) -> dict[str, str]:
    kind, variant = case.split("/")
    overrides = KIND_CASES[case] if case in KIND_CASES else {**VARIANTS, **LATENT_VARIANTS}[variant]
    train = {**BASE_CFG["train"], "kind": kind, **overrides}
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
# The data recipe of each noise kind that GENERATE leaves out, and open-set
# noise on its own.
GENERATE_KINDS = {
    "generate_symmetric": ["--noise", "symmetric", "--ratio", "0.3"],
    "generate_openset_ood_fraction": ["--d", "3", "--noise", "none", "--ood-fraction", "0.25"],
    "generate_none_clean": ["--noise", "none", "--n-clean", "5"],
}
TRAIN = ["train", "--config", "cfg.json", "--out", "run"]
TRAIN_2 = ["train", "--config", "cfg.json", "--out", "runs", "--seeds", "0", "1"]

CLI_CASES = {
    "generate": [GENERATE],
    **{
        case: [["generate", "--k", "3", "--n-per-class", "12", *flags, "--seed", "9",
                "--out", "gen"]]
        for case, flags in GENERATE_KINDS.items()
    },
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


def test_every_train_field_is_set_by_some_case():
    # reference_phi is wired in from the noise section of every generated case.
    sections = [BASE_CFG["train"], *VARIANTS.values(), *LATENT_VARIANTS.values()]
    sections += [*KIND_CASES.values(), *(p["train"] for p in CLI_INPUTS.values() if "train" in p)]
    names = {name for section in sections for name in section}
    names |= {
        argv[argv.index("--param") + 1]
        for runs in CLI_CASES.values() for argv in runs if "--param" in argv
    }
    fields = {f.name for f in dataclasses.fields(TrainConfig)} - {"reference_phi"}
    assert sorted(fields - names) == []


def test_every_noise_kind_is_pinned_by_some_generate_case():
    kinds = {
        argv[argv.index("--noise") + 1]
        for case, runs in CLI_CASES.items() if case.startswith("generate")
        for argv in runs if "--noise" in argv
    }
    assert sorted(set(NOISE_KINDS) - kinds) == []


@pytest.mark.parametrize("hidden_width", [0, 8], ids=["linear", "mlp"])
def test_full_weight_bootstrap_writes_the_artifacts_of_ce(hidden_width, tmp_path):
    # ce is bootstrap_hard at beta = 1: only the config echo tells the two apart.
    def artifacts(kind: str, **train) -> dict[str, bytes]:
        cfg = {**BASE_CFG, "train": {**BASE_CFG["train"], "kind": kind,
                                     "hidden_width": hidden_width, **train}}
        run_experiment(cfg, 0, tmp_path / kind)
        return {p.name: p.read_bytes() for p in sorted((tmp_path / kind).iterdir())
                if p.name != "config.json"}

    assert artifacts("bootstrap_hard", bootstrap_beta=1.0) == artifacts("ce")


@pytest.mark.parametrize("case", KIND_CASES)
def test_kind_case_changes_training(case):
    # A knob that changes no training artifact pins nothing.
    pinned = json.loads(HASHES_PATH.read_text())
    base = pinned[f"{case.split('/')[0]}/base"]
    data = {"config.json", "noise_report.json"}
    assert [name for name in base if name not in data and pinned[case][name] != base[name]]


def print_changes(pinned: dict, recorded: dict) -> None:
    """Print each case added, dropped, or with changed hashes (naming the files that changed)."""
    for case in sorted(pinned.keys() | recorded.keys()):
        if case not in recorded:
            print(f"dropped {case}")
        elif case not in pinned:
            print(f"added {case}")
        elif recorded[case] != pinned[case]:
            old, new = pinned[case], recorded[case]
            names = sorted(n for n in old.keys() | new.keys() if old.get(n) != new.get(n))
            print(f"changed {case}: {' '.join(names)}")


if __name__ == "__main__":
    os.environ["LCCN_LAB_THREADS"] = "1"
    with tempfile.TemporaryDirectory() as scratch:
        recorded = {case: artifact_hashes(case, Path(scratch) / case) for case in CASES}
        for case in CLI_CASES:
            recorded[f"cli/{case}"] = cli_output_hashes(case, Path(scratch) / "cli" / case)
    print_changes(json.loads(HASHES_PATH.read_text()) if HASHES_PATH.exists() else {}, recorded)
    HASHES_PATH.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(recorded)} cases to {HASHES_PATH}", file=sys.stderr)
