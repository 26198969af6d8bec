"""The benchmark's three training workloads, as lccn-lab experiment configs.

Each workload is one data section (the acceptance module's "recovery" or
"ordering" bundle) plus the list of runs that one round of the workload
makes through `lccn_lab.cli.run_experiment`. The workload seed shifts every
seed: seed 0 reproduces the acceptance bundles' seeds (generator 42, noise
17, test 10049, training 0; the ordering workloads also pin a 40-sample
clean subset drawn with seed 5), and seed s adds s to each.

This module imports nothing heavy, so the set-up probe can time the first
import of lccn_lab (and numpy) itself.
"""

from __future__ import annotations

GENERATOR_SEED = 42
NOISE_SEED = 17
TEST_SEED = 10049
TRAIN_SEED = 0
CLEAN_SEED = 5

FLIP_RATIO = 0.4

_ORDERING_SHARED = {
    "batch_size": 32,
    "learning_rate": 0.02,
    "hidden_width": 64,
    "activation": "tanh",
    "eval_every": 15,
}
_PRETRAINED = {"pretrain_epochs": 30, "epochs": 60}
# ce and bootstrap_hard never pretrain; 0 makes the sample count explicit.
_PLAIN = {"pretrain_epochs": 0, "epochs": 90}

WORKLOADS = {
    "latent-recovery": {
        "data": {"k": 3, "n_per_class": 1000, "separation": 6.0, "test_per_class": 300},
        "runs": [
            {
                "kind": "lccn",
                "batch_size": 8,
                "learning_rate": 0.01,
                "pretrain_epochs": 10,
                "epochs": 30,
                "eval_every": 10,
            },
        ],
        # Test accuracy up to relabeling was at least 0.993 on workload seeds 0-29.
        "accuracy_floor": 0.90,
    },
    "latent-ordering": {
        "data": {
            "k": 4, "n_per_class": 250, "separation": 4.0, "test_per_class": 200, "n_clean": 40,
        },
        "runs": [
            {"kind": kind, **_ORDERING_SHARED, **_PRETRAINED}
            for kind in ("lccn", "lccn_star", "lccn_plus")
        ],
        # Test accuracy up to relabeling was 0.92-0.94 at seed 0 and at least
        # 0.64 on workload seeds 0-29; chance is 0.25.
        "accuracy_floor": 0.50,
    },
    "baselines-ordering": {
        "data": {
            "k": 4, "n_per_class": 250, "separation": 4.0, "test_per_class": 200, "n_clean": 40,
        },
        "runs": [
            {"kind": "ce", **_ORDERING_SHARED, **_PLAIN},
            {"kind": "bootstrap_hard", **_ORDERING_SHARED, **_PLAIN},
            {"kind": "forward_fixed", **_ORDERING_SHARED, **_PRETRAINED},
            {"kind": "s_adaptation", "transition_lr": 0.1, **_ORDERING_SHARED, **_PRETRAINED},
            {"kind": "em_reference", **_ORDERING_SHARED, **_PRETRAINED},
        ],
        # Test accuracy up to relabeling was 0.88-0.94 at seed 0 and at least
        # 0.60 on workload seeds 0-29 (ce under pair-flip noise); chance is 0.25.
        "accuracy_floor": 0.50,
    },
}

# Kinds whose run writes phi_final.json (an estimate of the noise channel).
PHI_KINDS = frozenset(
    {"forward_fixed", "s_adaptation", "em_reference", "lccn", "lccn_star", "lccn_plus"}
)
# Kinds whose run writes variations.csv with a finite update bound per batch.
CERTIFIED_KINDS = frozenset({"lccn", "lccn_star", "lccn_plus"})


def data_config(name: str, seed: int) -> dict:
    """The experiment config's data sections for workload `name` at workload seed `seed`."""
    data = WORKLOADS[name]["data"]
    cfg = {
        "generator": {
            "k": data["k"],
            "d": 2,
            "n_per_class": data["n_per_class"],
            "separation": data["separation"],
            "seed": GENERATOR_SEED + seed,
        },
        "noise": {"kind": "asymmetric", "ratio": FLIP_RATIO, "seed": NOISE_SEED + seed},
        "test": {"n_per_class": data["test_per_class"], "seed": TEST_SEED + seed},
    }
    if data.get("n_clean"):
        cfg["clean"] = {"n_clean": data["n_clean"], "seed": CLEAN_SEED + seed}
    return cfg


def run_configs(name: str, seed: int) -> list[tuple[str, dict, int]]:
    """(run name, experiment config, training seed) for each run of one round."""
    data = data_config(name, seed)
    return [
        (train["kind"], {**data, "train": dict(train)}, TRAIN_SEED + seed)
        for train in WORKLOADS[name]["runs"]
    ]


def samples_per_round(name: str) -> int:
    """Rows passed to SGD steps in one round, pretraining included, from the configs."""
    data = WORKLOADS[name]["data"]
    n = data["k"] * data["n_per_class"]
    return sum(n * (run["pretrain_epochs"] + run["epochs"]) for run in WORKLOADS[name]["runs"])
