"""Golden-hash gate: every artifact of every trainer kind, pinned byte for byte.

Each case runs `cli.run_experiment` for one trainer kind and one config
variant on a 120-sample K=3 mixture (symmetric noise plus open-set
outliers, 12 trusted samples, MLP-8, batch 16, 2 pretrain + 3 epochs,
eval_every 2) and compares the sha256 of every file the run writes with
the hashes in `golden_hashes.json`. A refactor or speed-up that keeps
these hashes keeps the trainers' arithmetic and RNG streams exactly.

The hashes are specific to the numpy/OpenBLAS build they were recorded
with (numpy 2.4.6 with scipy-openblas 0.3.31, a DYNAMIC_ARCH build, on
x86-64); another BLAS build or CPU kernel may round differently. Any update
of the pinned hashes is recorded in CHANGES.md with its reason.

To re-record the hashes: `PYTHONPATH=src python tests/test_golden.py`.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from lccn_lab.cli import run_experiment
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
}

CASES = [f"{kind}/{variant}" for kind in TRAINER_KINDS for variant in VARIANTS]


def artifact_hashes(case: str, out_dir: Path) -> dict[str, str]:
    kind, variant = case.split("/")
    cfg = {**BASE_CFG, "train": {**BASE_CFG["train"], "kind": kind, **VARIANTS[variant]}}
    run_experiment(cfg, 0, out_dir)
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.iterdir())
    }


@pytest.mark.parametrize("case", CASES)
def test_artifacts_match_pinned_hashes(case, tmp_path):
    pinned = json.loads(HASHES_PATH.read_text())
    assert artifact_hashes(case, tmp_path) == pinned[case]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        recorded = {case: artifact_hashes(case, Path(scratch) / case) for case in CASES}
    HASHES_PATH.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(recorded)} cases to {HASHES_PATH}", file=sys.stderr)
