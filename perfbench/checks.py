"""Output checks on one run directory written by `lccn_lab.cli.run_experiment`.

The checks read the artifacts with the standard library and numpy only, so
they do not trust the package's own readers or its forward pass.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from workloads import CERTIFIED_KINDS, PHI_KINDS

BOUND_SLACK = 1e-12
ROW_SUM_TOL = 1e-9
FINGERPRINTED = ("metrics.csv", "phi_final.json", "variations.csv")


class CheckFailed(Exception):
    """An artifact of a run is missing or violates an invariant."""


@dataclass
class RunCheck:
    """What the checks measured on one run that passed them."""

    accuracy: float
    relabeled_accuracy: float
    label_switched: bool
    phi_error: float | None


def fingerprint(run_dir: Path) -> dict[str, str]:
    """sha256 of each fingerprinted artifact the run wrote."""
    return {
        name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
        for name in FINGERPRINTED
        if (run_dir / name).exists()
    }


def bound_violations(run_dir: Path) -> int:
    """Logged batches whose measured row change exceeds the bound (NaN bounds never count)."""
    path = run_dir / "variations.csv"
    if not path.exists():
        return 0
    with open(path, newline="") as handle:
        return sum(
            float(row["measured"]) > float(row["bound"]) + BOUND_SLACK
            for row in csv.DictReader(handle)
        )


def _check_record_steps(run_dir: Path) -> None:
    steps: dict[str, list[int]] = {}
    with open(run_dir / "metrics.csv", newline="") as handle:
        for row in csv.DictReader(handle):
            steps.setdefault(row["split"], []).append(int(row["step"]))
    if not steps.get("train") or not steps.get("test"):
        raise CheckFailed("metrics.csv lacks train or test records")
    for split, seq in steps.items():
        if any(b <= a for a, b in zip(seq, seq[1:])):
            raise CheckFailed(f"{split} record steps do not strictly increase")


def _read_phi(run_dir: Path) -> np.ndarray:
    path = run_dir / "phi_final.json"
    if not path.exists():
        raise CheckFailed("phi_final.json is missing")
    phi = np.asarray(json.loads(path.read_text())["matrix"], dtype=np.float64)
    if phi.ndim != 2 or not np.all(np.isfinite(phi)) or np.any(phi < 0.0):
        raise CheckFailed("phi is not a finite non-negative matrix")
    if np.any(np.abs(phi.sum(axis=1) - 1.0) > ROW_SUM_TOL):
        raise CheckFailed("phi is not row-stochastic")
    return phi


def _predict(run_dir: Path, features: np.ndarray, k: int) -> np.ndarray:
    """Top class among the first k outputs of the saved classifier."""
    payload = json.loads((run_dir / "checkpoint.json").read_text())
    t = {name: np.asarray(value, dtype=np.float64) for name, value in payload["tensors"].items()}
    if payload["architecture"]["kind"] == "linear":
        logits = features @ t["w"] + t["b"]
    else:
        pre = features @ t["w1"] + t["b1"]
        act = np.tanh if payload["architecture"]["activation"] == "tanh" else (
            lambda z: np.maximum(z, 0.0)
        )
        logits = act(pre) @ t["w2"] + t["b2"]
    return logits[:, :k].argmax(axis=1)


def relabeled_accuracy(predicted: np.ndarray, true: np.ndarray, k: int) -> float:
    """Accuracy under the best one-to-one relabeling of the predicted classes."""
    confusion = np.zeros((k, k), dtype=np.int64)
    np.add.at(confusion, (predicted, true), 1)
    best = max(confusion[list(perm), range(k)].sum() for perm in itertools.permutations(range(k)))
    return float(best) / true.size


def check_run(
    run_dir: Path, kind: str, summary: dict, test_ds, true_phi: np.ndarray, floor: float
) -> RunCheck:
    """Check one run's artifacts; raises CheckFailed on the first violated check.

    The accuracy floor applies up to a relabeling of the classes: the latent
    model is identified only up to a permutation of its latent classes, and
    a chain may settle in a permuted mode. Such a run's raw accuracy is
    reported, not failed. Bound violations are counted by bound_violations.
    """
    _check_record_steps(run_dir)
    accuracy = summary["final_test_accuracy"]
    if accuracy is None:
        raise CheckFailed("run has no test accuracy")
    k = true_phi.shape[0]
    keep = ~test_ds.ood_mask
    true = test_ds.true_labels[keep]
    predicted = _predict(run_dir, test_ds.features[keep], k)
    identity = float(np.mean(predicted == true))
    # One sample of slack: the package takes the argmax of softmax rows, this of logits.
    if abs(identity - accuracy) > 1.0 / true.size + 1e-12:
        raise CheckFailed("saved classifier does not reproduce the reported test accuracy")
    relabeled = relabeled_accuracy(predicted, true, k)
    if relabeled < floor:
        raise CheckFailed(f"test accuracy up to relabeling {relabeled} is below the floor {floor}")
    if kind in CERTIFIED_KINDS and not (run_dir / "variations.csv").exists():
        raise CheckFailed("variations.csv is missing")
    phi_error = None
    if kind in PHI_KINDS:
        phi = _read_phi(run_dir)
        phi_error = float(np.abs(phi[:k] - true_phi).sum(axis=1).max())
    return RunCheck(accuracy, relabeled, relabeled > identity, phi_error)
