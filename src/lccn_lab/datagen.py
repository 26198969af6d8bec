"""Synthetic Gaussian-mixture datasets and controlled label/feature corruption.

`apply_noise(dataset, NoiseSpec)` is the one way to corrupt a dataset. The
label-noise kinds are `NOISE_KINDS`. Kinds "symmetric" and "asymmetric" draw
from `default_rng(seed)`: `random(N)` picks the hit samples, then kind
"symmetric" alone draws `integers(0, K, N)` to resample them; kind "none"
draws nothing. Open-set noise is spelled ood_fraction, with any kind; it
draws from `default_rng(seed + 1)`: one `choice` of the outlier rows, then
one `permutation` per chosen row, in order.

Every function here is pure and bit-reproducible for a fixed seed, and
checks the type and range of each data argument (ParameterError).
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ParameterError, check_field_types, check_integers, check_labels, check_type
from .noise_model import confusion_counts

# Sentinel true label for out-of-distribution samples whose original class
# no longer describes their features.
OOD_LABEL = -1

# The label-noise kinds of `NoiseSpec` and of `generate --noise`.
NOISE_KINDS = ("none", "symmetric", "asymmetric")


@dataclass
class LabeledDataset:
    """A feature matrix with true labels, observed (possibly noisy) labels and masks.

    Attributes:
        features: (N, D) float64 matrix.
        true_labels: (N,) int64; ``OOD_LABEL`` for out-of-distribution samples.
        noisy_labels: (N,) int64 in [0, n_classes); the labels a trainer sees.
        clean_mask: (N,) bool; True where the observed label is trusted.
        ood_mask: (N,) bool; True where features no longer match any class.
        n_classes: number of in-distribution classes.
    """

    features: np.ndarray
    true_labels: np.ndarray
    noisy_labels: np.ndarray
    clean_mask: np.ndarray
    ood_mask: np.ndarray
    n_classes: int

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=np.float64)
        check_type(self.n_classes, "int", "n_classes")
        self.true_labels = check_integers(self.true_labels, "true_labels")
        self.noisy_labels = check_labels(self.noisy_labels, self.n_classes, "noisy_labels")
        self.clean_mask = np.asarray(self.clean_mask, dtype=bool)
        self.ood_mask = np.asarray(self.ood_mask, dtype=bool)
        self.validate()

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def validate(self) -> None:
        if not self.features.size:
            raise ParameterError(
                f"a dataset needs at least one sample and one feature, got {self.features.shape}"
            )
        n = self.features.shape[0]
        if self.features.ndim != 2:
            raise ParameterError("features must be a 2-d matrix")
        if not np.all(np.isfinite(self.features)):
            raise ParameterError("features must be finite")
        if self.n_classes < 2:
            raise ParameterError("n_classes must be at least 2")
        for name in ("true_labels", "noisy_labels", "clean_mask", "ood_mask"):
            if getattr(self, name).shape != (n,):
                raise ParameterError(f"{name} must have length {n}")
        in_dist = ~self.ood_mask
        bad = (self.true_labels[in_dist] < 0) | (self.true_labels[in_dist] >= self.n_classes)
        if np.any(bad):
            raise ParameterError("true_labels out of range for in-distribution samples")
        if np.any(self.true_labels[self.ood_mask] != OOD_LABEL):
            raise ParameterError("out-of-distribution samples must carry the sentinel true label")
        if np.any(self.clean_mask & self.ood_mask):
            raise ParameterError("clean_mask and ood_mask must be disjoint")

    def copy(self) -> "LabeledDataset":
        return LabeledDataset(
            features=self.features.copy(),
            true_labels=self.true_labels.copy(),
            noisy_labels=self.noisy_labels.copy(),
            clean_mask=self.clean_mask.copy(),
            ood_mask=self.ood_mask.copy(),
            n_classes=self.n_classes,
        )

    def to_json_dict(self) -> dict:
        return {
            "features": self.features.tolist(),
            "true_labels": self.true_labels.tolist(),
            "noisy_labels": self.noisy_labels.tolist(),
            "clean_mask": self.clean_mask.tolist(),
            "ood_mask": self.ood_mask.tolist(),
            "K": int(self.n_classes),
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "LabeledDataset":
        """The dataset of `to_json_dict`'s fields, each entry of its kind by `check_type`'s rule.

        Labels and K are ints, the masks bools and the features floats; nothing
        is truncated or parsed from a string.
        """
        try:
            rows = payload["features"]
            if not isinstance(rows, list):
                raise ParameterError(f"features must be a list of rows, got {rows!r}")
            return cls(
                features=np.array([_list_of(row, "float", "features") for row in rows]),
                true_labels=np.array(_list_of(payload["true_labels"], "int", "true_labels")),
                noisy_labels=np.array(_list_of(payload["noisy_labels"], "int", "noisy_labels")),
                clean_mask=np.array(_list_of(payload["clean_mask"], "bool", "clean_mask")),
                ood_mask=np.array(_list_of(payload["ood_mask"], "bool", "ood_mask")),
                n_classes=check_type(payload["K"], "int", "K"),
            )
        except KeyError as exc:
            raise ParameterError(f"dataset JSON is missing field {exc}") from exc
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParameterError(f"dataset JSON is malformed: {exc}") from exc


def _check_seed(seed) -> None:
    """ParameterError unless seed is an int >= 0; `default_rng` would not name the seed."""
    if check_type(seed, "int", "seed") < 0:
        raise ParameterError(f"seed must be nonnegative, got {seed!r}")


def _list_of(values, kind: str, name: str) -> list:
    """values itself if it is a list of `kind` entries by `check_type`'s rule; else ParameterError."""
    if not isinstance(values, list):
        raise ParameterError(f"{name} must be a list, got {values!r}")
    for value in values:
        check_type(value, kind, f"an entry of {name}")
    return values


def save_dataset(ds: LabeledDataset, path: str | Path) -> None:
    Path(path).write_text(json.dumps(ds.to_json_dict()))


def default_pair_map(n_classes: int) -> tuple[int, ...]:
    """Cyclic flip target: class k is confused with class (k + 1) mod K."""
    return tuple((k + 1) % n_classes for k in range(n_classes))


@dataclass(frozen=True)
class NoiseSpec:
    """Declarative description of a corruption to apply to a clean dataset.

    kind is one of `NOISE_KINDS`: "none", "symmetric", "asymmetric".
    ratio is the label-flip probability (0 for "none"); pair_map (asymmetric
    only) maps each class to its flip class; ood_fraction is the share of
    samples turned into feature-corrupted outliers (open-set noise), with
    any kind.
    """

    kind: str = "none"
    ratio: float = 0.0
    pair_map: tuple[int, ...] | None = None
    ood_fraction: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        check_field_types(self)
        _check_seed(self.seed)
        if self.kind not in NOISE_KINDS:
            raise ParameterError(f"unknown noise kind {self.kind!r}")
        if not 0.0 <= self.ratio <= 1.0:
            raise ParameterError("ratio must lie in [0, 1]")
        if not 0.0 <= self.ood_fraction <= 1.0:
            raise ParameterError("ood_fraction must lie in [0, 1]")
        if self.kind == "none" and self.ratio != 0.0:
            raise ParameterError("ratio must be 0 for noise kind 'none'")
        if self.pair_map is not None:
            if self.kind != "asymmetric":
                raise ParameterError(f"pair_map is for asymmetric noise only, not {self.kind!r}")
            try:
                pair_map = tuple(self.pair_map)
            except TypeError:
                raise ParameterError(f"pair_map must list classes, got {self.pair_map!r}") from None
            for p in pair_map:
                check_type(p, "int", "pair_map entry")
            object.__setattr__(self, "pair_map", pair_map)

    def _flip_targets(self, n_classes: int) -> tuple[int, ...]:
        """pair_map, or the default cycle, checked against the data's class count."""
        pair = self.pair_map if self.pair_map is not None else default_pair_map(n_classes)
        if len(pair) != n_classes or any(not 0 <= p < n_classes for p in pair):
            raise ParameterError("pair_map must map every class to a valid class")
        return pair

    def true_transition(self, n_classes: int) -> np.ndarray | None:
        """Ground-truth label transition matrix implied by this spec, if defined."""
        k = n_classes
        if self.kind == "symmetric":
            # Uniform resampling keeps the original class with probability 1/K.
            return (1.0 - self.ratio) * np.eye(k) + self.ratio / k * np.ones((k, k))
        if self.kind == "asymmetric":
            phi = np.zeros((k, k))
            for src, dst in enumerate(self._flip_targets(k)):
                phi[src, src] += 1.0 - self.ratio
                phi[src, dst] += self.ratio
            return phi
        return None


@dataclass
class NoiseInjectionReport:
    """What a label-noise injection actually did to one concrete dataset.

    realized_confusion[i, j] counts in-distribution samples with true class i
    and post-injection observed class j; realized_flip_fraction is the share
    of in-distribution samples whose observed label disagrees with the truth.
    """

    realized_flip_fraction: float
    realized_confusion: np.ndarray

    def to_json_dict(self) -> dict:
        return {
            "realized_flip_fraction": float(self.realized_flip_fraction),
            "realized_confusion": self.realized_confusion.tolist(),
        }


def save_report(report: NoiseInjectionReport, path: str | Path) -> None:
    Path(path).write_text(json.dumps(report.to_json_dict()))


def _class_means(n_classes: int, dim: int, separation: float) -> np.ndarray:
    """Deterministic class centers with pairwise distance >= separation.

    With dim >= n_classes the centers form a regular simplex (all pairwise
    distances exactly equal); with dim >= 2 they sit on a circle whose
    adjacent-point distance equals separation; dim == 1 spaces them on a line.
    """
    k, d = n_classes, dim
    means = np.zeros((k, d))
    if d >= k:
        scale = separation / math.sqrt(2.0)
        for i in range(k):
            means[i, :k] = -scale / k
            means[i, i] += scale
    elif d >= 2:
        radius = separation / (2.0 * math.sin(math.pi / k))
        angles = 2.0 * math.pi * np.arange(k) / k
        means[:, 0] = radius * np.cos(angles)
        means[:, 1] = radius * np.sin(angles)
    else:
        means[:, 0] = separation * (np.arange(k) - (k - 1) / 2.0)
    return means


def make_gaussian_mixture(
    n_classes: int,
    dim: int,
    n_per_class: int,
    separation: float,
    seed: int,
) -> LabeledDataset:
    """Balanced unit-variance Gaussian blobs around deterministic class centers.

    The centers depend only on (n_classes, dim, separation), so two draws with
    different seeds are independent samples from the same population. Observed
    labels start out equal to the true labels.
    """
    check_type(n_classes, "int", "n_classes")
    check_type(dim, "int", "dim")
    check_type(n_per_class, "int", "n_per_class")
    check_type(separation, "float", "separation")
    _check_seed(seed)
    if n_classes < 2:
        raise ParameterError("n_classes must be at least 2")
    if dim < 1:
        raise ParameterError("dim must be at least 1")
    if n_per_class < 1:
        raise ParameterError("n_per_class must be at least 1")
    if not 0.0 < separation <= sys.float_info.max:  # also False for NaN and huge ints
        raise ParameterError("separation must be positive and finite")
    rng = np.random.default_rng(seed)
    means = _class_means(n_classes, dim, separation)
    labels = np.repeat(np.arange(n_classes, dtype=np.int64), n_per_class)
    features = means[labels] + rng.standard_normal((labels.size, dim))
    return LabeledDataset(
        features=features,
        true_labels=labels,
        noisy_labels=labels.copy(),
        clean_mask=np.zeros(labels.size, dtype=bool),
        ood_mask=np.zeros(labels.size, dtype=bool),
        n_classes=n_classes,
    )


def mark_clean_subset(ds: LabeledDataset, n_clean: int, seed: int) -> LabeledDataset:
    """Reveal the true label of n_clean random in-distribution samples.

    Chosen samples get clean_mask set and their observed label overwritten
    with the true label, modeling a small trusted subset.
    """
    check_type(n_clean, "int", "n_clean")
    _check_seed(seed)
    eligible = np.flatnonzero(~ds.ood_mask)
    if n_clean < 0 or n_clean > eligible.size:
        raise ParameterError(f"n_clean must lie in [0, {eligible.size}] for this dataset")
    rng = np.random.default_rng(seed)
    out = ds.copy()
    chosen = rng.choice(eligible, size=n_clean, replace=False)
    out.clean_mask[chosen] = True
    out.noisy_labels[chosen] = out.true_labels[chosen]
    return out


def apply_noise(ds: LabeledDataset, spec: NoiseSpec) -> tuple[LabeledDataset, NoiseInjectionReport]:
    """Label noise first, then open-set corruption; returns the copy and its report.

    A hit never touches an out-of-distribution sample or a true label. A
    symmetric hit may land on its own class, so the expected flip fraction is
    ratio * (K - 1) / K; an asymmetric hit flips class k to pair_map[k]
    (default (k + 1) mod K), once. Open-set noise reorders the features of
    exactly round(ood_fraction * N) samples, marks them out-of-distribution
    with the sentinel true label and keeps their observed label.
    """
    k = ds.n_classes
    out = ds.copy()
    if spec.kind in ("symmetric", "asymmetric"):
        rng = np.random.default_rng(spec.seed)
        hit = (rng.random(ds.n) < spec.ratio) & ~ds.ood_mask
        if spec.kind == "symmetric":
            out.noisy_labels[hit] = rng.integers(0, k, size=ds.n, dtype=np.int64)[hit]
        else:
            pair = np.asarray(spec._flip_targets(k), dtype=np.int64)
            out.noisy_labels[hit] = pair[out.noisy_labels[hit]]
    if spec.ood_fraction > 0.0:
        rng = np.random.default_rng(spec.seed + 1)
        chosen = rng.choice(ds.n, size=round(spec.ood_fraction * ds.n), replace=False)
        for idx in chosen:
            out.features[idx] = out.features[idx, rng.permutation(ds.dim)]
        out.ood_mask[chosen] = True
        out.true_labels[chosen] = OOD_LABEL
        out.clean_mask[chosen] = False
    confusion = confusion_counts(out.true_labels, out.noisy_labels, k, k, exclude=out.ood_mask)
    n_kept = int(confusion.sum())
    flipped = (n_kept - int(np.trace(confusion))) / n_kept if n_kept else 0.0
    return out, NoiseInjectionReport(flipped, confusion)
