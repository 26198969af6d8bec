"""Synthetic Gaussian-mixture datasets and controlled label/feature corruption.

All generators and injectors are pure: they return new dataset objects and
never mutate their inputs. Every stochastic operation takes an explicit seed
and is bit-reproducible for a fixed seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ParameterError, check_field_types
from .noise_model import confusion_counts

# Sentinel true label for out-of-distribution samples whose original class
# no longer describes their features.
OOD_LABEL = -1


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
        self.true_labels = np.asarray(self.true_labels, dtype=np.int64)
        self.noisy_labels = np.asarray(self.noisy_labels, dtype=np.int64)
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
        if np.any((self.noisy_labels < 0) | (self.noisy_labels >= self.n_classes)):
            raise ParameterError("noisy_labels out of range")
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
        try:
            return cls(
                features=np.array(payload["features"], dtype=np.float64),
                true_labels=np.array(payload["true_labels"], dtype=np.int64),
                noisy_labels=np.array(payload["noisy_labels"], dtype=np.int64),
                clean_mask=np.array(payload["clean_mask"], dtype=bool),
                ood_mask=np.array(payload["ood_mask"], dtype=bool),
                n_classes=int(payload["K"]),
            )
        except KeyError as exc:
            raise ParameterError(f"dataset JSON is missing field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ParameterError(f"dataset JSON is malformed: {exc}") from exc


def save_dataset(ds: LabeledDataset, path: str | Path) -> None:
    Path(path).write_text(json.dumps(ds.to_json_dict()))


def default_pair_map(n_classes: int) -> tuple[int, ...]:
    """Cyclic flip target: class k is confused with class (k + 1) mod K."""
    return tuple((k + 1) % n_classes for k in range(n_classes))


@dataclass(frozen=True)
class NoiseSpec:
    """Declarative description of a corruption to apply to a clean dataset.

    kind is one of "none", "symmetric", "asymmetric", "openset".
    ratio is the corruption probability; pair_map (asymmetric only) maps each
    class to the class it is flipped into; ood_fraction is the share of
    samples turned into feature-corrupted outliers.
    """

    kind: str = "none"
    ratio: float = 0.0
    pair_map: tuple[int, ...] | None = None
    ood_fraction: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        check_field_types(self)
        if self.kind not in ("none", "symmetric", "asymmetric", "openset"):
            raise ParameterError(f"unknown noise kind {self.kind!r}")
        if not 0.0 <= self.ratio <= 1.0:
            raise ParameterError("ratio must lie in [0, 1]")
        if not 0.0 <= self.ood_fraction <= 1.0:
            raise ParameterError("ood_fraction must lie in [0, 1]")

    def true_transition(self, n_classes: int) -> np.ndarray | None:
        """Ground-truth label transition matrix implied by this spec, if defined."""
        k = n_classes
        if self.kind == "symmetric":
            # Uniform resampling keeps the original class with probability 1/K.
            return (1.0 - self.ratio) * np.eye(k) + self.ratio / k * np.ones((k, k))
        if self.kind == "asymmetric":
            pair = self.pair_map if self.pair_map is not None else default_pair_map(k)
            phi = np.zeros((k, k))
            for src, dst in enumerate(pair):
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
    if n_classes < 2:
        raise ParameterError("n_classes must be at least 2")
    if dim < 1:
        raise ParameterError("dim must be at least 1")
    if n_per_class < 1:
        raise ParameterError("n_per_class must be at least 1")
    if not 0.0 < separation < math.inf:  # also False for NaN
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


def _report(ds: LabeledDataset) -> NoiseInjectionReport:
    k = ds.n_classes
    confusion = confusion_counts(ds.true_labels, ds.noisy_labels, k, k, exclude=ds.ood_mask)
    n_kept = int(confusion.sum())
    fraction = (n_kept - int(np.trace(confusion))) / n_kept if n_kept else 0.0
    return NoiseInjectionReport(fraction, confusion)


def inject_symmetric(
    ds: LabeledDataset, ratio: float, seed: int
) -> tuple[LabeledDataset, NoiseInjectionReport]:
    """Resample each observed label uniformly over all classes with probability ratio.

    The uniform draw may land on the original class, so the expected realized
    flip fraction is ratio * (K - 1) / K. Out-of-distribution samples are left
    untouched. True labels are never modified.
    """
    if not 0.0 <= ratio <= 1.0:
        raise ParameterError("ratio must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    out = ds.copy()
    hit = (rng.random(ds.n) < ratio) & ~ds.ood_mask
    resampled = rng.integers(0, ds.n_classes, size=ds.n, dtype=np.int64)
    out.noisy_labels[hit] = resampled[hit]
    return out, _report(out)


def inject_asymmetric_pairflip(
    ds: LabeledDataset,
    ratio: float,
    seed: int,
    pair_map: tuple[int, ...] | None = None,
) -> tuple[LabeledDataset, NoiseInjectionReport]:
    """Flip each observed label to its paired class with probability ratio.

    The flip target of class k is pair_map[k] (default: (k + 1) mod K). Flips
    are applied in a single pass from the current labels, so a flipped label
    is never flipped again. Out-of-distribution samples are left untouched.
    """
    if not 0.0 <= ratio <= 1.0:
        raise ParameterError("ratio must lie in [0, 1]")
    pair = pair_map if pair_map is not None else default_pair_map(ds.n_classes)
    if len(pair) != ds.n_classes or any(not 0 <= p < ds.n_classes for p in pair):
        raise ParameterError("pair_map must map every class to a valid class")
    rng = np.random.default_rng(seed)
    out = ds.copy()
    hit = (rng.random(ds.n) < ratio) & ~ds.ood_mask
    pair_arr = np.asarray(pair, dtype=np.int64)
    out.noisy_labels[hit] = pair_arr[out.noisy_labels[hit]]
    return out, _report(out)


def inject_openset(ds: LabeledDataset, ood_fraction: float, seed: int) -> LabeledDataset:
    """Turn an exact share of samples into outliers by permuting their features.

    Exactly round(ood_fraction * N) samples are chosen; each gets its own
    feature entries randomly reordered (the multiset of values is preserved),
    its ood_mask bit set, and its true label replaced by the sentinel. The
    observed label is kept as-is and now lies about the features.
    """
    if not 0.0 <= ood_fraction <= 1.0:
        raise ParameterError("ood_fraction must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    out = ds.copy()
    n_ood = round(ood_fraction * ds.n)
    chosen = rng.choice(ds.n, size=n_ood, replace=False)
    for idx in chosen:
        out.features[idx] = out.features[idx, rng.permutation(ds.dim)]
    out.ood_mask[chosen] = True
    out.true_labels[chosen] = OOD_LABEL
    out.clean_mask[chosen] = False
    return out


def mark_clean_subset(ds: LabeledDataset, n_clean: int, seed: int) -> LabeledDataset:
    """Reveal the true label of n_clean random in-distribution samples.

    Chosen samples get clean_mask set and their observed label overwritten
    with the true label, modeling a small trusted subset.
    """
    eligible = np.flatnonzero(~ds.ood_mask)
    if n_clean < 0 or n_clean > eligible.size:
        raise ParameterError(
            f"n_clean must lie in [0, {eligible.size}] for this dataset"
        )
    rng = np.random.default_rng(seed)
    out = ds.copy()
    chosen = rng.choice(eligible, size=n_clean, replace=False)
    out.clean_mask[chosen] = True
    out.noisy_labels[chosen] = out.true_labels[chosen]
    return out


def apply_noise(ds: LabeledDataset, spec: NoiseSpec) -> tuple[LabeledDataset, NoiseInjectionReport]:
    """Apply one NoiseSpec: label noise first, then open-set feature corruption.

    For kind "openset" the corrupted share is ood_fraction, falling back to
    ratio when ood_fraction is zero; other kinds treat ood_fraction as an
    additional, independent open-set corruption on top of the label noise.
    """
    report = _report(ds)
    out = ds
    if spec.kind == "symmetric":
        out, report = inject_symmetric(out, spec.ratio, spec.seed)
    elif spec.kind == "asymmetric":
        out, report = inject_asymmetric_pairflip(out, spec.ratio, spec.seed, spec.pair_map)
    fraction = spec.ood_fraction
    if spec.kind == "openset" and fraction == 0.0:
        fraction = spec.ratio
    if fraction > 0.0:
        out = inject_openset(out, fraction, spec.seed + 1)
        report = _report(out)
    return out, report
