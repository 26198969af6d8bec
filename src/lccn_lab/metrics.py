"""Evaluation metrics, per-step metric records, and plot-ready CSV emission."""

from __future__ import annotations

import csv
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .classifier import ClassifierParams, forward_proba
from .datagen import OOD_LABEL, LabeledDataset
from .errors import ParameterError


@dataclass
class MetricsRecord:
    """One evaluation row; optional fields stay None where they do not apply."""

    step: int
    split: str
    accuracy: float
    loss: float
    correction_ratio: float | None = None
    phi_l1_error: float | None = None
    max_phi_row_variation: float | None = None
    bound_value: float | None = None


CSV_COLUMNS = tuple(f.name for f in fields(MetricsRecord))


def test_accuracy(
    params: ClassifierParams, ds: LabeledDataset, n_classes: int | None = None
) -> float:
    """Share of in-distribution samples whose top predicted class is the true one.

    n_classes restricts the argmax to the first n_classes outputs, for models
    that carry an extra outlier class.
    """
    keep = ~ds.ood_mask
    if not np.any(keep):
        raise ParameterError("dataset has no in-distribution samples to score")
    return top1_accuracy(forward_proba(params, ds.features[keep]), ds.true_labels[keep], n_classes)


def top1_accuracy(probs: np.ndarray, labels: np.ndarray, n_classes: int | None = None) -> float:
    """Share of rows whose top class among the first n_classes outputs is the label."""
    if len(labels) == 0:
        raise ParameterError("no samples to score")
    if n_classes is not None:
        probs = probs[:, :n_classes]
    return float(np.mean(probs.argmax(axis=1) == labels))


def correction_ratio(assignment_labels: np.ndarray, true_labels: np.ndarray) -> float:
    """Share of in-distribution samples whose latent label matches the truth."""
    assignment_labels = np.asarray(assignment_labels, dtype=np.int64)
    true_labels = np.asarray(true_labels, dtype=np.int64)
    if assignment_labels.shape != true_labels.shape:
        raise ParameterError("assignment and true labels must have the same length")
    keep = true_labels != OOD_LABEL
    if not np.any(keep):
        raise ParameterError("no in-distribution samples to evaluate")
    if np.any(assignment_labels[keep] < 0):
        raise ParameterError("assignment must be complete on in-distribution samples")
    return float(np.mean(assignment_labels[keep] == true_labels[keep]))


def transition_l1_error(phi_a, phi_b) -> float:
    """Largest per-row L1 distance between two transition matrices (symmetric)."""
    a, b = np.asarray(phi_a, dtype=np.float64), np.asarray(phi_b, dtype=np.float64)
    if a.shape != b.shape:
        raise ParameterError("transition matrices must have the same shape")
    return float(np.abs(a - b).sum(axis=1).max())


def transition_frobenius_error(phi_a, phi_b) -> float:
    """Frobenius-norm distance between two transition matrices."""
    a, b = np.asarray(phi_a, dtype=np.float64), np.asarray(phi_b, dtype=np.float64)
    if a.shape != b.shape:
        raise ParameterError("transition matrices must have the same shape")
    return float(np.sqrt(((a - b) ** 2).sum()))


@dataclass
class Histogram:
    bin_lo: np.ndarray
    bin_hi: np.ndarray
    counts: np.ndarray


def variation_histogram(values: Sequence[float], bins: int = 50) -> Histogram:
    """Histogram of per-batch max-row transition variations.

    A degenerate value range collapses to a single bin.
    """
    measured = np.asarray(values, dtype=np.float64)
    if measured.size == 0:
        raise ParameterError("no variation values were logged")
    if not np.isfinite(measured).all():
        raise ParameterError("variation values must be finite")
    if bins < 1:
        raise ParameterError("bins must be >= 1")
    lo, hi = float(measured.min()), float(measured.max())
    if lo == hi:
        return Histogram(
            bin_lo=np.array([lo]),
            bin_hi=np.array([hi]),
            counts=np.array([measured.size], dtype=np.int64),
        )
    counts, edges = np.histogram(measured, bins=bins, range=(lo, hi))
    return Histogram(bin_lo=edges[:-1], bin_hi=edges[1:], counts=counts.astype(np.int64))


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a header row, then one row per item; every CSV artifact goes through here.

    Callers format floats with repr, so a rerun writes the same bytes.
    """
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _format_optional(value: float | None) -> str:
    return "" if value is None else repr(float(value))


def write_metrics_csv(records: list[MetricsRecord], path: str | Path) -> None:
    rows = (
        [rec.step, rec.split, *(_format_optional(getattr(rec, name)) for name in CSV_COLUMNS[2:])]
        for rec in records
    )
    write_csv(path, CSV_COLUMNS, rows)


def read_csv(path: str | Path, columns: dict[str, Callable[[str], object]]) -> list[dict]:
    """Read a CSV artifact into one dict per row, holding only the named columns.

    Each cell goes through its column's parser. A missing file, a missing
    column or a cell its parser rejects is a ParameterError.
    """
    path = Path(path)
    if not path.is_file():
        raise ParameterError(f"file not found: {path}")
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        missing = [name for name in columns if name not in (reader.fieldnames or ())]
        if missing:
            raise ParameterError(f"{path} has no column {', '.join(missing)}")
        try:
            return [{name: parse(row[name]) for name, parse in columns.items()} for row in reader]
        except (TypeError, ValueError) as exc:
            raise ParameterError(f"{path} has a malformed cell: {exc}") from exc


def _optional_float(cell: str) -> float | None:
    return float(cell) if cell else None


def read_metrics_csv(path: str | Path) -> list[MetricsRecord]:
    columns = {"step": int, "split": str, **dict.fromkeys(CSV_COLUMNS[2:], _optional_float)}
    return [MetricsRecord(**row) for row in read_csv(path, columns)]


def write_histogram_csv(hist: Histogram, path: str | Path) -> None:
    write_csv(
        path,
        ["bin_lo", "bin_hi", "count"],
        (
            [repr(float(lo)), repr(float(hi)), int(count)]
            for lo, hi, count in zip(hist.bin_lo, hist.bin_hi, hist.counts)
        ),
    )
