"""Evaluation metrics, CSV schemas, and histogram construction."""

import numpy as np
import pytest

from lccn_lab.classifier import Architecture, init_params
from lccn_lab.datagen import OOD_LABEL, LabeledDataset
from lccn_lab.errors import ParameterError
from lccn_lab.metrics import (
    CSV_COLUMNS,
    MetricsRecord,
    correction_ratio,
    read_metrics_csv,
    transition_frobenius_error,
    transition_l1_error,
    variation_histogram,
    write_histogram_csv,
    write_metrics_csv,
)
from lccn_lab.metrics import test_accuracy as accuracy_of


def known_linear_params(weights, biases):
    """Linear model with hand-set tensors so argmax outcomes are knowable."""
    weights = np.asarray(weights, dtype=np.float64)
    arch = Architecture(
        kind="linear", input_dim=weights.shape[0], n_classes=weights.shape[1], hidden_width=0
    )
    params = init_params(arch, 0)
    params.tensors["w"][:] = weights
    params.tensors["b"][:] = np.asarray(biases, dtype=np.float64)
    return params


def dataset_of(features, true_labels, n_classes):
    features = np.asarray(features, dtype=np.float64)
    true_labels = np.asarray(true_labels, dtype=np.int64)
    return LabeledDataset(
        features=features,
        true_labels=true_labels,
        noisy_labels=np.maximum(true_labels, 0),
        clean_mask=np.zeros(len(true_labels), dtype=bool),
        ood_mask=true_labels == OOD_LABEL,
        n_classes=n_classes,
    )


def test_accuracy_hand_example():
    # w = identity on 2 features: argmax follows the larger coordinate
    params = known_linear_params([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0])
    ds = dataset_of([[2.0, 0.0], [0.0, 2.0], [2.0, 0.0], [0.0, 2.0]], [0, 1, 1, 1], 2)
    assert accuracy_of(params, ds) == pytest.approx(0.75)


def test_accuracy_excludes_ood():
    params = known_linear_params([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0])
    ds = dataset_of([[2.0, 0.0], [0.0, 2.0], [2.0, 0.0]], [0, OOD_LABEL, 1], 2)
    assert accuracy_of(params, ds) == pytest.approx(0.5)


def test_accuracy_restricted_argmax():
    # third output is an outlier bucket with a dominant bias; restricting the
    # argmax to the first two classes must ignore it entirely
    params = known_linear_params([[1.0, -1.0, 0.0]], [0.0, 0.0, 10.0])
    ds = dataset_of([[1.0], [-1.0]], [0, 1], 2)
    assert accuracy_of(params, ds, n_classes=2) == pytest.approx(1.0)
    assert accuracy_of(params, ds) == pytest.approx(0.0)


def test_accuracy_all_ood_raises():
    params = known_linear_params([[1.0, 0.0]], [0.0, 0.0])
    ds = dataset_of([[1.0]], [OOD_LABEL], 2)
    with pytest.raises(ParameterError):
        accuracy_of(params, ds)


def test_correction_ratio_hand_example():
    latent = np.array([0, 1, 1, 2])
    true = np.array([0, 1, 2, OOD_LABEL])
    # OOD entry is excluded: 2 of 3 in-distribution labels match
    assert correction_ratio(latent, true) == pytest.approx(2 / 3)


def test_correction_ratio_accepts_label_list():
    assert correction_ratio([0, 1, 1], [0, 1, 0]) == pytest.approx(2 / 3)


def test_correction_ratio_refuses_float_labels():
    # 0.9 and 1.5 would be truncated to 0 and 1 and read a perfect match.
    with pytest.raises(ParameterError, match="assignment labels must be a 1-d array of integers"):
        correction_ratio([0.9, 1.5], [0, 1])
    with pytest.raises(ParameterError, match="true labels must be a 1-d array of integers"):
        correction_ratio([0, 1], np.array([0.9, OOD_LABEL]))


def test_correction_ratio_empty_raises():
    with pytest.raises(ParameterError):
        correction_ratio(np.array([]), np.array([]))


def test_transition_errors_hand_examples():
    a = np.array([[0.8, 0.2], [0.1, 0.9]])
    b = np.array([[0.7, 0.3], [0.1, 0.9]])
    assert transition_l1_error(a, b) == pytest.approx(0.2)
    assert transition_frobenius_error(a, b) == pytest.approx(np.sqrt(0.02))


def test_variation_histogram_counts():
    hist = variation_histogram([0.0, 0.5, 1.0, 0.4], bins=2)
    assert hist.counts.tolist() == [2, 2]
    assert hist.bin_lo[0] == pytest.approx(0.0)
    assert hist.bin_hi[-1] == pytest.approx(1.0)


def test_variation_histogram_degenerate_range():
    hist = variation_histogram([0.3, 0.3, 0.3], bins=10)
    assert hist.counts.sum() == 3
    assert len(hist.counts) == 1


def test_variation_histogram_empty_raises():
    with pytest.raises(ParameterError):
        variation_histogram([], bins=5)


def test_metrics_csv_roundtrip(tmp_path):
    records = [
        MetricsRecord(step=0, split="train", accuracy=0.5, loss=1.25),
        MetricsRecord(
            step=10, split="test", accuracy=0.875, loss=0.3,
            correction_ratio=0.9, phi_l1_error=0.01,
            max_phi_row_variation=0.002, bound_value=0.004,
        ),
    ]
    path = tmp_path / "metrics.csv"
    write_metrics_csv(records, path)
    header = path.read_text().splitlines()[0]
    assert header == ",".join(CSV_COLUMNS)
    loaded = read_metrics_csv(path)
    assert loaded[0].correction_ratio is None
    assert loaded[1].accuracy == records[1].accuracy
    assert loaded[1].bound_value == records[1].bound_value


def test_metrics_csv_is_byte_stable(tmp_path):
    records = [MetricsRecord(step=1, split="train", accuracy=1 / 3, loss=2 / 3)]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_metrics_csv(records, a)
    write_metrics_csv(records, b)
    assert a.read_bytes() == b.read_bytes()
    # repr round-trips the exact float
    assert read_metrics_csv(a)[0].accuracy == 1 / 3


def test_histogram_csv_schema(tmp_path):
    hist = variation_histogram([0.1, 0.2, 0.3], bins=3)
    path = tmp_path / "hist.csv"
    write_histogram_csv(hist, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "bin_lo,bin_hi,count"
    assert len(lines) == 4
