"""Synthetic mixtures, noise injection, and dataset serialization."""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lccn_lab as L
from lccn_lab.datagen import _class_means, default_pair_map
from lccn_lab.errors import ParameterError


# ------------------------------------------------------------ class means


def test_means_equilateral_in_2d():
    means = _class_means(3, 2, separation=4.0)
    for i in range(3):
        for j in range(i + 1, 3):
            assert np.linalg.norm(means[i] - means[j]) == pytest.approx(4.0)


def test_means_simplex_when_dim_allows():
    means = _class_means(5, 5, separation=2.0)
    dists = [
        np.linalg.norm(means[i] - means[j])
        for i in range(5)
        for j in range(i + 1, 5)
    ]
    np.testing.assert_allclose(dists, 2.0, rtol=1e-12)


def test_means_circle_adjacent_distance():
    means = _class_means(6, 2, separation=3.0)
    for i in range(6):
        j = (i + 1) % 6
        assert np.linalg.norm(means[i] - means[j]) == pytest.approx(3.0)


def test_means_line_when_one_dimensional():
    means = _class_means(4, 1, separation=2.5)
    diffs = np.diff(means[:, 0])
    np.testing.assert_allclose(diffs, 2.5, rtol=1e-12)


# ------------------------------------------------------------ generation


def test_make_gaussian_mixture_shapes_and_masks():
    ds = L.make_gaussian_mixture(n_classes=3, dim=2, n_per_class=10, separation=4.0, seed=0)
    assert ds.n == 30 and ds.dim == 2 and ds.n_classes == 3
    assert np.bincount(ds.true_labels).tolist() == [10, 10, 10]
    np.testing.assert_array_equal(ds.noisy_labels, ds.true_labels)
    assert not ds.clean_mask.any() and not ds.ood_mask.any()


def test_make_gaussian_mixture_deterministic():
    a = L.make_gaussian_mixture(n_classes=2, dim=3, n_per_class=5, separation=2.0, seed=9)
    b = L.make_gaussian_mixture(n_classes=2, dim=3, n_per_class=5, separation=2.0, seed=9)
    np.testing.assert_array_equal(a.features, b.features)


def test_make_gaussian_mixture_validation():
    with pytest.raises(ParameterError):
        L.make_gaussian_mixture(n_classes=1, dim=2, n_per_class=5, separation=1.0, seed=0)
    with pytest.raises(ParameterError):
        L.make_gaussian_mixture(n_classes=2, dim=2, n_per_class=5, separation=-1.0, seed=0)
    with pytest.raises(ParameterError, match="separation"):  # no float holds it
        L.make_gaussian_mixture(n_classes=2, dim=2, n_per_class=5, separation=10**400, seed=0)


@pytest.mark.parametrize(
    "bad",
    [{"n_per_class": True}, {"n_classes": 2.0}, {"dim": "2"}, {"separation": "4"},
     {"seed": 1.5}],
)
def test_make_gaussian_mixture_checks_its_argument_types(bad):
    # A bool is no count: n_per_class=True used to build a 2-sample set.
    args = {"n_classes": 2, "dim": 2, "n_per_class": 5, "separation": 4.0, "seed": 0, **bad}
    with pytest.raises(ParameterError, match=next(iter(bad))):
        L.make_gaussian_mixture(**args)


def test_every_seeded_recipe_step_rejects_a_negative_seed():
    # Each names the seed before default_rng raises a ValueError that does not.
    ds = L.make_gaussian_mixture(n_classes=2, dim=2, n_per_class=5, separation=4.0, seed=0)
    steps = [
        lambda: L.make_gaussian_mixture(n_classes=2, dim=2, n_per_class=5, separation=4.0, seed=-1),
        lambda: L.NoiseSpec(kind="symmetric", ratio=0.3, seed=-1),
        lambda: L.mark_clean_subset(ds, 2, seed=-1),
    ]
    for step in steps:
        with pytest.raises(ParameterError, match=r"^seed must be nonnegative, got -1$"):
            step()


# ------------------------------------------------------------- injection


def test_symmetric_injection_report_is_exact():
    ds = L.make_gaussian_mixture(n_classes=4, dim=2, n_per_class=200, separation=4.0, seed=1)
    out, report = L.apply_noise(ds, L.NoiseSpec(kind="symmetric", ratio=0.4, seed=2))
    realized = (out.noisy_labels != out.true_labels).mean()
    assert report.realized_flip_fraction == pytest.approx(realized)
    # uniform resampling keeps 1/K of the hits, so the realized fraction sits
    # near ratio * (K-1)/K = 0.3
    assert realized == pytest.approx(0.3, abs=0.05)
    np.testing.assert_array_equal(out.true_labels, ds.true_labels)
    assert report.realized_confusion.sum() == ds.n


def test_asymmetric_injection_flips_only_to_pair():
    ds = L.make_gaussian_mixture(n_classes=3, dim=2, n_per_class=100, separation=4.0, seed=4)
    out, report = L.apply_noise(ds, L.NoiseSpec(kind="asymmetric", ratio=0.4, seed=5))
    flipped = out.noisy_labels != out.true_labels
    pair = np.array(default_pair_map(3))
    np.testing.assert_array_equal(out.noisy_labels[flipped], pair[out.true_labels[flipped]])
    assert flipped.mean() == pytest.approx(0.4, abs=0.06)


def test_default_pair_map_cycles():
    assert default_pair_map(4) == (1, 2, 3, 0)


def test_custom_pair_map_is_respected():
    ds = L.make_gaussian_mixture(n_classes=3, dim=2, n_per_class=60, separation=4.0, seed=6)
    spec = L.NoiseSpec(kind="asymmetric", ratio=0.5, pair_map=(2, 0, 1), seed=7)
    out, _ = L.apply_noise(ds, spec)
    flipped = out.noisy_labels != out.true_labels
    expected = np.array([2, 0, 1])[out.true_labels[flipped]]
    np.testing.assert_array_equal(out.noisy_labels[flipped], expected)


def test_openset_injection_exact_count_and_sentinel():
    ds = L.make_gaussian_mixture(n_classes=3, dim=4, n_per_class=50, separation=4.0, seed=8)
    out, _ = L.apply_noise(ds, L.NoiseSpec(ood_fraction=0.2, seed=8))
    assert out.ood_mask.sum() == round(0.2 * 150)
    assert (out.true_labels[out.ood_mask] == L.OOD_LABEL).all()
    assert (out.true_labels[~out.ood_mask] >= 0).all()
    # observed labels stay within the known classes
    assert out.noisy_labels.min() >= 0 and out.noisy_labels.max() < 3
    # features are shuffled per sample: same multiset of values, new order
    idx = np.where(out.ood_mask)[0]
    for i in idx[:5]:
        np.testing.assert_allclose(np.sort(out.features[i]), np.sort(ds.features[i]))
    assert any(not np.allclose(out.features[i], ds.features[i]) for i in idx)


def test_mark_clean_subset_pins_truth():
    ds = L.make_gaussian_mixture(n_classes=3, dim=2, n_per_class=40, separation=4.0, seed=10)
    noisy, _ = L.apply_noise(ds, L.NoiseSpec(kind="symmetric", ratio=0.5, seed=11))
    out = L.mark_clean_subset(noisy, 30, seed=12)
    assert out.clean_mask.sum() == 30
    np.testing.assert_array_equal(
        out.noisy_labels[out.clean_mask], out.true_labels[out.clean_mask]
    )
    untouched = ~out.clean_mask
    np.testing.assert_array_equal(out.noisy_labels[untouched], noisy.noisy_labels[untouched])


def test_mark_clean_subset_rejects_oversized_request():
    ds = L.make_gaussian_mixture(n_classes=2, dim=2, n_per_class=5, separation=4.0, seed=0)
    with pytest.raises(ParameterError):
        L.mark_clean_subset(ds, 11, seed=0)


@pytest.mark.parametrize("n_clean, seed", [(2.5, 0), (True, 0), (2, "0")])
def test_mark_clean_subset_checks_its_argument_types(n_clean, seed):
    ds = L.make_gaussian_mixture(n_classes=2, dim=2, n_per_class=5, separation=4.0, seed=0)
    with pytest.raises(ParameterError):
        L.mark_clean_subset(ds, n_clean, seed)


def test_injectors_skip_ood_samples():
    ds = L.make_gaussian_mixture(n_classes=3, dim=3, n_per_class=60, separation=4.0, seed=13)
    with_ood, _ = L.apply_noise(ds, L.NoiseSpec(ood_fraction=0.25, seed=13))
    before = with_ood.noisy_labels[with_ood.ood_mask].copy()
    after, _ = L.apply_noise(with_ood, L.NoiseSpec(kind="symmetric", ratio=1.0, seed=15))
    np.testing.assert_array_equal(after.noisy_labels[after.ood_mask], before)


def test_no_noise_returns_an_equal_copy():
    ds = L.make_gaussian_mixture(n_classes=2, dim=2, n_per_class=5, separation=4.0, seed=0)
    out, report = L.apply_noise(ds, L.NoiseSpec())
    assert out is not ds and not np.shares_memory(out.noisy_labels, ds.noisy_labels)
    np.testing.assert_array_equal(out.features, ds.features)
    np.testing.assert_array_equal(out.noisy_labels, ds.noisy_labels)
    assert report.realized_flip_fraction == 0.0


# ------------------------------------------------------------- NoiseSpec


def test_noise_spec_validation_names_field():
    with pytest.raises(ParameterError, match="ratio"):
        L.NoiseSpec(kind="symmetric", ratio=1.5)
    with pytest.raises(ParameterError, match="kind"):
        L.NoiseSpec(kind="salt_pepper", ratio=0.1)
    with pytest.raises(ParameterError, match="ood_fraction"):
        L.NoiseSpec(kind="symmetric", ratio=0.1, ood_fraction=-0.2)


@pytest.mark.parametrize(
    "bad", [{"ratio": "0.3"}, {"ratio": True}, {"seed": 1.5}, {"kind": 3}, {"ood_fraction": None}]
)
def test_noise_spec_checks_its_field_types(bad):
    with pytest.raises(ParameterError, match=next(iter(bad))):
        L.NoiseSpec(**{"kind": "symmetric", **bad})


@pytest.mark.parametrize("entry", [1.5, True, "1"])
def test_noise_spec_checks_each_pair_map_entry(entry):
    # pair_map=(True, False) used to pass, and true_transition gave a row summing to 1.5.
    with pytest.raises(ParameterError, match="pair_map entry"):
        L.NoiseSpec(kind="asymmetric", ratio=0.5, pair_map=(entry, 0))


def test_noise_spec_stores_pair_map_as_a_tuple():
    assert L.NoiseSpec(kind="asymmetric", ratio=0.5, pair_map=[1, 0]).pair_map == (1, 0)
    with pytest.raises(ParameterError, match="pair_map"):
        L.NoiseSpec(kind="asymmetric", ratio=0.5, pair_map=3)


@pytest.mark.parametrize(
    "spec",
    [{"kind": "symmetric", "ratio": 0.3, "pair_map": (1, 0)},
     {"kind": "symmetric", "ratio": 0.3, "ood_fraction": 0.2, "pair_map": (1, 0)},
     {"kind": "none", "pair_map": (1, 0)},
     {"kind": "none", "ratio": 0.3}],
)
def test_noise_spec_rejects_fields_its_kind_ignores(spec):
    with pytest.raises(ParameterError, match="pair_map" if "pair_map" in spec else "ratio"):
        L.NoiseSpec(**spec)


@pytest.mark.parametrize("pair_map", [(1, 0), (1, 2, 0, 1), (1, 2, 3), (1, 2, -1)])
def test_pair_map_must_fit_the_class_count(pair_map):
    ds = L.make_gaussian_mixture(n_classes=3, dim=2, n_per_class=5, separation=4.0, seed=0)
    spec = L.NoiseSpec(kind="asymmetric", ratio=0.5, pair_map=pair_map)
    with pytest.raises(ParameterError, match="pair_map"):
        L.apply_noise(ds, spec)
    with pytest.raises(ParameterError, match="pair_map"):  # (1, 0) used to leave a zero row
        spec.true_transition(3)


def test_true_transition_symmetric():
    spec = L.NoiseSpec(kind="symmetric", ratio=0.3)
    phi = spec.true_transition(3)
    np.testing.assert_allclose(np.diag(phi), [0.8, 0.8, 0.8], atol=1e-15)
    np.testing.assert_allclose(phi.sum(axis=1), 1.0, atol=1e-15)
    assert phi[0, 1] == pytest.approx(0.1)


def test_true_transition_asymmetric():
    spec = L.NoiseSpec(kind="asymmetric", ratio=0.4)
    phi = spec.true_transition(3)
    np.testing.assert_allclose(phi[0], [0.6, 0.4, 0.0], atol=1e-15)
    np.testing.assert_allclose(phi[2], [0.4, 0.0, 0.6], atol=1e-15)


def test_ratio_flips_labels_only_and_openset_is_no_kind():
    # Open-set noise has one spelling, ood_fraction; ratio never corrupts features.
    ds = L.make_gaussian_mixture(n_classes=3, dim=2, n_per_class=40, separation=4.0, seed=1)
    for kind in ("symmetric", "asymmetric"):
        out, _ = L.apply_noise(ds, L.NoiseSpec(kind=kind, ratio=0.25, seed=2))
        assert not out.ood_mask.any()
        np.testing.assert_array_equal(out.features, ds.features)
    with pytest.raises(ParameterError, match="unknown noise kind 'openset'"):
        L.NoiseSpec(kind="openset", ratio=0.25)


# ---------------------------------------------------------- serialization


def test_dataset_roundtrip_and_byte_stability(tmp_path):
    ds = L.make_gaussian_mixture(n_classes=2, dim=2, n_per_class=8, separation=3.0, seed=5)
    noisy, _ = L.apply_noise(ds, L.NoiseSpec(ood_fraction=0.25, seed=5))
    noisy = L.mark_clean_subset(noisy, 3, seed=5)
    p1, p2, p3 = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"
    L.save_dataset(noisy, p1)
    L.save_dataset(noisy, p2)
    assert p1.read_bytes() == p2.read_bytes()
    loaded = L.LabeledDataset.from_json_dict(json.loads(p1.read_text()))
    np.testing.assert_array_equal(loaded.features, noisy.features)
    np.testing.assert_array_equal(loaded.true_labels, noisy.true_labels)
    np.testing.assert_array_equal(loaded.noisy_labels, noisy.noisy_labels)
    np.testing.assert_array_equal(loaded.clean_mask, noisy.clean_mask)
    np.testing.assert_array_equal(loaded.ood_mask, noisy.ood_mask)
    assert loaded.n_classes == noisy.n_classes
    L.save_dataset(loaded, p3)
    assert p3.read_bytes() == p1.read_bytes()


def test_dataset_json_uses_sentinel_for_ood(tmp_path):
    ds = L.make_gaussian_mixture(n_classes=2, dim=2, n_per_class=10, separation=3.0, seed=7)
    noisy, _ = L.apply_noise(ds, L.NoiseSpec(ood_fraction=0.2, seed=7))
    path = tmp_path / "ds.json"
    L.save_dataset(noisy, path)
    payload = json.loads(path.read_text())
    assert payload["K"] == 2
    sentinel_rows = [t for t in payload["true_labels"] if t == -1]
    assert len(sentinel_rows) == int(noisy.ood_mask.sum())


@pytest.mark.parametrize("shape", [(0, 2), (3, 0), (0,)])
def test_empty_dataset_is_refused(shape):
    # Refused when built, so no trainer runs a step or takes a mean over no rows.
    n = shape[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match="at least one sample and one feature"):
            L.LabeledDataset(np.zeros(shape), np.zeros(n, int), np.zeros(n, int),
                             np.zeros(n, bool), np.zeros(n, bool), 2)


def test_load_dataset_missing_field_raises(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"features": [[0.0]], "K": 2}))
    with pytest.raises(ParameterError):
        L.LabeledDataset.from_json_dict(json.loads(path.read_text()))


@pytest.mark.parametrize(
    "field, value",
    [("features", [[0.0, 1.0], [2.0]]), ("noisy_labels", ["a", "b"]), ("K", None),
     # Entries are taken as given: nothing is truncated or parsed from a string.
     ("noisy_labels", [1.7, 0]), ("true_labels", [0.9, 1]), ("noisy_labels", ["1", 0]),
     ("noisy_labels", [True, 0]), ("noisy_labels", 0), ("clean_mask", [2, False]),
     ("ood_mask", ["no", False]), ("clean_mask", [1, 0]), ("K", 2.9), ("K", "2"), ("K", True),
     ("features", [[0, "1"], [2, 3]]), ("features", [[0.0, True], [2.0, 3.0]]),
     ("features", "0 1 2 3")],
)
def test_load_dataset_malformed_field_raises(field, value, tmp_path):
    payload = {
        "features": [[0.0, 1.0], [2.0, 3.0]], "true_labels": [0, 1], "noisy_labels": [0, 1],
        "clean_mask": [False, False], "ood_mask": [False, False], "K": 2, field: value,
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ParameterError, match="malformed"):
        L.LabeledDataset.from_json_dict(json.loads(path.read_text()))


@given(
    k=st.integers(min_value=2, max_value=5),
    ratio=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    seed=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=40, deadline=None)
def test_symmetric_injection_properties(k, ratio, seed):
    ds = L.make_gaussian_mixture(n_classes=k, dim=2, n_per_class=20, separation=3.0, seed=0)
    out, report = L.apply_noise(ds, L.NoiseSpec(kind="symmetric", ratio=ratio, seed=seed))
    assert out.noisy_labels.min() >= 0 and out.noisy_labels.max() < k
    np.testing.assert_array_equal(out.true_labels, ds.true_labels)
    assert 0.0 <= report.realized_flip_fraction <= 1.0
