"""Exercises the command-line surface in-process: artifacts, exit codes, determinism."""

import csv
import json
import os
import statistics
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import lccn_lab
from lccn_lab import cli
from lccn_lab.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, main
from lccn_lab.trainers import TRAINER_KINDS

BASE_CFG = {
    "generator": {"k": 2, "n_per_class": 12, "separation": 5.0, "seed": 1},
    "noise": {"kind": "symmetric", "ratio": 0.3, "seed": 2},
    "test": {"n_per_class": 10},
    "train": {
        "kind": "lccn",
        "epochs": 1,
        "pretrain_epochs": 1,
        "batch_size": 8,
        "learning_rate": 0.02,
        "eval_every": 1,
        "seed": 0,
    },
}


def write_cfg(path, cfg):
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def lccn_config(workdir):
    return write_cfg(workdir / "lccn.json", BASE_CFG)


@pytest.fixture(scope="module")
def lccn_run(workdir, lccn_config):
    out = workdir / "lccn_run"
    assert main(["train", "--config", lccn_config, "--out", str(out)]) == EXIT_OK
    return out


def test_generate_writes_dataset_and_is_reproducible(tmp_path, capsys):
    args = [
        "generate", "--k", "2", "--n-per-class", "10", "--noise", "symmetric",
        "--ratio", "0.3", "--seed", "3",
    ]
    assert main(args + ["--out", str(tmp_path / "a")]) == EXIT_OK
    assert main(args + ["--out", str(tmp_path / "b")]) == EXIT_OK
    for name in ("dataset.json", "noise_report.json", "generate_config.json"):
        assert (tmp_path / "a" / name).exists()
    assert (tmp_path / "a" / "dataset.json").read_bytes() == (
        tmp_path / "b" / "dataset.json"
    ).read_bytes()
    assert "realized flip fraction" in capsys.readouterr().out


def test_generate_rejects_out_of_range_ratio(tmp_path, capsys):
    code = main(
        ["generate", "--k", "2", "--n-per-class", "10", "--noise", "symmetric",
         "--ratio", "1.5", "--out", str(tmp_path)]
    )
    assert code == EXIT_USAGE
    assert "ratio" in capsys.readouterr().err


def test_generate_rejects_a_negative_seed(tmp_path, capsys):
    out = tmp_path / "o"
    code = main(["generate", "--k", "2", "--n-per-class", "10", "--seed", "-1", "--out", str(out)])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == "error: seed must be nonnegative, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "flags",
    [["--noise", "symmetric", "--ratio", "0.3", "--pair-map", "1", "0"],
     ["--noise", "none", "--ratio", "0.3"]],
    ids=["pair_map_for_symmetric", "ratio_for_none"],
)
def test_generate_rejects_noise_fields_its_kind_ignores(flags, tmp_path, capsys):
    code = main(["generate", "--k", "2", "--n-per-class", "10", *flags, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "dataset.json").exists()


@pytest.mark.parametrize("separation", ["nan", "inf"])
def test_generate_rejects_non_finite_separation(separation, tmp_path, capsys):
    code = main(
        ["generate", "--k", "2", "--n-per-class", "10", "--separation", separation,
         "--out", str(tmp_path)]
    )
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "dataset.json").exists()


def test_train_writes_all_artifacts(lccn_run):
    for name in (
        "config.json", "metrics.csv", "checkpoint.json", "phi_final.json",
        "variations.csv", "noise_report.json", "summary.json",
    ):
        assert (lccn_run / name).exists(), name
    summary = json.loads((lccn_run / "summary.json").read_text())
    assert summary["median_test_accuracy"] is not None


def test_train_rerun_is_byte_identical(tmp_path, workdir, lccn_config, lccn_run):
    out = tmp_path / "again"
    assert main(["train", "--config", lccn_config, "--out", str(out)]) == EXIT_OK
    assert (out / "metrics.csv").read_bytes() == (lccn_run / "metrics.csv").read_bytes()
    assert (out / "phi_final.json").read_bytes() == (lccn_run / "phi_final.json").read_bytes()


def test_train_multi_seed_layout(tmp_path, lccn_config):
    out = tmp_path / "multi"
    assert main(
        ["train", "--config", lccn_config, "--out", str(out), "--seeds", "0", "1"]
    ) == EXIT_OK
    assert (out / "seed_0" / "metrics.csv").exists()
    assert (out / "seed_1" / "metrics.csv").exists()
    aggregate = json.loads((out / "summary.json").read_text())
    assert aggregate["seeds"] == [0, 1]
    assert len(aggregate["runs"]) == 2
    assert aggregate["median_test_accuracy"] is not None


def test_parallel_seeds_match_serial(tmp_path, lccn_config, monkeypatch):
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    monkeypatch.setenv("LCCN_LAB_THREADS", "1")
    assert main(
        ["train", "--config", lccn_config, "--out", str(serial), "--seeds", "0", "1"]
    ) == EXIT_OK
    monkeypatch.setenv("LCCN_LAB_THREADS", "2")
    assert main(
        ["train", "--config", lccn_config, "--out", str(parallel), "--seeds", "0", "1"]
    ) == EXIT_OK
    for seed in (0, 1):
        assert (serial / f"seed_{seed}" / "metrics.csv").read_bytes() == (
            parallel / f"seed_{seed}" / "metrics.csv"
        ).read_bytes()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_failing_seed_is_named(threads, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("LCCN_LAB_THREADS", threads)
    cfg = {**BASE_CFG, "train": {**BASE_CFG["train"], "oracle_phi": [[1.0]]}}
    code = main(
        ["train", "--config", write_cfg(tmp_path / "c.json", cfg), "--out", str(tmp_path / "o"),
         "--seeds", "5", "3"]
    )
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == "error: seed 5: oracle_phi must be (2, 2)\n"


def test_bad_thread_cap_is_usage_error(tmp_path, lccn_config, monkeypatch, capsys):
    monkeypatch.setenv("LCCN_LAB_THREADS", "zippy")
    code = main(
        ["train", "--config", lccn_config, "--out", str(tmp_path / "o"), "--seeds", "0", "1"]
    )
    assert code == EXIT_USAGE
    assert "LCCN_LAB_THREADS" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_duplicate_seeds_rejected(tmp_path, lccn_config, capsys):
    code = main(
        ["train", "--config", lccn_config, "--out", str(tmp_path), "--seeds", "0", "0"]
    )
    assert code == EXIT_USAGE
    assert "distinct" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    code = main(["train", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert code == EXIT_USAGE
    assert "not found" in capsys.readouterr().err


def test_unknown_train_key_is_usage_error(tmp_path, capsys):
    cfg = json.loads(json.dumps(BASE_CFG))
    cfg["train"]["turbo"] = True
    code = main(
        ["train", "--config", write_cfg(tmp_path / "c.json", cfg), "--out", str(tmp_path / "o")]
    )
    assert code == EXIT_USAGE
    assert "train section" in capsys.readouterr().err


# Retired TrainConfig fields. The per-batch bound certifies only the smoothed
# estimator, so the unsmoothed switch went; total_iterations, em_m_epochs and
# grad_clip went with the batch budget, multi-sweep epochs and the clip of the
# transition layer's gradient, which no caller set; warmup_kind's identity
# channel is oracle_phi = I.
@pytest.mark.parametrize(
    "knob, value",
    [("smoothed", 1), ("total_iterations", 1), ("em_m_epochs", 1), ("grad_clip", 1),
     ("warmup_kind", "identity")],
    ids=["smoothed", "total_iterations", "em_m_epochs", "grad_clip", "warmup_kind"],
)
def test_removed_knob_is_usage_error(knob, value, tmp_path, capsys):
    # An old config naming one must fail at parse time, in train and in sweep alike.
    cfg = json.loads(json.dumps(BASE_CFG))
    cfg["train"][knob] = value
    path = write_cfg(tmp_path / "c.json", cfg)
    assert main(["train", "--config", path, "--out", str(tmp_path / "o")]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert knob in err and err.count("\n") == 1
    code = main(
        ["sweep", "--config", write_cfg(tmp_path / "s.json", BASE_CFG), "--param", knob,
         "--values", json.dumps(value), "--out", str(tmp_path / "sweep")]
    )
    assert code == EXIT_USAGE
    assert knob in capsys.readouterr().err
    assert not list(tmp_path.rglob("metrics.csv"))


RAGGED_DATASET = {
    "features": [[0.0, 1.0], [2.0]], "true_labels": [0, 1], "noisy_labels": [0, 1],
    "clean_mask": [False, False], "ood_mask": [False, False], "K": 2,
}
NAN_FEATURE_DATASET = {**RAGGED_DATASET, "features": [[0.0, 1.0], [2.0, float("nan")]]}
GOOD_DATASET = {**RAGGED_DATASET, "features": [[0.0, 1.0], [2.0, 3.0]]}
EMPTY_DATASET = {name: [] for name in GOOD_DATASET} | {"K": 2}


def _dataset_file(**fields):
    return {"data.json": json.dumps({**GOOD_DATASET, **fields})}

# name -> (files written beside the config, config sections to override)
BAD_INPUTS = {
    "dataset_not_json": ({"data.json": "{not json"}, {"dataset": "data.json"}),
    "dataset_ragged_features": ({"data.json": json.dumps(RAGGED_DATASET)},
                                {"dataset": "data.json"}),
    "phi_file_without_matrix": ({"phi.json": json.dumps({"rows": 2})},
                                {"train": {"oracle_phi": "phi.json"}}),
    "ragged_inline_oracle_phi": ({}, {"train": {"oracle_phi": [[1.0], [0.5, 0.5]]}}),
    "nan_oracle_phi": ({}, {"train": {"kind": "forward_fixed",
                                       "oracle_phi": [[float("nan"), 0.0], [0.0, 1.0]]}}),
    "nan_reference_phi": ({}, {"train": {"kind": "forward_fixed",
                                          "reference_phi": [[float("nan"), 0.0], [0.0, 1.0]]}}),
    "nan_learning_rate": ({}, {"train": {"learning_rate": float("nan")}}),
    "negative_learning_rate": ({}, {"train": {"learning_rate": -0.1}}),
    "infinite_learning_rate": ({}, {"train": {"learning_rate": float("inf")}}),
    "nan_lr_milestone_rate": ({}, {"train": {"lr_milestones": [[1, float("nan")]]}}),
    "zero_lr_milestone_rate": ({}, {"train": {"lr_milestones": [[1, 0.0]]}}),
    "nan_transition_lr": ({}, {"train": {"kind": "s_adaptation", "transition_lr": float("nan")}}),
    "nan_momentum": ({}, {"train": {"momentum": float("nan")}}),
    "negative_momentum": ({}, {"train": {"momentum": -0.5}}),
    "momentum_of_one": ({}, {"train": {"momentum": 1.0}}),
    "nan_weight_decay": ({}, {"train": {"kind": "ce", "weight_decay": float("nan")}}),
    "negative_weight_decay": ({}, {"train": {"weight_decay": -0.1}}),
    "dataset_nan_feature": ({"data.json": json.dumps(NAN_FEATURE_DATASET)},
                            {"dataset": "data.json"}),
    # Dataset entries are taken as given: no label is truncated, no mask or K
    # parsed from a string.
    "dataset_label_fractional": (_dataset_file(noisy_labels=[1.7, 0]), {"dataset": "data.json"}),
    "dataset_label_below_one": (_dataset_file(true_labels=[0.9, 1]), {"dataset": "data.json"}),
    "dataset_label_a_string": (_dataset_file(noisy_labels=["1", 0]), {"dataset": "data.json"}),
    "dataset_mask_of_two": (_dataset_file(clean_mask=[2, False]), {"dataset": "data.json"}),
    "dataset_mask_a_string": (_dataset_file(ood_mask=["no", False]), {"dataset": "data.json"}),
    "dataset_k_fractional": (_dataset_file(K=2.9), {"dataset": "data.json"}),
    "dataset_k_a_string": (_dataset_file(K="2"), {"dataset": "data.json"}),
    # anneal is one bool: no object form (older configs sent one), no string
    # ("false" is truthy) and no 1.
    "anneal_object_form": ({}, {"train": {"anneal": {"enabled": True}}}),
    "anneal_product_target": ({}, {"train": {"anneal": {"enabled": True, "target": "product"}}}),
    "anneal_a_string": ({}, {"train": {"anneal": "false"}}),
    "anneal_an_int": ({}, {"train": {"anneal": 1}}),
    "lr_milestone_not_a_number": ({}, {"train": {"lr_milestones": [["x", 0.1]]}}),
    # Numbers are taken as given, never truncated or parsed from strings.
    "lr_milestone_fractional_epoch": ({}, {"train": {"lr_milestones": [[1.5, 0.05]]}}),
    "lr_milestone_rate_a_string": ({}, {"train": {"lr_milestones": [[1, "0.05"]]}}),
    "lr_milestone_epoch_a_bool": ({}, {"train": {"lr_milestones": [[True, 0.05]]}}),
    "alpha_vector_of_strings": ({}, {"train": {"alpha": ["a", "b", "c"]}}),
    "alpha_vector_of_numeric_strings": ({}, {"train": {"alpha": ["1", "2"]}}),
    "alpha_vector_of_bools": ({}, {"train": {"alpha": [True, True]}}),
    "generator_k_not_a_number": ({}, {"generator": {"k": "x"}}),
    "generator_k_fractional": ({}, {"generator": {"k": 2.9}}),
    "generator_k_numeric_string": ({}, {"generator": {"k": "3"}}),
    "generator_n_per_class_fractional": ({}, {"generator": {"n_per_class": 10.7}}),
    "generator_separation_a_string": ({}, {"generator": {"separation": "4"}}),
    "generator_separation_beyond_float": ({}, {"generator": {"separation": 10**400}}),
    "generator_seed_a_bool": ({}, {"generator": {"seed": True}}),
    # A negative data seed is named before numpy's generator rejects it.
    "generator_seed_negative": ({}, {"generator": {"seed": -1}}),
    "noise_seed_negative": ({}, {"noise": {"seed": -1}}),
    "clean_seed_negative": ({}, {"clean": {"n_clean": 2, "seed": -1}}),
    "test_n_per_class_fractional": ({}, {"test": {"n_per_class": 10.5}}),
    "zero_clip": ({}, {"train": {"clip": 0.0}}),
    "clip_of_one_half": ({}, {"train": {"clip": 0.5}}),
    "nan_clip": ({}, {"train": {"clip": float("nan")}}),
    "momentum_not_a_number": ({}, {"train": {"momentum": "x"}}),
    "batch_size_not_an_integer": ({}, {"train": {"batch_size": 8.5}}),
    "negative_hidden_width": ({}, {"train": {"hidden_width": -3}}),
    "seeds_not_integers": ({}, {"seeds": ["x"]}),
    "seeds_not_a_list": ({}, {"seeds": 3}),
    "train_seed_not_an_integer": ({}, {"train": {"seed": "x"}}),
    "train_section_not_an_object": ({}, {"train": []}),
    # Symmetric noise never reads a pair map.
    "noise_pair_map_for_symmetric_noise": ({}, {"noise": {"pair_map": [1, 0]}}),
    # Open-set noise is spelled ood_fraction, with any kind.
    "noise_kind_openset": ({}, {"noise": {"kind": "openset"}}),
}


@pytest.mark.parametrize("name", BAD_INPUTS)
def test_malformed_config_or_input_file_is_usage_error(name, tmp_path, capsys):
    files, override = BAD_INPUTS[name]
    for filename, text in files.items():
        (tmp_path / filename).write_text(text)
    cfg = json.loads(json.dumps(BASE_CFG))
    if "dataset" in override:  # a dataset config holds no generated-data section
        for section in ("generator", "noise", "test"):
            del cfg[section]
    for section, value in override.items():
        cfg[section] = {**cfg.get(section, {}), **value} if isinstance(value, dict) else value
    code = main(
        ["train", "--config", write_cfg(tmp_path / "c.json", cfg), "--out", str(tmp_path / "o")]
    )
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.startswith("error: ") and "Traceback" not in err
    if name.endswith("_seed_negative"):
        assert err == "error: seed must be nonnegative, got -1\n"


def test_clip_changes_the_run_through_main(tmp_path, lccn_run):
    cfg = {**BASE_CFG, "train": {**BASE_CFG["train"], "clip": 0.2}}
    out = tmp_path / "clipped"
    assert main(
        ["train", "--config", write_cfg(tmp_path / "c.json", cfg), "--out", str(out)]
    ) == EXIT_OK
    for name in ("metrics.csv", "checkpoint.json"):
        assert (out / name).read_bytes() != (lccn_run / name).read_bytes(), name


@pytest.mark.parametrize("seeds", [["x"], [1.5], "0"])
def test_sweep_seeds_not_integers_is_usage_error(seeds, tmp_path, capsys):
    cfg = {**BASE_CFG, "seeds": seeds}
    code = main(
        ["sweep", "--config", write_cfg(tmp_path / "c.json", cfg), "--param", "alpha",
         "--values", "1", "--out", str(tmp_path / "o")]
    )
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert "seeds" in err and "Traceback" not in err


NEGATIVE_SEEDS = {
    "train_flag": (BASE_CFG, ["train", "--seeds", "-1"]),
    "train_flag_after_a_good_seed": (BASE_CFG, ["train", "--seeds", "0", "-1"]),
    "train_config": ({**BASE_CFG, "seeds": [-1]}, ["train"]),
    "sweep_flag": (BASE_CFG, ["sweep", "--param", "alpha", "--values", "1", "--seeds", "-1"]),
    "sweep_config": ({**BASE_CFG, "seeds": [-1]}, ["sweep", "--param", "alpha", "--values", "1"]),
}


@pytest.mark.parametrize("name", NEGATIVE_SEEDS)
def test_negative_training_seed_is_usage_error(name, tmp_path, monkeypatch, capsys):
    # Every seed is checked before any trains, on one worker or several.
    cfg, args = NEGATIVE_SEEDS[name]
    config = write_cfg(tmp_path / "c.json", cfg)
    for threads in ("1", "2"):
        monkeypatch.setenv("LCCN_LAB_THREADS", threads)
        out = tmp_path / f"o{threads}"
        code = main([*args, "--config", config, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err.startswith("error: ") and "seed" in err and "Traceback" not in err
        assert not list(tmp_path.rglob("seed_*"))
        assert not out.exists()


def test_negative_mixing_seed_is_usage_error(tmp_path, capsys):
    code = main(["diagnose", "mixing", "--seed", "-1", "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.startswith("error: ") and "--seed" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_train_section_required(tmp_path, capsys):
    cfg = {"generator": {"k": 2, "n_per_class": 8, "seed": 1}}
    code = main(
        ["train", "--config", write_cfg(tmp_path / "c.json", cfg), "--out", str(tmp_path / "o")]
    )
    assert code == EXIT_USAGE
    assert "train" in capsys.readouterr().err


def test_train_from_saved_dataset_files(tmp_path):
    data = tmp_path / "data"
    testdata = tmp_path / "testdata"
    assert main(
        ["generate", "--k", "2", "--n-per-class", "10", "--noise", "symmetric",
         "--ratio", "0.3", "--seed", "3", "--out", str(data)]
    ) == EXIT_OK
    assert main(
        ["generate", "--k", "2", "--n-per-class", "8", "--seed", "99", "--out", str(testdata)]
    ) == EXIT_OK
    cfg = {
        "dataset": "data/dataset.json",
        "test_dataset": "testdata/dataset.json",
        "train": {"kind": "ce", "epochs": 2, "batch_size": 8, "learning_rate": 0.05, "seed": 0},
    }
    out = tmp_path / "run"
    assert main(
        ["train", "--config", write_cfg(tmp_path / "c.json", cfg), "--out", str(out)]
    ) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["median_test_accuracy"] is not None


def test_train_from_an_empty_dataset_file_exits_2_without_a_warning(tmp_path, capfd):
    (tmp_path / "data.json").write_text(json.dumps(EMPTY_DATASET))
    cfg = {"dataset": "data.json", "train": {"kind": "ce", "epochs": 1}}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["train", "--config", write_cfg(tmp_path / "c.json", cfg),
                     "--out", str(tmp_path / "o")])
    err = capfd.readouterr().err
    assert code == EXIT_USAGE
    assert "at least one sample" in err
    assert not caught and "Warning" not in err


@pytest.mark.parametrize(
    "accuracies",
    [[0.7], [0.9, 0.1, 0.5], [0.1, 0.7], [0.3, 0.9, 0.3, 0.6], [0.5, 0.5, 0.5, 0.5],
     [1 / 3, 0.0, 2 / 3, 0.1, 0.7, 1.0], [0.25, None, 0.125]],
    ids=["one", "odd", "even", "even-tied", "all-tied", "even-six", "none-skipped"],
)
def test_median_test_accuracy_is_statistics_median(accuracies):
    summaries = [{"final_test_accuracy": a} for a in accuracies]
    expected = statistics.median(a for a in accuracies if a is not None)
    got = cli._median_test_accuracy(summaries)
    assert type(got) is float and np.float64(got).tobytes() == np.float64(expected).tobytes()
    assert cli._median_test_accuracy([{"final_test_accuracy": None}]) is None
    assert cli._median_test_accuracy([]) is None


def test_invariant_violation_is_runtime_error(tmp_path, lccn_config, monkeypatch, capsys):
    # measured 1.0 against a bound of 0.0, in the certificate of every batch that moved a label
    def kernel(before, after, alpha, total):
        return 0, 1.0, 0.0

    monkeypatch.setattr("lccn_lab.noise_model._certificate_kernel", lambda width: kernel)
    code = main(["train", "--config", lccn_config, "--out", str(tmp_path / "o")])
    assert code == EXIT_RUNTIME
    assert "bound" in capsys.readouterr().err


def test_sweep_over_concentration(tmp_path, lccn_config):
    out = tmp_path / "sweep"
    assert main(
        ["sweep", "--config", lccn_config, "--param", "alpha", "--values", "1", "1000",
         "--seeds", "0", "--out", str(out)]
    ) == EXIT_OK
    with open(out / "sweep.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert [r["value"] for r in rows] == ["1", "1000"]
    assert all(0.0 <= float(r["median_accuracy"]) <= 1.0 for r in rows)
    assert (out / "alpha_1" / "metrics.csv").exists()
    assert (out / "alpha_1000" / "metrics.csv").exists()


@pytest.mark.parametrize("seeds", [[], None])
def test_sweep_and_train_take_the_same_default_seed(seeds, tmp_path):
    # Without --seeds and without a non-empty `seeds` list, both commands run train.seed.
    cfg = {**BASE_CFG, "train": {**BASE_CFG["train"], "seed": 3}}
    if seeds is not None:
        cfg["seeds"] = seeds
    path = write_cfg(tmp_path / "cfg.json", cfg)
    assert main(["train", "--config", path, "--out", str(tmp_path / "run")]) == EXIT_OK
    assert main(
        ["sweep", "--config", path, "--param", "alpha", "--values", "1",
         "--out", str(tmp_path / "sweep")]
    ) == EXIT_OK
    assert json.loads((tmp_path / "run" / "summary.json").read_text())["seeds"] == [3]
    assert json.loads((tmp_path / "sweep" / "sweep_config.json").read_text())["seeds"] == [3]
    point = tmp_path / "sweep" / "alpha_1"
    assert json.loads((point / "config.json").read_text())["train"]["seed"] == 3
    assert (point / "metrics.csv").read_bytes() == (tmp_path / "run" / "metrics.csv").read_bytes()


def test_sweep_ratio_targets_noise_section(tmp_path, lccn_config):
    out = tmp_path / "sweep"
    assert main(
        ["sweep", "--config", lccn_config, "--param", "noise.ratio", "--values", "0.1", "0.4",
         "--seeds", "0", "--out", str(out)]
    ) == EXIT_OK
    reports = [
        json.loads((out / f"ratio_{v}" / "noise_report.json").read_text())
        for v in ("0.1", "0.4")
    ]
    assert reports[0]["realized_flip_fraction"] < reports[1]["realized_flip_fraction"]


@pytest.mark.parametrize("param", ["seed", "train.seed"])
def test_sweep_over_the_training_seed_is_usage_error(param, tmp_path, lccn_config, capsys):
    # run_experiment sets each run's seed, so every point would train the same seed.
    code = main(
        ["sweep", "--config", lccn_config, "--param", param, "--values", "1", "2",
         "--out", str(tmp_path / "sweep")]
    )
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert "--seeds" in err and "Traceback" not in err
    assert not list(tmp_path.rglob("metrics.csv"))


def test_sweep_requires_values(tmp_path, lccn_config, capsys):
    code = main(
        ["sweep", "--config", lccn_config, "--param", "alpha", "--out", str(tmp_path)]
    )
    assert code == EXIT_USAGE
    assert "values" in capsys.readouterr().err


def test_sweep_accepts_dotted_param(tmp_path, lccn_config):
    out = tmp_path / "sweep"
    assert main(
        ["sweep", "--config", lccn_config, "--param", "noise.ratio", "--values", "0.1",
         "--seeds", "0", "--out", str(out)]
    ) == EXIT_OK
    report = json.loads((out / "ratio_0.1" / "noise_report.json").read_text())
    assert report["realized_flip_fraction"] < 0.4
    with open(out / "sweep.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert rows[0]["param"] == "noise.ratio"


def test_sweep_rejects_unknown_section(tmp_path, lccn_config, capsys):
    code = main(
        ["sweep", "--config", lccn_config, "--param", "turbo.alpha", "--values", "1",
         "--out", str(tmp_path / "sweep")]
    )
    assert code == EXIT_USAGE
    assert "section" in capsys.readouterr().err


@pytest.mark.parametrize("alpha", [float("nan"), float("inf"), [1.0, float("nan")]])
def test_non_finite_alpha_is_usage_error_before_training(alpha, tmp_path, capsys):
    # Python's json writes and reads these as NaN and Infinity.
    cfg = {**BASE_CFG, "train": {**BASE_CFG["train"], "alpha": alpha}}
    out = tmp_path / "o"
    code = main(["train", "--config", write_cfg(tmp_path / "c.json", cfg), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert "alpha" in err and "Traceback" not in err
    assert not (out / "metrics.csv").exists()


@pytest.mark.parametrize("value", ["NaN", "Infinity"])
def test_sweep_over_non_finite_alpha_is_usage_error(value, tmp_path, lccn_config, capsys):
    out = tmp_path / "sweep"
    code = main(
        ["sweep", "--config", lccn_config, "--param", "alpha", "--values", value,
         "--out", str(out)]
    )
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert "alpha" in err and "Traceback" not in err
    assert not (out / f"alpha_{float(value)}" / "metrics.csv").exists()


@pytest.mark.parametrize(
    "param, values",
    [("alpha", ["1", "NaN"]), ("noise.ratio", ["0.1", "1.5"]), ("alpha", ["1", "1"]),
     ("oracle_phi", ["[[1, 0], [0, 1]]", "[[NaN, 0], [0, 1]]"]), ("ratio", ["0.1", "0.4"])],
    ids=["non_finite_alpha", "ratio_out_of_range", "repeated_value", "non_finite_oracle",
         "bare_ratio_is_no_alias"],
)
def test_sweep_grid_is_checked_before_any_point_trains(param, values, tmp_path, lccn_config, capsys):
    code = main(
        ["sweep", "--config", lccn_config, "--param", param, "--values", *values,
         "--out", str(tmp_path / "sweep")]
    )
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.startswith("error: ") and "Traceback" not in err
    assert not list(tmp_path.rglob("metrics.csv"))


@pytest.mark.parametrize("kind", ["forward_fixed", "lccn"])
@pytest.mark.parametrize("field", ["oracle_phi", "reference_phi"])
def test_channel_of_the_wrong_shape_fails_before_pretraining(
    kind, field, tmp_path, monkeypatch, capsys
):
    def no_pretraining(*args, **kwargs):
        raise AssertionError("pretrained before the channel shape was checked")

    monkeypatch.setattr("lccn_lab.trainers.pretrain_ce", no_pretraining)
    cfg = {
        **BASE_CFG, "generator": {**BASE_CFG["generator"], "k": 3},
        "train": {**BASE_CFG["train"], "kind": kind, field: [[0.9, 0.1], [0.1, 0.9]]},
    }
    code = main(
        ["train", "--config", write_cfg(tmp_path / "c.json", cfg), "--out", str(tmp_path / "o")]
    )
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {field} must be (3, 3)\n"


def test_sweep_checks_each_point_channel_shape_before_any_point_trains(tmp_path, capsys):
    cfg = {**BASE_CFG, "train": {**BASE_CFG["train"], "oracle_phi": [[0.9, 0.1], [0.1, 0.9]]}}
    code = main(
        ["sweep", "--config", write_cfg(tmp_path / "c.json", cfg), "--param", "generator.k",
         "--values", "2", "3", "--out", str(tmp_path / "sweep")]
    )
    assert code == EXIT_USAGE
    assert "oracle_phi must be (3, 3)" in capsys.readouterr().err
    assert not (tmp_path / "sweep").exists()


@pytest.mark.parametrize(
    "args, builds",
    [(["train", "--seeds", "0", "1", "2"], (2, 1)),
     (["sweep", "--param", "learning_rate", "--values", "0.1", "0.2", "--seeds", "0", "1"],
      (2, 1)),
     (["sweep", "--param", "noise.ratio", "--values", "0.1", "0.4", "--seeds", "0", "1"],
      (4, 2))],
    ids=["train", "sweep_over_a_train_key", "sweep_over_a_noise_key"],
)
def test_each_data_recipe_is_built_once(args, builds, tmp_path, monkeypatch):
    # One recipe is a train mixture, its noise and a test mixture, whatever the seeds.
    calls = {"make_gaussian_mixture": 0, "apply_noise": 0}
    for name in calls:
        def counted(*a, _name=name, _real=getattr(cli, name), **k):
            calls[_name] += 1
            return _real(*a, **k)
        monkeypatch.setattr(cli, name, counted)
    monkeypatch.setenv("LCCN_LAB_THREADS", "1")
    cfg = {**BASE_CFG, "train": {**BASE_CFG["train"], "kind": "ce"}}
    code = main([*args, "--config", write_cfg(tmp_path / "c.json", cfg),
                 "--out", str(tmp_path / "o")])
    assert code == EXIT_OK
    assert (calls["make_gaussian_mixture"], calls["apply_noise"]) == builds


@pytest.mark.parametrize("param, section", [("alpha", "train"), ("noise.ratio", "noise")])
def test_sweep_over_a_section_that_is_no_object_is_usage_error(param, section, tmp_path, capsys):
    cfg = {**BASE_CFG, section: [1]}
    code = main(
        ["sweep", "--config", write_cfg(tmp_path / "c.json", cfg), "--param", param,
         "--values", "0.1", "--out", str(tmp_path / "sweep")]
    )
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == f"error: config section {section!r} must be a JSON object\n"
    assert not (tmp_path / "sweep").exists()


def test_sweep_without_a_test_split_trains_nothing(tmp_path, capsys):
    (tmp_path / "data.json").write_text(json.dumps(GOOD_DATASET))
    cfg = {"dataset": "data.json", "train": {"kind": "ce", "epochs": 1}}
    code = main(
        ["sweep", "--config", write_cfg(tmp_path / "c.json", cfg), "--param", "learning_rate",
         "--values", "0.1", "--out", str(tmp_path / "sweep")]
    )
    assert code == EXIT_USAGE
    assert "test split" in capsys.readouterr().err
    assert not (tmp_path / "sweep").exists()


@pytest.mark.parametrize(
    "section, argv",
    [("generator", ["sweep", "--param", "generator.k", "--values", "3", "5"]),
     ("clean", ["train"])],
    ids=["sweep_over_a_generator_key", "train_with_a_clean_section"],
)
def test_data_section_beside_a_dataset_is_usage_error(section, argv, tmp_path, capsys):
    # A dataset config reads no generated-data section: a sweep over one would
    # train identical points.
    (tmp_path / "data.json").write_text(json.dumps(GOOD_DATASET))
    cfg = {"dataset": "data.json", "test_dataset": "data.json",
           "train": {"kind": "ce", "epochs": 1, "batch_size": 2}}
    if section == "clean":
        cfg["clean"] = {"n_clean": 1}
    code = main([*argv, "--config", write_cfg(tmp_path / "c.json", cfg),
                 "--out", str(tmp_path / "o")])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == f"error: a 'dataset' config ignores section {section!r}\n"
    assert not (tmp_path / "o").exists()


def test_generate_has_no_openset_noise_kind(tmp_path, capsys):
    # Open-set noise is spelled --ood-fraction, with any --noise kind.
    code = main(["generate", "--k", "2", "--n-per-class", "10", "--noise", "openset",
                 "--ratio", "0.2", "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err.splitlines()
    assert code == EXIT_USAGE
    assert [line for line in err if "error:" in line] == [err[-1]]
    assert "'openset'" in err[-1]
    assert not (tmp_path / "o").exists()


def test_sweep_values_are_json_so_strings_are_quoted(tmp_path, lccn_config, capsys):
    out = tmp_path / "sweep"
    argv = ["sweep", "--config", lccn_config, "--param", "kind", "--out", str(out), "--values"]
    assert main([*argv, '"forward_fixed"']) == EXIT_OK
    assert (out / "kind_forward_fixed" / "summary.json").exists()
    capsys.readouterr()
    assert main([*argv, "lccn"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "parsed as JSON" in err and """'"lccn"'""" in err and "Traceback" not in err


@pytest.mark.parametrize("flag, value", [("--n", "0"), ("--n", "-1"), ("--k", "0"), ("--k", "-2")])
def test_diagnose_mixing_non_positive_size_is_usage_error(flag, value, tmp_path, capsys):
    out = tmp_path / "mix"
    code = main(
        ["diagnose", "mixing", "--n", "4", "--k", "2", flag, value, "--sweeps", "50",
         "--burn-in", "10", "--out", str(out)]
    )
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("alpha", ["nan", "inf"])
def test_diagnose_mixing_non_finite_alpha_is_usage_error(alpha, tmp_path, capsys):
    out = tmp_path / "mix"
    code = main(
        ["diagnose", "mixing", "--n", "4", "--k", "2", "--sweeps", "50", "--burn-in", "10",
         "--alpha", alpha, "--out", str(out)]
    )
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert "finite" in err and "Traceback" not in err
    assert not (out / "mixing.csv").exists()


def test_diagnose_mixing_traces_to_csv(tmp_path):
    out = tmp_path / "mix"
    assert main(
        ["diagnose", "mixing", "--n", "4", "--k", "2", "--sweeps", "500",
         "--burn-in", "100", "--out", str(out)]
    ) == EXIT_OK
    with open(out / "mixing.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert rows and set(rows[0]) == {"sweep", "max_tv", "mean_tv"}
    summary = json.loads((out / "mixing_config.json").read_text())
    assert 0.0 <= summary["final_max_tv"] <= 1.0


def test_diagnose_transition_against_oracle(tmp_path, lccn_run):
    oracle = tmp_path / "oracle.json"
    oracle.write_text(json.dumps({"matrix": [[0.7, 0.3], [0.3, 0.7]]}))
    out = tmp_path / "diag"
    assert main(
        ["diagnose", "transition", "--run", str(lccn_run), "--oracle", str(oracle),
         "--out", str(out)]
    ) == EXIT_OK
    with open(out / "transition_colormap.csv", newline="") as handle:
        assert len(list(csv.DictReader(handle))) == 4
    with open(out / "transition_errors.csv", newline="") as handle:
        assert len(list(csv.DictReader(handle))) == 2
    summary = json.loads((out / "transition_summary.json").read_text())
    assert summary["max_row_l1_error"] >= 0.0


@pytest.fixture(scope="module")
def lccn_star_run(workdir):
    cfg = {**BASE_CFG, "train": {**BASE_CFG["train"], "kind": "lccn_star"}}
    out = workdir / "lccn_star_run"
    assert main(["train", "--config", write_cfg(workdir / "star.json", cfg), "--out", str(out)]) == EXIT_OK
    return out


def test_diagnose_transition_compares_the_k_by_k_block_of_lccn_star(tmp_path, lccn_star_run):
    # phi has K + 1 = 3 rows (the outlier row last); the oracle is K x K.
    oracle = tmp_path / "oracle.json"
    oracle.write_text(json.dumps({"matrix": [[0.7, 0.3], [0.3, 0.7]]}))
    out = tmp_path / "diag"
    assert main(
        ["diagnose", "transition", "--run", str(lccn_star_run), "--oracle", str(oracle),
         "--out", str(out)]
    ) == EXIT_OK
    with open(out / "transition_colormap.csv", newline="") as handle:
        assert len(list(csv.DictReader(handle))) == 6
    with open(out / "transition_errors.csv", newline="") as handle:
        errors = [float(row["l1_error"]) for row in csv.DictReader(handle)]
    phi = np.array(json.loads((lccn_star_run / "phi_final.json").read_text())["matrix"])
    assert phi.shape == (3, 2)
    assert errors == np.abs(phi[:2] - [[0.7, 0.3], [0.3, 0.7]]).sum(axis=1).tolist()


@pytest.mark.parametrize(
    "matrix", [[[1.0]], [[0.7, 0.3, 0.0], [0.3, 0.7, 0.0], [0.0, 0.0, 1.0]], [[0.5, 0.5]]]
)
def test_diagnose_transition_rejects_other_oracle_shapes(matrix, tmp_path, lccn_star_run, capsys):
    oracle = tmp_path / "oracle.json"
    oracle.write_text(json.dumps({"matrix": matrix}))
    code = main(
        ["diagnose", "transition", "--run", str(lccn_star_run), "--oracle", str(oracle),
         "--out", str(tmp_path / "diag")]
    )
    assert code == EXIT_USAGE
    assert "oracle transition shape" in capsys.readouterr().err


def test_diagnose_transition_needs_phi_artifact(tmp_path, capsys):
    code = main(
        ["diagnose", "transition", "--run", str(tmp_path), "--out", str(tmp_path / "o")]
    )
    assert code == EXIT_USAGE


def test_diagnose_variation_compares_two_runs(tmp_path, workdir, lccn_run):
    cfg = json.loads(json.dumps(BASE_CFG))
    cfg["train"].update(kind="s_adaptation", warmup_steps=1)
    other = tmp_path / "sa_run"
    assert main(
        ["train", "--config", write_cfg(tmp_path / "sa.json", cfg), "--out", str(other)]
    ) == EXIT_OK
    out = tmp_path / "diag"
    assert main(
        ["diagnose", "variation", "--run-a", str(lccn_run), "--run-b", str(other),
         "--bins", "5", "--out", str(out)]
    ) == EXIT_OK
    assert (out / "histogram_a.csv").exists()
    assert (out / "histogram_b.csv").exists()
    summary = json.loads((out / "variation_summary.json").read_text())
    assert {"max_a", "max_b", "a_max_below_b_max"} <= set(summary)


def test_diagnose_correction_traces_ratio(tmp_path, lccn_run):
    out = tmp_path / "corr"
    assert main(
        ["diagnose", "correction", "--run", str(lccn_run), "--out", str(out)]
    ) == EXIT_OK
    with open(out / "correction_trace.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert rows and all(0.0 <= float(r["correction_ratio"]) <= 1.0 for r in rows)


def test_diagnose_correction_requires_latent_run(tmp_path, capsys):
    cfg = json.loads(json.dumps(BASE_CFG))
    cfg["train"].update(kind="ce")
    run = tmp_path / "ce_run"
    assert main(
        ["train", "--config", write_cfg(tmp_path / "ce.json", cfg), "--out", str(run)]
    ) == EXIT_OK
    code = main(["diagnose", "correction", "--run", str(run), "--out", str(tmp_path / "o")])
    assert code == EXIT_USAGE


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == EXIT_USAGE
    capsys.readouterr()


def test_help_exits_clean(capsys):
    assert main(["--help"]) == EXIT_OK
    assert "generate" in capsys.readouterr().out


def _copy_run(lccn_run, tmp_path):
    run = tmp_path / "run"
    run.mkdir()
    for name in ("metrics.csv", "variations.csv"):
        (run / name).write_bytes((lccn_run / name).read_bytes())
    return run


def _spoil_csv(path, column, how):
    """Drop `column` from a CSV file, or put the text `how` in its last cell."""
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    if how == "drop":
        rows = [{k: v for k, v in row.items() if k != column} for row in rows]
    else:
        rows[-1][column] = how
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


# name -> (artifact, column, "drop" the column / "delete" the file / the text of
# its last cell, diagnose command)
BAD_RUN_FILES = {
    "metrics_without_accuracy": ("metrics.csv", "accuracy", "drop", "correction"),
    "metrics_without_correction": ("metrics.csv", "correction_ratio", "drop", "correction"),
    "metrics_non_numeric_step": ("metrics.csv", "step", "not-a-number", "correction"),
    "metrics_non_numeric_ratio": ("metrics.csv", "correction_ratio", "not-a-number", "correction"),
    "metrics_missing": ("metrics.csv", None, "delete", "correction"),
    "variations_without_measured": ("variations.csv", "measured", "drop", "variation"),
    "variations_non_numeric": ("variations.csv", "measured", "not-a-number", "variation"),
    # float() parses both cells, but a histogram needs finite values.
    "variations_nan": ("variations.csv", "measured", "nan", "variation"),
    "variations_inf": ("variations.csv", "measured", "inf", "variation"),
    "variations_missing": ("variations.csv", None, "delete", "variation"),
}


@pytest.mark.parametrize("name", BAD_RUN_FILES)
def test_diagnose_bad_run_csv_is_usage_error(name, tmp_path, lccn_run, capsys):
    artifact, column, how, command = BAD_RUN_FILES[name]
    run = _copy_run(lccn_run, tmp_path)
    if how == "delete":
        (run / artifact).unlink()
    else:
        _spoil_csv(run / artifact, column, how)
    if command == "correction":
        argv = ["diagnose", "correction", "--run", str(run)]
    else:
        argv = ["diagnose", "variation", "--run-a", str(lccn_run), "--run-b", str(run)]
    code = main([*argv, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.startswith("error: ") and "Traceback" not in err


def test_diagnose_correction_missing_run_dir_is_usage_error(tmp_path, capsys):
    code = main(
        ["diagnose", "correction", "--run", str(tmp_path / "nope"), "--out", str(tmp_path / "o")]
    )
    assert code == EXIT_USAGE
    assert "not found" in capsys.readouterr().err


REFUSED_DIAGNOSES = {
    "mixing": ["mixing", "--sweeps", "5", "--burn-in", "9"],
    "transition": ["transition", "--run", "nope"],
    "variation": ["variation", "--run-a", "nope", "--run-b", "nope"],
    "correction": ["correction", "--run", "nope"],
}


@pytest.mark.parametrize("name", REFUSED_DIAGNOSES)
def test_refused_diagnosis_writes_nothing(name, tmp_path, capsys):
    # Each command reads and computes everything before it makes its output directory.
    out = tmp_path / "o"
    argv = [arg.replace("nope", str(tmp_path / "nope")) for arg in REFUSED_DIAGNOSES[name]]
    assert main(["diagnose", *argv, "--out", str(out)]) == EXIT_USAGE
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


# --- the TrainConfig fuzz, through main ----------------------------------------

FUZZ_DATA = {
    "generator": {"k": 3, "n_per_class": 20, "separation": 4.0, "seed": 21},
    "noise": {"kind": "symmetric", "ratio": 0.3, "ood_fraction": 0.1, "seed": 22},
    "clean": {"n_clean": 8, "seed": 23},
    "test": {"n_per_class": 10, "seed": 24},
}


@given(
    threads=st.sampled_from(["1", "2"]),
    kind=st.sampled_from(TRAINER_KINDS),
    oracle_phi=st.sampled_from([None, np.eye(3).tolist()]),
    batch_size=st.sampled_from([7, 16, 60, 75]),
    alpha=st.one_of(st.floats(1e-300, 100.0), st.lists(st.floats(1e-300, 10.0), min_size=3,
                                                        max_size=3)),
    epochs=st.integers(1, 2),
    pretrain_epochs=st.integers(0, 1),
    hidden_width=st.sampled_from([0, 3]),
    activation=st.sampled_from(["relu", "tanh"]),
    weight_decay=st.sampled_from([0.0, 0.05, 0.5]),
    momentum=st.sampled_from([0.0, 0.5, 0.9]),
    learning_rate=st.sampled_from([0.1, 30.0]),
)
@settings(max_examples=24, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fuzzed_train_configs_exit_cleanly_through_main(capfd, threads, **train):
    cfg = {**FUZZ_DATA, "train": {**train, "eval_every": 1}}
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(
        os.environ, {"LCCN_LAB_THREADS": threads}
    ):
        config = write_cfg(Path(tmp) / "config.json", cfg)
        code = main(["train", "--config", config, "--out", str(Path(tmp) / "out"),
                     "--seeds", "3", "4"])
    out, err = capfd.readouterr()
    assert code in (EXIT_OK, EXIT_RUNTIME, EXIT_USAGE)
    assert "Traceback" not in out + err
    if code != EXIT_OK:
        assert err.startswith("error: seed ")


_RUNAWAY = {"batch_size": 7, "epochs": 1, "pretrain_epochs": 1, "weight_decay": 0.5,
            "momentum": 0.9}


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize(
    "train, message",
    [
        # A learning rate of 30 drives the latent chain to non-finite sampling scores,
        ({"kind": "lccn", "learning_rate": 30.0, **_RUNAWAY, "epochs": 2},
         "seed 4: sampling scores are non-finite or all zero"),
        # and one of 1e100 drives the SGD step itself to a non-finite loss.
        ({"kind": "ce", "learning_rate": 1e100, "hidden_width": 3, **_RUNAWAY},
         "seed 3: non-finite training loss"),
    ],
    ids=["sampler", "sgd_step"],
)
def test_runaway_learning_rate_exits_1_through_main(train, message, threads, tmp_path,
                                                      monkeypatch, capfd):
    monkeypatch.setenv("LCCN_LAB_THREADS", threads)
    config = write_cfg(tmp_path / "config.json", {**FUZZ_DATA, "train": train})
    # pytest records warnings instead of printing them; as errors, one would
    # escape main (forked workers inherit the filter).
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["train", "--config", config, "--out", str(tmp_path / "out"),
                     "--seeds", "3", "4"])
    out, err = capfd.readouterr()
    assert code == EXIT_RUNTIME
    assert err == f"error: {message}\n"
    assert out == ""


def _fresh_interpreter(code: str, *args: str, **env: str) -> list:
    """Run `code` with argv `args` in a new Python process that can import the package.

    Returns the last line it prints, parsed as JSON.
    """
    path = [str(Path(lccn_lab.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join(path)}
    done = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=120, check=False)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


# Training must load neither scipy, which no code of the package needs, nor
# the process pool, which only runs more than one worker. The second train
# runs two seeds on one worker.
_COLD_START_CODE = """
import json, sys
from lccn_lab.cli import main
config, out = sys.argv[1:]
for extra in ([], ["--seeds", "0", "1"]):
    code = main(["train", "--config", config, "--out", out + str(len(extra)), *extra])
    assert code == 0, code
print(json.dumps(sorted(m for m in sys.modules
                        if m.split(".")[0] == "scipy" or m == "concurrent.futures.process")))
"""


def test_training_loads_neither_scipy_nor_a_process_pool(tmp_path):
    config = write_cfg(tmp_path / "c.json", BASE_CFG)
    out = str(tmp_path / "out")
    assert _fresh_interpreter(_COLD_START_CODE, config, out, LCCN_LAB_THREADS="1") == []


# A finder that refuses every scipy import: `diagnose mixing` and the exact
# reference behind it need numpy alone.
_NO_SCIPY_CODE = """
import json, sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"scipy is blocked: {name}")

sys.meta_path.insert(0, NoScipy())
import numpy as np
from lccn_lab.cli import main
from lccn_lab.noise_model import DirichletPrior
from lccn_lab.sampler import exact_posterior_bruteforce
code = main(["diagnose", "mixing", "--n", "4", "--k", "2", "--sweeps", "300", "--burn-in", "50",
             "--out", sys.argv[1]])
probs = np.array([[0.7, 0.3], [0.4, 0.6], [0.5, 0.5]])
marginals = exact_posterior_bruteforce(probs, np.array([0, 1, 1]), DirichletPrior.uniform(2, 1.0))
print(json.dumps([code, "scipy" in sys.modules, marginals.sum(axis=1).tolist()]))
"""


def test_diagnose_mixing_runs_with_scipy_blocked(tmp_path):
    code, loaded, row_sums = _fresh_interpreter(_NO_SCIPY_CODE, str(tmp_path / "mix"))
    assert (code, loaded) == (0, False)
    assert np.allclose(row_sums, 1.0)
    assert (tmp_path / "mix" / "mixing.csv").is_file()
