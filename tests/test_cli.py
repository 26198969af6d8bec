"""Exercises the command-line surface in-process: artifacts, exit codes, determinism."""

import csv
import json

import numpy as np
import pytest

from lccn_lab.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, main

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
        ["train", "--config", lccn_config, "--out", str(tmp_path), "--seeds", "0", "1"]
    )
    assert code == EXIT_USAGE
    assert "LCCN_LAB_THREADS" in capsys.readouterr().err


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


def test_removed_smoothed_knob_is_usage_error(tmp_path, capsys):
    # the per-batch bound certifies only the smoothed estimator, so the
    # unsmoothed switch is gone; an old config naming it must fail at parse time
    cfg = json.loads(json.dumps(BASE_CFG))
    cfg["train"]["smoothed"] = False
    code = main(
        ["train", "--config", write_cfg(tmp_path / "c.json", cfg), "--out", str(tmp_path / "o")]
    )
    assert code == EXIT_USAGE
    assert "smoothed" in capsys.readouterr().err


RAGGED_DATASET = {
    "features": [[0.0, 1.0], [2.0]], "true_labels": [0, 1], "noisy_labels": [0, 1],
    "clean_mask": [False, False], "ood_mask": [False, False], "K": 2,
}

# name -> (files written beside the config, config sections to override)
BAD_INPUTS = {
    "dataset_not_json": ({"data.json": "{not json"}, {"dataset": "data.json"}),
    "dataset_ragged_features": ({"data.json": json.dumps(RAGGED_DATASET)},
                                {"dataset": "data.json"}),
    "phi_file_without_matrix": ({"phi.json": json.dumps({"rows": 2})},
                                {"train": {"oracle_phi": "phi.json"}}),
    "ragged_inline_oracle_phi": ({}, {"train": {"oracle_phi": [[1.0], [0.5, 0.5]]}}),
    "anneal_not_an_object": ({}, {"train": {"anneal": True}}),
    "lr_milestone_not_a_number": ({}, {"train": {"lr_milestones": [["x", 0.1]]}}),
    "alpha_vector_of_strings": ({}, {"train": {"alpha": ["a", "b", "c"]}}),
    "generator_k_not_a_number": ({}, {"generator": {"k": "x"}}),
    "momentum_not_a_number": ({}, {"train": {"momentum": "x"}}),
    "batch_size_not_an_integer": ({}, {"train": {"batch_size": 8.5}}),
    "negative_hidden_width": ({}, {"train": {"hidden_width": -3}}),
    "seeds_not_integers": ({}, {"seeds": ["x"]}),
    "seeds_not_a_list": ({}, {"seeds": 3}),
    "train_seed_not_an_integer": ({}, {"train": {"seed": "x"}}),
    "train_section_not_an_object": ({}, {"train": []}),
}


@pytest.mark.parametrize("name", BAD_INPUTS)
def test_malformed_config_or_input_file_is_usage_error(name, tmp_path, capsys):
    files, override = BAD_INPUTS[name]
    for filename, text in files.items():
        (tmp_path / filename).write_text(text)
    cfg = json.loads(json.dumps(BASE_CFG))
    if "dataset" in override:
        del cfg["generator"]
    for section, value in override.items():
        cfg[section] = {**cfg[section], **value} if isinstance(value, dict) else value
    code = main(
        ["train", "--config", write_cfg(tmp_path / "c.json", cfg), "--out", str(tmp_path / "o")]
    )
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.startswith("error: ") and "Traceback" not in err


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


def test_invariant_violation_is_runtime_error(tmp_path, lccn_config, monkeypatch, capsys):
    class FakeCertificate:
        measured = np.array([1.0])
        bound = np.array([0.0])

    monkeypatch.setattr(
        "lccn_lab.trainers.update_bound", lambda *a, **k: FakeCertificate
    )
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
        ["sweep", "--config", lccn_config, "--param", "ratio", "--values", "0.1", "0.4",
         "--seeds", "0", "--out", str(out)]
    ) == EXIT_OK
    reports = [
        json.loads((out / f"ratio_{v}" / "noise_report.json").read_text())
        for v in ("0.1", "0.4")
    ]
    assert reports[0]["realized_flip_fraction"] < reports[1]["realized_flip_fraction"]


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
    [("alpha", ["1", "NaN"]), ("noise.ratio", ["0.1", "1.5"]), ("alpha", ["1", "1"])],
    ids=["non_finite_alpha", "ratio_out_of_range", "repeated_value"],
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
    """Drop `column` from a CSV file, or put a non-number in its last cell."""
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    if how == "drop":
        rows = [{k: v for k, v in row.items() if k != column} for row in rows]
    else:
        rows[-1][column] = "not-a-number"
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


# name -> (artifact, column, "drop" / "spoil" / "delete" the file, diagnose command)
BAD_RUN_FILES = {
    "metrics_without_accuracy": ("metrics.csv", "accuracy", "drop", "correction"),
    "metrics_without_correction": ("metrics.csv", "correction_ratio", "drop", "correction"),
    "metrics_non_numeric_step": ("metrics.csv", "step", "spoil", "correction"),
    "metrics_non_numeric_ratio": ("metrics.csv", "correction_ratio", "spoil", "correction"),
    "metrics_missing": ("metrics.csv", None, "delete", "correction"),
    "variations_without_measured": ("variations.csv", "measured", "drop", "variation"),
    "variations_non_numeric": ("variations.csv", "measured", "spoil", "variation"),
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
