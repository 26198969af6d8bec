"""The pair and claim logic of `scripts/ab.py`, on synthetic numbers: no benchmark runs."""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("_ab_script", ROOT / "scripts" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)
bench = sys.modules["bench"]  # imported by ab.py from scripts/

# Ten base readings with quartiles 1.0225 and 1.0675: an IQR of 0.045.
BASE = [1.0 + 0.01 * i for i in range(10)]
NO_FAILURES = {"base": 0.0, "rev": 0.0}


def summarize(base, rev, better, failed_share=NO_FAILURES, fingerprints_match=True):
    return ab.summarize(base, rev, better, failed_share, fingerprints_match)


def test_pairs_alternate_which_side_runs_first():
    assert [ab.pair_order(i) for i in range(4)] == [("base", "rev"), ("rev", "base")] * 2


def test_iqr_interpolates_between_order_statistics():
    assert ab.iqr([5.0, 1.0, 3.0, 2.0, 4.0]) == 2.0
    assert ab.iqr(BASE) == pytest.approx(0.045)
    assert ab.iqr([7.0]) == 0.0


def test_claim_holds_with_nine_wins_and_a_gap_above_the_iqr():
    rev = [b - 0.1 for b in BASE]
    rev[3] = BASE[3] + 0.5  # one loss
    summary = summarize(BASE, rev, "lower")
    assert (summary["wins"], summary["pairs"]) == (9, 10)
    assert summary["base_iqr"] == pytest.approx(0.045)
    assert summary["claim_holds"]


def test_claim_fails_when_rev_fails_a_larger_share_of_training_runs():
    rev = [b - 0.1 for b in BASE]
    assert summarize(BASE, rev, "lower", {"base": 0.01, "rev": 0.01})["claim_holds"]
    summary = summarize(BASE, rev, "lower", {"base": 0.0, "rev": 0.01})
    assert summary["wins"] == 10 and not summary["claim_holds"]


def test_claim_fails_when_any_pair_wrote_other_fingerprints():
    rev = [b - 0.1 for b in BASE]
    summary = summarize(BASE, rev, "lower", fingerprints_match=False)
    assert summary["wins"] == 10 and not summary["claim_holds"]


def test_claim_fails_with_eight_wins():
    rev = [b - 0.1 for b in BASE]
    rev[3] = rev[7] = 2.0
    summary = summarize(BASE, rev, "lower")
    assert summary["wins"] == 8 and not summary["claim_holds"]


def test_claim_fails_when_the_median_gap_is_inside_the_base_iqr():
    rev = [b - 0.02 for b in BASE]
    summary = summarize(BASE, rev, "lower")
    assert summary["wins"] == 10
    assert summary["base_median"] - summary["rev_median"] < summary["base_iqr"]
    assert not summary["claim_holds"]


def test_ties_count_for_neither_side():
    summary = summarize(BASE, list(BASE), "lower")
    assert summary["wins"] == 0 and not summary["claim_holds"]
    assert ab.wins(BASE, list(BASE), "higher") == 0


def test_higher_is_better_metrics_win_upwards():
    rev = [b + 0.1 for b in BASE]
    assert summarize(BASE, rev, "higher")["claim_holds"]
    assert summarize(BASE, rev, "lower")["wins"] == 0


def test_claim_needs_ten_pairs():
    rev = [b - 0.5 for b in BASE]
    assert summarize(BASE[:9], rev[:9], "lower")["wins"] == 9
    assert not summarize(BASE[:9], rev[:9], "lower")["claim_holds"]


def _tree(root: Path, files: dict[str, str]) -> Path:
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    return root


def test_benchmark_differs_names_every_changed_or_lone_benchmark_file(tmp_path):
    files = {"BENCHMARK.json": "{}", "perfbench/run.py": "x", "perfbench/sub/a.json": "1",
             "src/lccn_lab/cli.py": "a"}
    base = _tree(tmp_path / "base", files)
    same = _tree(tmp_path / "same", {**files, "src/lccn_lab/cli.py": "b"})
    assert ab.benchmark_differs(base, same) == []
    other = _tree(tmp_path / "other", {**files, "BENCHMARK.json": "[]", "perfbench/run.py": "y",
                                       "perfbench/new.py": ""})
    assert ab.benchmark_differs(base, other) == [
        "BENCHMARK.json", "perfbench/new.py", "perfbench/run.py",
    ]


def test_micro_takes_a_node_id_or_a_bare_test_id():
    node = "benchmarks/test_micro.py::test_update_bound[3-8]"
    assert ab.micro_node(node) == node
    assert ab.micro_node("test_update_bound[3-8]") == node
    args = ab.parse_args(["HEAD~1", "--micro", "test_sgd_step[linear-batch8]", "--pairs", "4"])
    assert args.micro == "benchmarks/test_micro.py::test_sgd_step[linear-batch8]"
    assert (args.base, args.rev, args.pairs, args.workload) == ("HEAD~1", None, 4, None)


def test_workload_runs_default_to_seed_zero():
    args = ab.parse_args(["HEAD~1", "HEAD", "--workload", "latent-ordering"])
    assert (args.rev, args.workload, args.seeds) == ("HEAD", "latent-ordering", [0])
    assert args.micro is None and not args.in_process
    args = ab.parse_args(["HEAD~1", "--workload", "latent-ordering", "--in-process"])
    assert args.in_process and args.seeds == [0]


def test_in_process_reading_sums_a_rounds_runs():
    reading = ab.round_reading([0.25, 0.5, 0.25], [0.5, 1.0, 0.5], samples=4000)
    assert reading == {"norm_wall_s": 2.0, "norm_samples_per_s": 2000.0, "wall_s": 1.0}


def test_in_process_metrics_name_the_benchmarks_timing_metrics():
    names = [name for name, _, _ in ab.IN_PROCESS_METRICS]
    assert names[:2] == ["norm_wall_s", "norm_samples_per_s"]
    assert set(names) == set(ab.round_reading([1.0], [1.0], samples=1))


def test_a_package_loads_under_a_second_name():
    # The in-process mode imports each side's lccn_lab under a name of its own.
    import lccn_lab.errors

    name = "_lccn_lab_second_copy"
    try:
        ab.load_package(ROOT / "src", name)
        errors = importlib.import_module(f"{name}.errors")
        cli = importlib.import_module(f"{name}.cli")
        assert cli.ParameterError is errors.ParameterError
        assert errors.ParameterError is not lccn_lab.errors.ParameterError
    finally:
        for module in [m for m in sys.modules if m == name or m.startswith(f"{name}.")]:
            del sys.modules[module]


@pytest.mark.parametrize(
    "argv",
    [
        ["HEAD", "--micro", "tests/test_ab.py::test_iqr_interpolates_between_order_statistics"],
        ["HEAD", "--micro", "benchmarks/test_micro.py::"],
        ["HEAD", "--micro", "test_sgd_step[linear-batch8]", "--workload", "latent-recovery"],
        ["HEAD", "--micro", "test_sgd_step[linear-batch8]", "--seeds", "1"],
        ["HEAD", "--micro", "test_sgd_step[linear-batch8]", "--pairs", "0"],
        ["HEAD", "--micro", "test_sgd_step[linear-batch8]", "--in-process"],
    ],
)
def test_bad_arguments_exit_2_before_any_run(argv, capsys, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("a run was started")

    monkeypatch.setattr(ab, "run_micro", no_run)
    monkeypatch.setattr(ab, "run_workload", no_run)
    monkeypatch.setattr(ab, "export", no_run)
    with pytest.raises(SystemExit) as exit_info:
        ab.main(argv)
    assert exit_info.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_bench_deltas_print_the_raw_median_and_both_calibrations(capsys):
    def bench_file(n, median_us, norm_median_us, sample_s):
        micro = {"test_update_bound[3-8]": {
            "median_us": median_us, "norm_median_us": norm_median_us,
            "calibration_sample_s": sample_s,
        }}
        return {"n": n, "workloads": {}, "micro": micro,
                "tier1": {"seconds": 50.0, "summary": "555 passed"}}

    bench.print_deltas(bench_file(12, 44.1, 48.8, 0.0007), bench_file(18, 36.7, 23.6, 0.001))
    (line,) = [line for line in capsys.readouterr().out.splitlines() if "micro" in line]
    assert "norm_median_us: 48.8 -> 23.6 (-51.6%)" in line
    assert "median_us: 44.1 -> 36.7 (-16.8%)" in line
    assert "calibration_sample_s: 0.0007 -> 0.001 (+42.9%)" in line
