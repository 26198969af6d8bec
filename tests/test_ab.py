"""The pair and claim logic of `scripts/ab.py`, on synthetic numbers: no benchmark runs."""

import importlib.util
import json
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


def test_micro_takes_a_table_id():
    args = ab.parse_args(["HEAD~1", "--micro", "test_sgd_step[linear-batch8]", "--pairs", "4"])
    assert args.micro == "test_sgd_step[linear-batch8]"
    assert (args.base, args.rev, args.pairs, args.workload) == ("HEAD~1", None, 4, None)
    assert ab.micro_case(None, args.micro).func.__name__ == "sgd_step"


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


def test_a_microbenchmark_loads_against_its_sides_package():
    # In-process micro pairs hand each side's case that side's lccn_lab.
    import lccn_lab

    name = "_lccn_lab_micro_copy"
    try:
        table = bench.micro_table((ROOT / bench.MICRO).read_text())
        call = table["test_chain_certify[5-32]"](bench.load_package(ROOT / "src", name))
        chain = call.__self__
        assert type(chain).__module__ == f"{name}.sampler"
        assert chain.counts.shape == (5, 4)
        measured, bound = call()
        assert 0.0 < measured <= bound
        assert sys.modules["lccn_lab"] is lccn_lab
        reading = bench.micro_round(call, 3)
        assert reading["norm_mean_us"] > 0.0 and reading["mean_us"] > 0.0
    finally:
        for module in [m for m in sys.modules if m == name or m.startswith(f"{name}.")]:
            del sys.modules[module]


def test_bench_records_every_microbenchmark_in_short_rounds(monkeypatch):
    monkeypatch.setattr(bench, "MICRO_ROUND_S", 0.001)
    monkeypatch.setattr(bench, "MICRO_ROUNDS", 3)
    name = "lccn_lab_bench"
    try:
        micro = bench.record_micro(ROOT)
    finally:
        for module in [m for m in sys.modules if m == name or m.startswith(f"{name}.")]:
            del sys.modules[module]
    assert list(micro) == list(bench.micro_table((ROOT / bench.MICRO).read_text()))
    # The ids carry on those of BENCH_32, so that BENCH files compare case by case.
    assert set(json.loads((ROOT / "BENCH_32.json").read_text())["micro"]) <= set(micro)
    for record in micro.values():
        assert 0.0 < record["norm_q1_us"] <= record["norm_mean_us"] <= record["norm_q3_us"]
        assert record["mean_us"] > 0.0 and record["calls"] >= 1 and record["rounds"] == 3


def test_one_pair_loop_alternates_stub_sides_and_tallies_their_runs(capsys):
    # Pair i reads BASE[i] on the base and BASE[i] - 0.1 on REV: ten wins by more than the IQR.
    order = []

    def side(name, fails=0, prints=None, shift=0.0, runs=3):
        def run(seed):
            order.append((name, seed))
            pair = sum(side == name for side, _ in order) - 1
            return {"x_s": BASE[pair] + shift}, prints, fails, runs
        return run

    def pairs(rev, base=None, seeds=(0, 7)):
        order.clear()
        sides = {"base": base or side("base", prints={"a": 1}), "rev": rev}
        summary = ab.run_pairs([("x_s", "s", "lower")], sides, list(seeds), 10)["x_s"]
        return summary, capsys.readouterr().out

    summary, out = pairs(side("rev", prints={"a": 1}, shift=-0.1))
    assert order[:4] == [("base", 0), ("rev", 0), ("rev", 7), ("base", 7)]
    assert "pair 2 seed 7 (rev first): x_s 1.01 -> 0.91; fingerprints identical" in out
    assert "# failed training runs: base 0/30, rev 0/30" in out
    assert summary["wins"] == 10 and summary["claim_holds"]
    summary, out = pairs(side("rev", fails=1, prints={"a": 1}, shift=-0.1))
    assert "# failed training runs: base 0/30, rev 10/30" in out
    assert summary["wins"] == 10 and not summary["claim_holds"]
    summary, out = pairs(side("rev", prints={"a": 2}, shift=-0.1))
    assert "fingerprints DIFFER" in out
    assert summary["wins"] == 10 and not summary["claim_holds"]
    # A side without training runs, as a microbenchmark's, prints no seed, fingerprints or failures.
    summary, out = pairs(side("rev", shift=-0.1, runs=0), base=side("base", runs=0), seeds=(0,))
    assert "pair 2 (rev first): x_s 1.01 -> 0.91\n" in out and "failed" not in out
    assert summary["claim_holds"]


@pytest.mark.parametrize(
    "argv",
    [
        ["HEAD", "--micro", "tests/test_ab.py::test_iqr_interpolates_between_order_statistics"],
        ["HEAD", "--micro", "benchmarks/test_micro.py::"],
        ["HEAD", "--micro", "test_sgd_step[linear-batch8]", "--workload", "latent-recovery"],
        ["HEAD", "--micro", "test_sgd_step[linear-batch8]", "--seeds", "1"],
        ["HEAD", "--micro", "test_sgd_step[linear-batch8]", "--pairs", "0"],
        ["HEAD", "--micro", "test_sgd_step[linear-batch8]", "--in-process"],
        ["HEAD", "--micro", "test_chain_certify[6-32]"],
        ["HEAD", "--workload", "no-such-workload"],
        ["HEAD", "--workload", "no-such-workload", "--in-process"],
    ],
)
def test_bad_arguments_exit_2_before_any_run(argv, capsys, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("a run was started")

    monkeypatch.setattr(ab, "load_package", no_run)
    monkeypatch.setattr(ab, "run_workload", no_run)
    monkeypatch.setattr(ab, "export", no_run)
    with pytest.raises(SystemExit) as exit_info:
        ab.main(argv)
    assert exit_info.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_bench_deltas_print_the_calibrated_and_the_raw_mean(capsys):
    def bench_file(n, norm_mean_us, mean_us):
        micro = {"test_update_bound[3-8]": {"norm_mean_us": norm_mean_us, "mean_us": mean_us}}
        return {"n": n, "workloads": {}, "micro": micro,
                "tier1": {"seconds": 50.0, "summary": "555 passed"}}

    bench.print_deltas(bench_file(31, 48.8, 44.1), bench_file(32, 23.6, 36.7))
    (line,) = [line for line in capsys.readouterr().out.splitlines() if "micro" in line]
    assert line.strip() == ("micro test_update_bound[3-8] norm_mean_us: 48.8 -> 23.6 (-51.6%); "
                            "mean_us: 44.1 -> 36.7 (-16.8%)")
    old = {**bench_file(31, 0.0, 0.0), "micro": {"test_update_bound[3-8]": {"norm_median_us": 48.8}}}
    bench.print_deltas(old, bench_file(32, 23.6, 36.7))
    (line,) = [line for line in capsys.readouterr().out.splitlines() if "micro" in line]
    assert line.strip() == "micro test_update_bound[3-8] norm_mean_us: n/a; mean_us: n/a"


def test_source_lines_count_neither_blanks_comments_nor_docstrings(tmp_path, capsys):
    package = tmp_path / "src" / "lccn_lab"
    package.mkdir(parents=True)
    (package / "a.py").write_text(
        '"""A module docstring\n\nover three lines."""\n\n'
        "# a comment\n"
        "X = 1  # a trailing comment is on a line of code\n\n\n"
        "class A:\n"
        '    """One line."""\n\n'
        "    def f(self):\n"
        '        """Two\n        lines."""\n'
        '        return """not a docstring\n        but code"""\n'
    )
    (package / "b.py").write_text("import os\n\n    # an indented comment\nY = os.sep\n")
    source = bench.source_lines(tmp_path)
    assert source == {"a.py": {"lines": 16, "code": 5}, "b.py": {"lines": 4, "code": 2}}

    def bench_file(n, source=None):
        record = {"n": n, "workloads": {}, "micro": {}, "tier1": {"seconds": 1.0, "summary": ""}}
        return record if source is None else {**record, "source": source}

    smaller = {"a.py": {"lines": 12, "code": 5}, "b.py": {"lines": 4, "code": 1}}
    bench.print_deltas(bench_file(29, source), bench_file(30, smaller))
    bench.print_deltas(bench_file(28), bench_file(29, source))
    lines = [line.strip() for line in capsys.readouterr().out.splitlines() if "source" in line]
    assert lines == [
        "source a.py lines: 16 -> 12 (-25.0%); code: 5 -> 5 (+0.0%)",
        "source b.py lines: 4 -> 4 (+0.0%); code: 2 -> 1 (-50.0%)",
        "source total lines: 20 -> 16 (-20.0%); code: 7 -> 6 (-14.3%)",
        "source a.py lines: n/a; code: n/a",
        "source b.py lines: n/a; code: n/a",
        "source total lines: n/a; code: n/a",
    ]


def test_bench_records_and_prints_the_tooling_lines(tmp_path, capsys):
    _tree(tmp_path, {"scripts/a.py": "# a comment\nX = 1\n", "benchmarks/b.py": '"""Doc."""\nY = 2\n',
                     "scripts/notes.txt": "no code\n", "src/lccn_lab/c.py": "Z = 3\n"})
    tooling = bench.tooling_lines(tmp_path)
    assert tooling == {"scripts/a.py": {"lines": 2, "code": 1},
                       "benchmarks/b.py": {"lines": 2, "code": 1}}

    def bench_file(n, **lines):
        return {"n": n, "workloads": {}, "micro": {}, "tier1": {"seconds": 1.0, "summary": ""},
                **lines}

    smaller = {"scripts/a.py": {"lines": 1, "code": 1}}
    bench.print_deltas(bench_file(33, tooling=tooling), bench_file(34, tooling=smaller))
    bench.print_deltas(bench_file(32), bench_file(33, tooling=tooling))
    bench.print_deltas(bench_file(32), bench_file(33))
    lines = [line.strip() for line in capsys.readouterr().out.splitlines() if "tooling" in line]
    assert lines == ["tooling total lines: 4 -> 1 (-75.0%); code: 2 -> 1 (-50.0%)",
                     "tooling total lines: n/a; code: n/a"]
