"""Command-line entry points: generate | train | sweep | diagnose.

Every command writes a JSON echo of its resolved configuration next to its
outputs, so any artifact can be reproduced from its directory alone. Exit
codes: 0 success, 1 runtime/training failure, 2 usage or config error.
`train`, `sweep` and `run_experiment` check every run with one plan step,
`_plan`, before any directory is written or any run trains.

Every JSON input file is read by `_load_json`, which resolves relative paths
against the config's directory and turns a missing or malformed file into a
usage error; its twin for CSV run artifacts is `metrics.read_csv`. Outputs go
through `_write_json` and `metrics.write_csv`; `generate` and `generator`
configs share one data recipe, `_generate_data`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
from pathlib import Path

import numpy as np

from .classifier import save_checkpoint
from .datagen import (
    NOISE_KINDS,
    LabeledDataset,
    NoiseSpec,
    apply_noise,
    make_gaussian_mixture,
    mark_clean_subset,
    save_dataset,
    save_report,
)
from .errors import InvariantError, ParameterError, TrainingError, check_type
from .metrics import (
    read_csv,
    read_metrics_csv,
    transition_frobenius_error,
    transition_l1_error,
    variation_histogram,
    write_csv,
    write_histogram_csv,
    write_metrics_csv,
)
from .noise_model import DirichletPrior
from .sampler import mixing_diagnostic
from .trainers import TrainConfig, run_trainer

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2

TEST_SEED_OFFSET = 10007


def _worker_cap(n_jobs: int) -> int:
    """Parallel worker count, capped by the LCCN_LAB_THREADS environment variable."""
    raw = os.environ.get("LCCN_LAB_THREADS", "1")
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ParameterError(f"LCCN_LAB_THREADS must be an integer, got {raw!r}") from exc
    return max(1, min(cap, n_jobs))


def _write_json(payload, path: Path) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _echo(args) -> dict:
    """A command's flags as given, minus the output directory and the dispatch fields."""
    return {k: v for k, v in vars(args).items() if k not in ("command", "what", "func", "out")}


def _load_json(path, base: Path | None = None):
    """Read one JSON input file; a relative path resolves against base when given."""
    if not isinstance(path, (str, Path)):
        raise ParameterError(f"expected a file path, got {path!r}")
    path = Path(path)
    if base is not None and not path.is_absolute():
        path = base / path
    if not path.exists():
        raise ParameterError(f"file not found: {path}")
    try:
        return json.loads(path.read_text())
    except ValueError as exc:
        raise ParameterError(f"{path} is not valid JSON: {exc}") from exc


def _resolve_seeds(args, cfg: dict) -> list[int]:
    """The training seeds of `train` and `sweep`; anything but integers is a usage error.

    `--seeds` wins; else the config's non-empty `seeds` list; else the train
    section's `seed` (0 if unset).
    """
    if args.seeds is not None:
        return list(args.seeds)
    seeds = cfg.get("seeds")
    if not seeds:
        train = cfg.get("train")
        seeds = [train.get("seed", 0) if isinstance(train, dict) else 0]
    if not isinstance(seeds, list):
        raise ParameterError(f"seeds must be a list of integers, got {seeds!r}")
    return [int(check_type(v, "int", "seeds entry")) for v in seeds]


def _load_config(path: str) -> tuple[dict, Path]:
    """An experiment config and the directory its relative paths resolve against."""
    cfg = _load_json(path)
    if not isinstance(cfg, dict):
        raise ParameterError("experiment config must be a JSON object")
    return cfg, Path(path).resolve().parent


def _phi_from_value(value, base: Path | None = None) -> np.ndarray:
    """Accept a matrix inline (nested lists) or as a path to a JSON file."""
    if isinstance(value, str):
        value = _load_json(value, base)
        if isinstance(value, dict):
            if "matrix" not in value:
                raise ParameterError("transition matrix file has no 'matrix' key")
            value = value["matrix"]
    try:
        matrix = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"transition matrix is not a numeric matrix: {exc}") from exc
    if matrix.ndim != 2:
        raise ParameterError("transition matrix must be 2-d")
    return matrix


def _generate_data(generator: dict, noise: dict | None = None, clean: dict | None = None):
    """The one data recipe: Gaussian mixture, then label/open-set noise, then a clean subset.

    Returns (dataset, noise report or None, noise spec or None); the noise
    step runs only when a noise section is given. Values are passed on as
    given: the datagen functions check each one's type and range.
    """
    report = spec = None
    try:
        ds = make_gaussian_mixture(
            n_classes=generator["k"],
            dim=generator.get("d", 2),
            n_per_class=generator["n_per_class"],
            separation=generator.get("separation", 4.0),
            seed=generator.get("seed", 0),
        )
        if noise:
            spec = NoiseSpec(**noise)
            ds, report = apply_noise(ds, spec)
        if clean:
            ds = mark_clean_subset(ds, clean["n_clean"], clean.get("seed", 0))
    except ParameterError:
        raise
    except KeyError as exc:
        raise ParameterError(f"data section is missing field {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParameterError(f"bad data section: {exc}") from exc
    return ds, report, spec


_DATA_SECTIONS = ("generator", "noise", "clean", "test")


def build_datasets(cfg: dict, base: Path | None = None):
    """Resolve the data sections of an experiment config.

    Returns (train_ds, test_ds, noise_report, reference_phi). Generated
    datasets depend only on the generator/noise/clean seeds, never on the
    training seed, so multi-seed runs share identical data. A `dataset`
    config may hold no generated-data section, since it would read none.
    """
    if "dataset" in cfg:
        for section in _DATA_SECTIONS:
            if section in cfg:
                raise ParameterError(f"a 'dataset' config ignores section {section!r}")
        ds = LabeledDataset.from_json_dict(_load_json(cfg["dataset"], base))
        test_ds = None
        if "test_dataset" in cfg:
            test_ds = LabeledDataset.from_json_dict(_load_json(cfg["test_dataset"], base))
        return ds, test_ds, None, None
    if "generator" not in cfg:
        raise ParameterError("config must contain a 'dataset' path or a 'generator' section")
    for section in _DATA_SECTIONS:
        if not isinstance(cfg.get(section) or {}, dict):
            raise ParameterError(f"config section {section!r} must be a JSON object")
    gen = cfg["generator"]
    ds, report, spec = _generate_data(gen, cfg.get("noise"), cfg.get("clean"))
    test = cfg.get("test") or {}
    test_gen = {
        **gen,
        "n_per_class": test.get("n_per_class", gen["n_per_class"]),
        "seed": test.get("seed", gen.get("seed", 0) + TEST_SEED_OFFSET),
    }
    try:
        test_ds = _generate_data(test_gen)[0]
    except ParameterError as exc:  # the generator's own fields passed above
        raise ParameterError(f"test section: {exc}") from None
    reference_phi = spec.true_transition(ds.n_classes) if spec is not None else None
    return ds, test_ds, report, reference_phi


def _plan(cfg: dict, seeds: list[int], base: Path | None, data: tuple | None = None) -> list:
    """Each seed's run of cfg, checked but not trained: the arguments of `_train` before out_dir.

    `data` is cfg's `build_datasets`, built here unless given. With more than
    one seed, a seed's failure is prefixed "seed <n>: ".
    """
    if len(set(seeds)) != len(seeds):
        raise ParameterError("seeds must be distinct")
    ds, test_ds, report, reference_phi = build_datasets(cfg, base) if data is None else data
    train_dict = cfg.get("train")
    if not isinstance(train_dict, dict):
        raise ParameterError("config must contain a 'train' section")
    if reference_phi is not None and train_dict.get("reference_phi") is None:
        train_dict = {**train_dict, "reference_phi": reference_phi.tolist()}
    echo = {k: v for k, v in cfg.items() if k != "seeds"}

    def plan_seed(seed: int) -> tuple:
        payload = {**train_dict, "seed": seed}
        try:
            if "lr_milestones" in payload:
                payload["lr_milestones"] = tuple(tuple(m) for m in payload["lr_milestones"])
            for key in ("oracle_phi", "reference_phi"):
                if payload.get(key) is not None:
                    payload[key] = _phi_from_value(payload[key], base)
            if isinstance(payload.get("alpha"), list):
                payload["alpha"] = tuple(payload["alpha"])
            config = TrainConfig(**payload)
        except (TypeError, ValueError) as exc:
            raise ParameterError(f"bad train section: {exc}") from exc
        config.check_channels(ds.n_classes)
        return ds, test_ds, report, config, {**echo, "train": {**train_dict, "seed": seed}}

    if len(seeds) == 1:
        return [plan_seed(seeds[0])]
    return [_naming_seed(seed, plan_seed, seed) for seed in seeds]


def _train(ds, test_ds, report, config: TrainConfig, echo: dict, out_dir: Path) -> dict:
    """Train one run of `_plan`; writes all its artifacts, config.json the echo, into out_dir."""
    out_dir.mkdir(parents=True, exist_ok=True)
    result = run_trainer(ds, config, test_ds)
    _write_json(echo, out_dir / "config.json")
    write_metrics_csv(result.records, out_dir / "metrics.csv")
    save_checkpoint(result.final_params, out_dir / "checkpoint.json")
    if result.final_phi is not None:
        _write_json({"matrix": result.final_phi.tolist()}, out_dir / "phi_final.json")
    if result.batch_variations:
        write_csv(
            out_dir / "variations.csv",
            ["step", "measured", "bound"],
            ([v.step, repr(v.measured), repr(v.bound)] for v in result.batch_variations),
        )
    if report is not None:
        save_report(report, out_dir / "noise_report.json")
    summary = {
        "seed": config.seed,
        "final_test_accuracy": result.final_test_accuracy() if test_ds is not None else None,
        "final_train_accuracy": result.records_for("train")[-1].accuracy,
        "outlier_recall": result.outlier_recall,
    }
    _write_json(summary, out_dir / "summary.json")
    return summary


def run_experiment(cfg: dict, seed: int, out_dir: Path, base: Path | None = None) -> dict:
    """One seed of one experiment config, planned then trained; writes its artifacts into out_dir."""
    return _train(*_plan(cfg, [seed], base)[0], out_dir)


def _run_seeds(runs: list, out: Path) -> list[dict]:
    """Train the runs of `_plan`: one into out, several into out/seed_<n>, up to the worker cap."""
    if len(runs) == 1:
        return [_train(*runs[0], out)]
    seeds = [config.seed for *_, config, _ in runs]
    dirs = [out / f"seed_{seed}" for seed in seeds]
    workers = _worker_cap(len(runs))
    if workers == 1:
        return [_naming_seed(seed, _train, *run, d) for seed, run, d in zip(seeds, runs, dirs)]
    from concurrent.futures import ProcessPoolExecutor  # only here: its import costs ~11 ms

    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_train, *run, d) for run, d in zip(runs, dirs)]
        return [_naming_seed(seed, future.result) for seed, future in zip(seeds, futures)]


def _naming_seed(seed: int, fn, *args):
    """fn(*args); a failure that main reports is re-raised as its own type, prefixed "seed <n>: "."""
    try:
        return fn(*args)
    except (ParameterError, TrainingError, InvariantError, OSError) as exc:
        raise type(exc)(f"seed {seed}: {exc}") from exc


def cmd_generate(args) -> int:
    ds, report, _ = _generate_data(
        {"k": args.k, "d": args.d, "n_per_class": args.n_per_class,
         "separation": args.separation, "seed": args.seed},
        {"kind": args.noise, "ratio": args.ratio, "pair_map": args.pair_map,
         "ood_fraction": args.ood_fraction, "seed": args.seed},
        {"n_clean": args.n_clean, "seed": args.seed + 1} if args.n_clean else None,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_dataset(ds, out / "dataset.json")
    save_report(report, out / "noise_report.json")
    _write_json(_echo(args), out / "generate_config.json")
    print(f"wrote {out / 'dataset.json'} ({ds.n} samples, K={ds.n_classes})")
    print(f"realized flip fraction: {report.realized_flip_fraction:.4f}")
    return EXIT_OK


def _median_test_accuracy(summaries: list[dict]) -> float | None:
    accuracies = [s["final_test_accuracy"] for s in summaries if s["final_test_accuracy"] is not None]
    return statistics.median(accuracies) if accuracies else None


def cmd_train(args) -> int:
    cfg, base = _load_config(args.config)
    seeds = _resolve_seeds(args, cfg)
    out = Path(args.out)
    summaries = _run_seeds(_plan(cfg, seeds, base), out)  # each run makes its directory
    aggregate = {
        "seeds": seeds,
        "runs": summaries,
        "median_test_accuracy": _median_test_accuracy(summaries),
    }
    _write_json(aggregate, out / "summary.json")
    if aggregate["median_test_accuracy"] is not None:
        print(f"median test accuracy over {len(seeds)} seed(s): {aggregate['median_test_accuracy']:.4f}")
    return EXIT_OK


def _coerce_sweep_value(value: str):
    try:
        return json.loads(value)
    except json.JSONDecodeError as exc:
        raise ParameterError(
            f"sweep value {value!r} is not valid JSON; each value is parsed as JSON, "
            f"so quote strings: '\"{value}\"'"
        ) from exc


_SWEEPABLE_SECTIONS = ("generator", "noise", "test", "clean", "train")


def _resolve_sweep_target(param: str) -> tuple[str, str]:
    """Map a --param name to the (section, key) it should override.

    A bare name targets the train section; a dotted "section.key" form
    addresses any config section. The training seed is no grid axis: each
    run takes its seed from --seeds.
    """
    section, key = "train", param
    if "." in param:
        section, _, key = param.partition(".")
        if not key or "." in key:
            raise ParameterError(f"param {param!r} must look like 'section.key'")
        if section not in _SWEEPABLE_SECTIONS:
            raise ParameterError(
                f"param section {section!r} is not one of {', '.join(_SWEEPABLE_SECTIONS)}"
            )
    if (section, key) == ("train", "seed"):
        raise ParameterError(f"param {param!r} cannot be swept; give training seeds with --seeds")
    return section, key


def cmd_sweep(args) -> int:
    cfg, base = _load_config(args.config)
    if not args.values:
        raise ParameterError("values: sweep grid must not be empty")
    values = [_coerce_sweep_value(v) for v in args.values]
    section, key = _resolve_sweep_target(args.param)
    seeds = _resolve_seeds(args, cfg)
    if "dataset" in cfg and "test_dataset" not in cfg:
        raise ParameterError("sweep requires a test split to aggregate accuracy")
    if not isinstance(cfg.get(section) or {}, dict):
        raise ParameterError(f"config section {section!r} must be a JSON object")
    out = Path(args.out)
    data = build_datasets(cfg, base) if section == "train" else None  # one recipe for every point
    points = {}  # every point is planned before the first one trains
    for value in values:
        point_dir = out / f"{key}_{value}"
        if point_dir in points:
            raise ParameterError(f"sweep values must be distinct, {point_dir.name!r} repeats")
        point_cfg = {**cfg, section: {**(cfg.get(section) or {}), key: value}}
        points[point_dir] = value, _plan(point_cfg, seeds, base, data)
    rows = []
    for point_dir, (value, runs) in points.items():
        accuracy = _median_test_accuracy(_run_seeds(runs, point_dir))
        rows.append([args.param, value, repr(accuracy), len(seeds)])
        print(f"{args.param}={value}: median accuracy {accuracy:.4f}")
    write_csv(out / "sweep.csv", ["param", "value", "median_accuracy", "n_seeds"], rows)
    _write_json(
        {"param": args.param, "values": values, "seeds": seeds},
        out / "sweep_config.json",
    )
    return EXIT_OK


def cmd_diagnose_mixing(args) -> int:
    if args.n < 1 or args.k < 1:
        raise ParameterError(f"--n and --k must be >= 1, got {args.n} and {args.k}")
    if args.seed < 0:
        raise ParameterError(f"--seed must be >= 0, got {args.seed}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(args.seed)
    probs = rng.dirichlet(np.ones(args.k), size=args.n)
    observed = rng.integers(0, args.k, size=args.n)
    prior = DirichletPrior.uniform(args.k, args.alpha)
    diag = mixing_diagnostic(
        probs, observed, prior, sweeps=args.sweeps, burn_in=args.burn_in, seed=args.seed + 1
    )
    write_csv(
        out / "mixing.csv",
        ["sweep", "max_tv", "mean_tv"],
        ([sweep, repr(max_tv), repr(mean_tv)] for sweep, max_tv, mean_tv in diag.trace),
    )
    _write_json(
        {**_echo(args), "final_max_tv": diag.max_tv, "final_mean_tv": diag.mean_tv},
        out / "mixing_config.json",
    )
    print(f"final max TV over {args.n} samples: {diag.max_tv:.5f}")
    return EXIT_OK


def cmd_diagnose_transition(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    phi = _phi_from_value(str(Path(args.run) / "phi_final.json"))
    write_csv(
        out / "transition_colormap.csv",
        ["row", "col", "value", "log_value"],
        (
            [i, j, repr(value), repr(math.log(max(value, 1e-12)))]
            for i, row in enumerate(phi.tolist())
            for j, value in enumerate(row)
        ),
    )
    payload = {"rows": phi.shape[0], "cols": phi.shape[1]}
    if args.oracle:
        # An lccn_star run's phi has an outlier row past its K x K block.
        k = phi.shape[1]
        oracle = _phi_from_value(args.oracle)
        if oracle.shape != (k, k) or phi.shape[0] < k:
            raise ParameterError(
                f"oracle transition shape {oracle.shape} does not match the run's "
                f"{k} x {k} block of phi {phi.shape}"
            )
        phi = phi[:k]
        per_row = np.abs(phi - oracle).sum(axis=1).tolist()
        write_csv(
            out / "transition_errors.csv",
            ["row", "l1_error"],
            ([i, repr(err)] for i, err in enumerate(per_row)),
        )
        payload["max_row_l1_error"] = transition_l1_error(phi, oracle)
        payload["frobenius_error"] = transition_frobenius_error(phi, oracle)
        print(f"max row L1 error: {payload['max_row_l1_error']:.5f}")
    _write_json(payload, out / "transition_summary.json")
    return EXIT_OK


def cmd_diagnose_variation(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    values_a, values_b = (
        [row["measured"] for row in read_csv(Path(run) / "variations.csv", {"measured": float})]
        for run in (args.run_a, args.run_b)
    )
    write_histogram_csv(variation_histogram(values_a, bins=args.bins), out / "histogram_a.csv")
    write_histogram_csv(variation_histogram(values_b, bins=args.bins), out / "histogram_b.csv")
    payload = {
        "run_a": str(args.run_a),
        "run_b": str(args.run_b),
        "max_a": max(values_a),
        "max_b": max(values_b),
        "a_max_below_b_max": max(values_a) < max(values_b),
    }
    _write_json(payload, out / "variation_summary.json")
    print(f"max variation: {payload['max_a']:.5f} (a) vs {payload['max_b']:.5f} (b)")
    return EXIT_OK


def cmd_diagnose_correction(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    records = read_metrics_csv(Path(args.run) / "metrics.csv")
    rows = [
        (r.step, r.correction_ratio)
        for r in records
        if r.split == "train" and r.correction_ratio is not None
    ]
    if not rows:
        raise ParameterError("run has no correction_ratio records")
    write_csv(
        out / "correction_trace.csv",
        ["step", "correction_ratio"],
        ([step, repr(ratio)] for step, ratio in rows),
    )
    print(f"correction ratio: {rows[0][1]:.4f} -> {rows[-1][1]:.4f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lccn-lab",
        description="Latent class-conditional label-noise experiments at desk scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic noisy dataset as JSON")
    gen.add_argument("--k", type=int, required=True, help="number of classes")
    gen.add_argument("--d", type=int, default=2, help="feature dimension")
    gen.add_argument("--n-per-class", type=int, required=True)
    gen.add_argument("--separation", type=float, default=4.0)
    gen.add_argument("--noise", choices=NOISE_KINDS, default="none")
    gen.add_argument("--ratio", type=float, default=0.0)
    gen.add_argument("--pair-map", type=int, nargs="+", default=None)
    gen.add_argument("--ood-fraction", type=float, default=0.0)
    gen.add_argument("--n-clean", type=int, default=0)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", default=".")
    gen.set_defaults(func=cmd_generate)

    train = sub.add_parser("train", help="run one trainer from an experiment config")
    train.add_argument("--config", required=True)
    train.add_argument("--out", required=True)
    train.add_argument("--seeds", type=int, nargs="+", default=None)
    train.set_defaults(func=cmd_train)

    sweep = sub.add_parser("sweep", help="repeat an experiment over a parameter grid")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--param", required=True)
    sweep.add_argument(
        "--values", nargs="*", default=[],
        help="grid values, each parsed as JSON: quote strings, e.g. '\"lccn\"'",
    )
    sweep.add_argument("--seeds", type=int, nargs="+", default=None)
    sweep.add_argument("--out", required=True)
    sweep.set_defaults(func=cmd_sweep)

    diag = sub.add_parser("diagnose", help="emit plot-ready CSV diagnostics")
    diag_sub = diag.add_subparsers(dest="what", required=True)

    mixing = diag_sub.add_parser("mixing", help="chain marginals vs exact enumeration")
    mixing.add_argument("--n", type=int, default=6)
    mixing.add_argument("--k", type=int, default=2)
    mixing.add_argument("--sweeps", type=int, default=50000)
    mixing.add_argument("--burn-in", type=int, default=5000)
    mixing.add_argument("--alpha", type=float, default=1.0)
    mixing.add_argument("--seed", type=int, default=0)
    mixing.add_argument("--out", required=True)
    mixing.set_defaults(func=cmd_diagnose_mixing)

    transition = diag_sub.add_parser("transition", help="colormap + errors of a run's transition")
    transition.add_argument("--run", required=True)
    transition.add_argument("--oracle", default=None)
    transition.add_argument("--out", required=True)
    transition.set_defaults(func=cmd_diagnose_transition)

    variation = diag_sub.add_parser("variation", help="per-batch variation histograms of two runs")
    variation.add_argument("--run-a", required=True)
    variation.add_argument("--run-b", required=True)
    variation.add_argument("--bins", type=int, default=50)
    variation.add_argument("--out", required=True)
    variation.set_defaults(func=cmd_diagnose_variation)

    correction = diag_sub.add_parser("correction", help="correction-ratio trace of a run")
    correction.add_argument("--run", required=True)
    correction.add_argument("--out", required=True)
    correction.set_defaults(func=cmd_diagnose_correction)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (TrainingError, InvariantError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
