"""Acceptance gate: eleven frozen behaviours with pinned tolerances.

Each test prints exactly one verdict line; run with `pytest
tests/test_acceptance.py -s` to see them all. Data sizes are chosen so the
whole module finishes in about a minute on a laptop.
"""

import json
import statistics
import time

import numpy as np
import pytest

from lccn_lab.classifier import Architecture, LossConfig, init_params, loss_and_grads
from lccn_lab.cli import main as cli_main
from lccn_lab.datagen import NoiseSpec, apply_noise, make_gaussian_mixture
from lccn_lab.metrics import transition_l1_error
from lccn_lab.noise_model import DirichletPrior, confusion_counts, update_bound, warmup_transition
from lccn_lab.sampler import gibbs_sample_batch, mixing_diagnostic
from lccn_lab.trainers import (
    TrainConfig,
    _composed_loss_grads,
    _row_softmax,
    em_e_step,
    train_ce,
    train_em_reference,
    train_forward_fixed,
    train_lccn,
    train_s_adaptation,
)


def report(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE] criterion {num:02d} ({name}): {status} — {detail}")
    assert ok, f"criterion {num:02d} ({name}) failed: {detail}"


# --- shared experiment bundles (built once, reused across criteria) ----------


@pytest.fixture(scope="module")
def recovery_bundle():
    """Three well-separated classes, pair-flip noise at 0.4, 5 paired seeds."""
    clean = make_gaussian_mixture(n_classes=3, dim=2, n_per_class=1000, separation=6.0, seed=42)
    spec = NoiseSpec(kind="asymmetric", ratio=0.4, seed=17)
    noisy, _ = apply_noise(clean, spec)
    test = make_gaussian_mixture(n_classes=3, dim=2, n_per_class=300, separation=6.0, seed=10049)
    phi_star = spec.true_transition(3)
    shared = dict(epochs=30, batch_size=8, learning_rate=0.01, pretrain_epochs=10, eval_every=10)
    start = time.perf_counter()
    latent = [
        train_lccn(noisy, TrainConfig(kind="lccn", seed=s, reference_phi=phi_star, **shared), test)
        for s in range(5)
    ]
    latent_seconds = time.perf_counter() - start
    adapted = [
        train_s_adaptation(
            noisy,
            TrainConfig(
                kind="s_adaptation", seed=s, transition_lr=0.1, reference_phi=phi_star, **shared
            ),
            test,
        )
        for s in range(5)
    ]
    return {
        "clean": clean,
        "noisy": noisy,
        "test": test,
        "phi_star": phi_star,
        "latent": latent,
        "adapted": adapted,
        "latent_seconds": latent_seconds,
    }


@pytest.fixture(scope="module")
def ordering_bundle():
    """Four overlapping classes, pair-flip noise at 0.4, MLP classifiers, 5 seeds."""
    clean = make_gaussian_mixture(n_classes=4, dim=2, n_per_class=250, separation=4.0, seed=42)
    spec = NoiseSpec(kind="asymmetric", ratio=0.4, seed=17)
    noisy, _ = apply_noise(clean, spec)
    test = make_gaussian_mixture(n_classes=4, dim=2, n_per_class=200, separation=4.0, seed=10049)
    shared = dict(
        batch_size=32, learning_rate=0.02, hidden_width=64, activation="tanh", eval_every=15
    )
    ce = [
        train_ce(noisy, TrainConfig(kind="ce", epochs=90, seed=s, **shared), test)
        for s in range(5)
    ]
    latent = [
        train_lccn(
            noisy,
            TrainConfig(kind="lccn", epochs=60, pretrain_epochs=30, seed=s, **shared),
            test,
        )
        for s in range(5)
    ]
    composed = [
        train_forward_fixed(
            noisy,
            TrainConfig(kind="forward_fixed", epochs=60, pretrain_epochs=30, seed=s, **shared),
            test,
        )
        for s in range(5)
    ]
    heavy_prior = [
        train_lccn(
            noisy,
            TrainConfig(
                kind="lccn", epochs=60, pretrain_epochs=30, alpha=1000.0, seed=s, **shared
            ),
            test,
        )
        for s in range(5)
    ]
    return {
        "ce": ce,
        "latent": latent,
        "composed": composed,
        "heavy_prior": heavy_prior,
    }


@pytest.fixture(scope="module")
def em_bundle(blobs2_tiny):
    """64-sample comparison of the collapsed sampler against the explicit EM loop."""
    noisy, test = blobs2_tiny["noisy"], blobs2_tiny["test"]
    shared = dict(epochs=20, batch_size=8, learning_rate=0.02, pretrain_epochs=10, eval_every=5)
    em = [
        train_em_reference(noisy, TrainConfig(kind="em_reference", seed=s, **shared), test)
        for s in range(5)
    ]
    latent = [
        train_lccn(noisy, TrainConfig(kind="lccn", seed=s, **shared), test) for s in range(5)
    ]
    return {"em": em, "latent": latent}


def median_accuracy(runs):
    return statistics.median(r.final_test_accuracy() for r in runs)


# --- the eleven criteria ------------------------------------------------------


def test_criterion_01_chain_marginals_match_enumeration():
    rng = np.random.default_rng(123)
    probs = rng.dirichlet(np.ones(2), size=6)
    observed = rng.integers(0, 2, size=6)
    prior = DirichletPrior.uniform(2, 1.0)
    start = time.perf_counter()
    diag = mixing_diagnostic(probs, observed, prior, sweeps=50000, burn_in=5000, seed=11)
    elapsed = time.perf_counter() - start
    ok = diag.max_tv <= 0.02 and elapsed < 60.0
    report(
        1,
        "chain-marginals-match-enumeration",
        ok,
        f"max TV {diag.max_tv:.5f} <= 0.02 after 50000 sweeps in {elapsed:.1f}s",
    )


def test_criterion_02_update_bound_never_violated(recovery_bundle):
    run_violations = 0
    n_batches = 0
    for run in recovery_bundle["latent"]:
        for var in run.batch_variations:
            n_batches += 1
            if var.measured > var.bound + 1e-12:
                run_violations += 1

    rng = np.random.default_rng(2024)
    synth_violations = 0
    for _ in range(10000):
        k = int(rng.integers(2, 5))
        base = rng.integers(0, 40, size=(k, k)).astype(np.int64)
        after_counts = base.copy()
        for _ in range(int(rng.integers(1, 9))):
            occupied = np.argwhere(after_counts > 0)
            if len(occupied) and rng.random() < 0.5:
                i, j = occupied[rng.integers(len(occupied))]
                after_counts[i, j] -= 1
            after_counts[rng.integers(k), rng.integers(k)] += 1
        cert = update_bound(after=after_counts, before=base, prior=DirichletPrior.uniform(k, 1.0))
        if np.any(cert.measured > cert.bound + 1e-12):
            synth_violations += 1

    ok = n_batches >= 10000 and run_violations == 0 and synth_violations == 0
    report(
        2,
        "per-batch-update-bound",
        ok,
        f"{n_batches} training batches with {run_violations} violations; "
        f"10000 synthetic pairs with {synth_violations} violations",
    )


def test_criterion_03_sampler_matches_hand_distribution():
    probs = np.array([[0.8, 0.2]])
    observed = np.array([0])
    prior = DirichletPrior.uniform(2, 1.0)
    counts = np.array([[6, 5], [5, 5]], dtype=np.int64)
    latent = np.array([0])
    rng = np.random.default_rng(99)
    draws = 100000
    hits = 0
    start = time.perf_counter()
    for _ in range(draws):
        gibbs_sample_batch(probs, observed, counts, prior, latent, np.array([0]), rng)
        hits += int(latent[0] == 0)
    elapsed = time.perf_counter() - start
    freq = hits / draws
    ok = abs(freq - 0.8) <= 0.01 and elapsed < 10.0
    report(
        3,
        "single-sample-distribution",
        ok,
        f"empirical P(latent=0) {freq:.4f} vs 0.8 (+-0.01) over {draws} draws in {elapsed:.1f}s",
    )


def test_criterion_04_transition_recovery(recovery_bundle):
    clean_probe = train_ce(
        recovery_bundle["clean"],
        TrainConfig(kind="ce", epochs=20, batch_size=32, learning_rate=0.05, seed=0),
        recovery_bundle["test"],
    )
    clean_acc = clean_probe.final_test_accuracy()
    errors = [
        transition_l1_error(run.final_phi.matrix, recovery_bundle["phi_star"])
        for run in recovery_bundle["latent"]
    ]
    med = statistics.median(errors)
    elapsed = recovery_bundle["latent_seconds"]
    ok = clean_acc > 0.97 and med <= 0.05 and elapsed < 300.0
    report(
        4,
        "transition-recovery",
        ok,
        f"median max-row L1 {med:.4f} <= 0.05 over 5 seeds "
        f"(clean-label accuracy {clean_acc:.4f} > 0.97; runs took {elapsed:.0f}s)",
    )


def test_criterion_05_count_updates_steadier_than_gradient_layer(recovery_bundle):
    pairs = []
    for latent_run, adapted_run in zip(recovery_bundle["latent"], recovery_bundle["adapted"]):
        latent_max = max(v.measured for v in latent_run.batch_variations)
        adapted_max = max(v.measured for v in adapted_run.batch_variations)
        pairs.append((latent_max, adapted_max))
    ok = all(a < b for a, b in pairs)
    detail = ", ".join(f"{a:.4f}<{b:.4f}" for a, b in pairs)
    report(5, "count-vs-gradient-stability", ok, f"max row variation per seed: {detail}")


def test_criterion_06_accuracy_ordering(ordering_bundle):
    latent = median_accuracy(ordering_bundle["latent"])
    ce = median_accuracy(ordering_bundle["ce"])
    composed = median_accuracy(ordering_bundle["composed"])
    ok = latent >= ce + 0.03 and latent >= composed
    report(
        6,
        "accuracy-ordering",
        ok,
        f"median accuracy: latent {latent:.4f} >= plain CE {ce:.4f} + 0.03 "
        f"and >= frozen-channel {composed:.4f}",
    )


def test_criterion_07_correction_ratio_improves(ordering_bundle):
    initials, finals = [], []
    for run in ordering_bundle["latent"]:
        train_rows = run.records_for("train")
        initials.append(train_rows[0].correction_ratio)
        finals.append(train_rows[-1].correction_ratio)
    med_initial = statistics.median(initials)
    med_final = statistics.median(finals)
    ok = med_final > med_initial
    report(
        7,
        "correction-ratio-improves",
        ok,
        f"median correction ratio {med_initial:.4f} -> {med_final:.4f}",
    )


def test_criterion_08_explicit_em_agrees(em_bundle, rng):
    logits = rng.normal(size=(50, 3))
    predictions = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    observed = rng.integers(0, 3, size=50)
    bit_match = np.array_equal(
        em_e_step(predictions, observed, 3).matrix,
        warmup_transition(predictions, observed, 3).matrix,
    )
    diffs = [
        transition_l1_error(latent_run.final_phi.matrix, em_run.final_phi.matrix)
        for latent_run, em_run in zip(em_bundle["latent"], em_bundle["em"])
    ]
    med = statistics.median(diffs)
    ok = bit_match and med <= 0.1
    report(
        8,
        "explicit-em-agreement",
        ok,
        f"expectation step bit-match {bit_match}; median max-row L1 gap {med:.4f} <= 0.1",
    )


def test_criterion_09_heavy_prior_hurts_accuracy(ordering_bundle):
    light = median_accuracy(ordering_bundle["latent"])
    heavy = median_accuracy(ordering_bundle["heavy_prior"])
    ok = heavy < light
    report(
        9,
        "concentration-ablation",
        ok,
        f"median accuracy {heavy:.4f} at alpha=1000 < {light:.4f} at alpha=1",
    )


def _numeric_grad(f, tensor, h=1e-6):
    grad = np.zeros_like(tensor)
    it = np.nditer(tensor, flags=["multi_index"])
    for _ in it:
        ix = it.multi_index
        orig = tensor[ix]
        tensor[ix] = orig + h
        hi = f()
        tensor[ix] = orig - h
        lo = f()
        tensor[ix] = orig
        grad[ix] = (hi - lo) / (2.0 * h)
    return grad


def _relative_gap(analytic, numeric):
    return float(np.max(np.abs(analytic - numeric) / np.maximum(1.0, np.abs(numeric))))


def test_criterion_10_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    loss_cfg = LossConfig(1e-20)
    worst = 0.0
    trials = 0

    for _ in range(70):
        d = int(rng.integers(1, 5))
        k = int(rng.integers(2, 5))
        hidden = int(rng.choice([0, 3, 4, 6]))
        activation = str(rng.choice(["relu", "tanh"]))
        kind = "mlp" if hidden else "linear"
        arch = Architecture(kind, d, k, hidden, activation)
        params = init_params(arch, int(rng.integers(0, 10000)))
        features = rng.normal(size=(int(rng.integers(1, 6)), d))
        targets = rng.dirichlet(np.ones(k), size=features.shape[0])
        _, grads = loss_and_grads(params, features, targets, loss_cfg)
        for name, tensor in params.tensors.items():
            numeric = _numeric_grad(
                lambda: loss_and_grads(params, features, targets, loss_cfg)[0], tensor
            )
            worst = max(worst, _relative_gap(grads[name], numeric))
        trials += 1

    for _ in range(40):
        d = int(rng.integers(1, 4))
        k = int(rng.integers(2, 5))
        arch = Architecture("linear", d, k)
        params = init_params(arch, int(rng.integers(0, 10000)))
        features = rng.normal(size=(int(rng.integers(1, 6)), d))
        observed = rng.integers(0, k, size=features.shape[0])
        layer_logits = rng.normal(size=(k, k))

        phi = _row_softmax(layer_logits)
        _, _, dphi = _composed_loss_grads(params, features, observed, phi, loss_cfg)
        inner = (phi * dphi).sum(axis=1, keepdims=True)
        analytic = phi * (dphi - inner)

        def layer_loss():
            return _composed_loss_grads(
                params, features, observed, _row_softmax(layer_logits), loss_cfg
            )[0]

        numeric = _numeric_grad(layer_loss, layer_logits)
        worst = max(worst, _relative_gap(analytic, numeric))
        trials += 1

    ok = trials >= 100 and worst < 1e-4
    report(
        10,
        "gradient-finite-difference",
        ok,
        f"{trials} random trials, worst relative gap {worst:.2e} < 1e-4",
    )


def test_criterion_11_bookkeeping_invariants(
    recovery_bundle, ordering_bundle, em_bundle, tmp_path
):
    # counts always equal the histogram of the current assignment
    rng = np.random.default_rng(5)
    k, n = 3, 40
    probs = rng.dirichlet(np.ones(k), size=n)
    observed = rng.integers(0, k, size=n)
    prior = DirichletPrior.uniform(k, 1.0)
    latent = observed.copy()
    counts = confusion_counts(latent, observed, k, k)
    for _ in range(50):
        idx = rng.choice(n, size=8, replace=False)
        gibbs_sample_batch(probs[idx], observed[idx], counts, prior, latent, idx, rng)
    books_ok = bool(np.array_equal(counts, confusion_counts(latent, observed, k, k)))

    # every transition any trainer emitted is row-stochastic
    emitted = [
        run.final_phi.matrix
        for bundle in (recovery_bundle, ordering_bundle, em_bundle)
        for key in ("latent", "adapted", "composed", "heavy_prior", "em")
        if key in bundle
        for run in bundle[key]
        if run.final_phi is not None
    ]
    stochastic_ok = all(
        np.all(np.abs(m.sum(axis=1) - 1.0) <= 1e-9) and np.all(m >= 0.0) for m in emitted
    )

    # a rerun with the same configuration reproduces metrics.csv byte for byte
    cfg = {
        "generator": {"k": 2, "n_per_class": 12, "separation": 5.0, "seed": 1},
        "noise": {"kind": "symmetric", "ratio": 0.3, "seed": 2},
        "test": {"n_per_class": 10},
        "train": {
            "kind": "lccn", "epochs": 1, "pretrain_epochs": 1, "batch_size": 8,
            "learning_rate": 0.02, "eval_every": 1, "seed": 0,
        },
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli_main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "a")]) == 0
    assert cli_main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "b")]) == 0
    rerun_ok = (tmp_path / "a" / "metrics.csv").read_bytes() == (
        tmp_path / "b" / "metrics.csv"
    ).read_bytes()

    ok = books_ok and stochastic_ok and rerun_ok
    report(
        11,
        "bookkeeping-invariants",
        ok,
        f"counts==assignment histogram {books_ok}; "
        f"{len(emitted)} emitted transitions row-stochastic {stochastic_ok}; "
        f"byte-identical rerun {rerun_ok}",
    )
