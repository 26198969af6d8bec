"""End-to-end trainer behaviour: equivalences, determinism, and config guards."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lccn_lab.datagen import NoiseSpec, apply_noise, make_gaussian_mixture, mark_clean_subset
from lccn_lab.errors import InvariantError, ParameterError, TrainingError
from lccn_lab.metrics import MetricsRecord
from lccn_lab.trainers import (
    TRAINER_KINDS,
    RunResult,
    TrainConfig,
    em_e_step,
    run_trainer,
    train_bootstrap_hard,
    train_ce,
    train_forward_fixed,
    train_lccn,
    train_lccn_plus,
    train_lccn_star,
    train_s_adaptation,
)
from lccn_lab.noise_model import (
    DirichletPrior,
    TransitionMatrix,
    confusion_counts,
    update_bound,
    warmup_transition,
)
from lccn_lab.sampler import AnnealSchedule, gibbs_sample_batch


def records_equal(a, b):
    if len(a) != len(b):
        return False
    return all(ra == rb for ra, rb in zip(a, b))


def params_equal(pa, pb):
    return all(np.array_equal(pa.tensors[k], pb.tensors[k]) for k in pa.tensors)


# --- exact equivalences between trainers ------------------------------------


def test_identity_channel_reduces_to_plain_ce(blobs2_tiny):
    ds, test = blobs2_tiny["noisy"], blobs2_tiny["test"]
    common = dict(epochs=3, batch_size=16, learning_rate=0.05, seed=5, eval_every=1)
    ce = train_ce(ds, TrainConfig(kind="ce", **common), test)
    ff = train_forward_fixed(
        ds,
        TrainConfig(kind="forward_fixed", pretrain_epochs=0, oracle_phi=np.eye(2), **common),
        test,
    )
    assert records_equal(ce.records, ff.records)
    assert params_equal(ce.final_params, ff.final_params)
    assert np.array_equal(ff.final_phi.matrix, np.eye(2))


def test_full_weight_bootstrap_reduces_to_plain_ce(blobs2_tiny):
    ds, test = blobs2_tiny["noisy"], blobs2_tiny["test"]
    common = dict(epochs=3, batch_size=16, learning_rate=0.05, seed=5, eval_every=1)
    ce = train_ce(ds, TrainConfig(kind="ce", **common), test)
    boot = train_bootstrap_hard(
        ds, TrainConfig(kind="bootstrap_hard", bootstrap_beta=1.0, **common), test
    )
    assert records_equal(ce.records, boot.records)
    assert params_equal(ce.final_params, boot.final_params)


def test_all_pinned_latent_run_reduces_to_plain_ce(blobs2_tiny):
    # every sample trusted: nothing is ever resampled, so the run is CE with
    # the epoch budget split between the two phases
    ds = dataclasses.replace(
        blobs2_tiny["noisy"], clean_mask=np.ones(blobs2_tiny["noisy"].n, dtype=bool)
    )
    plus = train_lccn_plus(
        ds, TrainConfig(kind="lccn_plus", epochs=2, pretrain_epochs=2, batch_size=16,
                        learning_rate=0.05, seed=9)
    )
    ce = train_ce(
        ds, TrainConfig(kind="ce", epochs=4, batch_size=16, learning_rate=0.05, seed=9)
    )
    assert params_equal(ce.final_params, plus.final_params)
    assert plus.batch_variations == []


def test_em_expectation_matches_warmup_estimator(rng):
    logits = rng.normal(size=(40, 3))
    predictions = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    observed = rng.integers(0, 3, size=40)
    assert np.array_equal(
        em_e_step(predictions, observed, 3).matrix,
        warmup_transition(predictions, observed, 3).matrix,
    )


def test_frozen_adaptation_layer_keeps_initial_channel(blobs2_tiny):
    ds = blobs2_tiny["noisy"]
    start = np.array([[0.7, 0.3], [0.4, 0.6]])
    result = train_s_adaptation(
        ds,
        TrainConfig(
            kind="s_adaptation", epochs=2, pretrain_epochs=1, batch_size=16,
            learning_rate=0.05, seed=3, oracle_phi=start, warmup_steps=10**6,
        ),
    )
    assert np.array_equal(result.final_phi.matrix, start)
    assert result.batch_variations == []


# --- determinism and bookkeeping ---------------------------------------------


def test_same_seed_reproduces_run_bitwise(blobs2_tiny):
    ds, test = blobs2_tiny["noisy"], blobs2_tiny["test"]
    cfg = TrainConfig(kind="lccn", epochs=2, pretrain_epochs=1, batch_size=16,
                      learning_rate=0.02, seed=0, eval_every=1)
    first = train_lccn(ds, cfg, test)
    second = train_lccn(ds, cfg, test)
    assert records_equal(first.records, second.records)
    assert params_equal(first.final_params, second.final_params)
    assert first.batch_variations == second.batch_variations

    other = train_lccn(ds, dataclasses.replace(cfg, seed=1), test)
    assert not params_equal(first.final_params, other.final_params)


def test_latent_run_emits_stochastic_transition(blobs2_tiny):
    ds = blobs2_tiny["noisy"]
    result = train_lccn(
        ds, TrainConfig(kind="lccn", epochs=2, pretrain_epochs=1, batch_size=16,
                        learning_rate=0.02, seed=4)
    )
    phi = result.final_phi.matrix
    assert phi.shape == (2, 2)
    assert np.allclose(phi.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(phi >= 0)


def test_iteration_cap_limits_sampling_phase(blobs2_tiny):
    ds = blobs2_tiny["noisy"]
    result = train_lccn(
        ds, TrainConfig(kind="lccn", epochs=10, pretrain_epochs=0, batch_size=16,
                        learning_rate=0.02, seed=4, total_iterations=3)
    )
    assert len(result.batch_variations) == 3


def test_outlier_bucket_has_extra_row(blobs2_tiny):
    spec = NoiseSpec(kind="openset", ratio=0.3, ood_fraction=0.25, seed=5)
    ds, _ = apply_noise(blobs2_tiny["clean"], spec)
    result = train_lccn_star(
        ds, TrainConfig(kind="lccn_star", epochs=2, pretrain_epochs=1, batch_size=16,
                        learning_rate=0.02, seed=4)
    )
    assert result.final_phi.matrix.shape == (3, 2)
    assert result.outlier_recall is not None
    assert 0.0 <= result.outlier_recall <= 1.0


def test_pinned_trainer_warns_without_trusted_samples(blobs2_tiny):
    ds = blobs2_tiny["noisy"]
    assert not ds.clean_mask.any()
    with pytest.warns(UserWarning, match="clean subset"):
        train_lccn_plus(
            ds, TrainConfig(kind="lccn_plus", epochs=1, pretrain_epochs=0, batch_size=16,
                            learning_rate=0.02, seed=4)
        )


def test_dispatch_runs_requested_trainer(blobs2_tiny):
    ds, test = blobs2_tiny["noisy"], blobs2_tiny["test"]
    result = run_trainer(ds, TrainConfig(kind="ce", epochs=1, batch_size=16, seed=0), test)
    assert result.records
    assert 0.0 <= result.final_test_accuracy() <= 1.0

    no_test = run_trainer(ds, TrainConfig(kind="ce", epochs=1, batch_size=16, seed=0))
    with pytest.raises(ParameterError):
        no_test.final_test_accuracy()


def test_record_order_validation_catches_regressions():
    rows = [
        MetricsRecord(step=5, split="train", accuracy=0.5, loss=1.0),
        MetricsRecord(step=5, split="train", accuracy=0.5, loss=1.0),
    ]
    result = RunResult(records=rows, final_params=None, final_phi=None)
    with pytest.raises(InvariantError):
        result.validate_record_order()


@pytest.mark.parametrize("kind", TRAINER_KINDS)
def test_shared_loop_eval_cadence(kind, blobs2_tiny):
    # 64 samples at batch 16: 4 batches per pass; em_reference makes 2 passes
    # per outer epoch, and only ce and bootstrap_hard skip pretraining
    ds = mark_clean_subset(blobs2_tiny["noisy"], 8, 0)
    common = dict(kind=kind, epochs=3, pretrain_epochs=2, batch_size=16,
                  learning_rate=0.02, em_m_epochs=2, seed=1)
    first = 0 if kind in ("ce", "bootstrap_hard") else 2 * 4
    per_epoch = 8 if kind == "em_reference" else 4

    result = run_trainer(ds, TrainConfig(eval_every=2, **common), blobs2_tiny["test"])
    steps = [r.step for r in result.records_for("train")]
    assert steps == [first, first + 2 * per_epoch, first + 3 * per_epoch]
    assert [r.step for r in result.records_for("test")] == steps

    sparse = run_trainer(ds, TrainConfig(eval_every=4, **common))
    assert [r.step for r in sparse.records] == [first, first + 3 * per_epoch]
    assert [r.split for r in sparse.records] == ["train", "train"]


def test_milestones_change_learning_rate(blobs2_tiny):
    # a drastic late-epoch rate blows past the plain run's parameters
    ds = blobs2_tiny["noisy"]
    base = TrainConfig(kind="ce", epochs=4, batch_size=16, learning_rate=0.01, seed=2)
    plain = train_ce(ds, base)
    stepped = train_ce(ds, dataclasses.replace(base, lr_milestones=((2, 0.2),)))
    assert not params_equal(plain.final_params, stepped.final_params)


@pytest.mark.parametrize(
    "bad",
    [
        dict(kind="mystery"),
        dict(epochs=-1),
        dict(pretrain_epochs=-1),
        dict(batch_size=0),
        dict(bootstrap_beta=1.5),
        dict(warmup_steps=-1),
        dict(total_iterations=-1),
        dict(warmup_kind="bogus"),
        dict(eval_every=0),
        dict(em_m_epochs=0),
        dict(clip=0.0),
        dict(anneal=True),
        dict(batch_size=8.5),
        dict(seed=True),
        dict(total_iterations="10"),
        dict(momentum="x"),
        dict(grad_clip=[0.1]),
        dict(alpha="x"),
        dict(alpha=float("nan")),
        dict(alpha=float("inf")),
        dict(alpha=(1.0, float("-inf"), 1.0)),
        dict(alpha=0.0),
        dict(hidden_width=-3),
    ],
)
def test_config_rejects_bad_values(bad):
    with pytest.raises(ParameterError):
        TrainConfig(**bad)


@pytest.mark.parametrize("kind", ["lccn", "lccn_star", "lccn_plus"])
def test_tiny_concentration_keeps_bound_certified(kind):
    # with alpha ~ 0, a batch that empties a latent row drives the net ratio of
    # that row to -1 in floating point; the bound must still certify the batch
    clean = make_gaussian_mixture(n_classes=3, dim=2, n_per_class=40, separation=4.0, seed=5)
    noisy, _ = apply_noise(clean, NoiseSpec(kind="symmetric", ratio=0.3, ood_fraction=0.1, seed=6))
    ds = mark_clean_subset(noisy, 12, 7)
    cfg = TrainConfig(kind=kind, epochs=5, pretrain_epochs=2, batch_size=16, hidden_width=8,
                      learning_rate=0.1, eval_every=2, alpha=1e-300, seed=0)
    result = run_trainer(ds, cfg)
    assert all(v.measured <= v.bound + 1e-12 for v in result.batch_variations)


def test_alpha_vector_must_match_class_count(blobs2_tiny):
    ds = blobs2_tiny["noisy"]
    cfg = TrainConfig(kind="lccn", epochs=1, pretrain_epochs=0, batch_size=16,
                      alpha=(1.0, 1.0, 1.0), seed=0)
    with pytest.raises(ParameterError, match="alpha"):
        train_lccn(ds, cfg)


def test_oracle_channel_shape_checked(blobs2_tiny):
    ds = blobs2_tiny["noisy"]
    cfg = TrainConfig(kind="forward_fixed", epochs=1, pretrain_epochs=0,
                      batch_size=16, oracle_phi=np.eye(3), seed=0)
    with pytest.raises(ParameterError, match="oracle_phi"):
        train_forward_fixed(ds, cfg)


# --- certificate of batches that move no label -------------------------------


@given(
    n_observed=st.integers(2, 9),
    extra_row=st.booleans(),
    log_alpha=st.floats(-300.0, 1.0),
    vector_alpha=st.booleans(),
    warmup=st.booleans(),
    clean_share=st.sampled_from([0.0, 0.3]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_batch_that_moves_no_label_certifies_as_zero(
    n_observed, extra_row, log_alpha, vector_alpha, warmup, clean_share, seed
):
    # `_train_latent` records such a batch as (0.0, 0.0) without calling
    # update_bound; this is what the certificate would have given.
    data = np.random.default_rng(seed)
    n_latent = n_observed + extra_row
    observed = data.integers(0, n_observed, size=40)
    clean = data.random(40) < clean_share
    clean[0] = False
    latent = observed.copy()
    counts = confusion_counts(latent, observed, n_latent, n_observed, exclude=clean)
    alpha = 10.0**log_alpha * (data.uniform(0.5, 2.0, size=n_observed) if vector_alpha else 1.0)
    prior = DirichletPrior(np.broadcast_to(alpha, (n_observed,)))
    warmup_phi = (
        TransitionMatrix(data.dirichlet(np.ones(n_observed), size=n_latent)) if warmup else None
    )
    resample = np.flatnonzero(~clean)
    for step in range(12):
        positions = data.choice(resample, size=min(len(resample), 8), replace=False)
        previous = latent[positions]
        # A classifier sure of the current labels keeps them all (always in the
        # first batch); a less sure one moves some.
        eps = 0.0 if step == 0 else data.choice([0.0, 1e-3, 0.5])
        probs = np.full((len(positions), n_latent), eps / n_latent)
        probs[np.arange(len(positions)), previous] += 1.0 - eps
        before = counts.copy()
        sampled = gibbs_sample_batch(
            probs, observed[positions], counts, prior, latent, positions, data,
            warmup_phi=warmup_phi,
        )
        if not np.array_equal(sampled, previous):
            continue
        assert np.array_equal(counts, before)
        cert = update_bound(before, counts, prior)
        for name in ("net_change", "abs_change", "net_ratio", "abs_ratio", "bound", "measured"):
            assert getattr(cert, name).tobytes() == bytes(8 * n_latent), name
        worst = int(np.argmax(cert.measured))
        assert (float(cert.measured[worst]), float(cert.bound[worst])) == (0.0, 0.0)


def test_label_swap_with_equal_counts_is_still_certified(blobs2_tiny, monkeypatch):
    # One batch per epoch. The first moves one label; the second swaps it with
    # a sample of the same observed label, so labels move but the counts end
    # up equal; later batches move nothing.
    ds = blobs2_tiny["noisy"]
    certificates = []

    def recording_bound(before, after, prior):
        cert = update_bound(before, after, prior)
        certificates.append((np.array_equal(before, after), cert))
        return cert

    scripted = []

    def scripted_sampler(probs, observed, counts, prior, labels, positions, rng, **_):
        if not scripted:
            s = positions[0]
            o = ds.noisy_labels[s]
            counts[o, o] -= 1
            counts[1 - o, o] += 1
            labels[s] = 1 - o
            scripted.append(s)
        elif len(scripted) == 1:
            s = scripted[0]
            o = ds.noisy_labels[s]
            t = next(p for p in positions if p != s and ds.noisy_labels[p] == o)
            labels[s], labels[t] = o, 1 - o
            scripted.append(t)
        return labels[positions].copy()

    monkeypatch.setattr("lccn_lab.trainers.update_bound", recording_bound)
    monkeypatch.setattr("lccn_lab.trainers.gibbs_sample_batch", scripted_sampler)
    result = train_lccn(
        ds, TrainConfig(kind="lccn", epochs=4, pretrain_epochs=1, batch_size=ds.n, seed=0)
    )
    assert [equal for equal, _ in certificates] == [False, True]
    swap = certificates[1][1]
    assert not swap.measured.any() and not swap.bound.any()
    variations = [(v.measured, v.bound) for v in result.batch_variations]
    assert len(variations) == 4
    assert variations[0][0] > 0.0
    assert variations[1:] == [(0.0, 0.0)] * 3


@pytest.mark.parametrize("kind", ["lccn", "lccn_star", "lccn_plus"])
def test_update_bound_runs_once_per_batch_that_moved_a_label(kind, monkeypatch):
    clean = make_gaussian_mixture(n_classes=3, dim=2, n_per_class=40, separation=4.0, seed=5)
    noisy, _ = apply_noise(clean, NoiseSpec(kind="symmetric", ratio=0.3, ood_fraction=0.1, seed=6))
    ds = mark_clean_subset(noisy, 12, 7)
    moved, bound_calls = [], []

    def watching_sampler(probs, observed, counts, prior, labels, positions, rng, **kwargs):
        previous = labels[positions]
        sampled = gibbs_sample_batch(probs, observed, counts, prior, labels, positions, rng, **kwargs)
        moved.append(not np.array_equal(sampled, previous))
        return sampled

    def counting_bound(before, after, prior):
        bound_calls.append(1)
        return update_bound(before, after, prior)

    monkeypatch.setattr("lccn_lab.trainers.gibbs_sample_batch", watching_sampler)
    monkeypatch.setattr("lccn_lab.trainers.update_bound", counting_bound)
    cfg = TrainConfig(kind=kind, epochs=3, pretrain_epochs=2, batch_size=8, hidden_width=8,
                      learning_rate=0.1, seed=0)
    result = run_trainer(ds, cfg)
    assert 0 < sum(moved) < len(moved)
    assert len(bound_calls) == sum(moved)
    assert len(result.batch_variations) == len(moved)
    for label_moved, v in zip(moved, result.batch_variations):
        assert label_moved or (v.measured, v.bound) == (0.0, 0.0)


# --- config fuzz -------------------------------------------------------------

_FUZZ_CLEAN = make_gaussian_mixture(n_classes=3, dim=2, n_per_class=20, separation=4.0, seed=21)
_FUZZ_NOISY, _ = apply_noise(
    _FUZZ_CLEAN, NoiseSpec(kind="symmetric", ratio=0.3, ood_fraction=0.1, seed=22)
)
FUZZ_DS = mark_clean_subset(_FUZZ_NOISY, 8, 23)  # 60 samples, 8 trusted
FUZZ_TEST = make_gaussian_mixture(n_classes=3, dim=2, n_per_class=10, separation=4.0, seed=24)

_anneal = st.one_of(
    st.just(AnnealSchedule()),
    st.builds(AnnealSchedule, enabled=st.just(True), max_step=st.integers(1, 40),
              target=st.sampled_from(["transition", "product"])),
)
_alpha = st.one_of(
    st.floats(1e-300, 100.0),
    st.lists(st.floats(1e-300, 10.0), min_size=3, max_size=3).map(tuple),
)


@given(
    kind=st.sampled_from(TRAINER_KINDS),
    anneal=_anneal,
    warmup_kind=st.sampled_from(["predictions", "identity"]),
    total_iterations=st.one_of(st.none(), st.integers(0, 3)),
    batch_size=st.sampled_from([7, 16, 60, 75]),
    alpha=_alpha,
    epochs=st.integers(1, 2),
    pretrain_epochs=st.integers(0, 1),
    eval_every=st.integers(1, 4),
    hidden_width=st.sampled_from([0, 3]),
    activation=st.sampled_from(["relu", "tanh"]),
    weight_decay=st.sampled_from([0.0, 0.05, 0.5]),
    momentum=st.sampled_from([0.0, 0.5, 0.9]),
    learning_rate=st.sampled_from([0.1, 30.0]),
)
@settings(max_examples=300, deadline=None)
def test_every_accepted_config_trains_or_fails_cleanly(**fields):
    # A learning rate of 30 drives some runs to non-finite scores: TrainingError.
    cfg = TrainConfig(seed=3, **fields)
    try:
        result = run_trainer(FUZZ_DS, cfg, FUZZ_TEST)
    except (ParameterError, TrainingError):
        return
    result.validate_record_order()
    assert result.records_for("train") and result.records_for("test")
    if result.final_phi is not None:
        phi = result.final_phi.matrix
        assert np.all(phi >= 0.0)
        np.testing.assert_allclose(phi.sum(axis=1), 1.0, atol=1e-9)
    for variation in result.batch_variations:
        assert not variation.measured > variation.bound + 1e-12
