"""End-to-end trainer behaviour: equivalences, determinism, and config guards."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import numpy_worst_row
from lccn_lab.classifier import forward_proba, one_hot
from lccn_lab.datagen import NoiseSpec, apply_noise, make_gaussian_mixture, mark_clean_subset
from lccn_lab.errors import InvariantError, ParameterError, TrainingError
from lccn_lab.metrics import MetricsRecord
from lccn_lab.trainers import (
    TRAINER_KINDS,
    RunResult,
    TrainConfig,
    _bootstrap_table,
    run_trainer,
)
from lccn_lab.noise_model import (
    DirichletPrior,
    check_transition,
    confusion_counts,
    update_bound,
    warmup_transition,
)
from lccn_lab.sampler import GibbsChain, gibbs_sample_batch


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
    ce = run_trainer(ds, TrainConfig(kind="ce", **common), test)
    ff = run_trainer(
        ds,
        TrainConfig(kind="forward_fixed", pretrain_epochs=0, oracle_phi=np.eye(2), **common),
        test,
    )
    assert records_equal(ce.records, ff.records)
    assert params_equal(ce.final_params, ff.final_params)
    assert np.array_equal(ff.final_phi, np.eye(2))


def test_full_weight_bootstrap_reduces_to_plain_ce(blobs2_tiny):
    ds, test = blobs2_tiny["noisy"], blobs2_tiny["test"]
    common = dict(epochs=3, batch_size=16, learning_rate=0.05, seed=5, eval_every=1)
    ce = run_trainer(ds, TrainConfig(kind="ce", **common), test)
    boot = run_trainer(
        ds, TrainConfig(kind="bootstrap_hard", bootstrap_beta=1.0, **common), test
    )
    assert records_equal(ce.records, boot.records)
    assert params_equal(ce.final_params, boot.final_params)


@given(
    k=st.integers(2, 8),
    beta=st.sampled_from([0.0, 0.3, 0.8, 1.0]) | st.floats(0.0, 1.0),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=150, deadline=None)
def test_bootstrap_table_rows_are_the_two_one_hot_blend(k, beta, seed):
    # The blend bootstrap_hard's steps were first written with, for a batch of
    # random observed labels and argmaxes, against the rows the table gives.
    rng = np.random.default_rng(seed)
    observed, pseudo = rng.integers(0, k, size=40), rng.integers(0, k, size=40)
    blend = beta * one_hot(observed, k)
    blend += (1.0 - beta) * one_hot(pseudo, k)
    table = _bootstrap_table(beta, k)
    assert table.shape == (k * k, k)
    assert table.take(observed * k + pseudo, axis=0).tobytes() == blend.tobytes()


def test_all_pinned_latent_run_reduces_to_plain_ce(blobs2_tiny):
    # every sample trusted: nothing is ever resampled, so the run is CE with
    # the epoch budget split between the two phases
    ds = dataclasses.replace(
        blobs2_tiny["noisy"], clean_mask=np.ones(blobs2_tiny["noisy"].n, dtype=bool)
    )
    plus = run_trainer(
        ds, TrainConfig(kind="lccn_plus", epochs=2, pretrain_epochs=2, batch_size=16,
                        learning_rate=0.05, seed=9)
    )
    ce = run_trainer(
        ds, TrainConfig(kind="ce", epochs=4, batch_size=16, learning_rate=0.05, seed=9)
    )
    assert params_equal(ce.final_params, plus.final_params)
    assert plus.batch_variations == []


def test_em_expectation_matches_warmup_estimator(blobs2_tiny):
    # A one-epoch em_reference run keeps its first expectation step: the warmup
    # estimator on the pretrained model, which CE over the pretraining budget gives.
    ds = blobs2_tiny["noisy"]
    common = dict(batch_size=16, learning_rate=0.05, seed=5)
    em = run_trainer(ds, TrainConfig(kind="em_reference", epochs=1, pretrain_epochs=2, **common))
    ce = run_trainer(ds, TrainConfig(kind="ce", epochs=2, **common))
    predictions = forward_proba(ce.final_params, ds.features)
    assert np.array_equal(em.final_phi, warmup_transition(predictions, ds.noisy_labels, 2))


def test_frozen_adaptation_layer_keeps_initial_channel(blobs2_tiny):
    ds = blobs2_tiny["noisy"]
    start = np.array([[0.7, 0.3], [0.4, 0.6]])
    cfg = TrainConfig(
        kind="s_adaptation", epochs=2, pretrain_epochs=1, batch_size=16,
        learning_rate=0.05, seed=3, oracle_phi=start, warmup_steps=10**6,
    )
    result = run_trainer(ds, cfg)
    assert np.array_equal(result.final_phi, start)
    assert result.batch_variations == []
    # forward_fixed is the same layer held for the whole run: it reads
    # neither warmup_steps nor transition_lr.
    fixed = run_trainer(
        ds, dataclasses.replace(cfg, kind="forward_fixed", warmup_steps=0, transition_lr=0.5)
    )
    assert records_equal(fixed.records, result.records)
    assert params_equal(fixed.final_params, result.final_params)
    assert fixed.final_phi.tobytes() == result.final_phi.tobytes()
    assert fixed.batch_variations == []


# --- determinism and bookkeeping ---------------------------------------------


def test_same_seed_reproduces_run_bitwise(blobs2_tiny):
    ds, test = blobs2_tiny["noisy"], blobs2_tiny["test"]
    cfg = TrainConfig(kind="lccn", epochs=2, pretrain_epochs=1, batch_size=16,
                      learning_rate=0.02, seed=0, eval_every=1)
    first = run_trainer(ds, cfg, test)
    second = run_trainer(ds, cfg, test)
    assert records_equal(first.records, second.records)
    assert params_equal(first.final_params, second.final_params)
    assert first.batch_variations == second.batch_variations

    other = run_trainer(ds, dataclasses.replace(cfg, seed=1), test)
    assert not params_equal(first.final_params, other.final_params)


def test_latent_run_emits_stochastic_transition(blobs2_tiny):
    ds = blobs2_tiny["noisy"]
    result = run_trainer(
        ds, TrainConfig(kind="lccn", epochs=2, pretrain_epochs=1, batch_size=16,
                        learning_rate=0.02, seed=4)
    )
    phi = result.final_phi
    assert phi.shape == (2, 2)
    assert np.allclose(phi.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(phi >= 0)


def test_outlier_bucket_has_extra_row(blobs2_tiny):
    spec = NoiseSpec(ood_fraction=0.25, seed=5)
    ds, _ = apply_noise(blobs2_tiny["clean"], spec)
    result = run_trainer(
        ds, TrainConfig(kind="lccn_star", epochs=2, pretrain_epochs=1, batch_size=16,
                        learning_rate=0.02, seed=4)
    )
    assert result.final_phi.shape == (3, 2)
    assert result.outlier_recall is not None
    assert 0.0 <= result.outlier_recall <= 1.0


def test_pinned_trainer_warns_without_trusted_samples(blobs2_tiny):
    # Pinning no sample is lccn's run: only the warning tells the two apart.
    ds = blobs2_tiny["noisy"]
    assert not ds.clean_mask.any()
    cfg = TrainConfig(kind="lccn_plus", epochs=2, pretrain_epochs=1, batch_size=16,
                      learning_rate=0.02, seed=4)
    with pytest.warns(UserWarning, match="clean subset"):
        plus = run_trainer(ds, cfg)
    lccn = run_trainer(ds, dataclasses.replace(cfg, kind="lccn"))
    assert records_equal(plus.records, lccn.records)
    assert np.array_equal(plus.final_phi, lccn.final_phi)
    assert params_equal(plus.final_params, lccn.final_params)
    assert plus.batch_variations == lccn.batch_variations


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
    # 64 samples at batch 16: one sweep of 4 batches per epoch, for every
    # kind; only ce and bootstrap_hard skip pretraining
    ds = mark_clean_subset(blobs2_tiny["noisy"], 8, 0)
    common = dict(kind=kind, epochs=3, pretrain_epochs=2, batch_size=16,
                  learning_rate=0.02, seed=1)
    first = 0 if kind in ("ce", "bootstrap_hard") else 2 * 4
    per_epoch = 4

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
    plain = run_trainer(ds, base)
    stepped = run_trainer(ds, dataclasses.replace(base, lr_milestones=((2, 0.2),)))
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
        dict(seed=-1),
        dict(transition_lr=-0.1),
        dict(oracle_phi=np.array([[0.5, 0.6], [0.5, 0.5]])),
        dict(eval_every=0),
        dict(weight_decay=-0.1),
        dict(clip=0.0),
        dict(anneal=1),
        dict(batch_size=8.5),
        dict(seed=True),
        dict(warmup_steps="10"),
        dict(momentum="x"),
        dict(transition_lr=[0.1]),
        dict(alpha="x"),
        dict(alpha=float("nan")),
        dict(alpha=float("inf")),
        dict(alpha=(1.0, float("-inf"), 1.0)),
        dict(alpha=0.0),
        dict(hidden_width=-3),
        dict(lr_milestones=(("x", 0.1),)),
        dict(lr_milestones=((1, "x"),)),
        dict(lr_milestones=((1.5, 0.05),)),
        dict(lr_milestones=((True, 0.05),)),
        dict(lr_milestones=((-1, 0.05),)),
        dict(lr_milestones=((1, True),)),
        dict(lr_milestones=((1,),)),
        dict(lr_milestones=3),
        dict(clip=0.7),
        dict(activation=5),
        # A string is no switch: "false" is truthy too.
        dict(anneal="true"),
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
        run_trainer(ds, cfg)


def test_oracle_channel_shape_checked(blobs2_tiny):
    ds = blobs2_tiny["noisy"]
    cfg = TrainConfig(kind="forward_fixed", epochs=1, pretrain_epochs=0,
                      batch_size=16, oracle_phi=np.eye(3), seed=0)
    with pytest.raises(ParameterError, match="oracle_phi"):
        run_trainer(ds, cfg)


@pytest.mark.parametrize("kind", TRAINER_KINDS)
@pytest.mark.parametrize("field", ["oracle_phi", "reference_phi"])
def test_channel_shape_checked_for_every_kind(kind, field, blobs2_tiny):
    cfg = TrainConfig(kind=kind, epochs=1, pretrain_epochs=0, batch_size=16, seed=0,
                      **{field: np.eye(3)})
    with pytest.raises(ParameterError, match=rf"{field} must be \(2, 2\)"):
        run_trainer(blobs2_tiny["noisy"], cfg)


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
    # `_train_latent` records such a batch as (0.0, 0.0) without a
    # certificate; this is what update_bound would have given.
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
        check_transition(data.dirichlet(np.ones(n_observed), size=n_latent)) if warmup else None
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
        measured, bound = update_bound(before, counts, prior)
        for name, values in (("measured", measured), ("bound", bound)):
            assert values.tobytes() == bytes(8 * n_latent), name
        worst = int(np.argmax(measured))
        assert (float(measured[worst]), float(bound[worst])) == (0.0, 0.0)


def _planned_positions(chain, probs):
    """Positions of the samples the chain's next step resamples, read from its plan."""
    draws = chain.draws[chain.cursor : chain.cursor + len(probs)]
    return np.array([position for _, position, _ in draws], dtype=np.int64)


def test_label_swap_with_equal_counts_is_still_certified(blobs2_tiny, monkeypatch):
    # One batch per epoch. The first moves one label; the second swaps it with
    # a sample of the same observed label, so labels move but the counts end
    # up equal; later batches move nothing. A classifier sure of each scripted
    # label makes the chain draw it.
    ds = blobs2_tiny["noisy"]
    step, certify = GibbsChain.step, GibbsChain.certify
    steps, certificates, scripted = [], [], []

    def scripted_step(chain, probs, *args):
        positions = _planned_positions(chain, probs)
        targets = chain.labels[positions]
        if not scripted:
            s = positions[0]
            targets[0] = 1 - ds.noisy_labels[s]
            scripted.append(s)
        elif len(scripted) == 1:
            s = scripted[0]
            o = ds.noisy_labels[s]
            t = next(p for p in positions if p != s and ds.noisy_labels[p] == o)
            targets[positions == s], targets[positions == t] = o, 1 - o
            scripted.append(t)
        before = chain.counts.copy()
        moved = step(chain, np.eye(2)[targets], *args)
        assert chain.labels[positions].tolist() == targets.tolist()
        steps.append((before, chain.counts.copy()))
        return moved

    def recording_certify(chain):
        before, after = steps[-1]
        cert = certify(chain)
        certificates.append((np.array_equal(before, after), update_bound(before, after, chain.prior)))
        assert cert == numpy_worst_row(certificates[-1][1])
        return cert

    monkeypatch.setattr(GibbsChain, "step", scripted_step)
    monkeypatch.setattr(GibbsChain, "certify", recording_certify)
    result = run_trainer(
        ds, TrainConfig(kind="lccn", epochs=4, pretrain_epochs=1, batch_size=ds.n, seed=0)
    )
    assert [equal for equal, _ in certificates] == [False, True]
    swap_measured, swap_bound = certificates[1][1]
    assert not swap_measured.any() and not swap_bound.any()
    variations = [(v.measured, v.bound) for v in result.batch_variations]
    assert len(variations) == 4
    assert variations[0][0] > 0.0
    assert variations[1:] == [(0.0, 0.0)] * 3


@pytest.mark.parametrize("kind", ["lccn", "lccn_star", "lccn_plus"])
def test_update_bound_runs_once_per_batch_that_moved_a_label(kind, monkeypatch):
    # The chain's certificate is the trainers' update bound.
    clean = make_gaussian_mixture(n_classes=3, dim=2, n_per_class=40, separation=4.0, seed=5)
    noisy, _ = apply_noise(clean, NoiseSpec(kind="symmetric", ratio=0.3, ood_fraction=0.1, seed=6))
    ds = mark_clean_subset(noisy, 12, 7)
    moved, bound_calls = [], []
    step, certify = GibbsChain.step, GibbsChain.certify

    def watching_step(chain, probs, *args):
        positions = _planned_positions(chain, probs)
        assert kind != "lccn_plus" or not ds.clean_mask[positions].any()  # no trusted sample
        previous = chain.labels[positions]
        label_moved = step(chain, probs, *args)
        assert label_moved == (not np.array_equal(chain.labels[positions], previous))
        moved.append(label_moved)
        return label_moved

    def counting_certify(chain):
        bound_calls.append(1)
        return certify(chain)

    monkeypatch.setattr(GibbsChain, "step", watching_step)
    monkeypatch.setattr(GibbsChain, "certify", counting_certify)
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

_alpha = st.one_of(
    st.floats(1e-300, 100.0),
    st.lists(st.floats(1e-300, 10.0), min_size=3, max_size=3).map(tuple),
)


@given(
    kind=st.sampled_from(TRAINER_KINDS),
    anneal=st.booleans(),
    oracle_phi=st.sampled_from([None, np.eye(3)]),
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
        phi = result.final_phi
        assert np.all(phi >= 0.0)
        np.testing.assert_allclose(phi.sum(axis=1), 1.0, atol=1e-9)
    for variation in result.batch_variations:
        assert not variation.measured > variation.bound + 1e-12
