"""Forward/backward correctness of the small classifier and its optimizer."""

import math
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lccn_lab import classifier
from lccn_lab.classifier import (
    Architecture,
    _buffered_forward,
    _Kernel,
    _product_by,
    apply_gradients,
    epoch_batches,
    forward_proba,
    init_optimizer,
    init_params,
    load_checkpoint,
    loss_and_grads,
    one_hot,
    pretrain_ce,
    save_checkpoint,
    sgd_step,
    sgd_step_soft,
    soft_target_cross_entropy,
)
from lccn_lab.datagen import LabeledDataset
from lccn_lab.errors import ParameterError, TrainingError, check_labels
from lccn_lab.noise_model import DirichletPrior, confusion_counts, warmup_transition
from lccn_lab.sampler import GibbsChain, exact_posterior_bruteforce
from lccn_lab.trainers import _composed_loss_grads, _composed_step, _Run

CLIP = 1e-20  # TrainConfig's default


def make_instance(kind="linear", activation="relu", n=6, d=3, k=3, seed=0):
    rng = np.random.default_rng(seed)
    arch = Architecture(kind=kind, input_dim=d, n_classes=k,
                        hidden_width=8 if kind == "mlp" else 0, activation=activation)
    params = init_params(arch, seed)
    features = rng.normal(size=(n, d))
    labels = rng.integers(0, k, size=n)
    return params, features, labels


def _fresh_forward(params, features):
    """`forward_proba`'s forward pass with its backprop cache, into fresh arrays."""
    return params._forward(features)


def numerical_grads(params, features, weights, clip, h=1e-6):
    grads, scratch = {}, init_optimizer(params, 0.1).grads
    for name, tensor in params.tensors.items():
        g = np.zeros_like(tensor)
        flat = tensor.ravel()
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            up = loss_and_grads(params, features, weights, clip, scratch)
            flat[i] = keep - h
            down = loss_and_grads(params, features, weights, clip, scratch)
            flat[i] = keep
            g.ravel()[i] = (up - down) / (2 * h)
        grads[name] = g
    return grads


@pytest.mark.parametrize(
    "kind,activation",
    [("linear", "relu"), ("mlp", "relu"), ("mlp", "tanh")],
)
def test_gradients_match_central_differences(kind, activation):
    params, features, labels = make_instance(kind, activation)
    weights = one_hot(labels, 3)
    analytic = init_optimizer(params, 0.1).grads
    loss_and_grads(params, features, weights, CLIP, analytic)
    numeric = numerical_grads(params, features, weights, CLIP)
    for name in analytic:
        scale = np.maximum(np.abs(numeric[name]), 1e-8)
        rel = np.abs(analytic[name] - numeric[name]) / scale
        assert rel.max() < 1e-4, f"{kind}/{activation} tensor {name}"


def test_forward_rows_are_distributions():
    params, features, _ = make_instance("mlp", "tanh")
    probs = forward_proba(params, features)
    assert probs.shape == (6, 3)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    assert probs.min() >= 0.0


def test_clip_bounds_loss_and_zeroes_gradient():
    probs = np.array([[1e-30, 1.0 - 1e-30]])
    weights = np.array([[1.0, 0.0]])
    loss, dprobs = soft_target_cross_entropy(probs, weights, 1e-20)
    assert loss == pytest.approx(-np.log(1e-20))
    assert dprobs[0, 0] == 0.0  # clipped entry carries no gradient


def test_soft_target_cross_entropy_rejects_bad_clip():
    probs, weights = np.array([[0.25, 0.75]]), np.array([[1.0, 0.0]])
    for clip in (0.0, -1e-20, 0.5, 0.6, float("nan")):
        with pytest.raises(ParameterError, match="clip"):
            soft_target_cross_entropy(probs, weights, clip)


def test_dlogits_from_dprobs_chain_rule():
    # p = softmax(z); for f(p) with gradient dp, df/dz = p * (dp - sum(p*dp)). A linear
    # kernel's step on identity features writes that pull-back as its weight gradient,
    # with the probability gradient dp = neg / p / n of its loss inside the clip.
    rng = np.random.default_rng(3)
    z = rng.normal(size=(4, 3))
    zs = z - z.max(axis=1, keepdims=True)
    p = np.exp(zs) / np.exp(zs).sum(axis=1, keepdims=True)
    neg = rng.normal(size=(4, 3))
    dp = neg / p / 4
    params = init_params(Architecture("linear", 4, 3), 0)
    analytic = init_optimizer(params, 0.1).grads["w"]
    _Kernel(params, 4, CLIP, {"w": analytic}, False).step(np.eye(4), neg, (p, ()))
    h = 1e-7
    numeric = np.zeros_like(z)
    for i in range(4):
        for j in range(3):
            for sign in (+1, -1):
                zp = z.copy()
                zp[i, j] += sign * h
                zps = zp - zp.max(axis=1, keepdims=True)
                pp = np.exp(zps) / np.exp(zps).sum(axis=1, keepdims=True)
                numeric[i, j] += sign * (dp * pp).sum() / (2 * h)
    np.testing.assert_allclose(analytic, numeric, atol=1e-6)


def test_sgd_step_hand_computed_momentum():
    # one parameter vector, two steps: v1 = g1, v2 = 0.9 v1 + g2
    arch = Architecture(kind="linear", input_dim=1, n_classes=2, hidden_width=0)
    params = init_params(arch, 0)
    params.tensors["w"][:] = 0.0
    params.tensors["b"][:] = 0.0
    opt = init_optimizer(params, learning_rate=0.1, momentum=0.9, weight_decay=0.0)
    x = np.array([[1.0]])
    y = np.array([0])
    # logits are (0,0) -> p=(0.5,0.5); dlogits = (p - onehot)/n = (-0.5, 0.5)
    sgd_step(params, opt, x, y, CLIP)
    np.testing.assert_allclose(params.tensors["w"], [[0.05, -0.05]], atol=1e-12)
    np.testing.assert_allclose(params.tensors["b"], [0.05, -0.05], atol=1e-12)


def test_weight_decay_shrinks_weights():
    arch = Architecture(kind="linear", input_dim=2, n_classes=2, hidden_width=0)
    params = init_params(arch, 1)
    params.tensors["w"][:] = 1.0
    opt = init_optimizer(params, learning_rate=0.1, momentum=0.0, weight_decay=0.5)
    apply_gradients(params, opt)  # the optimizer starts with zero gradients
    np.testing.assert_allclose(params.tensors["w"], np.full((2, 2), 0.95), atol=1e-12)


def test_apply_gradients_rejects_nonfinite():
    arch = Architecture(kind="linear", input_dim=1, n_classes=2, hidden_width=0)
    params = init_params(arch, 0)
    opt = init_optimizer(params, learning_rate=0.1, momentum=0.0, weight_decay=0.0)
    opt.grads["w"][0, 0] = np.inf
    with pytest.raises(TrainingError):
        apply_gradients(params, opt)


def test_apply_gradients_names_first_nonfinite_tensor_and_changes_nothing():
    params, _, _ = make_instance("mlp")
    opt = init_optimizer(params, learning_rate=0.1, momentum=0.9, weight_decay=0.1)
    opt.grad[:] = 1.0
    opt.grads["w2"][1, 2] = np.nan
    opt.grads["b2"][0] = -np.inf
    before = params.flat.copy()
    with pytest.raises(TrainingError, match="'w2'"):
        apply_gradients(params, opt)
    assert params.flat.tobytes() == before.tobytes()
    assert not opt.velocity.any()


def test_apply_gradients_rejects_an_optimizer_of_other_parameters():
    params, _, _ = make_instance("mlp")
    opt = init_optimizer(make_instance("linear")[0], learning_rate=0.1)
    with pytest.raises(ParameterError, match="velocity does not match"):
        apply_gradients(params, opt)


def test_apply_gradients_steps_a_finite_gradient_whose_sum_overflows():
    # Finite entries whose plain sum overflows pass the finiteness test, which
    # sums scaled entries, and numpy warns of nothing outside run_trainer's errstate.
    params, _, _ = make_instance("mlp")
    opt = init_optimizer(params, learning_rate=0.1, momentum=0.9, weight_decay=0.1)
    opt.grads["w1"][0, 0] = opt.grads["b2"][1] = 1e308
    tensors = {name: t.copy() for name, t in params.tensors.items()}
    velocity = {name: np.zeros_like(t) for name, t in tensors.items()}
    grads = {name: g.copy() for name, g in opt.grads.items()}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        apply_gradients(params, opt)
    reference_apply_gradients(tensors, velocity, grads, 0.1, 0.9, 0.1)
    for flat, parts in ((params.flat, tensors), (opt.velocity, velocity)):
        assert flat.tobytes() == np.concatenate([p.ravel() for p in parts.values()]).tobytes()


def test_apply_gradients_warns_of_an_inf_beside_a_minus_inf_and_changes_nothing():
    # Their scaled sum is NaN, which numpy reports as an invalid value unless,
    # as in run_trainer, its errstate ignores that; the step aborts either way.
    params, _, _ = make_instance("mlp")
    opt = init_optimizer(params, learning_rate=0.1, momentum=0.9, weight_decay=0.1)
    opt.grads["w1"][0, 0], opt.grads["b2"][1] = np.inf, -np.inf
    before = params.flat.copy()
    with pytest.warns(RuntimeWarning, match="invalid value"):
        with pytest.raises(TrainingError, match="'w1'"):
            apply_gradients(params, opt)
    with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
        warnings.simplefilter("error")
        with pytest.raises(TrainingError, match="'w1'"):
            apply_gradients(params, opt)
    assert params.flat.tobytes() == before.tobytes()
    assert not opt.velocity.any()


def test_a_step_checks_the_optimizer_once(monkeypatch):
    # Once when the step buffers are built, then once per step, in apply_gradients.
    calls = []
    check = classifier._check_optimizer
    monkeypatch.setattr(classifier, "_check_optimizer", lambda p, o: calls.append(check(p, o)))
    params, features, labels = make_instance("mlp", n=8)
    opt = init_optimizer(params, 0.1)
    for _ in range(3):
        sgd_step(params, opt, features, labels, CLIP)
    assert len(calls) == 4


def test_steps_recheck_what_their_buffers_were_built_for():
    # The clip and the optimizer's layout are checked when the step buffers are
    # built, and the buffers are built again for another clip or other
    # parameters; target shapes and labels are checked at every step.
    params, features, labels = make_instance("mlp", "tanh", n=8)
    opt = init_optimizer(params, 0.1, 0.9, 0.1)
    sgd_step(params, opt, features, labels, CLIP)
    before, velocity = params.flat.copy(), opt.velocity.copy()
    rng = np.random.default_rng(0)
    refused = [
        ("clip", lambda: sgd_step(params, opt, features, labels, 0.5)),
        ("clip", lambda: sgd_step_soft(params, opt, features, one_hot(labels, 3), math.nan)),
        ("velocity does not match",
         lambda: sgd_step(make_instance("linear")[0], opt, features, labels, CLIP)),
        ("same shape", lambda: sgd_step(params, opt, features, labels[:5], CLIP)),
        ("same shape", lambda: sgd_step_soft(params, opt, features, np.full((8, 4), 0.25), CLIP)),
        # A row that numpy would broadcast over the batch is refused too.
        ("same shape", lambda: sgd_step_soft(params, opt, features, one_hot([1], 3), CLIP)),
    ]
    # The composed loss checks its clip itself when it has no optimizer's buffers.
    composed = partial(_composed_loss_grads, params, features, phi=np.eye(3), out=opt.grads)
    refused += [("clip", lambda clip=clip: composed(labels, clip=clip)) for clip in (0.5, math.nan)]
    for bad in (np.full(8, -1), np.full(8, 3)):
        refused += [
            ("labels out of range", lambda bad=bad: sgd_step(params, opt, features, bad, CLIP)),
            ("labels out of range",
             lambda bad=bad: pretrain_ce(params, opt, features, bad, 1, 4, CLIP, rng)),
            ("labels out of range", lambda bad=bad: composed(bad, clip=CLIP)),
            ("labels out of range",
             lambda bad=bad: _composed_step(_composed_run(params, opt, CLIP), features, bad,
                                            np.eye(3))),
        ]
    for message, step in refused:
        with pytest.raises(ParameterError, match=message):
            step()
        assert params.flat.tobytes() == before.tobytes(), message
        assert opt.velocity.tobytes() == velocity.tobytes(), message


INT64 = np.iinfo(np.int64)


def _label_sites(n):
    """Each entry point that checks n labels against 3 classes, as a call of the labels, by name.

    A refusal's traceback names the site by its line here.
    """
    params, features, _ = make_instance(n=max(n, 1))
    features = features[:n]
    opt = init_optimizer(params, 0.1, 0.9)
    zeros, uniform = np.zeros(n, dtype=np.int64), np.full((n, 3), 1 / 3)
    prior, rng = DirichletPrior.uniform(3, 1.0), np.random.default_rng(0)
    chain = GibbsChain(np.zeros(3, dtype=np.int64), confusion_counts([0] * 3, [0] * 3, 3, 3), prior)
    sites = {
        "check_labels": lambda labels: check_labels(labels, 3, "labels"),
        "one_hot": lambda labels: one_hot(labels, 3),
        "confusion_counts latent": lambda labels: confusion_counts(labels, zeros, 3, 3),
        "confusion_counts observed": lambda labels: confusion_counts(zeros, labels, 3, 3),
        "warmup_transition": lambda labels: warmup_transition(uniform, labels, 3),
        "plan observed": lambda labels: chain.plan(labels, zeros, rng),
        "plan positions": lambda labels: chain.plan(zeros, labels, rng),
        "exact_posterior_bruteforce": lambda labels: exact_posterior_bruteforce(
            uniform, labels, prior),
    }
    if n:  # a step's loss and a dataset need a sample
        sites |= {
            "sgd_step": lambda labels: sgd_step(params, opt, features, labels, CLIP),
            "_composed_loss_grads": lambda labels: _composed_loss_grads(
                params, features, labels, np.eye(3), CLIP, opt.grads),
            "LabeledDataset": lambda labels: LabeledDataset(
                features, zeros, labels, zeros == 1, zeros == 1, 3),
        }
    return sites


@pytest.mark.parametrize(
    "labels,accepted",
    [
        (np.array([0, 2, 1], dtype=np.int64), True),
        (np.array([], dtype=np.int64), True),
        (np.array([0, -1, 1], dtype=np.int64), False),
        (np.array([0, 3, 1], dtype=np.int64), False),
        (np.array([INT64.min]), False),
        (np.array([INT64.max]), False),
        (np.array([2, INT64.min, 0]), False),
        # uint64 labels are cast to int64: 2**64 - 1 becomes -1 and 2**63 int64's minimum.
        (np.array([0, 2], dtype=np.uint64), True),
        (np.array([2**64 - 1], dtype=np.uint64), False),
        (np.array([2**63], dtype=np.uint64), False),
        (np.array([3], dtype=np.uint64), False),
        # Refused, not truncated or read as 0 and 1.
        (np.array([0.9, 1.2]), False),
        (np.array([True, False]), False),
        (np.array([[0, 1], [2, 0]]), False),
        ([0, 2, 1], True),
        ([], True),
        # A ragged nested list, which numpy refuses to make an array of.
        ([[0], [0, 1]], False),
    ],
)
def test_label_check_refuses_each_end_of_the_range(labels, accepted):
    # One `max` of the labels read as uint64 refuses the negative ones too, and
    # every entry point that takes a label array refuses what `check_labels` refuses.
    sites = _label_sites(len(labels))
    if accepted:
        checked = check_labels(labels, 3, "labels")
        assert checked.dtype == np.int64 and checked.tolist() == np.asarray(labels).tolist()
        assert one_hot(labels, 3).shape == (len(labels), 3)
        for call in sites.values():
            call(labels)
    else:
        for call in sites.values():
            with pytest.raises(ParameterError, match=r"out of range \[0, 3\)|1-d array of int"):
                call(labels)


@pytest.mark.parametrize(
    "kind,activation", [("linear", "relu"), ("mlp", "relu"), ("mlp", "tanh")]
)
def test_steps_overwrite_no_array_a_caller_holds(kind, activation):
    # forward_proba and its kernel's forward give fresh arrays, and a
    # forward made in the step buffers (as the latent and bootstrap hooks make
    # theirs) keeps its bits through the step it is handed to.
    params, features, labels = make_instance(kind, activation, n=8)
    opt = init_optimizer(params, 0.1, 0.9, 0.05)
    run = _composed_run(params, opt, CLIP)
    probs = forward_proba(params, features)
    fresh = _fresh_forward(params, features)
    held = [probs, fresh[0], *fresh[1]]
    kept = [a.copy() for a in held]
    weights = np.full((8, 3), 1.0 / 3.0)
    for _ in range(2):
        for step in (
            lambda forward: sgd_step(params, opt, features, labels, CLIP, forward=forward),
            lambda forward: sgd_step_soft(params, opt, features, weights, CLIP, forward=forward),
        ):
            forward = _buffered_forward(run.params, run.opt, features, run.clip)
            arrays = [forward[0], *forward[1]]
            snapshot = [a.copy() for a in arrays]
            step(forward)
            assert [a.tobytes() for a in arrays] == [a.tobytes() for a in snapshot]
        _composed_step(run, features, labels, np.eye(3))
        sgd_step(params, opt, features, labels, CLIP)
    assert [a.tobytes() for a in held] == [a.tobytes() for a in kept]


def reference_apply_gradients(tensors, velocity, grads, lr, momentum, weight_decay):
    """The per-tensor momentum loop that the fused update replaced, on plain dicts."""
    for name, grad in grads.items():
        if not np.all(np.isfinite(grad)):
            raise TrainingError(f"non-finite gradient in tensor {name!r}")
        grad = grad + weight_decay * tensors[name]
        vel = velocity[name]
        vel *= momentum
        vel += grad
        tensors[name] -= lr * vel


@given(
    kind=st.sampled_from(["linear", "mlp"]),
    seed=st.integers(0, 2**16),
    weight_decay=st.sampled_from([0.0, 0.05, 0.3]),
    momentum=st.sampled_from([0.0, 0.9]),
    learning_rate=st.floats(1e-4, 1.0),
    grad_kinds=st.lists(st.sampled_from(["normal", "zero", "negative", "tiny", "huge"]),
                        min_size=1, max_size=4),
)
@settings(max_examples=80, deadline=None)
def test_fused_update_matches_per_tensor_loop_bit_for_bit(
    kind, seed, weight_decay, momentum, learning_rate, grad_kinds
):
    params, _, _ = make_instance(kind, seed=seed)
    opt = init_optimizer(params, learning_rate, momentum, weight_decay)
    tensors = {name: t.copy() for name, t in params.tensors.items()}
    velocity = {name: np.zeros_like(t) for name, t in tensors.items()}
    rng = np.random.default_rng(seed)
    for grad_kind in grad_kinds:
        grads = {}
        for name, tensor in tensors.items():
            g = rng.normal(size=tensor.shape)
            # A huge gradient's entries are finite, but their plain sum can overflow.
            grads[name] = {"normal": g, "zero": np.zeros_like(g), "negative": -np.abs(g),
                           "tiny": g * 1e-300, "huge": g * 1e307}[grad_kind]
        reference_apply_gradients(tensors, velocity, grads, learning_rate, momentum, weight_decay)
        for name, grad in grads.items():
            opt.grads[name][...] = grad
        apply_gradients(params, opt)
    for name in tensors:
        assert params.tensors[name].tobytes() == tensors[name].tobytes(), name
    flat_velocity = np.concatenate([v.ravel() for v in velocity.values()])
    assert opt.velocity.tobytes() == flat_velocity.tobytes()


@pytest.mark.parametrize("kind,activation", [("linear", "relu"), ("mlp", "tanh")])
def test_sgd_steps_reuse_a_given_forward_bit_for_bit(kind, activation):
    params, features, labels = make_instance(kind, activation, n=8)
    twin = params.copy()
    opt = init_optimizer(params, 0.1, 0.9, 0.05)
    twin_opt = init_optimizer(twin, 0.1, 0.9, 0.05)
    weights = np.random.default_rng(1).dirichlet(np.ones(3), size=8)
    for _ in range(3):
        sgd_step(params, opt, features, labels, CLIP)
        sgd_step(twin, twin_opt, features, labels, CLIP, forward=_fresh_forward(twin, features))
        sgd_step_soft(params, opt, features, weights, CLIP)
        sgd_step_soft(
            twin, twin_opt, features, weights, CLIP, forward=_fresh_forward(twin, features)
        )
    assert params.flat.tobytes() == twin.flat.tobytes()
    assert opt.velocity.tobytes() == twin_opt.velocity.tobytes()


def test_tensors_are_views_of_one_vector():
    params, features, _ = make_instance("mlp", "tanh")
    opt = init_optimizer(params, 0.1)
    sizes = [t.size for t in params.tensors.values()]
    assert params.flat.size == opt.velocity.size == opt.grad.size == sum(sizes)
    for tensor in [*params.tensors.values(), *opt.grads.values()]:
        assert tensor.base is not None
    before = forward_proba(params, features)
    params.tensors["b2"][:] = [5.0, 0.0, 0.0]
    assert params.flat[-3] == 5.0
    after = forward_proba(params, features)
    assert np.all(after[:, 0] > before[:, 0])
    params.tensors["w1"].ravel()[0] = 7.0
    assert params.flat[0] == 7.0


def test_copy_is_independent_and_entries_cannot_be_rebound():
    params, _, _ = make_instance("mlp")
    twin = params.copy()
    assert list(twin.tensors) == list(params.tensors)
    assert twin.flat.tobytes() == params.flat.tobytes()
    twin.tensors["w1"][:] = 0.0
    assert params.tensors["w1"].any()
    assert not np.shares_memory(twin.flat, params.flat)
    with pytest.raises(TypeError):
        params.tensors["w1"] = np.zeros((3, 8))
    with pytest.raises(TypeError):
        init_optimizer(params, 0.1).grads["b1"] = np.zeros(8)


@given(n=st.integers(min_value=1, max_value=40), batch=st.integers(min_value=1, max_value=17))
@settings(max_examples=60, deadline=None)
def test_epoch_batches_partition(n, batch):
    # The batches cover every row once, in the epoch's order, each carrying
    # that row's features and label as contiguous slices of the epoch's gather.
    features = np.arange(2 * n, dtype=np.float64).reshape(n, 2)
    labels = np.arange(n) % 3
    order = np.random.default_rng(0).permutation(n)
    batches = list(epoch_batches(order, features[order], labels[order], batch))
    seen = np.concatenate([idx for idx, _, _ in batches])
    assert sorted(seen.tolist()) == list(range(n))
    assert seen.tolist() == order.tolist()
    assert [len(idx) for idx, _, _ in batches[:-1]] == [batch] * (len(batches) - 1)
    for idx, batch_features, batch_labels in batches:
        assert batch_features.flags.c_contiguous and batch_labels.flags.c_contiguous
        assert batch_features.tobytes() == features[idx].tobytes()
        assert batch_labels.tolist() == labels[idx].tolist()


def _pretrain_by_batch_gathers(params, opt, features, labels, epochs, batch_size, clip, rng):
    """`pretrain_ce` as first written: a fancy-index gather of every batch's rows."""
    for _ in range(epochs):
        order = rng.permutation(features.shape[0])
        for start in range(0, features.shape[0], batch_size):
            idx = order[start : start + batch_size]
            sgd_step(params, opt, features[idx], labels[idx], clip)


@pytest.mark.parametrize("kind", ["linear", "mlp"])
@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_pretrain_matches_per_batch_gathers_bit_for_bit(kind, d):
    # 23 rows in batches of 4 leave a last batch of 3; of 11, a last batch of 1.
    for n, batch in [(23, 4), (23, 11), (32, 8)]:
        params, features, labels = make_instance(kind, "tanh", n=n, d=d, seed=d)
        ref = params.copy()
        opt = init_optimizer(params, 0.05, 0.9, 0.01)
        ref_opt = init_optimizer(ref, 0.05, 0.9, 0.01)
        rng, ref_rng = np.random.default_rng(n), np.random.default_rng(n)
        pretrain_ce(params, opt, features, labels, 3, batch, CLIP, rng)
        _pretrain_by_batch_gathers(ref, ref_opt, features, labels, 3, batch, CLIP, ref_rng)
        assert params.flat.tobytes() == ref.flat.tobytes()
        assert opt.velocity.tobytes() == ref_opt.velocity.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_pretrain_reduces_loss():
    params, features, labels = make_instance(n=40, seed=5)
    opt = init_optimizer(params, learning_rate=0.05, momentum=0.9, weight_decay=0.0)
    rng = np.random.default_rng(2)
    # labels correlated with features via a fixed projection so loss can drop
    labels = (features[:, 0] > 0).astype(np.int64)
    targets = one_hot(labels, 3)
    before, _ = soft_target_cross_entropy(forward_proba(params, features), targets, CLIP)
    pretrain_ce(params, opt, features, labels, 30, 8, CLIP, rng)
    after, _ = soft_target_cross_entropy(forward_proba(params, features), targets, CLIP)
    assert after < before


def test_checkpoint_roundtrip(tmp_path):
    params, features, _ = make_instance("mlp", "tanh", seed=9)
    path = tmp_path / "checkpoint.json"
    save_checkpoint(params, path)
    restored = load_checkpoint(path)
    assert restored.arch == params.arch
    for name, tensor in params.tensors.items():
        np.testing.assert_array_equal(restored.tensors[name], tensor)
    np.testing.assert_array_equal(forward_proba(restored, features), forward_proba(params, features))


def test_init_params_deterministic():
    arch = Architecture(kind="mlp", input_dim=3, n_classes=2, hidden_width=4)
    a = init_params(arch, 7)
    b = init_params(arch, 7)
    for name in a.tensors:
        np.testing.assert_array_equal(a.tensors[name], b.tensors[name])


def test_architecture_validation():
    with pytest.raises(ParameterError):
        Architecture(kind="cnn", input_dim=2, n_classes=2, hidden_width=0)
    with pytest.raises(ParameterError):
        Architecture(kind="mlp", input_dim=2, n_classes=2, hidden_width=0)


# --- the in-place step against the step it replaced ---------------------------
#
# The reference below is the SGD step as it was before the gradients moved into
# the optimizer's flat vector: `one_hot`'s zeros-and-scatter targets, the dense
# loss through `np.clip` and `np.sum`, fresh per-tensor gradient arrays and a
# concatenate before the momentum update. The new steps must give the same bytes.


def _ref_one_hot(labels, n_classes):
    labels = np.asarray(labels, dtype=np.int64)
    if np.any((labels < 0) | (labels >= n_classes)):
        raise ParameterError("labels out of range")
    out = np.zeros((labels.size, n_classes))
    out[np.arange(labels.size), labels] = 1.0
    return out


def _ref_forward(params, features):
    t = params.tensors
    if params.arch.kind == "linear":
        logits = features @ t["w"] + t["b"]
        cache = {}
    else:
        pre = features @ t["w1"] + t["b1"]
        hidden = np.maximum(pre, 0.0) if params.arch.activation == "relu" else np.tanh(pre)
        logits = hidden @ t["w2"] + t["b2"]
        cache = {"pre": pre, "hidden": hidden}
    shifted = logits - logits.max(axis=1, keepdims=True)
    expz = np.exp(shifted)
    return expz / expz.sum(axis=1, keepdims=True), cache


def _ref_soft_target_cross_entropy(probs, target_weights, clip):
    n = probs.shape[0]
    clipped = np.clip(probs, clip, 1.0 - clip)
    loss = float(np.sum(target_weights * -np.log(clipped)) / n)
    inside = (probs > clip) & (probs < 1.0 - clip)
    return loss, np.where(inside, -target_weights / clipped / n, 0.0)


def _ref_dlogits(probs, dprobs):
    inner = np.sum(probs * dprobs, axis=1, keepdims=True)
    return probs * (dprobs - inner)


def _ref_backprop(params, features, cache, dlogits):
    t = params.tensors
    if params.arch.kind == "linear":
        return {"w": features.T @ dlogits, "b": dlogits.sum(axis=0)}
    hidden, pre = cache["hidden"], cache["pre"]
    dhidden = dlogits @ t["w2"].T
    if params.arch.activation == "relu":
        dpre = dhidden * (pre > 0.0)
    else:
        dpre = dhidden * (1.0 - hidden**2)
    return {
        "w1": features.T @ dpre,
        "b1": dpre.sum(axis=0),
        "w2": hidden.T @ dlogits,
        "b2": dlogits.sum(axis=0),
    }


def _ref_momentum(params, velocity, grads, opt):
    grad = np.concatenate([grads[name].ravel() for name in params.tensors])
    if not np.isfinite(grad).all():
        bad = next(name for name in params.tensors if not np.all(np.isfinite(grads[name])))
        raise TrainingError(f"non-finite gradient in tensor {bad!r}")
    grad = grad + opt.weight_decay * params.flat
    velocity *= opt.momentum
    velocity += grad
    params.flat -= opt.learning_rate * velocity


def _ref_step(params, velocity, opt, features, targets, clip, phi=None):
    """One reference step; returns (loss, dphi or None). phi routes it through a channel."""
    probs, cache = _ref_forward(params, features)
    scored = probs if phi is None else probs @ phi
    loss, dscored = _ref_soft_target_cross_entropy(scored, targets, clip)
    dprobs = dscored if phi is None else dscored @ phi.T
    grads = _ref_backprop(params, features, cache, _ref_dlogits(probs, dprobs))
    dphi = None if phi is None else probs.T @ dscored
    if not np.isfinite(loss):
        raise TrainingError("non-finite training loss")
    _ref_momentum(params, velocity, grads, opt)
    return loss, dphi


def _composed_run(params, opt, clip):
    """A trainer run around one batch, for `trainers._composed_step`."""
    return _Run(params, opt, clip, np.random.default_rng(0), 1, 1)


@given(
    kind=st.sampled_from(["linear", "mlp"]),
    activation=st.sampled_from(["relu", "tanh"]),
    k=st.integers(2, 9),
    n=st.integers(1, 45),
    batch=st.integers(1, 45),
    seed=st.integers(0, 2**16),
    scale=st.sampled_from([1.0, 30.0, 1e3]),
    clip_edge=st.booleans(),
    weight_decay=st.sampled_from([0.0, 0.3]),
    momentum=st.sampled_from([0.0, 0.9]),
    steps=st.lists(st.sampled_from(["hard", "soft", "composed"]), min_size=1, max_size=3),
)
@settings(max_examples=150, deadline=None)
def test_in_place_steps_match_the_replaced_step_bit_for_bit(
    kind, activation, k, n, batch, seed, scale, clip_edge, weight_decay, momentum, steps
):
    # One epoch of n rows in batches of `batch` (the last one short when batch
    # does not divide n; one batch of all n rows when batch >= n), then a full
    # batch again, so that the optimizer's step buffers serve batches of both
    # sizes. The steps take the batches in turn, wrapping round the batches
    # until every drawn step has run once.
    # scale 1e3 saturates probabilities to exactly 0.0 and 1.0; 1.0 - 1e-20 is 1.0,
    # so a saturated 1.0 sits on the upper clip edge. clip_edge moves the lower
    # edge onto the first batch's smallest positive probability.
    params, features, labels = make_instance(kind, activation, n=n, k=k, seed=seed)
    features = features * scale
    rows = [slice(start, start + batch) for start in range(0, n, batch)]
    rows.append(slice(0, batch))
    clip = 1e-20
    if clip_edge:
        probs, _ = _ref_forward(params, features[rows[0]])
        positive = probs[(probs > 0.0) & (probs < 0.5)]
        if positive.size:
            clip = float(positive.min())
    ref = params.copy()
    ref_velocity = np.zeros_like(ref.flat)
    opt = init_optimizer(params, 0.05, momentum, weight_decay)
    scratch = init_optimizer(params, 0.05).grads
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(k), size=n)
    weights[rng.random(n) < 0.3] = _ref_one_hot(rng.integers(0, k, size=n), k)[0]
    phi = rng.dirichlet(np.ones(k) * 0.5, size=k)
    run = _composed_run(params, opt, clip)
    hard = _ref_one_hot(labels, k)
    for i in range(max(len(rows), len(steps))):
        row, step = rows[i % len(rows)], steps[i % len(steps)]
        x, y = features[row], labels[row]
        targets = {"hard": hard, "soft": weights, "composed": hard}[step][row]
        # The steps return no loss; it is read off the same loss path on a copy first.
        new_step = {
            "hard": lambda: (
                loss_and_grads(params.copy(), x, targets, clip, scratch),
                sgd_step(params, opt, x, y, clip),
            ),
            "soft": lambda: (
                loss_and_grads(params.copy(), x, targets, clip, scratch),
                sgd_step_soft(params, opt, x, targets, clip),
            ),
            "composed": lambda: (
                _composed_loss_grads(params.copy(), x, y, phi, clip, scratch)[0],
                _composed_step(run, x, y, phi),
            ),
        }[step]
        # An edge clip of a subnormal probability can overflow a gradient; then
        # both steps must fail alike and leave the state alone.
        outcomes = []
        for take in (
            new_step,
            lambda: _ref_step(ref, ref_velocity, opt, x, targets, clip,
                              phi if step == "composed" else None),
        ):
            try:
                loss, dphi = take()
                outcomes.append((np.float64(loss).tobytes(), dphi is None or dphi.tobytes()))
            except TrainingError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1], (i, step)
        assert params.flat.tobytes() == ref.flat.tobytes(), (i, step)
        assert opt.velocity.tobytes() == ref_velocity.tobytes(), (i, step)


@pytest.mark.parametrize("kind,activation", [("linear", "relu"), ("mlp", "tanh")])
def test_in_place_steps_reject_nan_probabilities_and_change_nothing(kind, activation):
    params, features, labels = make_instance(kind, activation, n=8)
    opt = init_optimizer(params, 0.1, 0.9, 0.3)
    run = _composed_run(params, opt, 1e-20)
    probs, cache = _fresh_forward(params, features)
    probs[2, 1] = np.nan
    weights = np.full((8, 3), 1.0 / 3.0)
    # The composed step forwards by itself: a NaN bias gives it NaN probabilities.
    params.tensors["b2" if kind == "mlp" else "b"][0] = np.nan
    before = params.flat.copy()
    forward = (probs, cache)
    for step in (
        lambda: sgd_step(params, opt, features, labels, CLIP, forward=forward),
        lambda: sgd_step_soft(params, opt, features, weights, CLIP, forward=forward),
        lambda: _composed_step(run, features, labels, np.eye(3)),
    ):
        with pytest.raises(TrainingError, match="non-finite training loss"):
            step()
        assert params.flat.tobytes() == before.tobytes()
        assert not opt.velocity.any()


@pytest.mark.parametrize("kind,first", [("linear", "'w'"), ("mlp", "'w1'")])
def test_in_place_steps_name_the_first_nonfinite_gradient_and_change_nothing(kind, first):
    params, features, labels = make_instance(kind, "tanh", n=8)
    opt = init_optimizer(params, 0.1, 0.9, 0.3)
    sgd_step(params, opt, features, labels, CLIP)
    forward = _fresh_forward(params, features)
    weights = np.full((8, 3), 1.0 / 3.0)
    bad = features.copy()
    bad[3, 0] = np.inf  # the loss comes from the given forward and stays finite
    before, velocity = params.flat.copy(), opt.velocity.copy()
    for step in (
        lambda: sgd_step(params, opt, bad, labels, CLIP, forward=forward),
        lambda: sgd_step_soft(params, opt, bad, weights, CLIP, forward=forward),
    ):
        with pytest.raises(TrainingError, match=f"non-finite gradient in tensor {first}"):
            step()
        assert params.flat.tobytes() == before.tobytes()
        assert opt.velocity.tobytes() == velocity.tobytes()


def _loss_and_grads_step(params, opt, features, labels, clip, forward):
    """The hard-label step as `loss_and_grads` gives it: the full loss, its check, one update."""
    hot = one_hot(labels, params.arch.n_classes)
    loss = loss_and_grads(params, features, hot, clip, opt.grads, forward=forward)
    if not math.isfinite(loss):
        raise TrainingError("non-finite training loss")
    apply_gradients(params, opt)


@given(
    kind=st.sampled_from(["linear", "mlp"]),
    activation=st.sampled_from(["relu", "tanh"]),
    n=st.integers(1, 20),
    d=st.integers(1, 3),
    k=st.integers(2, 9),
    seed=st.integers(0, 2**16),
    scale=st.sampled_from([1.0, 1e3]),
    given_forward=st.booleans(),
    nan_entries=st.integers(0, 2),
)
@settings(max_examples=150, deadline=None)
def test_hard_step_matches_loss_and_grads_bit_for_bit(
    kind, activation, n, d, k, seed, scale, given_forward, nan_entries
):
    # scale 1e3 saturates probabilities onto the clip edges; NaN entries in a
    # given forward take the path where the loss must be computed and fail.
    params, features, labels = make_instance(kind, activation, n=n, d=d, k=k, seed=seed)
    features = features * scale
    rng = np.random.default_rng(seed)
    poison = [(int(rng.integers(n)), int(rng.integers(k))) for _ in range(nan_entries)]
    sides = []
    for step in (
        lambda p, o, fwd: sgd_step(p, o, features, labels, CLIP, forward=fwd),
        lambda p, o, fwd: _loss_and_grads_step(p, o, features, labels, CLIP, fwd),
    ):
        twin = params.copy()
        opt = init_optimizer(twin, 0.05, 0.9, 0.3)
        outcomes = []
        for _ in range(2):
            forward = _fresh_forward(twin, features) if given_forward or poison else None
            for row, col in poison:
                forward[0][row, col] = np.nan
            try:
                step(twin, opt, forward)
                outcomes.append(None)
            except TrainingError as exc:
                outcomes.append(str(exc))
        sides.append((outcomes, twin.flat.tobytes(), opt.grad.tobytes(), opt.velocity.tobytes()))
    assert sides[0] == sides[1]
    if poison:
        assert sides[0][0] == ["non-finite training loss"] * 2
        assert sides[0][1] == params.flat.tobytes()


_PROBABILITY = st.floats(0.0, 1.0) | st.sampled_from([math.nan, math.inf, -math.inf, 5e-324])


@given(
    probs=arrays(np.float64, st.tuples(st.integers(0, 6), st.integers(2, 5)),
                 elements=_PROBABILITY),
    clip=st.sampled_from([CLIP, 1e-3, 0.25]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=200, deadline=None)
def test_hard_loss_is_finite_exactly_when_the_clipped_sum_is(probs, clip, seed):
    # The test the hard step makes instead of its loss: with one-hot targets and
    # at least one row, the loss is finite if and only if no clipped probability is NaN.
    n, k = probs.shape
    hot = one_hot(np.random.default_rng(seed).integers(0, k, size=n), k)
    with np.errstate(invalid="ignore"):  # the mean over no rows
        loss, _ = soft_target_cross_entropy(probs, hot, clip)
    clipped = np.minimum(np.maximum(probs, clip), 1.0 - clip)
    assert math.isfinite(loss) == bool(n and math.isfinite(np.add.reduce(clipped, axis=None)))


_ENTRY = st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0, 1e-200, -1e-200, 5e-324, -5e-324])


@st.composite
def product_case(draw):
    """Operands of every product of a linear, an MLP and a composed step, at batch n, input d,
    width h, K=k.

    Besides small batches, n takes the benchmark workloads' and the CLI fuzz's
    batch sizes and the row counts of their full-set forwards.
    """
    n = draw(st.integers(1, 12) | st.sampled_from([16, 32, 60, 75, 800, 900, 1000, 3000]))
    d = draw(st.integers(1, 4))
    h, k = draw(st.sampled_from([1, 2, 5, 64])), draw(st.integers(2, 9))

    def matrix(rows, cols):
        return draw(arrays(np.float64, (rows, cols), elements=_ENTRY))

    return {name: matrix(*shape) for name, shape in {
        "features": (n, d), "w1": (d, h), "hidden": (n, h), "dpre": (n, h),
        "w2": (h, k), "w": (d, k), "dlogits": (n, k), "probs": (n, k), "phi": (k, k),
        "dmix": (n, k),
    }.items()}


def _signed_zero_case(n, d):
    """Operands whose one-term products underflow to -0.0, where `dot` keeps the sign."""
    case = {name: np.full(shape, 1e-200) for name, shape in {
        "features": (n, d), "w1": (d, 2), "hidden": (n, 2), "dpre": (n, 2),
        "w2": (2, 2), "w": (d, 2), "dlogits": (n, 2), "probs": (n, 2), "phi": (2, 2),
        "dmix": (n, 2),
    }.items()}
    case["features"] = -case["features"]
    case["probs"] = -case["probs"]
    return case


@example(case=_signed_zero_case(8, 1))
@example(case=_signed_zero_case(1, 1))
@example(case=_signed_zero_case(1, 2))
@given(case=product_case())
@settings(max_examples=200, deadline=None)
def test_products_give_the_matmul_bits(case):
    # Batch 1 (an epoch's last batch when N % batch == 1), d=1 and K=2 all
    # reach products of one term, where `dot` can differ from matmul in a zero's sign.
    # The last three are the composed step's: probs @ phi, dmix @ phi.T, probs.T @ dmix.
    c = case
    for a, b in [
        (c["features"], c["w"]), (c["features"].T, c["dlogits"]),
        (c["features"], c["w1"]), (c["hidden"], c["w2"]), (c["dlogits"], c["w2"].T),
        (c["features"].T, c["dpre"]), (c["hidden"].T, c["dlogits"]),
        (c["probs"], c["phi"]), (c["dmix"], c["phi"].T), (c["probs"].T, c["dmix"]),
    ]:
        expected = np.matmul(a, b)
        product = _product_by(a.shape[1])
        assert product(a, b).tobytes() == expected.tobytes()
        out = np.empty_like(expected)
        product(a, b, out)
        assert out.tobytes() == expected.tobytes()
