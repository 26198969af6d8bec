"""Forward/backward correctness of the small classifier and its optimizer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lccn_lab.classifier import (
    Architecture,
    LossConfig,
    OptimizerState,
    _forward,
    apply_gradients,
    dlogits_from_dprobs,
    forward_proba,
    init_optimizer,
    init_params,
    load_checkpoint,
    loss_and_grads,
    minibatch_indices,
    one_hot,
    pretrain_ce,
    save_checkpoint,
    sgd_step,
    sgd_step_soft,
    soft_target_cross_entropy,
)
from lccn_lab.errors import ParameterError, TrainingError


def make_instance(kind="linear", activation="relu", n=6, d=3, k=3, seed=0):
    rng = np.random.default_rng(seed)
    arch = Architecture(kind=kind, input_dim=d, n_classes=k,
                        hidden_width=8 if kind == "mlp" else 0, activation=activation)
    params = init_params(arch, seed)
    features = rng.normal(size=(n, d))
    labels = rng.integers(0, k, size=n)
    return params, features, labels


def numerical_grads(params, features, weights, cfg, h=1e-6):
    grads = {}
    for name, tensor in params.tensors.items():
        g = np.zeros_like(tensor)
        flat = tensor.ravel()
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            up, _ = loss_and_grads(params, features, weights, cfg)
            flat[i] = keep - h
            down, _ = loss_and_grads(params, features, weights, cfg)
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
    cfg = LossConfig()
    weights = one_hot(labels, 3)
    _, analytic = loss_and_grads(params, features, weights, cfg)
    numeric = numerical_grads(params, features, weights, cfg)
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
    cfg = LossConfig(clip=1e-20)
    probs = np.array([[1e-30, 1.0 - 1e-30]])
    weights = np.array([[1.0, 0.0]])
    loss, dprobs = soft_target_cross_entropy(probs, weights, cfg)
    assert loss == pytest.approx(-np.log(1e-20))
    assert dprobs[0, 0] == 0.0  # clipped entry carries no gradient


def test_loss_config_rejects_bad_clip():
    with pytest.raises(ParameterError):
        LossConfig(clip=0.0)
    with pytest.raises(ParameterError):
        LossConfig(clip=0.6)


def test_dlogits_from_dprobs_chain_rule():
    # p = softmax(z); for f(p) with gradient dp, df/dz = p * (dp - sum(p*dp))
    rng = np.random.default_rng(3)
    z = rng.normal(size=(4, 3))
    zs = z - z.max(axis=1, keepdims=True)
    p = np.exp(zs) / np.exp(zs).sum(axis=1, keepdims=True)
    dp = rng.normal(size=(4, 3))
    analytic = dlogits_from_dprobs(p, dp)
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
    sgd_step(params, opt, x, y, LossConfig())
    np.testing.assert_allclose(params.tensors["w"], [[0.05, -0.05]], atol=1e-12)
    np.testing.assert_allclose(params.tensors["b"], [0.05, -0.05], atol=1e-12)


def test_weight_decay_shrinks_weights():
    arch = Architecture(kind="linear", input_dim=2, n_classes=2, hidden_width=0)
    params = init_params(arch, 1)
    params.tensors["w"][:] = 1.0
    opt = init_optimizer(params, learning_rate=0.1, momentum=0.0, weight_decay=0.5)
    apply_gradients(params, opt, {"w": np.zeros((2, 2)), "b": np.zeros(2)})
    np.testing.assert_allclose(params.tensors["w"], np.full((2, 2), 0.95), atol=1e-12)


def test_apply_gradients_rejects_nonfinite():
    arch = Architecture(kind="linear", input_dim=1, n_classes=2, hidden_width=0)
    params = init_params(arch, 0)
    opt = init_optimizer(params, learning_rate=0.1, momentum=0.0, weight_decay=0.0)
    with pytest.raises(TrainingError):
        apply_gradients(params, opt, {"w": np.array([[np.inf, 0.0]]), "b": np.zeros(2)})


def test_apply_gradients_names_first_nonfinite_tensor_and_changes_nothing():
    params, _, _ = make_instance("mlp")
    opt = init_optimizer(params, learning_rate=0.1, momentum=0.9, weight_decay=0.1)
    grads = {name: np.ones_like(tensor) for name, tensor in params.tensors.items()}
    grads["w2"][1, 2] = np.nan
    grads["b2"][0] = -np.inf
    before = params.flat.copy()
    with pytest.raises(TrainingError, match="'w2'"):
        apply_gradients(params, opt, grads)
    assert params.flat.tobytes() == before.tobytes()
    assert not opt.flat.any()


@pytest.mark.parametrize(
    "change",
    [
        lambda g: g.pop("b1"),
        lambda g: g.update(extra=np.zeros(2)),
        lambda g: g.update(w2=g["w2"].T),
        lambda g: g.update(b2=np.zeros((1, 3))),
    ],
    ids=["missing", "extra", "transposed", "bad_shape"],
)
def test_apply_gradients_rejects_mismatched_gradients(change):
    params, _, _ = make_instance("mlp")
    opt = init_optimizer(params, learning_rate=0.1)
    grads = {name: np.ones_like(tensor) for name, tensor in params.tensors.items()}
    change(grads)
    with pytest.raises(ParameterError):
        apply_gradients(params, opt, grads)


def test_apply_gradients_takes_gradients_in_any_order():
    params, _, _ = make_instance("mlp")
    twin = params.copy()
    opt, twin_opt = init_optimizer(params, 0.1), init_optimizer(twin, 0.1)
    grads = {name: np.full(t.shape, i + 1.0) for i, (name, t) in enumerate(params.tensors.items())}
    apply_gradients(params, opt, grads)
    apply_gradients(twin, twin_opt, dict(reversed(grads.items())))
    assert params.flat.tobytes() == twin.flat.tobytes()


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
    grad_kinds=st.lists(st.sampled_from(["normal", "zero", "negative", "tiny"]),
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
            grads[name] = {"normal": g, "zero": np.zeros_like(g), "negative": -np.abs(g),
                           "tiny": g * 1e-300}[grad_kind]
        reference_apply_gradients(tensors, velocity, grads, learning_rate, momentum, weight_decay)
        apply_gradients(params, opt, grads)
    for name in tensors:
        assert params.tensors[name].tobytes() == tensors[name].tobytes(), name
        assert opt.velocity[name].tobytes() == velocity[name].tobytes(), name


@pytest.mark.parametrize("kind,activation", [("linear", "relu"), ("mlp", "tanh")])
def test_sgd_steps_reuse_a_given_forward_bit_for_bit(kind, activation):
    params, features, labels = make_instance(kind, activation, n=8)
    twin = params.copy()
    opt = init_optimizer(params, 0.1, 0.9, 0.05)
    twin_opt = init_optimizer(twin, 0.1, 0.9, 0.05)
    weights = np.random.default_rng(1).dirichlet(np.ones(3), size=8)
    for _ in range(3):
        loss = sgd_step(params, opt, features, labels, LossConfig())
        twin_loss = sgd_step(
            twin, twin_opt, features, labels, LossConfig(), forward=_forward(twin, features)
        )
        assert loss == twin_loss
        loss = sgd_step_soft(params, opt, features, weights, LossConfig())
        twin_loss = sgd_step_soft(
            twin, twin_opt, features, weights, LossConfig(), forward=_forward(twin, features)
        )
        assert loss == twin_loss
    assert params.flat.tobytes() == twin.flat.tobytes()
    assert opt.flat.tobytes() == twin_opt.flat.tobytes()


def test_tensors_are_views_of_one_vector():
    params, features, _ = make_instance("mlp", "tanh")
    opt = init_optimizer(params, 0.1)
    sizes = [t.size for t in params.tensors.values()]
    assert params.flat.size == opt.flat.size == sum(sizes)
    for tensor in [*params.tensors.values(), *opt.velocity.values()]:
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
        init_optimizer(params, 0.1).velocity["b1"] = np.zeros(8)


@given(n=st.integers(min_value=1, max_value=40), batch=st.integers(min_value=1, max_value=17))
@settings(max_examples=60, deadline=None)
def test_minibatch_indices_partition(n, batch):
    rng = np.random.default_rng(0)
    seen = np.concatenate(list(minibatch_indices(rng, n, batch)))
    assert sorted(seen.tolist()) == list(range(n))


def test_pretrain_reduces_loss():
    params, features, labels = make_instance(n=40, seed=5)
    opt = init_optimizer(params, learning_rate=0.05, momentum=0.9, weight_decay=0.0)
    rng = np.random.default_rng(2)
    # labels correlated with features via a fixed projection so loss can drop
    labels = (features[:, 0] > 0).astype(np.int64)
    history = pretrain_ce(params, opt, features, labels, 30, 8, LossConfig(), rng)
    assert history[-1] < history[0]


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
