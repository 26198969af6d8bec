"""Desk-scale softmax classifiers, linear and one-hidden-layer MLP, in plain numpy.

Layout: `ClassifierParams.tensors` is a read-only mapping of reshaped views
into one float64 vector `flat`, in the mapping's key order. `OptimizerState`
keeps its `velocity` and `grad` as vectors in that layout, and `grads` names
the views of `grad`: every step writes its gradients there, and
`apply_gradients` updates the vectors in place. A write into a view changes
its vector; rebinding an entry raises TypeError. The log-loss clip is a
plain float in (0, 0.5), which `soft_target_cross_entropy` checks.

Exact substitutions: a step gives the bits of the plain numpy formulas
(`np.clip`, `np.sum`, one-hot rows by zeros and scatter, fresh gradient
arrays joined by a concatenate). One-hot rows are taken from a cached
identity (the same 0.0 and 1.0 entries); the clip is
`minimum(maximum(p, clip), 1 - clip)`, `np.clip`'s own formula for a positive
clip; `np.add.reduce` and `np.maximum.reduce` are what `np.sum`, `.sum()` and
`.max()` call, over the same axes; a result written with `out=` holds what a
fresh array would. The loss keeps its dense sum over every entry, so numpy's
blocked summation order is unchanged. A matrix product whose entries sum 2 or
more terms is `ndarray.dot`, which gives `np.matmul`'s bits (`_product`). A
hard-label step computes its loss only when the sum of its clipped
probabilities is not finite; otherwise that loss is finite (see `_step`), and
a step gives the same verdict and the same bits either way. A batch's rows are
contiguous slices of one gather per epoch (`epoch_batches`), which hold the
values a gather per batch would.
"""

from __future__ import annotations

import functools
import json
import math
from collections.abc import Mapping
from dataclasses import InitVar, asdict, dataclass, field
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .errors import ParameterError, TrainingError


@dataclass(frozen=True)
class Architecture:
    """Shape of a classifier: "linear" or "mlp" with one hidden layer."""

    kind: str
    input_dim: int
    n_classes: int
    hidden_width: int = 0
    activation: str = "relu"

    def __post_init__(self) -> None:
        if self.kind not in ("linear", "mlp"):
            raise ParameterError(f"unknown classifier kind {self.kind!r}")
        if self.kind == "mlp" and self.hidden_width < 1:
            raise ParameterError("mlp needs hidden_width >= 1")
        if self.activation not in ("relu", "tanh"):
            raise ParameterError(f"unknown activation {self.activation!r}")
        if self.input_dim < 1 or self.n_classes < 2:
            raise ParameterError("input_dim must be >= 1 and n_classes >= 2")


def _views(flat: np.ndarray, like: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Reshaped views of consecutive slices of flat, one per tensor of like, in its key order."""
    views, start = {}, 0
    for name, tensor in like.items():
        size = np.size(tensor)
        views[name] = flat[start : start + size].reshape(np.shape(tensor))
        start += size
    return views


@dataclass
class ClassifierParams:
    """Named parameter tensors, copied into views of the one vector `flat`."""

    arch: Architecture
    tensors: Mapping[str, np.ndarray]
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.flat = np.empty(sum(np.size(t) for t in self.tensors.values()))
        views = _views(self.flat, self.tensors)
        for name, tensor in self.tensors.items():
            views[name][...] = tensor
        self.tensors = MappingProxyType(views)

    def copy(self) -> "ClassifierParams":
        return ClassifierParams(self.arch, self.tensors)


def init_params(arch: Architecture, seed: int) -> ClassifierParams:
    """Small uniform init (+-1/sqrt(fan_in)) for weights, zeros for biases."""
    rng = np.random.default_rng(seed)
    tensors: dict[str, np.ndarray] = {}
    if arch.kind == "linear":
        bound = 1.0 / np.sqrt(arch.input_dim)
        tensors["w"] = rng.uniform(-bound, bound, size=(arch.input_dim, arch.n_classes))
        tensors["b"] = np.zeros(arch.n_classes)
    else:
        bound1 = 1.0 / np.sqrt(arch.input_dim)
        bound2 = 1.0 / np.sqrt(arch.hidden_width)
        tensors["w1"] = rng.uniform(-bound1, bound1, size=(arch.input_dim, arch.hidden_width))
        tensors["b1"] = np.zeros(arch.hidden_width)
        tensors["w2"] = rng.uniform(-bound2, bound2, size=(arch.hidden_width, arch.n_classes))
        tensors["b2"] = np.zeros(arch.n_classes)
    return ClassifierParams(arch, tensors)


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - np.maximum.reduce(logits, axis=1, keepdims=True)
    expz = np.exp(shifted, out=shifted)
    return np.divide(expz, np.add.reduce(expz, axis=1, keepdims=True), out=expz)


def _product(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """`np.matmul(a, b, out=out)` of 2-d float64 arrays; out, if given, C-contiguous.

    With 2 or more terms per product, `ndarray.dot` gives matmul's bits at about
    half its call cost. With one term per product it can give -0.0 where
    matmul gives +0.0, so that case keeps matmul.
    """
    if a.shape[1] > 1:
        return a.dot(b, out=out)
    return np.matmul(a, b, out=out)


def _forward(params: ClassifierParams, features: np.ndarray) -> tuple[np.ndarray, dict]:
    t = params.tensors
    if params.arch.kind == "linear":
        logits = _product(features, t["w"])
        logits += t["b"]
        cache = {}
    else:
        pre = _product(features, t["w1"])
        pre += t["b1"]
        hidden = np.maximum(pre, 0.0) if params.arch.activation == "relu" else np.tanh(pre)
        logits = _product(hidden, t["w2"])
        logits += t["b2"]
        cache = {"pre": pre, "hidden": hidden}
    return _softmax(logits), cache


def forward_proba(params: ClassifierParams, features: np.ndarray) -> np.ndarray:
    """Class probabilities, one row per sample; rows sum to 1."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != params.arch.input_dim:
        raise ParameterError(
            f"features must be (n, {params.arch.input_dim}), got {features.shape}"
        )
    probs, _ = _forward(params, features)
    return probs


def _clipped_dprobs(
    probs: np.ndarray, target_weights: np.ndarray, clip: float
) -> tuple[np.ndarray, np.ndarray]:
    """The clipped probabilities and the probability gradient of `soft_target_cross_entropy`."""
    if not 0.0 < clip < 0.5:  # also False for NaN
        raise ParameterError(f"clip must lie strictly between 0 and 0.5, got {clip!r}")
    if probs.shape != target_weights.shape:
        raise ParameterError("probs and target_weights must have the same shape")
    n = probs.shape[0]
    low, high = clip, 1.0 - clip
    clipped = np.minimum(np.maximum(probs, low), high)
    inside = np.greater(probs, low)
    inside &= np.less(probs, high)
    scaled = np.negative(target_weights, dtype=np.float64)
    np.divide(scaled, clipped, out=scaled)
    np.divide(scaled, n, out=scaled)
    return clipped, np.where(inside, scaled, 0.0)


def _clipped_loss(clipped: np.ndarray, target_weights: np.ndarray) -> float:
    """`soft_target_cross_entropy`'s loss, from the clipped probabilities of `_clipped_dprobs`."""
    terms = np.log(clipped)
    np.negative(terms, out=terms)
    np.multiply(target_weights, terms, out=terms)
    return float(np.add.reduce(terms, axis=None) / clipped.shape[0])


def soft_target_cross_entropy(
    probs: np.ndarray, target_weights: np.ndarray, clip: float
) -> tuple[float, np.ndarray]:
    """Weighted log-loss mean_n sum_k -w_nk * ln(clip(p_nk)) and its probability gradient.

    Probabilities are clipped to [clip, 1 - clip], with 0 < clip < 0.5. The
    gradient is exactly zero wherever the clip is active, matching the
    piecewise-constant forward value there.
    """
    clipped, dprobs = _clipped_dprobs(probs, target_weights, clip)
    return _clipped_loss(clipped, target_weights), dprobs


@functools.lru_cache(maxsize=64)
def _eye(n_classes: int) -> np.ndarray:
    """A read-only identity; `one_hot` takes copies of its rows."""
    eye = np.eye(n_classes)
    eye.flags.writeable = False
    return eye


def one_hot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    """(n, n_classes) one-hot rows of 1-d integer labels: fresh rows of a cached identity."""
    labels = np.asarray(labels, dtype=np.int64)
    listed = labels.tolist()
    if listed and (min(listed) < 0 or max(listed) >= n_classes):
        raise ParameterError("labels out of range")
    return _eye(n_classes).take(labels, axis=0)


def dlogits_from_dprobs(probs: np.ndarray, dprobs: np.ndarray) -> np.ndarray:
    """Pull a probability-space gradient back through the softmax."""
    out = np.multiply(probs, dprobs)
    inner = np.add.reduce(out, axis=1, keepdims=True)
    np.subtract(dprobs, inner, out=out)
    return np.multiply(probs, out, out=out)


def backprop_logits(
    params: ClassifierParams,
    features: np.ndarray,
    cache: dict,
    dlogits: np.ndarray,
    out: Mapping[str, np.ndarray],
) -> None:
    """Write the gradients of all parameter tensors, given the logit-space gradient, into out.

    out maps each tensor's name to a C-contiguous array of its shape, such as
    `OptimizerState.grads`.
    """
    if params.arch.kind == "linear":
        _product(features.T, dlogits, out["w"])
        np.add.reduce(dlogits, axis=0, out=out["b"])
        return
    hidden, pre = cache["hidden"], cache["pre"]
    dpre = _product(dlogits, params.tensors["w2"].T)
    if params.arch.activation == "relu":
        np.multiply(dpre, np.greater(pre, 0.0), out=dpre)
    else:
        slope = np.square(hidden)
        np.subtract(1.0, slope, out=slope)
        np.multiply(dpre, slope, out=dpre)
    _product(features.T, dpre, out["w1"])
    np.add.reduce(dpre, axis=0, out=out["b1"])
    _product(hidden.T, dlogits, out["w2"])
    np.add.reduce(dlogits, axis=0, out=out["b2"])


@dataclass
class OptimizerState:
    """Momentum SGD with weight decay added to the raw gradient.

    `velocity` and `grad` are vectors laid out like the `ClassifierParams.flat`
    of the tensors given at construction, and `grads` is a read-only mapping
    of `grad`'s views by tensor name.
    """

    tensors: InitVar[Mapping[str, np.ndarray]]
    learning_rate: float
    momentum: float = 0.9
    weight_decay: float = 0.0
    velocity: np.ndarray = field(init=False, repr=False, compare=False)
    grad: np.ndarray = field(init=False, repr=False, compare=False)
    grads: Mapping[str, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self, tensors: Mapping[str, np.ndarray]) -> None:
        self.velocity = np.zeros(sum(np.size(t) for t in tensors.values()))
        self.grad = np.zeros_like(self.velocity)
        self.grads = MappingProxyType(_views(self.grad, tensors))


def init_optimizer(
    params: ClassifierParams,
    learning_rate: float,
    momentum: float = 0.9,
    weight_decay: float = 0.0,
) -> OptimizerState:
    return OptimizerState(params.tensors, learning_rate, momentum, weight_decay)


def _check_optimizer(params: ClassifierParams, opt: OptimizerState) -> None:
    if opt.velocity.shape != params.flat.shape:
        raise ParameterError("optimizer velocity does not match the parameters")


def apply_gradients(params: ClassifierParams, opt: OptimizerState) -> None:
    """One in-place momentum step with the gradients in `opt.grads`; aborts on non-finite ones."""
    _check_optimizer(params, opt)
    grad = opt.grad
    if not np.isfinite(grad).all():
        bad = next(name for name, view in opt.grads.items() if not np.isfinite(view).all())
        raise TrainingError(f"non-finite gradient in tensor {bad!r}")
    grad += opt.weight_decay * params.flat
    vel = opt.velocity
    vel *= opt.momentum
    vel += grad
    np.multiply(opt.learning_rate, vel, out=grad)
    params.flat -= grad


def loss_and_grads(
    params: ClassifierParams,
    features: np.ndarray,
    target_weights: np.ndarray,
    clip: float,
    out: Mapping[str, np.ndarray],
    *,
    forward: tuple[np.ndarray, dict] | None = None,
) -> float:
    """Soft-target log-loss; its parameter gradients go into out (see `backprop_logits`).

    forward, when given, is `_forward(params, features)`, reused instead of recomputed.
    """
    probs, cache = _forward(params, features) if forward is None else forward
    loss, dprobs = soft_target_cross_entropy(probs, target_weights, clip)
    backprop_logits(params, features, cache, dlogits_from_dprobs(probs, dprobs), out)
    return loss


def _step(
    params: ClassifierParams,
    opt: OptimizerState,
    features: np.ndarray,
    target_weights: np.ndarray,
    clip: float,
    forward: tuple[np.ndarray, dict] | None,
    hard: bool,
) -> None:
    """Gradients into the optimizer's vector, then one momentum step; hard: one-hot targets.

    It raises on a non-finite training loss, as `loss_and_grads` would give it,
    but computes that loss only when a cheaper test cannot vouch for it. One-hot
    rows weigh each clipped probability by 0 or 1, and a clipped probability is
    NaN or lies in [clip, 1 - clip]. So with at least one row, a finite sum of
    the clipped probabilities makes every loss term finite and at most
    -ln(clip) < 745, so their sum and the loss are finite.
    """
    _check_optimizer(params, opt)
    probs, cache = _forward(params, features) if forward is None else forward
    clipped, dprobs = _clipped_dprobs(probs, target_weights, clip)
    backprop_logits(params, features, cache, dlogits_from_dprobs(probs, dprobs), opt.grads)
    vouched = hard and clipped.shape[0] and math.isfinite(np.add.reduce(clipped, axis=None))
    if not vouched and not math.isfinite(_clipped_loss(clipped, target_weights)):
        raise TrainingError("non-finite training loss")
    apply_gradients(params, opt)


def sgd_step(
    params: ClassifierParams,
    opt: OptimizerState,
    features: np.ndarray,
    labels: np.ndarray,
    clip: float,
    *,
    forward: tuple[np.ndarray, dict] | None = None,
) -> None:
    """One minibatch step of clipped cross-entropy on hard labels; forward as in loss_and_grads."""
    _step(params, opt, features, one_hot(labels, params.arch.n_classes), clip, forward, True)


def sgd_step_soft(
    params: ClassifierParams,
    opt: OptimizerState,
    features: np.ndarray,
    target_weights: np.ndarray,
    clip: float,
    *,
    forward: tuple[np.ndarray, dict] | None = None,
) -> None:
    """Like sgd_step but with per-class target weights instead of hard labels."""
    _step(params, opt, features, target_weights, clip, forward, False)


def epoch_batches(order: np.ndarray, features: np.ndarray, labels: np.ndarray, batch_size: int):
    """Yield (idx, features, labels) of each minibatch of one epoch, in its order.

    `order` is the epoch's permutation of the rows, and `features` and
    `labels` are their rows already gathered in that order (one gather per
    epoch), so each batch's arrays are contiguous slices of them and idx
    names the rows of the batch.
    """
    if batch_size < 1:
        raise ParameterError("batch_size must be >= 1")
    for start in range(0, order.size, batch_size):
        stop = start + batch_size
        yield order[start:stop], features[start:stop], labels[start:stop]


def pretrain_ce(
    params: ClassifierParams,
    opt: OptimizerState,
    features: np.ndarray,
    labels: np.ndarray,
    epochs: int,
    batch_size: int,
    clip: float,
    rng: np.random.Generator,
) -> None:
    """Fit the classifier to the observed labels by epochs of hard-label SGD steps.

    Each epoch is one pass of `epoch_batches` in the order of one
    `rng.permutation(n)`, the loop the trainers share.
    """
    for _epoch in range(epochs):
        order = rng.permutation(features.shape[0])
        batches = epoch_batches(order, features[order], labels[order], batch_size)
        for _, batch_features, batch_labels in batches:
            sgd_step(params, opt, batch_features, batch_labels, clip)


def save_checkpoint(params: ClassifierParams, path: str | Path) -> None:
    payload = {
        "architecture": asdict(params.arch),
        "tensors": {name: tensor.tolist() for name, tensor in params.tensors.items()},
    }
    Path(path).write_text(json.dumps(payload))


def load_checkpoint(path: str | Path) -> ClassifierParams:
    payload = json.loads(Path(path).read_text())
    arch = Architecture(**payload["architecture"])
    tensors = {name: np.array(value, dtype=np.float64) for name, value in payload["tensors"].items()}
    return ClassifierParams(arch, tensors)
