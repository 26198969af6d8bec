"""Desk-scale softmax classifiers: linear and one-hidden-layer MLP.

Everything is plain numpy. Losses return gradients with respect to the
predicted probabilities so that composed objectives (transition-adjusted
likelihoods, soft targets) can reuse one softmax backward pass.

Flat layout: `ClassifierParams.tensors` and `OptimizerState.velocity` are
read-only mappings of reshaped views into one contiguous float64 vector
each (`.flat`), packed in the mapping's key order when the object is built
(`copy()` and `load_checkpoint` included). A write into a view, such as
`tensors["w"][:] = ...` or a write through `tensors["w"].ravel()`, changes
the vector; rebinding an entry raises TypeError, because a new array would
no longer be part of the vector.

One loss-and-gradient path: `soft_target_cross_entropy`,
`dlogits_from_dprobs` and `backprop_logits`, chained by `loss_and_grads` for
the hard-label and soft-target steps and around the channel by the trainers'
composed step; `apply_gradients` is the one momentum update. The steps pass the
optimizer's own gradient views (`OptimizerState.grads`, views of one vector
`grad` in the params' layout) as `out`, so `backprop_logits` writes each
gradient product straight into that vector and `apply_gradients` runs the
momentum step on it in place: no concatenate, no per-tensor checks, no fresh
arrays. A plain dict of gradients is checked and copied into `grad` first.
The SGD steps take an optional `forward=(probs, cache)` from `_forward` on
the same params and features, so a caller that already needed the
probabilities does not forward twice.

Bit for bit: every float operation is the one the plain numpy formulas
(`np.clip`, `np.sum`, `one_hot` by zeros and scatter, fresh gradient arrays
joined by a concatenate) perform, on the same operands in the same order,
so each element of the params and velocity gets the same bits. The calls
differ only where a substitute is exact: one-hot rows are taken from a
cached identity matrix (the same 0.0 and 1.0 entries); the clip is
`minimum(maximum(p, clip), 1 - clip)`, which is `np.clip`'s own formula for
a positive clip; `np.add.reduce` and `np.maximum.reduce` are what `np.sum`,
`.sum()` and `.max()` call behind their Python wrappers, over the same axes
and layouts; and results written with `out=` into views or temporaries are
the ones a fresh array would hold. The loss keeps its dense sum over every
entry, so numpy's blocked summation order is unchanged.
"""

from __future__ import annotations

import functools
import json
import math
from collections.abc import Mapping
from dataclasses import asdict, dataclass, field
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


def _pack(tensors: Mapping[str, np.ndarray]) -> tuple[np.ndarray, Mapping[str, np.ndarray]]:
    """Copy tensors into one float64 vector; return it and read-only views of it by name."""
    flat = np.empty(sum(np.size(t) for t in tensors.values()))
    views = _views(flat, tensors)
    for name, tensor in tensors.items():
        views[name][...] = tensor
    return flat, MappingProxyType(views)


@dataclass
class ClassifierParams:
    """Named parameter tensors, stored as views of the one vector `flat`."""

    arch: Architecture
    tensors: Mapping[str, np.ndarray]
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.flat, self.tensors = _pack(self.tensors)

    def copy(self) -> "ClassifierParams":
        return ClassifierParams(self.arch, self.tensors)


@dataclass
class LossConfig:
    """Numerical guards for the log-loss: probabilities are clipped to [clip, 1 - clip]."""

    clip: float = 1e-20

    def __post_init__(self) -> None:
        if not 0.0 < self.clip < 0.5:
            raise ParameterError("clip must lie strictly between 0 and 0.5")


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


def _forward(params: ClassifierParams, features: np.ndarray) -> tuple[np.ndarray, dict]:
    t = params.tensors
    if params.arch.kind == "linear":
        logits = np.matmul(features, t["w"])
        logits += t["b"]
        cache = {}
    else:
        pre = np.matmul(features, t["w1"])
        pre += t["b1"]
        hidden = np.maximum(pre, 0.0) if params.arch.activation == "relu" else np.tanh(pre)
        logits = np.matmul(hidden, t["w2"])
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


def soft_target_cross_entropy(
    probs: np.ndarray, target_weights: np.ndarray, cfg: LossConfig
) -> tuple[float, np.ndarray]:
    """Weighted log-loss mean_n sum_k -w_nk * ln(clip(p_nk)) and its probability gradient.

    The gradient is exactly zero wherever the clip is active, matching the
    piecewise-constant forward value there.
    """
    if probs.shape != target_weights.shape:
        raise ParameterError("probs and target_weights must have the same shape")
    n = probs.shape[0]
    low, high = cfg.clip, 1.0 - cfg.clip
    clipped = np.minimum(np.maximum(probs, low), high)
    terms = np.log(clipped)
    np.negative(terms, out=terms)
    np.multiply(target_weights, terms, out=terms)
    loss = float(np.add.reduce(terms, axis=None) / n)
    inside = np.greater(probs, low)
    inside &= np.less(probs, high)
    scaled = np.negative(target_weights, dtype=np.float64)
    np.divide(scaled, clipped, out=scaled)
    np.divide(scaled, n, out=scaled)
    return loss, np.where(inside, scaled, 0.0)


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
    out: Mapping[str, np.ndarray] | None = None,
) -> Mapping[str, np.ndarray]:
    """Gradients of all parameter tensors given the logit-space gradient.

    They are written into out (arrays shaped like the params' tensors, by
    name), or into views of one fresh vector when out is None; returns out.
    """
    if out is None:
        out = _views(np.empty(params.flat.size), params.tensors)
    if params.arch.kind == "linear":
        np.matmul(features.T, dlogits, out=out["w"])
        np.add.reduce(dlogits, axis=0, out=out["b"])
        return out
    hidden, pre = cache["hidden"], cache["pre"]
    dpre = np.matmul(dlogits, params.tensors["w2"].T)
    if params.arch.activation == "relu":
        np.multiply(dpre, np.greater(pre, 0.0), out=dpre)
    else:
        slope = np.square(hidden)
        np.subtract(1.0, slope, out=slope)
        np.multiply(dpre, slope, out=dpre)
    np.matmul(features.T, dpre, out=out["w1"])
    np.add.reduce(dpre, axis=0, out=out["b1"])
    np.matmul(hidden.T, dlogits, out=out["w2"])
    np.add.reduce(dlogits, axis=0, out=out["b2"])
    return out


@dataclass
class OptimizerState:
    """Momentum SGD with weight decay added to the raw gradient.

    The velocity tensors are views of the one vector `flat`, like the params'.
    `grad` is the optimizer's gradient vector in the same layout, and
    `grads` its views by name: the SGD steps write their gradients there and
    `apply_gradients` reads them in place.
    """

    learning_rate: float
    momentum: float = 0.9
    weight_decay: float = 0.0
    velocity: Mapping[str, np.ndarray] = field(default_factory=dict)
    flat: np.ndarray = field(init=False, repr=False, compare=False)
    grad: np.ndarray = field(init=False, repr=False, compare=False)
    grads: Mapping[str, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.flat, self.velocity = _pack(self.velocity)
        self.grad = np.zeros_like(self.flat)
        self.grads = MappingProxyType(_views(self.grad, self.velocity))


def init_optimizer(
    params: ClassifierParams,
    learning_rate: float,
    momentum: float = 0.9,
    weight_decay: float = 0.0,
) -> OptimizerState:
    velocity = {name: np.zeros_like(tensor) for name, tensor in params.tensors.items()}
    return OptimizerState(learning_rate, momentum, weight_decay, velocity)


def _check_optimizer(params: ClassifierParams, opt: OptimizerState) -> None:
    if opt.flat.shape != params.flat.shape:
        raise ParameterError("optimizer velocity does not match the parameters")


def apply_gradients(
    params: ClassifierParams, opt: OptimizerState, grads: Mapping[str, np.ndarray]
) -> None:
    """One in-place momentum step on the flat vectors; aborts on non-finite gradients.

    grads is either `opt.grads`, already filled in, which is used in place,
    or a mapping that names exactly the params' tensors, each in its shape,
    which is copied into `opt.grad` first.
    """
    tensors = params.tensors
    _check_optimizer(params, opt)
    if grads is not opt.grads:
        if grads.keys() != tensors.keys() or any(
            grads[name].shape != tensor.shape for name, tensor in tensors.items()
        ):
            expected = ", ".join(f"{name} {tensor.shape}" for name, tensor in tensors.items())
            raise ParameterError(f"gradients must match the parameter tensors: {expected}")
        np.concatenate([grads[name].ravel() for name in tensors], out=opt.grad)
    grad = opt.grad
    if not np.isfinite(grad).all():
        bad = next(name for name in tensors if not np.isfinite(opt.grads[name]).all())
        raise TrainingError(f"non-finite gradient in tensor {bad!r}")
    grad += opt.weight_decay * params.flat
    vel = opt.flat
    vel *= opt.momentum
    vel += grad
    np.multiply(opt.learning_rate, vel, out=grad)
    params.flat -= grad


def loss_and_grads(
    params: ClassifierParams,
    features: np.ndarray,
    target_weights: np.ndarray,
    cfg: LossConfig,
    *,
    forward: tuple[np.ndarray, dict] | None = None,
    out: Mapping[str, np.ndarray] | None = None,
) -> tuple[float, Mapping[str, np.ndarray]]:
    """Soft-target log-loss and its parameter gradients; forward is `_forward`'s output.

    The gradients go into out when given (see `backprop_logits`), else into
    fresh arrays.
    """
    probs, cache = _forward(params, features) if forward is None else forward
    loss, dprobs = soft_target_cross_entropy(probs, target_weights, cfg)
    dlogits = dlogits_from_dprobs(probs, dprobs)
    return loss, backprop_logits(params, features, cache, dlogits, out)


def _step(
    params: ClassifierParams,
    opt: OptimizerState,
    features: np.ndarray,
    target_weights: np.ndarray,
    cfg: LossConfig,
    forward: tuple[np.ndarray, dict] | None,
) -> float:
    """Gradients into the optimizer's vector, then one momentum step; returns the loss."""
    _check_optimizer(params, opt)
    loss, grads = loss_and_grads(
        params, features, target_weights, cfg, forward=forward, out=opt.grads
    )
    if not math.isfinite(loss):
        raise TrainingError("non-finite training loss")
    apply_gradients(params, opt, grads)
    return loss


def sgd_step(
    params: ClassifierParams,
    opt: OptimizerState,
    features: np.ndarray,
    labels: np.ndarray,
    cfg: LossConfig,
    *,
    forward: tuple[np.ndarray, dict] | None = None,
) -> float:
    """One minibatch step of clipped cross-entropy on hard labels; returns the loss.

    forward, when given, is `_forward(params, features)`, reused instead of recomputed.
    """
    targets = one_hot(labels, params.arch.n_classes)
    return _step(params, opt, features, targets, cfg, forward)


def sgd_step_soft(
    params: ClassifierParams,
    opt: OptimizerState,
    features: np.ndarray,
    target_weights: np.ndarray,
    cfg: LossConfig,
    *,
    forward: tuple[np.ndarray, dict] | None = None,
) -> float:
    """Like sgd_step but with per-class target weights instead of hard labels."""
    return _step(params, opt, features, target_weights, cfg, forward)


def minibatch_indices(rng: np.random.Generator, n: int, batch_size: int):
    """Yield shuffled index blocks covering one epoch."""
    if batch_size < 1:
        raise ParameterError("batch_size must be >= 1")
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start : start + batch_size]


def pretrain_ce(
    params: ClassifierParams,
    opt: OptimizerState,
    features: np.ndarray,
    labels: np.ndarray,
    epochs: int,
    batch_size: int,
    cfg: LossConfig,
    rng: np.random.Generator,
) -> list[float]:
    """Fit the classifier to the observed labels; returns per-epoch mean losses."""
    history = []
    for _ in range(epochs):
        losses = [
            sgd_step(params, opt, features[idx], labels[idx], cfg)
            for idx in minibatch_indices(rng, features.shape[0], batch_size)
        ]
        history.append(float(np.mean(losses)))
    return history


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
