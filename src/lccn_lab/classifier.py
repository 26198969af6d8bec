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

`apply_gradients` joins the gradients in the params' tensor order and runs
the momentum step once on the flat vectors. Every element goes through the
same float operations, in the same order, as a per-tensor loop would give
it, so the result is bit for bit the same. The SGD steps take an optional
`forward=(probs, cache)` from `_forward` on the same params and features,
so a caller that already needed the probabilities does not forward twice.
"""

from __future__ import annotations

import json
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


def _pack(tensors: Mapping[str, np.ndarray]) -> tuple[np.ndarray, Mapping[str, np.ndarray]]:
    """Copy tensors into one float64 vector; return it and read-only views of it by name."""
    flat = np.empty(sum(np.size(t) for t in tensors.values()))
    views, start = {}, 0
    for name, tensor in tensors.items():
        view = flat[start : start + np.size(tensor)].reshape(np.shape(tensor))
        view[...] = tensor
        views[name] = view
        start += view.size
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
    shifted = logits - logits.max(axis=1, keepdims=True)
    expz = np.exp(shifted)
    return expz / expz.sum(axis=1, keepdims=True)


def _forward(params: ClassifierParams, features: np.ndarray) -> tuple[np.ndarray, dict]:
    t = params.tensors
    if params.arch.kind == "linear":
        logits = features @ t["w"] + t["b"]
        cache = {}
    else:
        pre = features @ t["w1"] + t["b1"]
        hidden = np.maximum(pre, 0.0) if params.arch.activation == "relu" else np.tanh(pre)
        logits = hidden @ t["w2"] + t["b2"]
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
    clipped = np.clip(probs, cfg.clip, 1.0 - cfg.clip)
    loss = float(np.sum(target_weights * -np.log(clipped)) / n)
    inside = (probs > cfg.clip) & (probs < 1.0 - cfg.clip)
    dprobs = np.where(inside, -target_weights / clipped / n, 0.0)
    return loss, dprobs


def one_hot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    if np.any((labels < 0) | (labels >= n_classes)):
        raise ParameterError("labels out of range")
    out = np.zeros((labels.size, n_classes))
    out[np.arange(labels.size), labels] = 1.0
    return out


def clipped_cross_entropy(
    probs: np.ndarray, targets: np.ndarray, cfg: LossConfig
) -> tuple[float, np.ndarray]:
    """Mean -ln(clip(p_target)); bounded above by -ln(clip). Returns (loss, dL/dprobs)."""
    return soft_target_cross_entropy(probs, one_hot(targets, probs.shape[1]), cfg)


def dlogits_from_dprobs(probs: np.ndarray, dprobs: np.ndarray) -> np.ndarray:
    """Pull a probability-space gradient back through the softmax."""
    inner = np.sum(probs * dprobs, axis=1, keepdims=True)
    return probs * (dprobs - inner)


def backprop_logits(
    params: ClassifierParams, features: np.ndarray, cache: dict, dlogits: np.ndarray
) -> dict[str, np.ndarray]:
    """Gradients of all parameter tensors given the logit-space gradient."""
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


@dataclass
class OptimizerState:
    """Momentum SGD with weight decay added to the raw gradient.

    The velocity tensors are views of the one vector `flat`, like the params'.
    """

    learning_rate: float
    momentum: float = 0.9
    weight_decay: float = 0.0
    velocity: Mapping[str, np.ndarray] = field(default_factory=dict)
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.flat, self.velocity = _pack(self.velocity)


def init_optimizer(
    params: ClassifierParams,
    learning_rate: float,
    momentum: float = 0.9,
    weight_decay: float = 0.0,
) -> OptimizerState:
    velocity = {name: np.zeros_like(tensor) for name, tensor in params.tensors.items()}
    return OptimizerState(learning_rate, momentum, weight_decay, velocity)


def apply_gradients(
    params: ClassifierParams, opt: OptimizerState, grads: dict[str, np.ndarray]
) -> None:
    """One in-place momentum step on the flat vectors; aborts on non-finite gradients.

    grads must name exactly the params' tensors, each in its shape.
    """
    tensors = params.tensors
    if grads.keys() != tensors.keys() or any(
        grads[name].shape != tensor.shape for name, tensor in tensors.items()
    ):
        expected = ", ".join(f"{name} {tensor.shape}" for name, tensor in tensors.items())
        raise ParameterError(f"gradients must match the parameter tensors: {expected}")
    if opt.flat.shape != params.flat.shape:
        raise ParameterError("optimizer velocity does not match the parameters")
    grad = np.concatenate([grads[name].ravel() for name in tensors])
    if not np.isfinite(grad).all():
        bad = next(name for name in tensors if not np.all(np.isfinite(grads[name])))
        raise TrainingError(f"non-finite gradient in tensor {bad!r}")
    grad = grad + opt.weight_decay * params.flat
    vel = opt.flat
    vel *= opt.momentum
    vel += grad
    params.flat -= opt.learning_rate * vel


def loss_and_grads(
    params: ClassifierParams,
    features: np.ndarray,
    target_weights: np.ndarray,
    cfg: LossConfig,
    *,
    forward: tuple[np.ndarray, dict] | None = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Soft-target log-loss and its parameter gradients; forward is `_forward`'s output."""
    probs, cache = _forward(params, features) if forward is None else forward
    loss, dprobs = soft_target_cross_entropy(probs, target_weights, cfg)
    dlogits = dlogits_from_dprobs(probs, dprobs)
    return loss, backprop_logits(params, features, cache, dlogits)


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
    loss, grads = loss_and_grads(params, features, targets, cfg, forward=forward)
    if not np.isfinite(loss):
        raise TrainingError("non-finite training loss")
    apply_gradients(params, opt, grads)
    return loss


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
    loss, grads = loss_and_grads(params, features, target_weights, cfg, forward=forward)
    if not np.isfinite(loss):
        raise TrainingError("non-finite training loss")
    apply_gradients(params, opt, grads)
    return loss


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
