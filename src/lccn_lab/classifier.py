"""Desk-scale softmax classifiers, linear and one-hidden-layer MLP, in plain numpy.

Layout: `ClassifierParams.tensors` is a read-only mapping of reshaped views
into one float64 vector `flat`, in the mapping's key order. `OptimizerState`
keeps its `velocity` and `grad` as vectors in that layout, and `grads` names
the views of `grad`: every step writes its gradients there, and
`apply_gradients` updates the vectors in place. A write into a view changes
its vector; rebinding an entry raises TypeError. The log-loss clip is a
plain float in (0, 0.5). An optimizer also owns its steps' buffers: one
`_Scratch` per row count it steps (a run steps its batch size and, at most,
one shorter final batch), made at the first step of that count. Each stage
of a step has one implementation, which writes into the scratch it is given
with `out=`; given `_FRESH`, which holds no arrays, it allocates, as
`forward_proba`, `loss_and_grads`, `soft_target_cross_entropy` and
`_composed_loss_grads` without an optimizer do, so their results outlive
later steps. `_gradients` is the backward pass that every step shares.

Checks: the clip's range and the optimizer's layout are checked at the
optimizer's first step, and again only when a step brings other parameters
or another clip, which also starts its table of scratches again. Each step
checks its labels' range or its target shape, and `apply_gradients` the
optimizer's layout, so a step checks it once.

Exact substitutions: a step gives the bits of the plain numpy formulas
(`np.clip`, `np.sum`, one-hot rows by zeros and scatter, fresh gradient
arrays joined by a concatenate). A result written with `out=`, or a softmax
taken in place over its logits, holds what a fresh array would, and a 0-d
float64 operand (`_bounds`, `_ZERO`, `_ONE`) is the same operand as the
Python float it holds. One-hot rows are taken from a cached identity (the
same 0.0 and 1.0 entries), and a step's negated targets from its negation.
The loss weighs `log(clipped)` by the negated targets, the bits of
`-log(clipped)` weighed by the targets (a product's sign is the exclusive or
of its factors'). The clip is
`minimum(maximum(p, clip), 1 - clip)`, `np.clip`'s own formula for a
positive clip, and `copyto(where=)` zeroes the gradient outside it as
`np.where` did; `np.add.reduce` and `np.maximum.reduce` are what `np.sum`,
`.sum()` and `.max()` call, over the same axes. The loss keeps its dense sum
over every entry, so numpy's blocked summation order is unchanged. A matrix
product whose entries sum 2 or more terms is `ndarray.dot`, which gives
`np.matmul`'s bits (`_product`). A hard-label step computes its loss only
when the sum of its clipped probabilities is not finite; otherwise that loss
is finite (see `_step`), and a step gives the same verdict and the same bits
either way. `apply_gradients` sums the gradient's entries scaled by a power
of two small enough that finite entries cannot overflow the sum, so it is
finite exactly when every entry is; only a non-finite sum leads to the
entry-wise pass that names the tensor. Those two sums are dot products with
a constant vector, whose order of addition does not matter, since only their
finiteness is read. A batch's rows are contiguous slices of one gather per
epoch (`epoch_batches`), which hold the values a gather per batch would.
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

from .errors import ParameterError, TrainingError, check_labels


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


class _Scratch:
    """The arrays that the stages of one step on n rows write into with `out=`.

    probs holds the logits and then, in place, their softmax; col (n, 1) holds
    a row's max, then its sum, then the logit gradient's inner product. pre,
    hidden, gate (the activation's slope; a bool mask for relu) and dpre are
    the hidden layer's, None for a linear model. clipped (with flat, its
    entries as one vector, and ones, a vector of as many ones), mask, within
    and dprobs are `_clipped_dprobs`'s; mixture, dmixed (the gradient pulled
    back through the channel) and the (K, K) dphi are the composed step's;
    bounds is `_bounds` of the step's clip and n. Built without an
    architecture, as `_FRESH`, it holds None in every slot, so that numpy
    allocates each result.
    """

    __slots__ = (
        "probs", "col", "pre", "hidden", "gate", "dpre", "clipped", "mask", "within",
        "dprobs", "dlogits", "mixture", "dmixed", "flat", "ones", "dphi", "bounds",
    )

    def __init__(self, arch: Architecture | None = None, n: int = 0, clip: float = 0.0) -> None:
        arrays = {}
        if arch is not None:
            k, width = arch.n_classes, arch.hidden_width
            names = ("probs", "clipped", "dprobs", "dlogits", "mixture", "dmixed")
            arrays = {name: np.empty((n, k)) for name in names}
            arrays.update(col=np.empty((n, 1)), mask=np.empty((n, k), bool),
                          within=np.empty((n, k), bool), ones=np.ones(n * k),
                          dphi=np.empty((k, k)), bounds=_bounds(clip, n))
            arrays["flat"] = arrays["clipped"].reshape(-1)
            if arch.kind == "mlp":
                arrays.update({name: np.empty((n, width)) for name in ("pre", "hidden", "dpre")})
                arrays["gate"] = np.empty((n, width), bool if arch.activation == "relu" else float)
        for name in self.__slots__:
            setattr(self, name, arrays.get(name))


_FRESH = _Scratch()
# 0-d operands, which numpy reads faster than Python floats (see `_bounds`).
_ZERO, _ONE = np.zeros(()), np.ones(())
_ZERO.flags.writeable = _ONE.flags.writeable = False


def _bounds(clip: float, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A clip's bounds clip and 1 - clip and a row count n, as 0-d float64 arrays.

    numpy reads a 0-d operand about 0.1 us faster than a Python number, and
    gives the same bits; a step reads each of these once or twice.
    """
    return np.array(clip), np.array(1.0 - clip), np.array(float(n))


def _scratch(params: ClassifierParams, opt: "OptimizerState", n: int, clip: float) -> _Scratch:
    """opt's scratch for a step of params on n rows at this clip, made at its first such step.

    The optimizer's layout and the clip are checked, and opt's table of
    scratches started again, only when the parameters object or the clip
    differs from the last step's.
    """
    checked_params, checked_clip = opt._checked_for
    if checked_params is not params or checked_clip != clip:
        _check_optimizer(params, opt)
        _check_clip(clip)
        opt._checked_for, opt._scratches = (params, clip), {}
    scratch = opt._scratches.get(n)
    if scratch is None:
        scratch = opt._scratches[n] = _Scratch(params.arch, n, clip)
    return scratch


def _softmax(
    logits: np.ndarray, out: np.ndarray | None = None, col: np.ndarray | None = None
) -> np.ndarray:
    """Row softmax of logits into out (fresh if None; it may be logits); col: an (n, 1) scratch."""
    shifted = np.subtract(
        logits, np.maximum.reduce(logits, axis=1, keepdims=True, out=col), out=out
    )
    expz = np.exp(shifted, out=shifted)
    return np.divide(expz, np.add.reduce(expz, axis=1, keepdims=True, out=col), out=expz)


def _product(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """`np.matmul(a, b, out=out)` of 2-d float64 arrays; out, if given, C-contiguous.

    With 2 or more terms per product, `ndarray.dot` gives matmul's bits at about
    half its call cost. With one term per product it can give -0.0 where
    matmul gives +0.0, so that case keeps matmul.
    """
    if a.shape[1] > 1:
        return a.dot(b, out=out)
    return np.matmul(a, b, out=out)


def _forward(
    params: ClassifierParams, features: np.ndarray, scratch: _Scratch = _FRESH
) -> tuple[np.ndarray, tuple]:
    """Class probabilities and the backprop cache: (pre, hidden) of an MLP, () of a linear model.

    The arrays are scratch's; with `_FRESH`, fresh ones.
    """
    t = params.tensors
    if params.arch.kind == "linear":
        logits = _product(features, t["w"], scratch.probs)
        logits += t["b"]
        cache = ()
    else:
        pre = _product(features, t["w1"], scratch.pre)
        pre += t["b1"]
        if params.arch.activation == "relu":
            hidden = np.maximum(pre, _ZERO, out=scratch.hidden)
        else:
            hidden = np.tanh(pre, out=scratch.hidden)
        logits = _product(hidden, t["w2"], scratch.probs)
        logits += t["b2"]
        cache = pre, hidden
    return _softmax(logits, logits, scratch.col), cache


def forward_proba(params: ClassifierParams, features: np.ndarray) -> np.ndarray:
    """Class probabilities, one row per sample; rows sum to 1."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != params.arch.input_dim:
        raise ParameterError(
            f"features must be (n, {params.arch.input_dim}), got {features.shape}"
        )
    probs, _ = _forward(params, features)
    return probs


def _check_clip(clip: float) -> None:
    if not 0.0 < clip < 0.5:  # also False for NaN
        raise ParameterError(f"clip must lie strictly between 0 and 0.5, got {clip!r}")


def _clipped_dprobs(
    probs: np.ndarray, neg: np.ndarray, bounds: tuple, scratch: _Scratch = _FRESH
) -> tuple[np.ndarray, np.ndarray]:
    """The clipped probabilities and the probability gradient of `soft_target_cross_entropy`.

    neg holds the negated target weights and bounds is `_bounds` of a
    checked clip and probs' row count; the results are scratch's.
    """
    if probs.shape != neg.shape:
        raise ParameterError("probs and target_weights must have the same shape")
    low, high, count = bounds
    clipped = np.maximum(probs, low, out=scratch.clipped)
    np.minimum(clipped, high, out=clipped)
    outside = np.greater(probs, low, out=scratch.mask)
    outside &= np.less(probs, high, out=scratch.within)
    np.logical_not(outside, out=outside)
    dprobs = np.divide(neg, clipped, out=scratch.dprobs)
    np.divide(dprobs, count, out=dprobs)
    np.copyto(dprobs, _ZERO, where=outside)
    return clipped, dprobs


def _clipped_loss(clipped: np.ndarray, neg: np.ndarray) -> float:
    """`soft_target_cross_entropy`'s loss from `_clipped_dprobs`'s clipped probabilities.

    neg holds the negated target weights. The log is taken in place, over clipped.
    """
    terms = np.log(clipped, out=clipped)
    np.multiply(neg, terms, out=terms)
    return float(np.add.reduce(terms, axis=None) / clipped.shape[0])


def soft_target_cross_entropy(
    probs: np.ndarray, target_weights: np.ndarray, clip: float
) -> tuple[float, np.ndarray]:
    """Weighted log-loss mean_n sum_k -w_nk * ln(clip(p_nk)) and its probability gradient.

    Probabilities are clipped to [clip, 1 - clip], with 0 < clip < 0.5. The
    gradient is exactly zero wherever the clip is active, matching the
    piecewise-constant forward value there.
    """
    _check_clip(clip)
    neg = np.negative(target_weights, dtype=np.float64)
    clipped, dprobs = _clipped_dprobs(probs, neg, _bounds(clip, len(probs)))
    return _clipped_loss(clipped, neg), dprobs


@functools.lru_cache(maxsize=64)
def _eye(n_classes: int) -> np.ndarray:
    """A read-only identity; `one_hot` takes copies of its rows."""
    eye = np.eye(n_classes)
    eye.flags.writeable = False
    return eye


@functools.lru_cache(maxsize=64)
def _neg_eye(n_classes: int) -> np.ndarray:
    """A read-only negated identity, whose rows are the negated one-hot targets of a step."""
    neg = np.negative(_eye(n_classes))
    neg.flags.writeable = False
    return neg


def one_hot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    """(n, n_classes) one-hot rows of 1-d integer labels: fresh rows of a cached identity."""
    return _eye(n_classes).take(check_labels(labels, n_classes, "labels"), axis=0)


def dlogits_from_dprobs(
    probs: np.ndarray, dprobs: np.ndarray, scratch: _Scratch = _FRESH
) -> np.ndarray:
    """Pull a probability-space gradient back through the softmax (into scratch's dlogits)."""
    out = np.multiply(probs, dprobs, out=scratch.dlogits)
    inner = np.add.reduce(out, axis=1, keepdims=True, out=scratch.col)
    np.subtract(dprobs, inner, out=out)
    return np.multiply(probs, out, out=out)


def backprop_logits(
    params: ClassifierParams,
    features: np.ndarray,
    cache: tuple,
    dlogits: np.ndarray,
    out: Mapping[str, np.ndarray],
    scratch: _Scratch = _FRESH,
) -> None:
    """Write the gradients of all parameter tensors, given the logit-space gradient, into out.

    out maps each tensor's name to a C-contiguous array of its shape, such as
    `OptimizerState.grads`; the hidden layer's gradient goes through scratch.
    """
    if params.arch.kind == "linear":
        _product(features.T, dlogits, out["w"])
        np.add.reduce(dlogits, axis=0, out=out["b"])
        return
    pre, hidden = cache
    dpre = _product(dlogits, params.tensors["w2"].T, scratch.dpre)
    if params.arch.activation == "relu":
        np.multiply(dpre, np.greater(pre, _ZERO, out=scratch.gate), out=dpre)
    else:
        slope = np.square(hidden, out=scratch.gate)
        np.subtract(_ONE, slope, out=slope)
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
    of `grad`'s views by tensor name. The optimizer also owns its steps'
    scratch, one `_Scratch` per row count stepped (see `_scratch`), with the
    parameters and clip it was checked for, and two vectors of
    `apply_gradients`: the weight-decay term and the scale of its finiteness
    test.
    """

    tensors: InitVar[Mapping[str, np.ndarray]]
    learning_rate: float
    momentum: float = 0.9
    weight_decay: float = 0.0
    velocity: np.ndarray = field(init=False, repr=False, compare=False)
    grad: np.ndarray = field(init=False, repr=False, compare=False)
    grads: Mapping[str, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self, tensors: Mapping[str, np.ndarray]) -> None:
        size = sum(np.size(t) for t in tensors.values())
        self.velocity = np.zeros(size)
        self.grad = np.zeros_like(self.velocity)
        self.grads = MappingProxyType(_views(self.grad, tensors))
        self._decay = np.empty_like(self.velocity)
        # 2**e > 2 * size: the scaled entries of a finite gradient sum to less
        # than 2**1023 in magnitude, so their sum cannot overflow.
        self._tiny = np.full(size, 2.0 ** -(2 * size).bit_length())
        self._scratches: dict[int, _Scratch] = {}
        self._checked_for: tuple[ClassifierParams | None, float | None] = (None, None)


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
    """One in-place momentum step with the gradients in `opt.grads`; aborts on non-finite ones.

    A gradient is finite exactly when the sum of its entries scaled by
    `opt._tiny` is, a sum that finite entries cannot overflow; only a
    non-finite sum looks for the first tensor with a non-finite entry. Only
    a gradient with both an inf and a -inf entry, which aborts, makes numpy
    warn here (of an invalid value), outside `run_trainer`'s errstate.
    """
    _check_optimizer(params, opt)
    grad = opt.grad
    if not math.isfinite(grad.dot(opt._tiny)):
        bad = next(name for name, view in opt.grads.items() if not np.isfinite(view).all())
        raise TrainingError(f"non-finite gradient in tensor {bad!r}")
    grad += np.multiply(opt.weight_decay, params.flat, out=opt._decay)
    vel = opt.velocity
    vel *= opt.momentum
    vel += grad
    np.multiply(opt.learning_rate, vel, out=grad)
    params.flat -= grad


def _gradients(
    params: ClassifierParams,
    features: np.ndarray,
    neg: np.ndarray,
    bounds: tuple,
    out: Mapping[str, np.ndarray],
    scratch: _Scratch = _FRESH,
    forward: tuple[np.ndarray, tuple] | None = None,
    phi: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Parameter gradients of the clipped log-loss of negated targets neg, into out.

    The loss scores the class probabilities, or with a channel phi their
    mixture probs @ phi. Returns the clipped scored probabilities, from which
    `_clipped_loss` takes the loss, and the gradient with respect to phi (None
    without one). forward, when given, is `_forward(params, features)`,
    reused instead of recomputed; bounds is as in `_clipped_dprobs`; the
    arrays are scratch's.
    """
    probs, cache = _forward(params, features, scratch) if forward is None else forward
    if phi is None:
        clipped, dprobs = _clipped_dprobs(probs, neg, bounds, scratch)
        dphi = None
    else:
        mixture = _product(probs, phi, scratch.mixture)
        clipped, dmix = _clipped_dprobs(mixture, neg, bounds, scratch)
        dprobs = _product(dmix, phi.T, scratch.dmixed)
        dphi = _product(probs.T, dmix, scratch.dphi)
    dlogits = dlogits_from_dprobs(probs, dprobs, scratch)
    backprop_logits(params, features, cache, dlogits, out, scratch)
    return clipped, dphi


def loss_and_grads(
    params: ClassifierParams,
    features: np.ndarray,
    target_weights: np.ndarray,
    clip: float,
    out: Mapping[str, np.ndarray],
    *,
    forward: tuple[np.ndarray, tuple] | None = None,
) -> float:
    """Soft-target log-loss; its parameter gradients go into out (see `backprop_logits`).

    forward, when given, is `_forward(params, features)`, reused instead of recomputed.
    """
    _check_clip(clip)
    neg = np.negative(target_weights, dtype=np.float64)
    bounds = _bounds(clip, features.shape[0])
    clipped, _ = _gradients(params, features, neg, bounds, out, forward=forward)
    return _clipped_loss(clipped, neg)


def _composed_loss_grads(
    params: ClassifierParams,
    features: np.ndarray,
    observed: np.ndarray,
    phi: np.ndarray,
    clip: float,
    out: Mapping[str, np.ndarray],
    opt: OptimizerState | None = None,
) -> tuple[float, np.ndarray]:
    """Clipped log-loss of the channel-mixed prediction q = probs @ phi, on observed labels.

    The classifier gradients go into out (see `backprop_logits`); returns
    (loss, gradient with respect to phi). phi is a K x K float64 matrix; its
    three products go through `_product`, which gives `np.matmul`'s bits.
    With opt, every stage writes into opt's step buffers (see `_scratch`),
    the returned gradient too, which lives until opt's next step; without,
    into fresh arrays. `trainers._composed_step` takes its step from here.
    """
    labels = check_labels(observed, phi.shape[1], "observed labels")
    if opt is None:
        _check_clip(clip)
        scratch, bounds = _FRESH, _bounds(clip, features.shape[0])
    else:
        scratch = _scratch(params, opt, features.shape[0], clip)
        bounds = scratch.bounds
    neg = _neg_eye(phi.shape[1]).take(labels, axis=0)
    clipped, dphi = _gradients(params, features, neg, bounds, out, scratch, phi=phi)
    return _clipped_loss(clipped, neg), dphi


def _buffered_forward(
    params: ClassifierParams, opt: OptimizerState, features: np.ndarray, clip: float
) -> tuple[np.ndarray, tuple]:
    """`_forward` into opt's step buffers, for a step of params at this clip to reuse.

    The arrays live until opt's next step.
    """
    return _forward(params, features, _scratch(params, opt, features.shape[0], clip))


def _step(
    params: ClassifierParams,
    opt: OptimizerState,
    features: np.ndarray,
    targets: np.ndarray,
    clip: float,
    forward: tuple[np.ndarray, tuple] | None,
    hard: bool,
) -> None:
    """Gradients into the optimizer's vector, then one momentum step, all in opt's buffers.

    targets are labels in range (hard) or target weights. It raises on a
    non-finite training loss, as `loss_and_grads` would give it, but computes
    that loss only when a cheaper test cannot vouch for it. One-hot rows weigh
    each clipped probability by 0 or 1, and a clipped probability is NaN or
    lies in [clip, 1 - clip]. So with at least one row, a finite sum of the
    clipped probabilities makes every loss term finite and at most
    -ln(clip) < 745, so their sum and the loss are finite.
    """
    scratch = _scratch(params, opt, features.shape[0], clip)
    if hard:
        neg = _neg_eye(params.arch.n_classes).take(targets, axis=0)
    else:
        neg = np.negative(targets, dtype=np.float64)
    clipped, _ = _gradients(params, features, neg, scratch.bounds, opt.grads, scratch, forward)
    # The dot product of the clipped entries with ones is their sum, in some order.
    vouched = hard and clipped.shape[0] and math.isfinite(scratch.flat.dot(scratch.ones))
    if not vouched and not math.isfinite(_clipped_loss(clipped, neg)):
        raise TrainingError("non-finite training loss")
    apply_gradients(params, opt)


def sgd_step(
    params: ClassifierParams,
    opt: OptimizerState,
    features: np.ndarray,
    labels: np.ndarray,
    clip: float,
    *,
    forward: tuple[np.ndarray, tuple] | None = None,
) -> None:
    """One minibatch step of clipped cross-entropy on hard labels; forward as in loss_and_grads."""
    labels = check_labels(labels, params.arch.n_classes, "labels")
    _step(params, opt, features, labels, clip, forward, True)


def sgd_step_soft(
    params: ClassifierParams,
    opt: OptimizerState,
    features: np.ndarray,
    target_weights: np.ndarray,
    clip: float,
    *,
    forward: tuple[np.ndarray, tuple] | None = None,
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
