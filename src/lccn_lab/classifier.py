"""Desk-scale softmax classifiers, linear and one-hidden-layer MLP, in plain numpy.

Layout: `ClassifierParams.tensors` is a read-only mapping of reshaped views
into one float64 vector `flat`, in the mapping's key order. `OptimizerState`
keeps its `velocity` and `grad` as vectors in that layout, and `grads` names
the views of `grad`: every step writes its gradients there, and
`apply_gradients` updates the vectors in place. A write into a view changes
its vector; rebinding an entry raises TypeError. The log-loss clip is a
plain float in (0, 0.5). A step runs in a `_Kernel`, made for one
parameters object, one row count and one clip: two closures, `forward` and
`step`, that hold as closure variables all that a step reads and writes
besides its inputs (the tensor and gradient views, the arrays it writes
into, the clip's 0-d bounds, the negated identity and the numpy functions
it calls), so that a step looks nothing up. An optimizer owns one kernel
per row count it steps (a run steps its batch size and, at most, one
shorter final batch), made at its first step of that count (`_kernel`).
`loss_and_grads`, `soft_target_cross_entropy` and `_composed_loss_grads`
without an optimizer make a throwaway kernel, in which numpy allocates each
result, so that their results outlive later steps; `forward_proba` keeps
one such kernel per parameters object (`ClassifierParams._forward`). Each
stage has one implementation: the forward and backward passes in
`_Kernel`, the clip and its gradient in `_clip_stage`.

Checks: the clip's range and the optimizer's layout are checked when an
optimizer's kernel is made, and again only when a step brings other
parameters or another clip, which also starts its table of kernels again.
Each step checks its labels' range or its target shape, and
`apply_gradients` the optimizer's layout, so a step checks it once.

Exact substitutions: a step gives the bits of the plain numpy formulas
(`np.clip`, `np.sum`, one-hot rows by zeros and scatter, fresh gradient
arrays joined by a concatenate). A result written into an out array, given
by keyword or by position, or a softmax taken in place over its logits,
holds what a fresh array would, and a 0-d float64 operand (the clip's
bounds and row count, `_ZERO`, `_ONE`) is the same operand as the Python
float it holds. One-hot rows are taken from a cached identity (the same 0.0
and 1.0 entries), and a step's negated targets from its negation. The loss
weighs `log(clipped)` by the negated targets, the bits of `-log(clipped)`
weighed by the targets (a product's sign is the exclusive or of its
factors'). The clip is `minimum(maximum(p, clip), 1 - clip)`, `np.clip`'s
own formula for a positive clip, and `copyto(where=)` zeroes the gradient
outside it as `np.where` did; `np.add.reduce` and `np.maximum.reduce` are
what `np.sum`, `.sum()` and `.max()` call, over the same axes. The loss
keeps its dense sum over every entry, so numpy's blocked summation order is
unchanged. A matrix product whose entries sum 2 or more terms is
`ndarray.dot`, which gives `np.matmul`'s bits; a kernel picks dot or matmul
once per product from the shapes it was made for (`_product_by`). A
hard-label or composed step computes its loss only when the sum of its
clipped scores is not finite; otherwise that loss is finite (see `_step`),
and a step gives the same verdict and the same bits either way.
`apply_gradients` sums the gradient's entries scaled by a power of two small
enough that finite entries cannot overflow the sum, so it is finite exactly
when every entry is; only a non-finite sum leads to the entry-wise pass that
names the tensor. Those two sums are dot products with a constant vector,
whose order of addition does not matter, since only their finiteness is
read. A batch's rows are contiguous slices of one gather per epoch
(`epoch_batches`), which hold the values a gather per batch would.
"""

from __future__ import annotations

import functools
import json
import math
from collections.abc import Callable, Mapping
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

    @functools.cached_property
    def _forward(self):
        """`forward_proba`'s forward pass, into fresh arrays: one kernel's, made at its first call.

        A kernel that only forwards reads its row count nowhere, so one serves every call.
        """
        return _Kernel(self, 0, None, {}, False).forward


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


_ZERO, _ONE = np.zeros(()), np.ones(())  # 0-d operands, which numpy reads faster than floats
_ZERO.flags.writeable = _ONE.flags.writeable = False


def _product_by(inner: int) -> Callable:
    """`np.matmul`'s call `(a, b, out)` for 2-d float64 products of `inner` terms per entry.

    With 2 or more terms, `ndarray.dot` gives matmul's bits at about half its
    call cost. With one term it can give -0.0 where matmul gives +0.0, so that
    case keeps matmul. out, if not None, is C-contiguous.
    """
    return np.ndarray.dot if inner > 1 else np.matmul


def _nothing(shape, dtype=None) -> None:
    """An unbuffered stage's array slot: None, so that numpy allocates the result."""


def _clip_stage(clip: float, n: int, k: int, buffered: bool):
    """`dscores(scored, neg)` of the clipped log-loss of n rows of k scores, and `clipped_sum`.

    dscores gives the clipped scores and their gradient, for a checked clip
    and the negated target weights neg. Buffered, both are written into
    arrays of the stage, and `clipped_sum()` sums the last clipped scores in
    some order; unbuffered, numpy allocates them (k is not read) and
    `clipped_sum` is None.
    """
    low, high, count = np.array(clip), np.array(1.0 - clip), np.array(float(n))
    new = np.empty if buffered else _nothing
    clipped, dscored, mask, within = new((n, k)), new((n, k)), new((n, k), bool), new((n, k), bool)
    greater, less, logical_not, divide, copyto = (
        np.greater, np.less, np.logical_not, np.divide, np.copyto
    )

    def dscores(scored: np.ndarray, neg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if scored.shape != neg.shape:
            raise ParameterError("probs and target_weights must have the same shape")
        kept = np.maximum(scored, low, out=clipped)
        np.minimum(kept, high, out=kept)
        outside = greater(scored, low, mask)
        outside &= less(scored, high, within)
        logical_not(outside, outside)
        grad = divide(neg, kept, dscored)
        divide(grad, count, grad)
        copyto(grad, _ZERO, "same_kind", outside)
        return kept, grad

    if not buffered:
        return dscores, None
    flat, ones = clipped.reshape(-1), np.ones(n * k)
    return dscores, lambda: flat.dot(ones)


class _Kernel:
    """One step of params on n rows: closures over what it reads and writes.

    `forward(features)` gives the class probabilities and the backprop cache,
    (pre, hidden) of an MLP and () of a linear model. `step(features, neg,
    forward, phi=None)` writes into grads (each tensor's name to a
    C-contiguous array of its shape, such as `OptimizerState.grads`) the
    gradients of the clipped log-loss of the negated target weights neg. The
    loss scores the class probabilities, or with a channel phi their mixture
    probs @ phi. forward, unless None, is a `forward` of these features,
    reused instead of recomputed. step returns the clipped scores, from which
    `_clipped_loss` takes the loss, and the gradient with respect to phi
    (None without one). `negated(labels, 0)` takes a hard step's neg from the
    negated identity, and `clipped_sum` is the clip stage's (`_clip_stage`).

    Buffered, each result goes into an array of the kernel, which lives until
    the kernel's next call: probs holds the logits and then, in place, their
    softmax; col (n, 1) a row's max, then its sum, then the logit gradient's
    inner product; pre, hidden, gate (the activation's slope; a bool mask for
    relu) and dpre are the hidden layer's; mixture, dmixed (the gradient
    pulled back through the channel) and the (K, K) dphi the composed step's.
    Unbuffered, numpy allocates each result, which outlives later steps. A
    kernel made with clip None only forwards.
    """

    __slots__ = ("forward", "step", "negated", "clipped_sum")

    def __init__(self, params: ClassifierParams, n: int, clip: float | None,
                 grads: Mapping[str, np.ndarray], buffered: bool) -> None:
        arch, t = params.arch, params.tensors
        k, width, mlp = arch.n_classes, arch.hidden_width, arch.kind == "mlp"
        relu = arch.activation == "relu"
        new = np.empty if buffered else _nothing
        probs, dlogits, mixture, dmixed = new((n, k)), new((n, k)), new((n, k)), new((n, k))
        col, dphi, wide = new((n, 1)), new((k, k)), new if mlp else _nothing
        pre, hidden, dpre = wide((n, width)), wide((n, width)), wide((n, width))
        gate = wide((n, width), bool if relu else float)
        names = ("w1", "b1", "w2", "b2") if mlp else (None, None, "w", "b")
        w_in, b_in, w_out, b_out = (t.get(name) for name in names)
        g_in, gb_in, g_out, gb_out = (grads.get(name) for name in names)
        by_d, by_h, by_n = (_product_by(size) for size in (arch.input_dim, width, n))
        dot, w_out_t = np.ndarray.dot, w_out.T
        add_reduce, max_reduce, multiply, subtract, divide, exp, tanh, square, greater = (
            np.add.reduce, np.maximum.reduce, np.multiply, np.subtract, np.divide, np.exp,
            np.tanh, np.square, np.greater,
        )
        stage = (None, None) if clip is None else _clip_stage(clip, n, k, buffered)
        dscores, self.clipped_sum = stage
        self.negated = _neg_eye(k).take

        def forward_pass(features: np.ndarray) -> tuple[np.ndarray, tuple]:
            if mlp:
                pre_act = by_d(features, w_in, pre)
                pre_act += b_in
                act = np.maximum(pre_act, _ZERO, out=hidden) if relu else tanh(pre_act, hidden)
                cache, logits = (pre_act, act), by_h(act, w_out, probs)
            else:
                cache, logits = (), by_d(features, w_out, probs)
            logits += b_out
            subtract(logits, max_reduce(logits, 1, None, col, True), logits)
            exp(logits, logits)
            return divide(logits, add_reduce(logits, 1, None, col, True), logits), cache

        def step(features: np.ndarray, neg: np.ndarray, forward: tuple | None,
                 phi: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray | None]:
            p, cache = forward_pass(features) if forward is None else forward
            if phi is None:
                clipped, dp = dscores(p, neg)
                dphi_out = None
            else:
                clipped, dmix = dscores(dot(p, phi, mixture), neg)
                dp = dot(dmix, phi.T, dmixed)
                dphi_out = by_n(p.T, dmix, dphi)
            dl = multiply(p, dp, dlogits)
            subtract(dp, add_reduce(dl, 1, None, col, True), dl)
            multiply(p, dl, dl)
            if mlp:
                pre_act, act = cache
                dh = dot(dl, w_out_t, dpre)
                if relu:
                    multiply(dh, greater(pre_act, _ZERO, gate), dh)
                else:
                    slope = square(act, gate)
                    subtract(_ONE, slope, slope)
                    multiply(dh, slope, dh)
                by_n(features.T, dh, g_in)
                add_reduce(dh, 0, None, gb_in)
                by_n(act.T, dl, g_out)
            else:
                by_n(features.T, dl, g_out)
            add_reduce(dl, 0, None, gb_out)
            return clipped, dphi_out

        self.forward, self.step = forward_pass, step


def _kernel(params: ClassifierParams, opt: "OptimizerState", n: int, clip: float) -> _Kernel:
    """opt's kernel for a step of params on n rows at this clip, made at its first such step.

    The optimizer's layout and the clip are checked, and opt's table of
    kernels started again, only when the parameters object or the clip
    differs from the last step's.
    """
    checked_params, checked_clip = opt._checked_for
    if checked_params is not params or checked_clip != clip:
        _check_optimizer(params, opt)
        _check_clip(clip)
        opt._checked_for, opt._kernels = (params, clip), {}
    kernel = opt._kernels.get(n)
    if kernel is None:
        kernel = opt._kernels[n] = _Kernel(params, n, clip, opt.grads, True)
    return kernel


def forward_proba(params: ClassifierParams, features: np.ndarray) -> np.ndarray:
    """Class probabilities, one row per sample; rows sum to 1."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != params.arch.input_dim:
        raise ParameterError(
            f"features must be (n, {params.arch.input_dim}), got {features.shape}"
        )
    probs, _ = params._forward(features)
    return probs


def _check_clip(clip: float) -> None:
    if not 0.0 < clip < 0.5:  # also False for NaN
        raise ParameterError(f"clip must lie strictly between 0 and 0.5, got {clip!r}")


def _clipped_loss(clipped: np.ndarray, neg: np.ndarray) -> float:
    """`soft_target_cross_entropy`'s loss from the clip stage's clipped probabilities.

    neg holds the negated target weights. The log is taken in place, over clipped.
    """
    terms = np.log(clipped, clipped)
    np.multiply(neg, terms, terms)
    return float(np.add.reduce(terms, None) / clipped.shape[0])


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
    dscores, _ = _clip_stage(clip, len(probs), 0, False)  # unbuffered: k is not read
    clipped, dprobs = dscores(probs, neg)
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


@dataclass
class OptimizerState:
    """Momentum SGD with weight decay added to the raw gradient.

    `velocity` and `grad` are vectors laid out like the `ClassifierParams.flat`
    of the tensors given at construction, and `grads` is a read-only mapping
    of `grad`'s views by tensor name. The optimizer also owns its steps'
    kernels, one `_Kernel` per row count stepped (see `_kernel`), with the
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
        self._kernels: dict[int, _Kernel] = {}
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
    grad += np.multiply(opt.weight_decay, params.flat, opt._decay)
    vel = opt.velocity
    vel *= opt.momentum
    vel += grad
    params.flat -= np.multiply(opt.learning_rate, vel, grad)


def loss_and_grads(
    params: ClassifierParams,
    features: np.ndarray,
    target_weights: np.ndarray,
    clip: float,
    out: Mapping[str, np.ndarray],
    *,
    forward: tuple[np.ndarray, tuple] | None = None,
) -> float:
    """Soft-target log-loss; its parameter gradients go into out (see `_Kernel`).

    forward, when given, is a kernel's `forward` of these features, reused instead of recomputed.
    """
    _check_clip(clip)
    neg = np.negative(target_weights, dtype=np.float64)
    clipped, _ = _Kernel(params, features.shape[0], clip, out, False).step(features, neg, forward)
    return _clipped_loss(clipped, neg)


def _composed_loss_grads(
    params: ClassifierParams,
    features: np.ndarray,
    observed: np.ndarray,
    phi: np.ndarray,
    clip: float,
    out: Mapping[str, np.ndarray],
    opt: OptimizerState | None = None,
) -> tuple[float | None, np.ndarray]:
    """Clipped log-loss of the channel-mixed prediction q = probs @ phi, on observed labels.

    Returns (loss, gradient with respect to phi); phi is a K x K float64
    matrix. Without opt, the classifier gradients go into out and the arrays
    are fresh. With opt, out is opt.grads: every result goes into opt's
    kernel (see `_kernel`), the returned gradient too, which lives until
    opt's next step, and the loss is None. A non-finite loss raises
    `TrainingError` then, vouched for as in `_step`. `trainers._composed_step`
    takes its step from here.
    """
    labels = check_labels(observed, phi.shape[1], "observed labels")
    if opt is None:
        _check_clip(clip)
        kernel = _Kernel(params, features.shape[0], clip, out, False)
    else:
        kernel = _kernel(params, opt, features.shape[0], clip)
    neg = _neg_eye(phi.shape[1]).take(labels, axis=0)
    if opt is not None:
        return None, _step(kernel, features, neg, None, True, phi)
    clipped, dphi = kernel.step(features, neg, None, phi)
    return _clipped_loss(clipped, neg), dphi


def _buffered_forward(
    params: ClassifierParams, opt: OptimizerState, features: np.ndarray, clip: float
) -> tuple[np.ndarray, tuple]:
    """The `forward` of opt's kernel, for a step of params at this clip to reuse.

    The arrays live until opt's next step.
    """
    return _kernel(params, opt, features.shape[0], clip).forward(features)


def _step(
    kernel: _Kernel,
    features: np.ndarray,
    neg: np.ndarray,
    forward: tuple[np.ndarray, tuple] | None,
    hard: bool,
    phi: np.ndarray | None = None,
) -> np.ndarray | None:
    """The kernel's step, which raises on a non-finite training loss; returns its phi gradient.

    neg holds negated one-hot rows (hard) or target weights. The loss is the
    one `loss_and_grads` would give, computed only when a cheaper test
    cannot vouch for it. One-hot rows weigh each clipped score by 0 or 1,
    and a clipped score is NaN or lies in [clip, 1 - clip]. So with at least
    one row, a finite sum of the clipped scores makes every loss term finite
    and at most -ln(clip) < 745, so their sum and the loss are finite.
    """
    clipped, dphi = kernel.step(features, neg, forward, phi)
    vouched = hard and clipped.shape[0] and math.isfinite(kernel.clipped_sum())
    if not vouched and not math.isfinite(_clipped_loss(clipped, neg)):
        raise TrainingError("non-finite training loss")
    return dphi


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
    kernel = _kernel(params, opt, features.shape[0], clip)
    _step(kernel, features, kernel.negated(labels, 0), forward, True)
    apply_gradients(params, opt)


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
    kernel = _kernel(params, opt, features.shape[0], clip)
    _step(kernel, features, np.negative(target_weights, dtype=np.float64), forward, False)
    apply_gradients(params, opt)


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
