"""Training procedures: plain and noise-robust baselines, and latent-label regression.

`run_trainer(train dataset, config, optional test dataset)` is the one way
to run a trainer: it looks `cfg.kind` up in `TRAINERS`, the table of the
eight kinds, and checks the order of the result's records. Every kind
returns a RunResult with per-checkpoint metric records, the final model,
and, where the method maintains one, the final estimate of the label
transition channel. Runs are bit-reproducible for a fixed config.

Every kind runs through one loop, `_fit`. The loop seeds the run, builds
the classifier and its optimizer, optionally pretrains with plain
cross-entropy, walks the epochs under the learning-rate schedule, evaluates
on the `eval_every` cadence and assembles the RunResult. A kind supplies
only a `_Hooks` bundle: its per-batch step (hard target, self-blended
target, composed channel, EM responsibilities or latent resample) plus
views of its own state for the metric records and the final transition.
The eight kinds run through four bodies: ce is `_train_bootstrap` at beta = 1,
lccn_star and lccn_plus are `_train_latent` with an outlier latent class or
pinned trusted samples, and forward_fixed is `_train_transition_layer` with
the layer of s_adaptation frozen for the whole run.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .classifier import (
    Architecture,
    ClassifierParams,
    OptimizerState,
    _buffered_forward,
    _composed_loss_grads,
    _softmax as _row_softmax,
    apply_gradients,
    epoch_batches,
    forward_proba,
    init_optimizer,
    init_params,
    one_hot,
    pretrain_ce,
    sgd_step,
    sgd_step_soft,
    soft_target_cross_entropy,
)
from .datagen import LabeledDataset
from .errors import InvariantError, ParameterError, TrainingError, check_field_types, check_type
from .metrics import (
    MetricsRecord,
    correction_ratio,
    top1_accuracy,
    transition_l1_error,
)
from .noise_model import (
    DirichletPrior,
    check_transition,
    confusion_counts,
    transition_from_counts,
    warmup_transition,
)
from .sampler import GibbsChain


@dataclass
class TrainConfig:
    """Shared configuration for every trainer; a kind ignores the fields it does not read.

    lr_milestones lists (epoch, learning_rate) overrides that take effect
    from the given epoch on. Fields that only some kinds read, where the
    latent kinds are lccn, lccn_star and lccn_plus:

    - pretrain_epochs: every kind except ce and bootstrap_hard;
    - warmup_steps: s_adaptation (steps the transition layer stays frozen;
      forward_fixed holds its layer for the whole run) and the latent kinds
      (sampling steps that use the initial channel instead of the counts);
      None means one epoch of steps;
    - oracle_phi: the initial channel of forward_fixed, s_adaptation and the
      latent kinds (the K x K identity for the identity channel);
    - alpha and anneal: the latent kinds. With anneal on, the sampler raises
      the channel factor to the exponent max(exp(-step / batches * 0.8), 0.5)
      at each step of a run of `batches` batches (`_anneal`): it falls from
      1 to the floor 0.5, which it holds from 87% of the run on;
    - transition_lr: s_adaptation;
    - bootstrap_beta: bootstrap_hard; at 1.0 it takes ce's steps.

    seed, which every kind reads, must be >= 0.
    """

    kind: str = "ce"
    epochs: int = 60
    batch_size: int = 32
    learning_rate: float = 0.1
    lr_milestones: tuple[tuple[int, float], ...] = ()
    momentum: float = 0.9
    weight_decay: float = 0.0
    hidden_width: int = 0
    activation: str = "relu"
    clip: float = 1e-20
    pretrain_epochs: int = 30
    warmup_steps: int | None = None
    alpha: float | tuple[float, ...] = 1.0
    anneal: bool = False
    oracle_phi: np.ndarray | None = None
    reference_phi: np.ndarray | None = None
    bootstrap_beta: float = 0.8
    transition_lr: float | None = None
    eval_every: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in TRAINER_KINDS:
            raise ParameterError(f"unknown trainer kind {self.kind!r}")
        check_field_types(self)
        if np.asarray(self.alpha).dtype.kind not in "iuf" or np.ndim(self.alpha) > 1:
            raise ParameterError(f"alpha must be a number or a vector, got {self.alpha!r}")
        try:
            DirichletPrior(np.atleast_1d(self.alpha))  # range check
        except ParameterError as exc:
            raise ParameterError(f"alpha: {exc}") from None
        if self.hidden_width < 0:
            raise ParameterError("hidden_width must be nonnegative")
        if self.seed < 0:
            raise ParameterError(f"seed must be nonnegative, got {self.seed!r}")
        if self.epochs < 0 or self.pretrain_epochs < 0:
            raise ParameterError("epoch counts must be nonnegative")
        if self.batch_size < 1:
            raise ParameterError("batch_size must be >= 1")
        if not 0.0 <= self.bootstrap_beta <= 1.0:
            raise ParameterError("bootstrap_beta must lie in [0, 1]")
        if self.warmup_steps is not None and self.warmup_steps < 0:
            raise ParameterError("warmup_steps must be nonnegative")
        if self.eval_every < 1:
            raise ParameterError("eval_every must be >= 1")
        try:
            milestones = [(epoch, rate) for epoch, rate in self.lr_milestones]
        except (TypeError, ValueError):
            raise ParameterError(
                f"lr_milestones must be (epoch, learning_rate) pairs, got {self.lr_milestones!r}"
            ) from None
        for epoch, rate in milestones:
            if check_type(epoch, "int", "lr_milestones epoch") < 0:
                raise ParameterError(f"lr_milestones epoch must be nonnegative, got {epoch!r}")
            check_type(rate, "float", "lr_milestones rate")
        # Each range is written so that NaN fails it: every comparison with NaN is False.
        rates = [("learning_rate", self.learning_rate), ("transition_lr", self.transition_lr)]
        rates += [(f"lr_milestones rate at epoch {e}", r) for e, r in milestones]
        for name, rate in rates:
            if rate is not None and not 0.0 < rate < math.inf:
                raise ParameterError(f"{name} must be finite and positive, got {rate!r}")
        if not 0.0 <= self.momentum < 1.0:
            raise ParameterError(f"momentum must lie in [0, 1), got {self.momentum!r}")
        if not 0.0 <= self.weight_decay < math.inf:
            raise ParameterError(f"weight_decay must be finite and >= 0, got {self.weight_decay!r}")
        if not 0.0 < self.clip < 0.5:
            raise ParameterError(f"clip must lie strictly between 0 and 0.5, got {self.clip!r}")
        for name in ("oracle_phi", "reference_phi"):
            matrix = getattr(self, name)
            if matrix is not None:
                try:
                    check_transition(matrix)  # range check; the shape waits for the data
                except (TypeError, ValueError) as exc:
                    raise ParameterError(f"{name}: {exc}") from None

    def check_channels(self, n_classes: int) -> None:
        """ParameterError unless oracle_phi and reference_phi, where given, are K x K.

        K is the class count of the data; `run_trainer` calls this for every
        kind before anything trains.
        """
        for name in ("oracle_phi", "reference_phi"):
            matrix = getattr(self, name)
            if matrix is not None and np.shape(matrix) != (n_classes, n_classes):
                raise ParameterError(f"{name} must be ({n_classes}, {n_classes})")


@dataclass
class BatchVariation:
    """Per-batch max-row L1 change of the transition estimate, with its bound.

    For count-based trainers the bound is the Dirichlet-multinomial update
    bound of the row that moved the most; gradient-based transition layers
    carry NaN there (no such certificate exists for them).
    """

    step: int
    measured: float
    bound: float


@dataclass
class RunResult:
    records: list[MetricsRecord]
    final_params: ClassifierParams
    final_phi: np.ndarray | None
    batch_variations: list[BatchVariation] = field(default_factory=list)
    outlier_recall: float | None = None

    def records_for(self, split: str) -> list[MetricsRecord]:
        return [r for r in self.records if r.split == split]

    def final_test_accuracy(self) -> float:
        rows = self.records_for("test")
        if not rows:
            raise ParameterError("run has no test records")
        return rows[-1].accuracy

    def validate_record_order(self) -> None:
        for split in ("train", "test"):
            steps = [r.step for r in self.records_for(split)]
            if any(b <= a for a, b in zip(steps, steps[1:])):
                raise InvariantError(f"{split} record steps are not strictly increasing")


def _lr_at(cfg: TrainConfig, epoch: int) -> float:
    rate = cfg.learning_rate
    for milestone, value in sorted(cfg.lr_milestones):
        if epoch >= milestone:
            rate = value
    return rate


def _prior_for(cfg: TrainConfig, n_observed: int) -> DirichletPrior:
    if np.isscalar(cfg.alpha):
        return DirichletPrior.uniform(n_observed, float(cfg.alpha))
    concentration = np.asarray(cfg.alpha, dtype=np.float64)
    if concentration.shape != (n_observed,):
        raise ParameterError(f"alpha vector must have length {n_observed}")
    return DirichletPrior(concentration)


def _phi_error(cfg: TrainConfig, phi) -> float | None:
    if cfg.reference_phi is None or phi is None:
        return None
    return transition_l1_error(phi, cfg.reference_phi)


@dataclass
class _Run:
    """What the shared loop hands a kind's hooks: model, optimizer and loop position."""

    params: ClassifierParams
    opt: OptimizerState
    clip: float
    gibbs_rng: np.random.Generator
    n_batches: int
    total: int
    iteration: int = 0

    def forward(self, features: np.ndarray) -> tuple[np.ndarray, tuple]:
        """The classifier's forward pass of a batch, into the optimizer's step buffers."""
        return _buffered_forward(self.params, self.opt, features, self.clip)


@dataclass
class _Hooks:
    """One trainer kind's part of the shared loop.

    batch(idx, features, observed) takes the kind's step on one minibatch and
    returns the (measured, bound) transition variation it caused, or None:
    idx names the batch's rows of the dataset, and features and observed are
    their feature rows and observed labels, slices of the epoch's one gather
    (`epoch_batches`). A hook gathers by idx only what changes during a run:
    latent labels, EM responsibilities, and the trusted mask it reads with
    them. epoch_start(order, observed) runs before every epoch with the
    epoch's order of the rows and their observed labels; record() gives the
    extra fields of each train record; final_phi() gives the run's
    transition estimate.
    """

    batch: Callable[[np.ndarray, np.ndarray, np.ndarray], tuple[float, float] | None]
    epoch_start: Callable[[np.ndarray, np.ndarray], None] = lambda order, observed: None
    record: Callable[[], dict] = dict
    final_phi: Callable[[], np.ndarray | None] = lambda: None


def _fit(
    ds: LabeledDataset, cfg: TrainConfig, test_ds: LabeledDataset | None,
    start: Callable[[_Run], _Hooks], *, pretrain: bool = True, extra_class: bool = False,
) -> RunResult:
    """The one training loop; `start` builds a kind's hooks after pretraining.

    Each epoch is one sweep of shuffled minibatches from `epoch_batches`,
    in the order that the data generator draws before `epoch_start`; the
    epoch's feature rows and observed labels are gathered once, as
    `pretrain_ce` does. The learning-rate schedule and the
    eval cadence count epochs, and the run always ends on an eval. Train
    records score the observed labels on the first n_classes outputs
    (extra_class adds one more output), test records the true labels of
    in-distribution samples; each train record carries the largest batch
    variation since the previous eval. The one-hot targets and test rows
    that every eval scores are built once, before anything trains.
    """
    ss_init, ss_data, ss_gibbs = np.random.SeedSequence(cfg.seed).spawn(3)
    data_rng, gibbs_rng = np.random.default_rng(ss_data), np.random.default_rng(ss_gibbs)
    n_out = ds.n_classes + 1 if extra_class else ds.n_classes
    train_targets = one_hot(ds.noisy_labels, n_out)
    if test_ds is not None:
        keep = ~test_ds.ood_mask
        test_features, truth = test_ds.features[keep], test_ds.true_labels[keep]
        test_targets = one_hot(truth, n_out)
    if cfg.hidden_width > 0:
        arch = Architecture("mlp", ds.dim, n_out, cfg.hidden_width, cfg.activation)
    else:
        arch = Architecture("linear", ds.dim, n_out, activation=cfg.activation)
    params = init_params(arch, int(ss_init.generate_state(1)[0]))
    opt = init_optimizer(params, _lr_at(cfg, 0), cfg.momentum, cfg.weight_decay)
    n_batches = math.ceil(ds.n / cfg.batch_size)
    offset = 0
    if pretrain:
        pretrain_ce(
            params, opt, ds.features, ds.noisy_labels,
            cfg.pretrain_epochs, cfg.batch_size, cfg.clip, data_rng,
        )
        offset = cfg.pretrain_epochs * n_batches
    run = _Run(params, opt, cfg.clip, gibbs_rng, n_batches, cfg.epochs * n_batches)
    hooks = start(run)
    n_scored = ds.n_classes if extra_class else None
    records: list[MetricsRecord] = []
    variations: list[BatchVariation] = []
    seen = 0

    def evaluate() -> None:
        nonlocal seen
        window, seen = variations[seen:], len(variations)
        worst = max(window, key=lambda v: v.measured) if window else None
        step = offset + run.iteration
        probs = forward_proba(params, ds.features)
        loss, _ = soft_target_cross_entropy(probs, train_targets, cfg.clip)
        records.append(MetricsRecord(
            step, "train", top1_accuracy(probs, ds.noisy_labels, n_scored), loss,
            max_phi_row_variation=None if worst is None else worst.measured,
            bound_value=None if worst is None else worst.bound,
            **hooks.record(),
        ))
        if test_ds is not None:
            # One forward of the in-distribution rows serves the loss and the accuracy.
            test_probs = forward_proba(params, test_features)
            loss, _ = soft_target_cross_entropy(test_probs, test_targets, cfg.clip)
            records.append(
                MetricsRecord(step, "test", top1_accuracy(test_probs, truth, n_scored), loss)
            )

    evaluate()
    for epoch in range(1, cfg.epochs + 1):
        opt.learning_rate = _lr_at(cfg, epoch - 1)
        order = data_rng.permutation(ds.n)
        observed = ds.noisy_labels[order]
        hooks.epoch_start(order, observed)
        for batch in epoch_batches(order, ds.features[order], observed, cfg.batch_size):
            run.iteration += 1
            moved = hooks.batch(*batch)
            if moved is not None:
                variations.append(BatchVariation(offset + run.iteration, *moved))
        if epoch == cfg.epochs or epoch % cfg.eval_every == 0:
            evaluate()
    return RunResult(records, params, hooks.final_phi(), variations)


def _train_bootstrap(
    ds: LabeledDataset, cfg: TrainConfig, test_ds: LabeledDataset | None, *, blend: bool
) -> RunResult:
    """Cross-entropy against a convex blend of the observed label and the model's own argmax.

    Target weights are beta on the observed label and (1 - beta) on the
    current prediction's argmax, recomputed every step and read from the
    run's `_bootstrap_table`; the step reuses the forward pass that gave the
    argmax. beta is bootstrap_beta, or 1 without `blend` (ce); at 1 each step
    is the plain hard-label step.
    """
    beta = cfg.bootstrap_beta if blend else 1.0
    k = ds.n_classes

    def start(run: _Run) -> _Hooks:
        table = _bootstrap_table(beta, k)

        def hard(idx: np.ndarray, features: np.ndarray, observed: np.ndarray) -> None:
            sgd_step(run.params, run.opt, features, observed, run.clip)

        def blended(idx: np.ndarray, features: np.ndarray, observed: np.ndarray) -> None:
            forward = run.forward(features)
            pseudo = forward[0].argmax(axis=1)
            pseudo += observed * k
            weights = table.take(pseudo, axis=0)
            sgd_step_soft(run.params, run.opt, features, weights, run.clip, forward=forward)

        return _Hooks(hard if beta == 1.0 else blended)

    return _fit(ds, cfg, test_ds, start, pretrain=False)


def _bootstrap_table(beta: float, k: int) -> np.ndarray:
    """(k * k, k) bootstrap targets: row y * k + p is beta * e_y + (1 - beta) * e_p.

    Each row is built with the arithmetic of a blend of two one-hot rows, so
    it holds that blend's bits.
    """
    observed, pseudo = np.divmod(np.arange(k * k), k)
    table = beta * one_hot(observed, k)
    table += (1.0 - beta) * one_hot(pseudo, k)
    return table


def _composed_step(
    run: _Run, features: np.ndarray, observed: np.ndarray, phi: np.ndarray
) -> np.ndarray:
    """One classifier step through the channel phi; returns the gradient with respect to phi.

    The gradient lives in the optimizer's step buffers until the next step.
    """
    loss, dphi = _composed_loss_grads(
        run.params, features, observed, phi, run.clip, run.opt.grads, run.opt
    )
    if not math.isfinite(loss):
        raise TrainingError("non-finite training loss")
    apply_gradients(run.params, run.opt)
    return dphi


def _initial_channel(
    ds: LabeledDataset, cfg: TrainConfig, params: ClassifierParams, n_latent: int
) -> np.ndarray:
    """Transition estimate available before counts exist: oracle_phi, else from predictions."""
    k = ds.n_classes
    if cfg.oracle_phi is None:
        predictions = forward_proba(params, ds.features)
        return warmup_transition(predictions, ds.noisy_labels, k)
    matrix = np.asarray(cfg.oracle_phi, dtype=np.float64)
    if n_latent > k:
        matrix = np.vstack([matrix, np.full((n_latent - k, k), 1.0 / k)])
    return check_transition(matrix)


def _train_transition_layer(
    ds: LabeledDataset, cfg: TrainConfig, test_ds: LabeledDataset | None, *, frozen: bool
) -> RunResult:
    """Train through a row-softmax transition layer: fit q = probs @ phi to the observed labels.

    The layer starts at the initial channel and is held for the first
    warmup_steps composed steps; afterwards both the classifier and the layer
    follow the gradient (s_adaptation). `frozen` holds it for the whole run,
    which is forward correction through a fixed transition (forward_fixed).
    The layer's softmax is taken once per move: the one that measures a
    batch's variation is the next batch's phi.
    """

    def start(run: _Run) -> _Hooks:
        default = cfg.warmup_steps if cfg.warmup_steps is not None else run.n_batches
        warmup_steps = math.inf if frozen else default
        channel_init = _initial_channel(ds, cfg, run.params, ds.n_classes)
        layer_logits = np.log(np.maximum(channel_init, 1e-8))
        layer_velocity = np.zeros_like(layer_logits)
        layer_phi = _row_softmax(layer_logits)

        def current_phi() -> np.ndarray:
            return channel_init if run.iteration <= warmup_steps else layer_phi

        def batch(
            idx: np.ndarray, features: np.ndarray, observed: np.ndarray
        ) -> tuple[float, float] | None:
            nonlocal layer_logits, layer_velocity, layer_phi
            phi = current_phi()
            dphi = _composed_step(run, features, observed, phi)
            if run.iteration <= warmup_steps:
                return None
            inner = (phi * dphi).sum(axis=1, keepdims=True)
            dlayer = phi * (dphi - inner)
            if not np.all(np.isfinite(dlayer)):
                raise TrainingError("non-finite transition-layer gradient")
            rate = run.opt.learning_rate if cfg.transition_lr is None else cfg.transition_lr
            layer_velocity *= cfg.momentum
            layer_velocity += dlayer
            layer_logits -= rate * layer_velocity
            layer_phi = _row_softmax(layer_logits)
            return float(np.abs(layer_phi - phi).sum(axis=1).max()), float("nan")

        def record() -> dict:
            return {"phi_l1_error": _phi_error(cfg, current_phi())}

        return _Hooks(batch, record=record, final_phi=lambda: check_transition(current_phi()))

    return _fit(ds, cfg, test_ds, start)


def _train_em_reference(
    ds: LabeledDataset, cfg: TrainConfig, test_ds: LabeledDataset | None = None
) -> RunResult:
    """Alternate closed-form transition re-estimates with soft-target classifier epochs.

    Each epoch first forms per-sample responsibilities over the latent
    classes (prediction times the transition column of the observed label,
    normalized) and re-estimates the transition from them with the shared
    weighted-confusion estimator, then runs one epoch of SGD toward the
    responsibilities.
    """

    def start(run: _Run) -> _Hooks:
        phi_bar: np.ndarray | None = None
        responsibilities: np.ndarray | None = None

        def epoch_start(order: np.ndarray, observed: np.ndarray) -> None:
            nonlocal phi_bar, responsibilities
            predictions = forward_proba(run.params, ds.features)
            if phi_bar is None:
                responsibilities = predictions
            else:
                raw = predictions * phi_bar[:, ds.noisy_labels].T
                denom = raw.sum(axis=1, keepdims=True)
                # Rows where prediction mass and transition column cancel exactly
                # carry no signal; fall back to the bare prediction there.
                responsibilities = np.where(
                    denom > 0.0, raw / np.maximum(denom, 1e-300), predictions
                )
            phi_bar = warmup_transition(responsibilities, ds.noisy_labels, ds.n_classes)

        def batch(idx: np.ndarray, features: np.ndarray, observed: np.ndarray) -> None:
            sgd_step_soft(run.params, run.opt, features, responsibilities[idx], run.clip)

        def record() -> dict:
            return {"phi_l1_error": _phi_error(cfg, phi_bar)}

        return _Hooks(batch, epoch_start, record, final_phi=lambda: phi_bar)

    return _fit(ds, cfg, test_ds, start)


def _anneal(enabled: bool, step: int, total: int) -> float:
    """Channel exponent at a step of a `total`-batch run: decays from 1 to the floor 0.5."""
    if not enabled:
        return 1.0
    return max(math.exp(-step / max(total, 1) * 0.8), 0.5)


def _train_latent(
    ds: LabeledDataset, cfg: TrainConfig, test_ds: LabeledDataset | None,
    *, extra_class: bool, use_clean: bool,
) -> RunResult:
    """Collapsed-Gibbs resampling of latent labels + SGD on the samples.

    extra_class adds one latent class that acts as an outlier bucket
    (lccn_star). use_clean pins the clean-masked samples to their labels
    (lccn_plus): they are never resampled and stay out of the confusion
    counts, but still take part in the SGD steps.

    Each batch is forwarded once: the sampler reads its probabilities and
    the SGD step reuses it, since sampling leaves the parameters alone.
    The chain plans each epoch's resampled samples at its start (lccn_plus
    drops its clean rows there), and each batch steps through its part.

    A batch whose draw gives every sample back its previous latent label
    leaves the counts as they were, so it is recorded as `(0.0, 0.0)`
    without a certificate: on equal count matrices both rows of
    `update_bound` are 0.0 and the worst row is row 0. A batch whose labels
    moved is certified by the chain from the rows it touched, even when its
    moves cancel in the counts.
    """
    k = ds.n_classes
    n_latent = k + 1 if extra_class else k
    if use_clean and not ds.clean_mask.any():
        warnings.warn(
            "clean subset is empty; falling back to plain latent-label training",
            UserWarning,
        )
    prior = _prior_for(cfg, k)
    exclude = ds.clean_mask if use_clean else None
    labels = ds.noisy_labels.copy()

    def tally() -> np.ndarray:
        return confusion_counts(labels, ds.noisy_labels, n_latent, k, exclude=exclude)

    counts = tally()

    def current_phi() -> np.ndarray:
        return transition_from_counts(counts, prior)

    def record() -> dict:
        # The books are checked at every eval, and the run always ends on one.
        if np.any(tally() != counts):
            raise InvariantError("confusion counts drifted from the assignment")
        phi = current_phi()[:k] if cfg.reference_phi is not None else None
        return {
            "correction_ratio": correction_ratio(labels, ds.true_labels),
            "phi_l1_error": _phi_error(cfg, phi),
        }

    def start(run: _Run) -> _Hooks:
        chain = GibbsChain(labels, counts, prior, _initial_channel(ds, cfg, run.params, n_latent))
        warmup_steps = cfg.warmup_steps if cfg.warmup_steps is not None else run.n_batches

        def epoch_start(order: np.ndarray, observed: np.ndarray) -> None:
            if use_clean:
                resample = ~ds.clean_mask[order]
                order, observed = order[resample], observed[resample]
            chain.plan(observed, order, run.gibbs_rng)

        def batch(
            idx: np.ndarray, features: np.ndarray, observed: np.ndarray
        ) -> tuple[float, float] | None:
            forward = run.forward(features)
            probs = forward[0][~ds.clean_mask[idx]] if use_clean else forward[0]
            moved = None
            if len(probs):
                moved = 0.0, 0.0
                warmup = run.iteration <= warmup_steps
                anneal = _anneal(cfg.anneal, run.iteration, run.total)
                if chain.step(probs, warmup, anneal):
                    moved = chain.certify()
            sgd_step(run.params, run.opt, features, labels[idx], run.clip, forward=forward)
            return moved

        return _Hooks(batch, epoch_start, record, current_phi)

    result = _fit(ds, cfg, test_ds, start, extra_class=extra_class)
    if extra_class and ds.ood_mask.any():
        result.outlier_recall = float(np.mean(labels[ds.ood_mask] == k))
    return result


TRAINERS = {
    "ce": partial(_train_bootstrap, blend=False),
    "bootstrap_hard": partial(_train_bootstrap, blend=True),
    "forward_fixed": partial(_train_transition_layer, frozen=True),
    "s_adaptation": partial(_train_transition_layer, frozen=False),
    "em_reference": _train_em_reference,
    "lccn": partial(_train_latent, extra_class=False, use_clean=False),
    "lccn_star": partial(_train_latent, extra_class=True, use_clean=False),
    "lccn_plus": partial(_train_latent, extra_class=False, use_clean=True),
}
TRAINER_KINDS = tuple(TRAINERS)


def run_trainer(
    ds: LabeledDataset, cfg: TrainConfig, test_ds: LabeledDataset | None = None
) -> RunResult:
    """Check the channel shapes, dispatch on cfg.kind and validate the result's record order.

    numpy does not warn of overflow: a diverging run raises TrainingError at a non-finite check.
    """
    cfg.check_channels(ds.n_classes)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        result = TRAINERS[cfg.kind](ds, cfg, test_ds)
    result.validate_record_order()
    return result
