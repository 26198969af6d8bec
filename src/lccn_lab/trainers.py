"""Training procedures: plain and noise-robust baselines, and latent-label regression.

All trainers share one contract: (train dataset, config, optional test
dataset) -> RunResult with per-checkpoint metric records, the final model,
and, where the method maintains one, the final estimate of the label
transition channel. Runs are bit-reproducible for a fixed config.

Every kind runs through one loop, `_fit`. The loop seeds the run, builds
the classifier and its optimizer, optionally pretrains with plain
cross-entropy, walks the epochs under the learning-rate schedule, evaluates
on the `eval_every` cadence and assembles the RunResult. A kind supplies
only a `_Hooks` bundle: its per-batch step (hard target, self-blended
target, composed channel, EM responsibilities or latent resample) plus
views of its own state for the metric records and the final transition.
"""

from __future__ import annotations

import itertools
import math
import numbers
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .classifier import (
    Architecture,
    ClassifierParams,
    LossConfig,
    OptimizerState,
    _forward,
    _softmax as _row_softmax,
    apply_gradients,
    backprop_logits,
    dlogits_from_dprobs,
    forward_proba,
    init_optimizer,
    init_params,
    minibatch_indices,
    one_hot,
    pretrain_ce,
    sgd_step,
    sgd_step_soft,
    soft_target_cross_entropy,
)
from .datagen import LabeledDataset
from .errors import InvariantError, ParameterError, TrainingError
from .metrics import (
    MetricsRecord,
    correction_ratio,
    top1_accuracy,
    transition_l1_error,
)
from .noise_model import (
    DirichletPrior,
    TransitionMatrix,
    confusion_counts,
    transition_from_counts,
    update_bound,
    warmup_transition,
)
from .sampler import AnnealSchedule, gibbs_sample_batch

BOUND_SLACK = 1e-12
# TrainConfig checks each field declared `int` or `float` (or `... | None`)
# against these; the declarations are strings under postponed annotations.
_NUMBER_TYPES = {"int": numbers.Integral, "float": numbers.Real}


@dataclass
class TrainConfig:
    """Shared configuration for every trainer; a kind ignores the fields it does not read.

    lr_milestones lists (epoch, learning_rate) overrides that take effect
    from the given epoch on. Fields that only some kinds read:

    - pretrain_epochs: every kind except ce and bootstrap_hard;
    - total_iterations: the latent kinds (lccn, lccn_star, lccn_plus) only.
      It counts batches, so it may stop mid-epoch or run past `epochs`;
      None means epochs * batches-per-epoch;
    - warmup_steps: s_adaptation (steps the transition layer stays frozen)
      and the latent kinds (sampling steps that use the initial channel
      instead of the counts); None means one epoch of steps;
    - warmup_kind and oracle_phi: the initial channel of forward_fixed,
      s_adaptation and the latent kinds;
    - alpha and anneal: the latent kinds;
    - em_m_epochs: em_reference, whose epochs, lr_milestones and eval_every
      count outer iterations of em_m_epochs classifier epochs each;
    - transition_lr and grad_clip: s_adaptation;
    - bootstrap_beta: bootstrap_hard.
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
    total_iterations: int | None = None
    alpha: float | tuple[float, ...] = 1.0
    anneal: AnnealSchedule = field(default_factory=AnnealSchedule)
    warmup_kind: str = "predictions"
    oracle_phi: np.ndarray | None = None
    reference_phi: np.ndarray | None = None
    bootstrap_beta: float = 0.8
    transition_lr: float | None = None
    grad_clip: float | None = None
    em_m_epochs: int = 1
    eval_every: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in TRAINER_KINDS:
            raise ParameterError(f"unknown trainer kind {self.kind!r}")
        for f in fields(self):
            value = getattr(self, f.name)
            wanted = _NUMBER_TYPES.get(f.type.removesuffix(" | None"))
            if wanted is None or (value is None and f.type.endswith(" | None")):
                continue
            if isinstance(value, bool) or not isinstance(value, wanted):
                raise ParameterError(f"{f.name} must be {f.type}, got {value!r}")
        if np.asarray(self.alpha).dtype.kind not in "iuf" or np.ndim(self.alpha) > 1:
            raise ParameterError(f"alpha must be a number or a vector, got {self.alpha!r}")
        try:
            DirichletPrior(np.atleast_1d(self.alpha))  # range check
        except ParameterError as exc:
            raise ParameterError(f"alpha: {exc}") from None
        if not isinstance(self.anneal, AnnealSchedule):
            raise ParameterError(f"anneal must be an AnnealSchedule, got {self.anneal!r}")
        if self.hidden_width < 0:
            raise ParameterError("hidden_width must be nonnegative")
        if self.epochs < 0 or self.pretrain_epochs < 0:
            raise ParameterError("epoch counts must be nonnegative")
        if self.batch_size < 1:
            raise ParameterError("batch_size must be >= 1")
        if not 0.0 <= self.bootstrap_beta <= 1.0:
            raise ParameterError("bootstrap_beta must lie in [0, 1]")
        if self.warmup_steps is not None and self.warmup_steps < 0:
            raise ParameterError("warmup_steps must be nonnegative")
        if self.total_iterations is not None and self.total_iterations < 0:
            raise ParameterError("total_iterations must be nonnegative")
        if self.warmup_kind not in ("predictions", "identity"):
            raise ParameterError(f"unknown warmup kind {self.warmup_kind!r}")
        if self.eval_every < 1:
            raise ParameterError("eval_every must be >= 1")
        if self.em_m_epochs < 1:
            raise ParameterError("em_m_epochs must be >= 1")
        LossConfig(self.clip)  # range check


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
    final_phi: TransitionMatrix | None
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
    loss_cfg: LossConfig
    gibbs_rng: np.random.Generator
    n_batches: int
    total: int
    iteration: int = 0


@dataclass
class _Hooks:
    """One trainer kind's part of the shared loop.

    batch(idx) takes the kind's step on one minibatch and returns the
    (measured, bound) transition variation it caused, or None. epoch_start
    runs before every epoch; record() gives the extra fields of each train
    record; final_phi() gives the run's transition estimate.
    """

    batch: Callable[[np.ndarray], tuple[float, float] | None]
    epoch_start: Callable[[], None] = lambda: None
    record: Callable[[], dict] = dict
    final_phi: Callable[[], TransitionMatrix | None] = lambda: None


def _fit(
    ds: LabeledDataset, cfg: TrainConfig, test_ds: LabeledDataset | None,
    start: Callable[[_Run], _Hooks], *, pretrain: bool = True, extra_class: bool = False,
    passes: int = 1, total_iterations: int | None = None,
) -> RunResult:
    """The one training loop; `start` builds a kind's hooks after pretraining.

    An epoch is `passes` sweeps of shuffled minibatches; the learning-rate
    schedule and the eval cadence count epochs. total_iterations, when
    given, replaces the epoch budget with a batch budget. The run always
    ends on an eval. Train records score the observed labels on the first
    n_classes outputs (extra_class adds one more output), test records the
    true labels of in-distribution samples; each train record carries the
    largest batch variation since the previous eval.
    """
    ss_init, ss_data, ss_gibbs = np.random.SeedSequence(cfg.seed).spawn(3)
    data_rng, gibbs_rng = np.random.default_rng(ss_data), np.random.default_rng(ss_gibbs)
    n_out = ds.n_classes + 1 if extra_class else ds.n_classes
    if cfg.hidden_width > 0:
        arch = Architecture("mlp", ds.dim, n_out, cfg.hidden_width, cfg.activation)
    else:
        arch = Architecture("linear", ds.dim, n_out, activation=cfg.activation)
    params = init_params(arch, int(ss_init.generate_state(1)[0]))
    opt = init_optimizer(params, _lr_at(cfg, 0), cfg.momentum, cfg.weight_decay)
    loss_cfg = LossConfig(cfg.clip)
    n_batches = math.ceil(ds.n / cfg.batch_size)
    offset = 0
    if pretrain:
        pretrain_ce(
            params, opt, ds.features, ds.noisy_labels,
            cfg.pretrain_epochs, cfg.batch_size, loss_cfg, data_rng,
        )
        offset = cfg.pretrain_epochs * n_batches
    per_epoch = passes * n_batches
    total = cfg.epochs * per_epoch if total_iterations is None else total_iterations
    run = _Run(params, opt, loss_cfg, gibbs_rng, n_batches, total)
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
        loss, _ = soft_target_cross_entropy(probs, one_hot(ds.noisy_labels, n_out), loss_cfg)
        records.append(MetricsRecord(
            step, "train", top1_accuracy(probs, ds.noisy_labels, n_scored), loss,
            max_phi_row_variation=None if worst is None else worst.measured,
            bound_value=None if worst is None else worst.bound,
            **hooks.record(),
        ))
        if test_ds is not None:
            # One forward of the in-distribution rows serves the loss and the accuracy.
            keep = ~test_ds.ood_mask
            test_probs = forward_proba(params, test_ds.features[keep])
            truth = test_ds.true_labels[keep]
            loss, _ = soft_target_cross_entropy(test_probs, one_hot(truth, n_out), loss_cfg)
            records.append(
                MetricsRecord(step, "test", top1_accuracy(test_probs, truth, n_scored), loss)
            )

    evaluate()
    while run.iteration < total:
        opt.learning_rate = _lr_at(cfg, run.iteration // per_epoch)
        hooks.epoch_start()
        sweeps = (minibatch_indices(data_rng, ds.n, cfg.batch_size) for _ in range(passes))
        for idx in itertools.chain.from_iterable(sweeps):
            if run.iteration >= total:
                break
            run.iteration += 1
            moved = hooks.batch(idx)
            if moved is not None:
                variations.append(BatchVariation(offset + run.iteration, *moved))
        if run.iteration >= total or (run.iteration // per_epoch) % cfg.eval_every == 0:
            evaluate()
    return RunResult(records, params, hooks.final_phi(), variations)


def train_ce(
    ds: LabeledDataset, cfg: TrainConfig, test_ds: LabeledDataset | None = None
) -> RunResult:
    """Plain clipped cross-entropy on the observed labels."""

    def start(run: _Run) -> _Hooks:
        def batch(idx: np.ndarray) -> None:
            sgd_step(run.params, run.opt, ds.features[idx], ds.noisy_labels[idx], run.loss_cfg)

        return _Hooks(batch)

    return _fit(ds, cfg, test_ds, start, pretrain=False)


def train_bootstrap_hard(
    ds: LabeledDataset, cfg: TrainConfig, test_ds: LabeledDataset | None = None
) -> RunResult:
    """Cross-entropy against a convex blend of the observed label and the model's own argmax.

    Target weights are beta on the observed label and (1 - beta) on the
    current prediction's argmax, recomputed every step; the step reuses the
    forward pass that gave the argmax.
    """
    beta = cfg.bootstrap_beta

    def start(run: _Run) -> _Hooks:
        def batch(idx: np.ndarray) -> None:
            features = ds.features[idx]
            forward = _forward(run.params, features)
            pseudo = forward[0].argmax(axis=1)
            weights = beta * one_hot(ds.noisy_labels[idx], ds.n_classes)
            weights += (1.0 - beta) * one_hot(pseudo, ds.n_classes)
            sgd_step_soft(run.params, run.opt, features, weights, run.loss_cfg, forward=forward)

        return _Hooks(batch)

    return _fit(ds, cfg, test_ds, start, pretrain=False)


def _composed_loss_grads(
    params: ClassifierParams,
    features: np.ndarray,
    observed: np.ndarray,
    phi: np.ndarray,
    loss_cfg: LossConfig,
) -> tuple[float, dict[str, np.ndarray], np.ndarray]:
    """Clipped log-loss of the channel-mixed prediction q = probs @ phi.

    Returns (loss, classifier gradients, gradient with respect to phi).
    """
    probs, cache = _forward(params, features)
    mixture = probs @ phi
    loss, dmix = soft_target_cross_entropy(
        mixture, one_hot(observed, phi.shape[1]), loss_cfg
    )
    dprobs = dmix @ phi.T
    dlogits = dlogits_from_dprobs(probs, dprobs)
    grads = backprop_logits(params, features, cache, dlogits)
    dphi = probs.T @ dmix
    return loss, grads, dphi


def _composed_step(run: _Run, ds: LabeledDataset, idx: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """One classifier step through the channel phi; returns the gradient with respect to phi."""
    loss, grads, dphi = _composed_loss_grads(
        run.params, ds.features[idx], ds.noisy_labels[idx], phi, run.loss_cfg
    )
    if not np.isfinite(loss):
        raise TrainingError("non-finite training loss")
    apply_gradients(run.params, run.opt, grads)
    return dphi


def _initial_channel(
    ds: LabeledDataset, cfg: TrainConfig, params: ClassifierParams, n_latent: int
) -> TransitionMatrix:
    """Transition estimate available before counts exist: oracle, identity, or predictions."""
    k = ds.n_classes
    if cfg.oracle_phi is not None:
        oracle = np.asarray(cfg.oracle_phi, dtype=np.float64)
        if oracle.shape != (k, k):
            raise ParameterError(f"oracle_phi must be ({k}, {k})")
        matrix = oracle
    elif cfg.warmup_kind == "identity":
        matrix = np.eye(k)
    else:
        predictions = forward_proba(params, ds.features)
        return warmup_transition(predictions, ds.noisy_labels, k)
    if n_latent > k:
        matrix = np.vstack([matrix, np.full((n_latent - k, k), 1.0 / k)])
    return TransitionMatrix(matrix)


def train_forward_fixed(
    ds: LabeledDataset, cfg: TrainConfig, test_ds: LabeledDataset | None = None
) -> RunResult:
    """Train through a frozen transition: fit q = probs @ phi to the observed labels."""

    def start(run: _Run) -> _Hooks:
        channel = _initial_channel(ds, cfg, run.params, ds.n_classes)
        phi_err = _phi_error(cfg, channel.matrix)

        def batch(idx: np.ndarray) -> None:
            _composed_step(run, ds, idx, channel.matrix)

        return _Hooks(batch, record=lambda: {"phi_l1_error": phi_err}, final_phi=lambda: channel)

    return _fit(ds, cfg, test_ds, start)


def train_s_adaptation(
    ds: LabeledDataset, cfg: TrainConfig, test_ds: LabeledDataset | None = None
) -> RunResult:
    """Train through a learnable row-softmax transition layer, jointly with the classifier.

    The layer starts at the prediction-derived transition and is frozen for
    the first warmup_steps composed steps; afterwards both the classifier and
    the layer follow the gradient. Optional grad_clip bounds each entry of
    the layer's gradient.
    """

    def start(run: _Run) -> _Hooks:
        warmup_steps = cfg.warmup_steps if cfg.warmup_steps is not None else run.n_batches
        channel_init = _initial_channel(ds, cfg, run.params, ds.n_classes)
        layer_logits = np.log(np.maximum(channel_init.matrix, 1e-8))
        layer_velocity = np.zeros_like(layer_logits)

        def current_phi() -> np.ndarray:
            if run.iteration <= warmup_steps:
                return channel_init.matrix
            return _row_softmax(layer_logits)

        def batch(idx: np.ndarray) -> tuple[float, float] | None:
            nonlocal layer_logits, layer_velocity
            phi = current_phi()
            dphi = _composed_step(run, ds, idx, phi)
            if run.iteration <= warmup_steps:
                return None
            inner = (phi * dphi).sum(axis=1, keepdims=True)
            dlayer = phi * (dphi - inner)
            if cfg.grad_clip is not None:
                dlayer = np.clip(dlayer, -cfg.grad_clip, cfg.grad_clip)
            if not np.all(np.isfinite(dlayer)):
                raise TrainingError("non-finite transition-layer gradient")
            rate = run.opt.learning_rate if cfg.transition_lr is None else cfg.transition_lr
            layer_velocity *= cfg.momentum
            layer_velocity += dlayer
            layer_logits -= rate * layer_velocity
            return float(np.abs(_row_softmax(layer_logits) - phi).sum(axis=1).max()), float("nan")

        def record() -> dict:
            return {"phi_l1_error": _phi_error(cfg, current_phi())}

        return _Hooks(batch, record=record, final_phi=lambda: TransitionMatrix(current_phi()))

    return _fit(ds, cfg, test_ds, start)


def train_em_reference(
    ds: LabeledDataset, cfg: TrainConfig, test_ds: LabeledDataset | None = None
) -> RunResult:
    """Alternate closed-form transition re-estimates with soft-target classifier epochs.

    Each outer iteration forms per-sample responsibilities over the latent
    classes (prediction times the transition column of the observed label,
    normalized), re-estimates the transition from them with the shared
    weighted-confusion estimator, then runs em_m_epochs of SGD toward the
    responsibilities.
    """

    def start(run: _Run) -> _Hooks:
        phi_bar: TransitionMatrix | None = None
        responsibilities: np.ndarray | None = None

        def epoch_start() -> None:
            nonlocal phi_bar, responsibilities
            predictions = forward_proba(run.params, ds.features)
            if phi_bar is None:
                responsibilities = predictions
            else:
                raw = predictions * phi_bar.matrix[:, ds.noisy_labels].T
                denom = raw.sum(axis=1, keepdims=True)
                # Rows where prediction mass and transition column cancel exactly
                # carry no signal; fall back to the bare prediction there.
                responsibilities = np.where(
                    denom > 0.0, raw / np.maximum(denom, 1e-300), predictions
                )
            phi_bar = em_e_step(responsibilities, ds.noisy_labels, ds.n_classes)

        def batch(idx: np.ndarray) -> None:
            targets = responsibilities[idx]
            sgd_step_soft(run.params, run.opt, ds.features[idx], targets, run.loss_cfg)

        def record() -> dict:
            return {"phi_l1_error": _phi_error(cfg, phi_bar)}

        return _Hooks(batch, epoch_start, record, final_phi=lambda: phi_bar)

    return _fit(ds, cfg, test_ds, start, passes=cfg.em_m_epochs)


def em_e_step(
    predictions: np.ndarray, observed_labels: np.ndarray, n_observed: int
) -> TransitionMatrix:
    """Expected transition given fixed predictions; same estimator as warmup_transition."""
    return warmup_transition(predictions, observed_labels, n_observed)


def _train_latent(
    ds: LabeledDataset, cfg: TrainConfig, test_ds: LabeledDataset | None,
    extra_class: bool, use_clean: bool,
) -> RunResult:
    """Collapsed-Gibbs resampling of latent labels + SGD on the samples.

    Each batch is forwarded once: the sampler reads its probabilities and
    the SGD step reuses it, since sampling leaves the parameters alone.

    A batch whose draw gives every sample back its previous latent label
    leaves the counts as they were, so it is recorded as `(0.0, 0.0)`
    without calling `update_bound`: on equal count matrices the certificate
    is 0.0 in every field and its worst row is row 0. A batch whose labels
    moved is certified in full, even when its moves cancel in the counts.
    """
    k = ds.n_classes
    n_latent = k + 1 if extra_class else k
    if use_clean and not ds.clean_mask.any():
        warnings.warn(
            "clean subset is empty; falling back to plain latent-label training",
            UserWarning,
        )
        use_clean = False
    prior = _prior_for(cfg, k)
    exclude = ds.clean_mask if use_clean else None
    labels = ds.noisy_labels.copy()

    def tally() -> np.ndarray:
        return confusion_counts(labels, ds.noisy_labels, n_latent, k, exclude=exclude)

    counts = tally()

    def current_phi() -> TransitionMatrix:
        return transition_from_counts(counts, prior)

    def record() -> dict:
        # The books are checked at every eval, and the run always ends on one.
        if np.any(tally() != counts):
            raise InvariantError("confusion counts drifted from the assignment")
        phi = current_phi().matrix[:k] if cfg.reference_phi is not None else None
        return {
            "correction_ratio": correction_ratio(labels, ds.true_labels),
            "phi_l1_error": _phi_error(cfg, phi),
        }

    def start(run: _Run) -> _Hooks:
        channel_init = _initial_channel(ds, cfg, run.params, n_latent)
        warmup_steps = cfg.warmup_steps if cfg.warmup_steps is not None else run.n_batches
        schedule = cfg.anneal
        if schedule.enabled and schedule.max_step <= 1 and run.total > 1:
            schedule = replace(schedule, max_step=run.total)

        def batch(idx: np.ndarray) -> tuple[float, float] | None:
            features = ds.features[idx]
            forward = _forward(run.params, features)
            probs = forward[0]
            resample = np.flatnonzero(~ds.clean_mask[idx]) if use_clean else np.arange(len(idx))
            moved = None
            if resample.size:
                positions = idx[resample]
                previous = labels[positions]
                before = counts.copy()
                sampled = gibbs_sample_batch(
                    probs[resample],
                    ds.noisy_labels[idx][resample],
                    counts,
                    prior,
                    labels,
                    positions,
                    run.gibbs_rng,
                    warmup_phi=channel_init if run.iteration <= warmup_steps else None,
                    anneal=schedule.coefficient(run.iteration),
                    anneal_target=schedule.target,
                )
                if sampled.tolist() == previous.tolist():
                    moved = 0.0, 0.0
                else:
                    cert = update_bound(before, counts, prior)
                    if np.any(cert.measured > cert.bound + BOUND_SLACK):
                        raise InvariantError(
                            "transition row moved beyond the per-batch update bound"
                        )
                    worst = int(np.argmax(cert.measured))
                    moved = float(cert.measured[worst]), float(cert.bound[worst])
            sgd_step(run.params, run.opt, features, labels[idx], run.loss_cfg, forward=forward)
            return moved

        return _Hooks(batch, record=record, final_phi=current_phi)

    result = _fit(
        ds, cfg, test_ds, start, extra_class=extra_class, total_iterations=cfg.total_iterations
    )
    if extra_class and ds.ood_mask.any():
        result.outlier_recall = float(np.mean(labels[ds.ood_mask] == k))
    return result


def train_lccn(
    ds: LabeledDataset, cfg: TrainConfig, test_ds: LabeledDataset | None = None
) -> RunResult:
    """Latent-label regression: Gibbs-resample true labels, fit the classifier to them."""
    return _train_latent(ds, cfg, test_ds, extra_class=False, use_clean=False)


def train_lccn_star(
    ds: LabeledDataset, cfg: TrainConfig, test_ds: LabeledDataset | None = None
) -> RunResult:
    """Latent-label regression with one extra latent class acting as an outlier bucket."""
    return _train_latent(ds, cfg, test_ds, extra_class=True, use_clean=False)


def train_lccn_plus(
    ds: LabeledDataset, cfg: TrainConfig, test_ds: LabeledDataset | None = None
) -> RunResult:
    """Latent-label regression that pins trusted samples to their labels.

    Clean-masked samples are never resampled and stay out of the confusion
    counts; they still contribute supervised gradient steps.
    """
    return _train_latent(ds, cfg, test_ds, extra_class=False, use_clean=True)


TRAINERS = {
    "ce": train_ce,
    "bootstrap_hard": train_bootstrap_hard,
    "forward_fixed": train_forward_fixed,
    "s_adaptation": train_s_adaptation,
    "em_reference": train_em_reference,
    "lccn": train_lccn,
    "lccn_star": train_lccn_star,
    "lccn_plus": train_lccn_plus,
}
TRAINER_KINDS = tuple(TRAINERS)


def run_trainer(
    ds: LabeledDataset, cfg: TrainConfig, test_ds: LabeledDataset | None = None
) -> RunResult:
    """Dispatch on cfg.kind; validates the result's record ordering."""
    result = TRAINERS[cfg.kind](ds, cfg, test_ds)
    result.validate_record_order()
    return result
