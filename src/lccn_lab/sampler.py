"""Collapsed Gibbs sampling of latent true labels, plus exact references.

Each sample's latent label is resampled from the product of two factors: the
classifier's probability for that class, and the leave-one-out predictive
probability of the observed label given the class (from the Dirichlet-
multinomial channel). Enumerating all joint assignments gives an exact
posterior for small instances, used to validate the chain. The chain's state
is two plain arrays, both updated in place: the int64 latent label of every
sample (UNASSIGNED before its first draw) and the count matrix of
`noise_model.confusion_counts`.

`sampling_distribution` is the one-draw reference. `gibbs_sample_batch` runs
the same chain on plain Python floats and is bit-identical to replaying the
reference draw by draw (`np.cumsum`/`np.searchsorted` on its output against
one scalar `rng.random()` each): the same labels, the same counts and the
same generator state after the batch. It draws the batch's uniforms with one
`rng.random(M)` call (the same doubles as M scalar calls); each draw takes
one score list and its sum from `_scores`, which the reference uses too, and
walks the CDF with `cumulative += score / norm`. Score sums follow numpy's
order: left to right from -0.0 for fewer than 8 latent classes, numpy's own
reduction from 8 on (see `noise_model`). The annealing exponent always goes
through numpy's `**`, whose vectorized power may round differently from Python's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln, logsumexp

from .errors import InvariantError, ParameterError, TrainingError
from .noise_model import (
    DirichletPrior,
    TransitionMatrix,
    _check_counts,
    _row_sum,
    confusion_counts,
)

UNASSIGNED = -1
ANNEAL_TARGETS = ("transition", "product")


@dataclass
class AnnealSchedule:
    """Decaying exponent applied to the channel factor of the sampling scores.

    coefficient(step) = max(exp(-step / max_step * decay), floor); a disabled
    schedule always returns 1. `target` picks what the exponent is applied to:
    "transition" tempers only the channel factor, "product" tempers the whole
    unnormalized score.
    """

    enabled: bool = False
    max_step: int = 1
    floor: float = 0.5
    decay: float = 0.8
    target: str = "transition"

    def __post_init__(self) -> None:
        if self.max_step < 1:
            raise ParameterError("max_step must be >= 1")
        if not 0.0 < self.floor <= 1.0:
            raise ParameterError("floor must lie in (0, 1]")
        if self.decay <= 0.0:
            raise ParameterError("decay must be positive")
        if self.target not in ANNEAL_TARGETS:
            raise ParameterError(f"unknown anneal target {self.target!r}")

    def coefficient(self, step: int) -> float:
        return anneal_coefficient(step, self)


def anneal_coefficient(step: int, schedule: AnnealSchedule) -> float:
    """Annealing exponent at a given step; 1.0 when the schedule is disabled."""
    if step < 0:
        raise ParameterError("step must be nonnegative")
    if not schedule.enabled:
        return 1.0
    return max(math.exp(-step / schedule.max_step * schedule.decay), schedule.floor)


def _scores(
    row: list, a: float, column: list, totals: list, alpha_total: float,
    warmup: list | None, anneal: float, anneal_target: str,
) -> tuple[list[float], float]:
    """Unnormalized scores of one draw and their sum, which must be finite and positive.

    A score is a classifier probability times the channel: the warmup column if
    given, else the count column (a + c) / (alpha_total + t). `anneal` tempers
    the channel ("transition") or the whole score ("product") through numpy's `**`.
    """
    if warmup is None and (anneal == 1.0 or anneal_target == "product"):
        scores = [p * ((a + c) / (alpha_total + t)) for p, c, t in zip(row, column, totals)]
    else:
        if warmup is None:
            warmup = [(a + c) / (alpha_total + t) for c, t in zip(column, totals)]
        if anneal != 1.0 and anneal_target == "transition":
            warmup = (np.array(warmup, dtype=np.float64) ** anneal).tolist()
        scores = [p * c for p, c in zip(row, warmup)]
    if anneal != 1.0 and anneal_target == "product":
        scores = (np.array(scores) ** anneal).tolist()
    norm = _row_sum(scores)
    if not 0.0 < norm < math.inf:  # also False for NaN
        raise TrainingError("sampling scores are non-finite or all zero")
    return scores, norm


def sampling_distribution(
    probs_row: np.ndarray,
    observed_label: int,
    counts: np.ndarray,
    prior: DirichletPrior,
    warmup_phi: TransitionMatrix | None = None,
    anneal: float = 1.0,
    anneal_target: str = "transition",
) -> np.ndarray:
    """Normalized distribution the Gibbs chain draws one latent label from.

    `counts` must already exclude the sample being resampled. When warmup_phi
    is given, its column replaces the count-based channel factor while the
    classifier factor still applies. Scores are invariant to positive scaling
    of probs_row.
    """
    _check_counts(counts, prior)
    probs_row = np.asarray(probs_row, dtype=np.float64)
    if probs_row.shape != (counts.shape[0],):
        raise ParameterError("probs_row must hold one probability per latent class")
    if not 0 <= observed_label < counts.shape[1]:
        raise ParameterError("observed label out of range")
    if anneal_target not in ANNEAL_TARGETS:
        raise ParameterError(f"unknown anneal target {anneal_target!r}")
    scores, norm = _scores(
        probs_row.tolist(), float(prior.concentration[observed_label]),
        counts[:, observed_label].tolist(), counts.sum(axis=1).tolist(), prior.total,
        None if warmup_phi is None else warmup_phi.matrix[:, observed_label].tolist(),
        anneal, anneal_target,
    )
    return np.array([score / norm for score in scores])


def gibbs_sample_batch(
    probs: np.ndarray,
    observed_labels: np.ndarray,
    counts: np.ndarray,
    prior: DirichletPrior,
    labels: np.ndarray,
    batch_indices: np.ndarray,
    rng: np.random.Generator,
    warmup_phi: TransitionMatrix | None = None,
    anneal: float = 1.0,
    anneal_target: str = "transition",
) -> np.ndarray:
    """Resample the latent labels of one batch, updating `counts` and `labels` in place.

    Samples are processed sequentially: each draw removes the sample's old
    count (if assigned), scores every latent class against counts already
    updated by earlier draws in the batch, draws a new class, and books it.
    The count matrix is mirrored column by column as Python lists, with its
    row totals summed once from those lists, and written back when the batch
    ends, also when it ends on an error. The batch's uniforms are drawn up
    front, so a batch that fails part-way has consumed all of them.

    Args:
        probs: (M, R) classifier probabilities for the batch samples.
        observed_labels: (M,) observed labels of the batch samples.
        counts: (R, K) count matrix of latent vs observed labels.
        labels: (N,) integer latent label of every sample, UNASSIGNED if none.
        batch_indices: (M,) positions of the batch samples in `labels`.

    Returns:
        (M,) newly sampled latent labels, in batch order.
    """
    _check_counts(counts, prior)
    if not isinstance(labels, np.ndarray) or labels.ndim != 1 or labels.dtype.kind not in "iu":
        raise ParameterError("labels must be a 1-d integer array")
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2 or probs.shape[1] != counts.shape[0]:
        raise ParameterError("probs must be (batch, n_latent)")
    if len(observed_labels) != probs.shape[0] or len(batch_indices) != probs.shape[0]:
        raise ParameterError("batch arrays must have matching lengths")
    observed_list = np.asarray(observed_labels).tolist()
    if observed_list and not 0 <= min(observed_list) <= max(observed_list) < counts.shape[1]:
        raise ParameterError("observed labels out of range")
    if anneal_target not in ANNEAL_TARGETS:
        raise ParameterError(f"unknown anneal target {anneal_target!r}")
    uniforms = rng.random(probs.shape[0]).tolist()
    alpha = prior.concentration.tolist()
    alpha_total = prior.total
    warmup_columns = (
        [None] * counts.shape[1] if warmup_phi is None else warmup_phi.matrix.T.tolist()
    )
    columns = counts.T.tolist()
    totals = [sum(row) for row in zip(*columns)]
    sampled = []
    try:
        for row, observed, position, u in zip(
            probs.tolist(), observed_list, np.asarray(batch_indices).tolist(), uniforms
        ):
            column = columns[observed]
            old = labels.item(position)
            if old != UNASSIGNED:
                if column[old] <= 0:
                    raise InvariantError(f"decrement of empty count cell ({old}, {observed})")
                column[old] -= 1
                totals[old] -= 1
            scores, norm = _scores(
                row, alpha[observed], column, totals, alpha_total, warmup_columns[observed],
                anneal, anneal_target,
            )
            cumulative = 0.0
            # Without a break, a uniform at or above the rounded total takes the last class.
            for new, score in enumerate(scores):
                cumulative += score / norm
                if cumulative > u:
                    break
            column[new] += 1
            totals[new] += 1
            labels[position] = new
            sampled.append(new)
    finally:
        counts.T[...] = columns
    return np.array(sampled, dtype=np.int64)


def _log_dirichlet_norm(alpha: np.ndarray) -> float:
    return float(gammaln(alpha).sum() - gammaln(alpha.sum()))


def exact_posterior_bruteforce(
    probs: np.ndarray,
    observed_labels: np.ndarray,
    prior: DirichletPrior,
    max_states: int = 2**22,
) -> np.ndarray:
    """Exact per-sample posterior marginals by enumerating every joint assignment.

    The joint weight of an assignment is the product of the classifier
    probabilities and, per latent class, the ratio of Dirichlet normalizers
    with and without that class's observed-label counts. All arithmetic is in
    log space. Only instances with n_latent ** n <= max_states are accepted.
    """
    probs = np.asarray(probs, dtype=np.float64)
    observed_labels = np.asarray(observed_labels, dtype=np.int64)
    n, n_latent = probs.shape
    n_observed = prior.n_observed
    n_states = n_latent**n
    if n_states > max_states:
        raise ParameterError(f"state space {n_states} exceeds the limit {max_states}")
    with np.errstate(divide="ignore"):
        log_probs = np.log(probs)
    alpha = prior.concentration
    log_norm_empty = _log_dirichlet_norm(alpha)
    obs_onehot = np.zeros((n, n_observed), dtype=np.float64)
    obs_onehot[np.arange(n), observed_labels] = 1.0

    block = 1 << 14
    radix = n_latent ** np.arange(n, dtype=np.int64)
    log_weights = np.empty(n_states)

    def decode(states: np.ndarray) -> np.ndarray:
        return (states[:, None] // radix[None, :]) % n_latent

    for start in range(0, n_states, block):
        states = np.arange(start, min(start + block, n_states), dtype=np.int64)
        assign = decode(states)
        lw = log_probs[np.arange(n)[None, :], assign].sum(axis=1)
        cell_counts = np.zeros((states.size, n_latent, n_observed))
        for r in range(n_latent):
            cell_counts[:, r, :] = (assign == r).astype(np.float64) @ obs_onehot
        row_alpha = cell_counts + alpha[None, None, :]
        log_norm = gammaln(row_alpha).sum(axis=2) - gammaln(row_alpha.sum(axis=2))
        lw += (log_norm - log_norm_empty).sum(axis=1)
        log_weights[start : start + states.size] = lw

    log_z = logsumexp(log_weights)
    marginals = np.zeros((n, n_latent))
    for start in range(0, n_states, block):
        states = np.arange(start, min(start + block, n_states), dtype=np.int64)
        assign = decode(states)
        weights = np.exp(log_weights[start : start + states.size] - log_z)
        for r in range(n_latent):
            marginals[:, r] += (assign == r).T @ weights
    row_sums = marginals.sum(axis=1)
    if np.any(np.abs(row_sums - 1.0) > 1e-8):
        raise TrainingError("brute-force marginals failed the normalization check")
    return marginals / row_sums[:, None]


def total_variation_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Total variation distance between matching rows of two distribution matrices."""
    return 0.5 * np.abs(np.asarray(a) - np.asarray(b)).sum(axis=1)


@dataclass
class GibbsDiagnostics:
    """Mixing summary of one chain against the exact reference posterior."""

    sweeps: int
    burn_in: int
    empirical: np.ndarray
    reference: np.ndarray
    trace: list[tuple[int, float, float]] = field(default_factory=list)

    @property
    def per_sample_tv(self) -> np.ndarray:
        return total_variation_rows(self.empirical, self.reference)

    @property
    def max_tv(self) -> float:
        return float(self.per_sample_tv.max())

    @property
    def mean_tv(self) -> float:
        return float(self.per_sample_tv.mean())


def mixing_diagnostic(
    probs: np.ndarray,
    observed_labels: np.ndarray,
    prior: DirichletPrior,
    sweeps: int,
    burn_in: int,
    seed: int = 0,
) -> GibbsDiagnostics:
    """Run a frozen-classifier chain and compare empirical marginals to the exact ones.

    The chain starts from the observed labels. Post-burn-in states are tallied
    into per-sample empirical marginals; the trace records (sweep, max_tv,
    mean_tv) at up to 8 geometrically spaced sweeps. With sweeps=0 the
    "empirical marginal" is the point mass of the initial state.
    """
    probs = np.asarray(probs, dtype=np.float64)
    observed_labels = np.asarray(observed_labels, dtype=np.int64)
    n, n_latent = probs.shape
    if sweeps < 0 or burn_in < 0:
        raise ParameterError("sweeps and burn_in must be nonnegative")
    if sweeps > 0 and burn_in >= sweeps:
        raise ParameterError("burn_in must be smaller than sweeps")
    reference = exact_posterior_bruteforce(probs, observed_labels, prior)
    if sweeps == 0:
        empirical = np.zeros((n, n_latent))
        empirical[np.arange(n), observed_labels] = 1.0
        tv = total_variation_rows(empirical, reference)
        trace = [(0, float(tv.max()), float(tv.mean()))]
        return GibbsDiagnostics(0, burn_in, empirical, reference, trace)
    labels = observed_labels.copy()
    counts = confusion_counts(labels, observed_labels, n_latent, prior.n_observed)
    checkpoints = set(np.geomspace(burn_in + 1, sweeps, num=8).round().astype(int).tolist())
    rng = np.random.default_rng(seed)
    tally = np.zeros((n, n_latent))
    trace: list[tuple[int, float, float]] = []
    rows = np.arange(n)
    for sweep in range(1, sweeps + 1):
        gibbs_sample_batch(probs, observed_labels, counts, prior, labels, rows, rng)
        if sweep > burn_in:
            tally[rows, labels] += 1.0
            if sweep in checkpoints:
                empirical = tally / (sweep - burn_in)
                tv = total_variation_rows(empirical, reference)
                trace.append((sweep, float(tv.max()), float(tv.mean())))
    return GibbsDiagnostics(sweeps, burn_in, tally / (sweeps - burn_in), reference, trace)
