"""Collapsed Gibbs sampling of latent true labels, plus exact references.

Each sample's latent label is resampled from the product of two factors: the
classifier's probability for that class, and the leave-one-out predictive
probability of the observed label given the class (from the Dirichlet-
multinomial channel). Enumerating all joint assignments gives an exact
posterior for small instances, used to validate the chain.

`sampling_distribution` is the one-draw reference. `gibbs_sample_batch` runs
the same chain on plain Python floats and is bit-identical to replaying the
reference draw by draw (`np.cumsum`/`np.searchsorted` on its output against
one scalar `rng.random()` each): the same labels, the same counts and the
same generator state after the batch. It draws the batch's uniforms with one
`rng.random(M)` call (the same doubles as M scalar calls) and inverts the CDF
with a running sum. Both share `_distribution`, so the scoring arithmetic
exists once. Score sums follow numpy's order: left to right from -0.0 for
fewer than 8 latent classes, numpy's own reduction from 8 on (see
`noise_model`). The annealing exponent always goes through numpy's `**`,
whose vectorized power may round differently from Python's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln, logsumexp

from .errors import InvariantError, ParameterError, TrainingError
from .noise_model import (
    ConfusionCounts,
    DirichletPrior,
    TransitionMatrix,
    _row_sum,
    conditional_transition_column,
)

UNASSIGNED = -1


@dataclass
class LatentAssignment:
    """Current latent label of every sample; UNASSIGNED before the first draw."""

    labels: np.ndarray

    def __post_init__(self) -> None:
        self.labels = np.asarray(self.labels, dtype=np.int64)

    @classmethod
    def from_labels(cls, labels: np.ndarray) -> "LatentAssignment":
        return cls(np.array(labels, dtype=np.int64))


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
        if self.target not in ("transition", "product"):
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


def _distribution(probs_row: list, channel, anneal: float, anneal_target: str) -> list[float]:
    """Normalized scores of one draw from a classifier row and a channel column."""
    if anneal_target == "transition":
        if anneal != 1.0:
            channel = (np.array(channel, dtype=np.float64) ** anneal).tolist()
        scores = [p * c for p, c in zip(probs_row, channel)]
    elif anneal_target == "product":
        scores = [p * c for p, c in zip(probs_row, channel)]
        if anneal != 1.0:
            scores = (np.array(scores) ** anneal).tolist()
    else:
        raise ParameterError(f"unknown anneal target {anneal_target!r}")
    norm = _row_sum(scores)
    if not math.isfinite(norm) or norm <= 0.0:
        raise TrainingError("sampling scores are non-finite or all zero")
    return [score / norm for score in scores]


def sampling_distribution(
    probs_row: np.ndarray,
    observed_label: int,
    counts: ConfusionCounts,
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
    probs_row = np.asarray(probs_row, dtype=np.float64)
    if probs_row.shape != (counts.n_latent,):
        raise ParameterError("probs_row must hold one probability per latent class")
    if warmup_phi is not None:
        channel = warmup_phi.matrix[:, observed_label]
    else:
        channel = conditional_transition_column(counts, prior, observed_label)
    return np.array(_distribution(probs_row.tolist(), channel.tolist(), anneal, anneal_target))


def gibbs_sample_batch(
    probs: np.ndarray,
    observed_labels: np.ndarray,
    counts: ConfusionCounts,
    prior: DirichletPrior,
    assignment: LatentAssignment,
    batch_indices: np.ndarray,
    rng: np.random.Generator,
    warmup_phi: TransitionMatrix | None = None,
    anneal: float = 1.0,
    anneal_target: str = "transition",
) -> np.ndarray:
    """Resample the latent labels of one batch, updating counts and assignment in place.

    Samples are processed sequentially: each draw removes the sample's old
    count (if assigned), scores every latent class against counts already
    updated by earlier draws in the batch, draws a new class, and books it.
    The count columns of the batch's observed labels and the row totals are
    mirrored as Python lists and written back when the batch ends, also when
    it ends on an error. The batch's uniforms are drawn up front, so a batch
    that fails part-way has consumed all of them.

    Args:
        probs: (M, R) classifier probabilities for the batch samples.
        observed_labels: (M,) observed labels of the batch samples.
        batch_indices: (M,) positions of the batch samples in `assignment`.

    Returns:
        (M,) newly sampled latent labels, in batch order.
    """
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2 or probs.shape[1] != counts.n_latent:
        raise ParameterError("probs must be (batch, n_latent)")
    if len(observed_labels) != probs.shape[0] or len(batch_indices) != probs.shape[0]:
        raise ParameterError("batch arrays must have matching lengths")
    observed_list = np.asarray(observed_labels).tolist()
    if observed_list and not 0 <= min(observed_list) <= max(observed_list) < counts.n_observed:
        raise ParameterError("observed labels out of range")
    n_latent = counts.n_latent
    uniforms = rng.random(probs.shape[0]).tolist()
    alpha = prior.concentration.tolist()
    alpha_total = prior.total
    warmup_columns = None if warmup_phi is None else warmup_phi.matrix.T.tolist()
    labels = assignment.labels
    totals = counts.row_totals.tolist()
    columns: dict[int, list] = {}
    sampled = []
    try:
        for row, observed, position, u in zip(
            probs.tolist(), observed_list, np.asarray(batch_indices).tolist(), uniforms
        ):
            column = columns.get(observed)
            if column is None:
                column = columns[observed] = counts.counts[:, observed].tolist()
            old = int(labels[position])
            if old != UNASSIGNED:
                if column[old] <= 0:
                    raise InvariantError(f"decrement of empty count cell ({old}, {observed})")
                column[old] -= 1
                totals[old] -= 1
            if warmup_columns is not None:
                channel = warmup_columns[observed]
            else:
                a = alpha[observed]
                channel = [(a + c) / (alpha_total + t) for c, t in zip(column, totals)]
            new = n_latent - 1
            cumulative = 0.0
            for r, p in enumerate(_distribution(row, channel, anneal, anneal_target)):
                cumulative += p
                if cumulative > u:
                    new = r
                    break
            column[new] += 1
            totals[new] += 1
            labels[position] = new
            sampled.append(new)
    finally:
        for observed, column in columns.items():
            counts.counts[:, observed] = column
        counts.row_totals[:] = totals
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


def _default_checkpoints(burn_in: int, sweeps: int, n_points: int = 8) -> list[int]:
    grid = np.unique(
        np.geomspace(burn_in + 1, sweeps, num=n_points).round().astype(int)
    )
    return [int(s) for s in grid]


def mixing_diagnostic(
    probs: np.ndarray,
    observed_labels: np.ndarray,
    prior: DirichletPrior,
    sweeps: int,
    burn_in: int,
    seed: int = 0,
    checkpoints: list[int] | None = None,
    initial: np.ndarray | None = None,
) -> GibbsDiagnostics:
    """Run a frozen-classifier chain and compare empirical marginals to the exact ones.

    Post-burn-in states are tallied into per-sample empirical marginals; the
    trace records (sweep, max_tv, mean_tv) at each checkpoint. With sweeps=0
    the "empirical marginal" is the point mass of the initial state.
    """
    probs = np.asarray(probs, dtype=np.float64)
    observed_labels = np.asarray(observed_labels, dtype=np.int64)
    n, n_latent = probs.shape
    if sweeps < 0 or burn_in < 0:
        raise ParameterError("sweeps and burn_in must be nonnegative")
    if sweeps > 0 and burn_in >= sweeps:
        raise ParameterError("burn_in must be smaller than sweeps")
    reference = exact_posterior_bruteforce(probs, observed_labels, prior)
    start = observed_labels if initial is None else np.asarray(initial, dtype=np.int64)
    assignment = LatentAssignment.from_labels(start)
    counts = ConfusionCounts.from_assignment(
        assignment.labels, observed_labels, n_latent, prior.n_observed
    )
    if sweeps == 0:
        empirical = np.zeros((n, n_latent))
        empirical[np.arange(n), assignment.labels] = 1.0
        tv = total_variation_rows(empirical, reference)
        return GibbsDiagnostics(
            sweeps=0,
            burn_in=burn_in,
            empirical=empirical,
            reference=reference,
            trace=[(0, float(tv.max()), float(tv.mean()))],
        )
    if checkpoints is None:
        checkpoints = _default_checkpoints(burn_in, sweeps)
    checkpoint_set = {int(c) for c in checkpoints}
    rng = np.random.default_rng(seed)
    tally = np.zeros((n, n_latent))
    trace: list[tuple[int, float, float]] = []
    all_indices = np.arange(n)
    sample_rows = np.arange(n)
    for sweep in range(1, sweeps + 1):
        gibbs_sample_batch(
            probs, observed_labels, counts, prior, assignment, all_indices, rng
        )
        if sweep > burn_in:
            tally[sample_rows, assignment.labels] += 1.0
            if sweep in checkpoint_set:
                empirical = tally / (sweep - burn_in)
                tv = total_variation_rows(empirical, reference)
                trace.append((sweep, float(tv.max()), float(tv.mean())))
    empirical = tally / (sweeps - burn_in)
    return GibbsDiagnostics(
        sweeps=sweeps,
        burn_in=burn_in,
        empirical=empirical,
        reference=reference,
        trace=trace,
    )
