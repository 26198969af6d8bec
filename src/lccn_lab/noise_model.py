"""Dirichlet-multinomial model of the latent-class to observed-label channel.

The channel is summarized by a count matrix over (latent class, observed
label) pairs. A Dirichlet prior over each latent class's row yields closed
forms for the smoothed transition estimate, the leave-one-out predictive
probability used by the collapsed Gibbs sampler, and a per-batch bound on how
far one batch of reassignments can move any transition row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantError, ParameterError

ROW_SUM_TOL = 1e-9


@dataclass(frozen=True)
class DirichletPrior:
    """Per-observed-class concentration of the row-wise Dirichlet prior."""

    concentration: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "concentration", np.asarray(self.concentration, dtype=np.float64)
        )
        if self.concentration.ndim != 1 or self.concentration.size < 1:
            raise ParameterError("concentration must be a non-empty vector")
        if np.any(self.concentration <= 0.0):
            raise ParameterError("concentration entries must be strictly positive")

    @classmethod
    def uniform(cls, n_observed: int, value: float = 1.0) -> "DirichletPrior":
        return cls(np.full(n_observed, float(value)))

    @property
    def total(self) -> float:
        return float(self.concentration.sum())

    @property
    def n_observed(self) -> int:
        return self.concentration.size


@dataclass
class ConfusionCounts:
    """Integer co-occurrence counts of latent class (row) vs observed label (column)."""

    counts: np.ndarray
    row_totals: np.ndarray

    @classmethod
    def zeros(cls, n_latent: int, n_observed: int) -> "ConfusionCounts":
        return cls(
            counts=np.zeros((n_latent, n_observed), dtype=np.int64),
            row_totals=np.zeros(n_latent, dtype=np.int64),
        )

    @classmethod
    def from_assignment(
        cls,
        assignment: np.ndarray,
        observed_labels: np.ndarray,
        n_latent: int,
        n_observed: int,
        exclude: np.ndarray | None = None,
    ) -> "ConfusionCounts":
        """Tally all assigned samples; `exclude` masks samples kept out of the counts."""
        out = cls.zeros(n_latent, n_observed)
        keep = assignment >= 0
        if exclude is not None:
            keep &= ~exclude
        np.add.at(out.counts, (assignment[keep], observed_labels[keep]), 1)
        out.row_totals = out.counts.sum(axis=1)
        return out

    @property
    def n_latent(self) -> int:
        return self.counts.shape[0]

    @property
    def n_observed(self) -> int:
        return self.counts.shape[1]

    def copy(self) -> "ConfusionCounts":
        return ConfusionCounts(self.counts.copy(), self.row_totals.copy())

    def increment(self, latent: int, observed: int) -> None:
        self.counts[latent, observed] += 1
        self.row_totals[latent] += 1

    def decrement(self, latent: int, observed: int) -> None:
        if self.counts[latent, observed] <= 0:
            raise InvariantError(
                f"decrement of empty count cell ({latent}, {observed})"
            )
        self.counts[latent, observed] -= 1
        self.row_totals[latent] -= 1

    def check_consistent(self) -> None:
        if np.any(self.counts < 0):
            raise InvariantError("negative confusion count")
        if np.any(self.row_totals != self.counts.sum(axis=1)):
            raise InvariantError("row_totals cache out of sync with counts")


@dataclass
class TransitionMatrix:
    """Row-stochastic matrix: P(observed label | latent class)."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        self.matrix = np.asarray(self.matrix, dtype=np.float64)
        if self.matrix.ndim != 2:
            raise ParameterError("transition matrix must be 2-d")
        row_sums = self.matrix.sum(axis=1)
        if np.any(np.abs(row_sums - 1.0) > ROW_SUM_TOL) or np.any(self.matrix < 0.0):
            raise ParameterError("transition rows must be nonnegative and sum to 1")

    @property
    def n_latent(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_observed(self) -> int:
        return self.matrix.shape[1]


def transition_from_counts(
    counts: ConfusionCounts, prior: DirichletPrior, smoothed: bool = True
) -> TransitionMatrix:
    """Row-normalized transition estimate from the current counts.

    The default adds the prior concentration to every cell before normalizing,
    so rows are always well defined. With smoothed=False the raw counts are
    normalized and empty rows fall back to the normalized prior.
    """
    if prior.n_observed != counts.n_observed:
        raise ParameterError("prior size must match the observed-label count")
    alpha = prior.concentration
    if smoothed:
        numer = counts.counts + alpha
        return TransitionMatrix(numer / numer.sum(axis=1, keepdims=True))
    matrix = np.empty(counts.counts.shape, dtype=np.float64)
    empty = counts.row_totals == 0
    matrix[~empty] = counts.counts[~empty] / counts.row_totals[~empty, None]
    matrix[empty] = alpha / prior.total
    return TransitionMatrix(matrix)


def warmup_transition(
    predictions: np.ndarray, observed_labels: np.ndarray, n_observed: int | None = None
) -> TransitionMatrix:
    """Prediction-weighted transition estimate used before counts are trustworthy.

    Cell (r, k) is the prediction mass for latent class r among samples
    observed as k, normalized by the total prediction mass for class r.
    Rows whose total mass is numerically zero fall back to uniform.
    """
    predictions = np.asarray(predictions, dtype=np.float64)
    observed_labels = np.asarray(observed_labels, dtype=np.int64)
    if predictions.ndim != 2 or predictions.shape[0] != observed_labels.size:
        raise ParameterError("predictions must be (n, n_latent) matching observed_labels")
    k = int(n_observed) if n_observed is not None else int(observed_labels.max()) + 1
    if np.any((observed_labels < 0) | (observed_labels >= k)):
        raise ParameterError("observed labels out of range")
    onehot = np.zeros((observed_labels.size, k))
    onehot[np.arange(observed_labels.size), observed_labels] = 1.0
    numer = predictions.T @ onehot
    denom = predictions.sum(axis=0)
    matrix = np.empty_like(numer)
    degenerate = denom < 1e-12
    matrix[~degenerate] = numer[~degenerate] / denom[~degenerate, None]
    matrix[degenerate] = 1.0 / k
    return TransitionMatrix(matrix)


def conditional_transition(
    counts: ConfusionCounts, prior: DirichletPrior, latent: int, observed: int
) -> float:
    """Leave-one-out predictive probability of `observed` under latent class `latent`.

    `counts` must already exclude the sample being resampled.
    """
    alpha = prior.concentration
    return float(
        (alpha[observed] + counts.counts[latent, observed])
        / (prior.total + counts.row_totals[latent])
    )


def conditional_transition_column(
    counts: ConfusionCounts, prior: DirichletPrior, observed: int
) -> np.ndarray:
    """conditional_transition for every latent class at once."""
    alpha = prior.concentration
    return (alpha[observed] + counts.counts[:, observed]) / (
        prior.total + counts.row_totals
    )


@dataclass
class TransitionUpdateBound:
    """Per-row certificate for how far one batch moved the smoothed transition.

    For each latent row: row_count_before is the pre-batch count total,
    net_change / abs_change are the signed and absolute count deltas, and the
    measured L1 row variation is guaranteed to be at most
    (|net_ratio| + abs_ratio) / (1 + net_ratio), which equals
    (|net_change| + abs_change) / (row total after + prior total).
    """

    row_count_before: np.ndarray
    net_change: np.ndarray
    abs_change: np.ndarray
    net_ratio: np.ndarray
    abs_ratio: np.ndarray
    bound: np.ndarray
    measured: np.ndarray


def update_bound(
    before: ConfusionCounts, after: ConfusionCounts, prior: DirichletPrior
) -> TransitionUpdateBound:
    """Bound and measure the per-row L1 change of the smoothed transition between two states.

    The bound divides by row total plus prior total, so it certifies only the
    smoothed (posterior-mean) estimator that the latent trainers use.
    """
    if before.counts.shape != after.counts.shape:
        raise ParameterError("count matrices must have the same shape")
    delta = after.counts - before.counts
    net_change = delta.sum(axis=1).astype(np.float64)
    abs_change = np.abs(delta).sum(axis=1).astype(np.float64)
    denom = before.row_totals + prior.total
    net_ratio = net_change / denom
    abs_ratio = abs_change / denom
    shrink = 1.0 + net_ratio
    if np.all(shrink > 0.0):
        bound = (np.abs(net_ratio) + abs_ratio) / shrink
    elif np.any(after.row_totals < 0):
        raise InvariantError("net count change cannot remove more mass than a row holds")
    else:
        # Under a tiny prior a batch that empties a row makes net_ratio = -n / (n + total)
        # round to -1; such rows take the equal form over the row's mass after the
        # batch, which may overflow to inf but never undercuts the measured change.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            exact = (np.abs(net_change) + abs_change) / (after.row_totals + prior.total)
            bound = np.where(shrink > 0.0, (np.abs(net_ratio) + abs_ratio) / shrink, exact)
    phi_before = transition_from_counts(before, prior).matrix
    phi_after = transition_from_counts(after, prior).matrix
    measured = np.abs(phi_after - phi_before).sum(axis=1)
    return TransitionUpdateBound(
        row_count_before=before.row_totals.astype(np.float64),
        net_change=net_change,
        abs_change=abs_change,
        net_ratio=net_ratio,
        abs_ratio=abs_ratio,
        bound=bound,
        measured=measured,
    )
