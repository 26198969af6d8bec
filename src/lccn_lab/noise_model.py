"""Dirichlet-multinomial model of the latent-class to observed-label channel.

The channel is summarized by a count matrix over (latent class, observed
label) pairs: a plain int64 ndarray of shape (n_latent, n_observed), built by
`confusion_counts` and updated in place by the sampler. No row totals are
cached; whoever needs them sums the rows, which is exact for integers in any
order. A Dirichlet prior over each latent class's row yields closed
forms for the smoothed transition estimate, the leave-one-out predictive
probability used by the collapsed Gibbs sampler, and a per-batch bound on how
far one batch of reassignments can move any transition row.

`update_bound` computes only the rows a batch touched, on plain Python
floats, and returns exactly the bits of the whole-matrix numpy formula
(`transition_from_counts` before and after, differenced and summed per row).
Sums over a row follow numpy's order: a row of fewer than 8 entries is summed
left to right from -0.0, which is what numpy does for such rows, and a row
of 8 or more entries goes through numpy's own (unrolled, pairwise)
reduction. `_row_sum` and `_row_sums` hold that rule for this module and the
sampler.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvariantError, ParameterError

ROW_SUM_TOL = 1e-9
# numpy sums a row of fewer entries than this left to right; longer rows take
# its unrolled pairwise order, which a plain loop does not reproduce.
_NUMPY_UNROLL = 8


def _row_sum(values: list) -> float:
    """Sum of one row with the bits numpy's `sum` over that row gives."""
    if len(values) >= _NUMPY_UNROLL:
        return float(np.array(values, dtype=np.float64).sum())
    total = -0.0
    for value in values:
        total += value
    return total


def _row_sums(rows: list[list]) -> list[float]:
    """`_row_sum` of equally long rows, with one numpy call for rows of numpy's width."""
    if rows and len(rows[0]) >= _NUMPY_UNROLL:
        return np.array(rows, dtype=np.float64).sum(axis=1).tolist()
    return [_row_sum(row) for row in rows]


@dataclass(frozen=True)
class DirichletPrior:
    """Per-observed-class concentration of the row-wise Dirichlet prior.

    `concentration` is a read-only copy, so its sum `total` is taken once.
    """

    concentration: np.ndarray
    total: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        concentration = np.array(self.concentration, dtype=np.float64)
        if concentration.ndim != 1 or concentration.size < 1:
            raise ParameterError("concentration must be a non-empty vector")
        if not np.all(np.isfinite(concentration) & (concentration > 0.0)):
            raise ParameterError(
                "concentration entries must be finite and strictly positive, "
                f"got {concentration.tolist()}"
            )
        concentration.setflags(write=False)
        object.__setattr__(self, "concentration", concentration)
        object.__setattr__(self, "total", float(concentration.sum()))

    @classmethod
    def uniform(cls, n_observed: int, value: float = 1.0) -> "DirichletPrior":
        return cls(np.full(n_observed, float(value)))

    @property
    def n_observed(self) -> int:
        return self.concentration.size


def confusion_counts(
    labels: np.ndarray,
    observed_labels: np.ndarray,
    n_latent: int,
    n_observed: int,
    exclude: np.ndarray | None = None,
) -> np.ndarray:
    """(n_latent, n_observed) int64 tally of latent label (row) vs observed label (column).

    Unassigned samples (negative labels) and those masked by `exclude` stay out.
    """
    counts = np.zeros((n_latent, n_observed), dtype=np.int64)
    keep = labels >= 0
    if exclude is not None:
        keep &= ~exclude
    np.add.at(counts, (labels[keep], observed_labels[keep]), 1)
    return counts


def _check_counts(counts, prior: DirichletPrior) -> None:
    """A count matrix must be a 2-d ndarray with one column per prior entry."""
    if not isinstance(counts, np.ndarray) or counts.ndim != 2:
        raise ParameterError("counts must be a 2-d count matrix (n_latent, n_observed)")
    if prior.n_observed != counts.shape[1]:
        raise ParameterError("prior size must match the observed-label count")


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


def transition_from_counts(counts: np.ndarray, prior: DirichletPrior) -> TransitionMatrix:
    """Row-normalized transition estimate from the current counts.

    The prior concentration is added to every cell before normalizing, so
    rows are always well defined.
    """
    _check_counts(counts, prior)
    numer = counts + prior.concentration
    return TransitionMatrix(numer / numer.sum(axis=1, keepdims=True))


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


def conditional_transition_column(
    counts: np.ndarray, prior: DirichletPrior, observed: int
) -> np.ndarray:
    """Leave-one-out predictive probability of `observed` under every latent class.

    `counts` must already exclude the sample being resampled.
    """
    _check_counts(counts, prior)
    return (prior.concentration[observed] + counts[:, observed]) / (
        prior.total + counts.sum(axis=1)
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
    before: np.ndarray, after: np.ndarray, prior: DirichletPrior
) -> TransitionUpdateBound:
    """Bound and measure the per-row L1 change of the smoothed transition between two states.

    The bound divides by row total plus prior total, so it certifies only the
    smoothed (posterior-mean) estimator that the latent trainers use. Rows the
    batch did not touch get exactly 0.0 everywhere except `row_count_before`;
    every touched row is computed from plain floats with numpy's arithmetic
    and summation order (see the module docstring), and its smoothed rows
    before and after must pass the same row-stochastic check as a
    `TransitionMatrix`.
    """
    _check_counts(before, prior)
    if not isinstance(after, np.ndarray) or after.shape != before.shape:
        raise ParameterError("count matrices must have the same shape")
    alpha = prior.concentration.tolist()
    total = prior.total
    rows_before, rows_after = before.tolist(), after.tolist()
    # Integer sums are exact in any order, so totals and deltas need no numpy reduction.
    totals_before = [sum(row) for row in rows_before]
    touched = [r for r, (b, a) in enumerate(zip(rows_before, rows_after)) if b != a]
    rows_before = [rows_before[r] for r in touched]
    rows_after = [rows_after[r] for r in touched]
    deltas = [[a - b for a, b in zip(row_a, row_b)] for row_a, row_b in zip(rows_after, rows_before)]
    nets = [sum(delta) for delta in deltas]
    churns = [sum(abs(d) for d in delta) for delta in deltas]
    denoms = [totals_before[r] + total for r in touched]
    net_ratios = [net / denom for net, denom in zip(nets, denoms)]
    abs_ratios = [churn / denom for churn, denom in zip(churns, denoms)]
    totals_after = None  # needed only where a row loses its whole mass, or more
    if not all(1.0 + ratio > 0.0 for ratio in net_ratios):
        totals_after = after.sum(axis=1).tolist()
        if any(t < 0 for t in totals_after):
            raise InvariantError("net count change cannot remove more mass than a row holds")
    bounds = []
    for r, net, churn, net_ratio, abs_ratio in zip(touched, nets, churns, net_ratios, abs_ratios):
        shrink = 1.0 + net_ratio
        if shrink > 0.0:
            bounds.append((abs(net_ratio) + abs_ratio) / shrink)
        else:
            # Under a tiny prior a batch that empties a row makes net_ratio = -n / (n + total)
            # round to -1; such rows take the equal form over the row's mass after the
            # batch, which may overflow to inf but never undercuts the measured change.
            bounds.append((abs(net) + churn) / (totals_after[r] + total))
    # Before and after rows share each row-sum pass: a row's sum does not depend on its neighbours.
    phi = _smoothed_rows(rows_before + rows_after, alpha)
    phi_before, phi_after = phi[: len(touched)], phi[len(touched) :]
    moved = _row_sums(
        [[abs(a - b) for a, b in zip(row_a, row_b)] for row_a, row_b in zip(phi_after, phi_before)]
    )
    # One row per TransitionUpdateBound field, in declaration order.
    values = np.zeros((7, len(totals_before)))
    values[0] = totals_before
    values[1:, touched] = [nets, churns, net_ratios, abs_ratios, bounds, moved]
    return TransitionUpdateBound(*values)


def _smoothed_rows(count_rows: list[list], alpha: list) -> list[list[float]]:
    """Rows of `transition_from_counts`, held to the `TransitionMatrix` row check."""
    numers = [[c + a for c, a in zip(row, alpha)] for row in count_rows]
    norms = _row_sums(numers)
    if 0.0 in norms:
        raise ParameterError("transition rows must be nonnegative and sum to 1")
    rows = [[x / norm for x in numer] for numer, norm in zip(numers, norms)]
    if any(abs(total - 1.0) > ROW_SUM_TOL for total in _row_sums(rows)) or any(
        x < 0.0 for row in rows for x in row
    ):
        raise ParameterError("transition rows must be nonnegative and sum to 1")
    return rows
