"""Dirichlet-multinomial model of the latent-class to observed-label channel.

The channel is summarized by a count matrix over (latent class, observed
label) pairs: a plain int64 ndarray of shape (n_latent, n_observed), built by
`confusion_counts` and updated in place by the sampler. No row totals are
cached; whoever needs them sums the rows, which is exact for integers in any
order. A transition estimate is a plain float64 ndarray of the same shape
whose rows `check_transition` has held to the row-stochastic check. A
Dirichlet prior over each latent class's row yields closed forms for the
smoothed transition estimate, the leave-one-out predictive probability used
by the collapsed Gibbs sampler, and a per-batch bound on how far one batch
of reassignments can move any transition row.

`update_bound` computes only the rows a batch touched, one pass per row on
plain Python lists, and returns exactly the bits of the whole-matrix numpy
formula (`transition_from_counts` before and after, differenced and summed per
row) with the bound beside it, as one (2, n_latent) array. Its row pass,
`_certificate`, also certifies the sampler's chain from the rows it touched.
Every float sum over a row follows numpy's order: `_row_sum` adds a row of
fewer than 8 entries left to right, which is what numpy does for such rows,
and a longer row in numpy's unrolled pairwise order, on plain floats too.
The sampler's rows of 8 or more scores use it too, and its loop over fewer
scores sums them as it goes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import add, sub

import numpy as np

from .errors import InvariantError, ParameterError

ROW_SUM_TOL = 1e-9
# How far a measured row change may exceed its update bound: float rounding.
BOUND_SLACK = 1e-12
# numpy sums a row of fewer entries than this left to right; longer rows take
# its unrolled pairwise order (`_pairwise_sum`).
_NUMPY_UNROLL = 8


def _row_sum(values: list) -> float:
    """Sum of one row with the bits numpy's `sum` over that row gives.

    numpy adds the row's sum to 0.0, so a short row is summed left to right
    from 0.0 (an all -0.0 row sums to 0.0), and a row of 8 or more entries
    in `_pairwise_sum`'s order. Never builtin `sum()`: from Python 3.12 it
    compensates float sums.
    """
    if len(values) >= _NUMPY_UNROLL:
        return 0.0 + _pairwise_sum(values, 0, len(values))
    total = 0.0
    for value in values:
        total += value
    return total


def _pairwise_sum(values: list, start: int, stop: int) -> float:
    """numpy's pairwise sum of values[start:stop], at least 8 of them.

    Up to 128 values, 8 accumulators each add every eighth one and the last
    n % 8 follow in order; more are split in halves, the first 8-aligned.
    """
    n = stop - start
    if n > 128:
        half = start + n // 2 - n // 2 % 8
        return _pairwise_sum(values, start, half) + _pairwise_sum(values, half, stop)
    tail = stop - n % 8
    r = values[start : start + 8]
    for i in range(start + 8, tail, 8):
        r = list(map(add, r, values[i : i + 8]))
    total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for value in values[tail:stop]:
        total += value
    return total


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

    Samples masked by `exclude` stay out; every other label must lie in its range.
    """
    if exclude is not None:
        labels, observed_labels = labels[~exclude], observed_labels[~exclude]
    ranges = (("latent", labels, n_latent), ("observed", observed_labels, n_observed))
    for what, values, size in ranges:
        if values.size and not 0 <= values.min() <= values.max() < size:
            raise ParameterError(f"{what} labels must lie in [0, {size})")
    counts = np.zeros((n_latent, n_observed), dtype=np.int64)
    np.add.at(counts, (labels, observed_labels), 1)
    return counts


def _check_counts(counts, prior: DirichletPrior) -> None:
    """A count matrix must be a 2-d ndarray with one column per prior entry."""
    if not isinstance(counts, np.ndarray) or counts.ndim != 2:
        raise ParameterError("counts must be a 2-d count matrix (n_latent, n_observed)")
    if prior.n_observed != counts.shape[1]:
        raise ParameterError("prior size must match the observed-label count")


def check_transition(values) -> np.ndarray:
    """values as a float64 row-stochastic matrix, P(observed label | latent class)."""
    matrix = np.asarray(values, dtype=np.float64)
    if matrix.ndim != 2:
        raise ParameterError("transition matrix must be 2-d")
    row_sums = matrix.sum(axis=1)
    # Written so that a NaN entry fails: every comparison with NaN is False.
    if not (np.all(np.abs(row_sums - 1.0) <= ROW_SUM_TOL) and np.all(matrix >= 0.0)):
        raise ParameterError("transition rows must be finite, nonnegative and sum to 1")
    return matrix


def transition_from_counts(counts: np.ndarray, prior: DirichletPrior) -> np.ndarray:
    """Row-normalized transition estimate from the current counts.

    The prior concentration is added to every cell before normalizing, so
    rows are always well defined.
    """
    _check_counts(counts, prior)
    numer = counts + prior.concentration
    return check_transition(numer / numer.sum(axis=1, keepdims=True))


def warmup_transition(
    predictions: np.ndarray, observed_labels: np.ndarray, n_observed: int
) -> np.ndarray:
    """Prediction-weighted transition estimate used before counts are trustworthy.

    Cell (r, k) is the prediction mass for latent class r among samples
    observed as k, normalized by the total prediction mass for class r.
    Rows whose total mass is numerically zero fall back to uniform.
    """
    predictions = np.asarray(predictions, dtype=np.float64)
    observed_labels = np.asarray(observed_labels, dtype=np.int64)
    if predictions.ndim != 2 or predictions.shape[0] != observed_labels.size:
        raise ParameterError("predictions must be (n, n_latent) matching observed_labels")
    k = n_observed
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
    return check_transition(matrix)


def update_bound(before: np.ndarray, after: np.ndarray, prior: DirichletPrior) -> np.ndarray:
    """Per-row L1 change of the smoothed transition between two states, and its bound.

    Returns one (2, n_latent) float64 array whose rows are (measured, bound).
    A row's count totals n before and n' after, its net count change
    d = n' - n and its absolute change c (summed over the row's cells) give
    bound (|d| + c) / (n' + prior total), computed as (|d / D| + c / D) /
    (1 + d / D) with D = n + prior total. The bound divides by the prior
    total, so it certifies only the smoothed (posterior-mean) estimator that
    the latent trainers use. Rows the batch did not touch read exactly 0.0
    in both rows of the result; every touched row is computed in one pass on
    plain floats with numpy's arithmetic and summation order (see the module
    docstring), and its smoothed rows before and after must pass
    `check_transition`'s row check. A touched row left with negative mass
    raises `InvariantError`, before the `ParameterError` of any failed row
    check.
    """
    _check_counts(before, prior)
    if not isinstance(after, np.ndarray) or after.shape != before.shape:
        raise ParameterError("count matrices must have the same shape")
    rows = zip(range(before.shape[0]), before.tolist(), after.tolist())
    return np.array(_certificate(rows, before.shape[0], prior))


def _certificate(rows, n_rows: int, prior: DirichletPrior) -> tuple[list, list]:
    """`update_bound`'s rows as lists, from (row, counts before, counts after) triples.

    The lists have `n_rows` entries; a row not given reads 0.0 in both.
    """
    alpha = prior.concentration.tolist()
    total = prior.total
    measured = [0.0] * n_rows
    bound = [0.0] * n_rows
    negative_mass = row_check_failed = False
    for r, row_before, row_after in rows:
        if row_before == row_after:
            continue
        # Integer sums are exact in any order, so totals and deltas need no numpy order.
        mass, mass_after = sum(row_before), sum(row_after)
        if mass_after < 0:
            negative_mass = True
            continue
        net = mass_after - mass
        churn = sum(map(abs, map(sub, row_after, row_before)))
        denom = mass + total
        if denom == 0.0:  # a row of negative counts; its smoothed row has no norm either
            row_check_failed = True
            continue
        net_ratio = net / denom
        shrink = 1.0 + net_ratio
        if shrink > 0.0:
            bound[r] = (abs(net_ratio) + churn / denom) / shrink
        else:
            # Under a tiny prior a batch that empties a row makes d / D = -n / (n + total)
            # round to -1; such rows take the equal form over the row's mass after the
            # batch, which may overflow to inf but never undercuts the measured change.
            bound[r] = (abs(net) + churn) / (mass_after + total)
        phi_before = _smoothed_row(row_before, alpha)
        phi_after = _smoothed_row(row_after, alpha)
        if phi_before is None or phi_after is None:
            row_check_failed = True
        else:
            measured[r] = _row_sum(list(map(abs, map(sub, phi_after, phi_before))))
    if negative_mass:
        raise InvariantError("a batch cannot leave a row with negative mass")
    if row_check_failed:
        raise ParameterError("transition rows must be finite, nonnegative and sum to 1")
    return measured, bound


def _worst_certified_row(measured: list[float], bound: list[float]) -> tuple[float, float]:
    """(measured, bound) of the row that moved most (the first of equal rows, as `np.argmax`).

    Raises `InvariantError` when some row exceeds its bound.
    """
    if any(m > b + BOUND_SLACK for m, b in zip(measured, bound)):
        raise InvariantError("transition row moved beyond the per-batch update bound")
    worst = measured.index(max(measured))
    return measured[worst], bound[worst]


def _smoothed_row(count_row: list, alpha: list) -> list[float] | None:
    """One row of `transition_from_counts`, or None where `check_transition` would refuse it."""
    numer = list(map(add, count_row, alpha))
    norm = _row_sum(numer)
    if norm == 0.0:
        return None
    row = [x / norm for x in numer]
    # A NaN entry fails the sum test, so `min` may ignore NaN in the sign test.
    if not abs(_row_sum(row) - 1.0) <= ROW_SUM_TOL or min(row) < 0.0:
        return None
    return row
