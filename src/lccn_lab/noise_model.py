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

`update_bound` computes only the rows a batch touched and returns exactly
the bits of the whole-matrix numpy formula (`transition_from_counts` before
and after, differenced and summed per row) with the bound beside it, as one
(2, n_latent) array. Its pass over the touched rows, `_certificate`, also
certifies the sampler's chain and picks the row that moved most as it goes.
Each row is one call of `_certificate_kernel(W)`, source written out for W
observed labels with no loop and compiled once per width, as the sampler's
draw kernel is: the row's totals, churn and bound, its smoothed rows with
their row checks, and their L1 change. Every float sum over a row follows numpy's order:
`_row_sum` adds a row of fewer than 8 entries left to right, which is what
numpy does for such rows, and a longer row in numpy's unrolled pairwise
order, on plain floats too. Both kernels write the short sums inline and
call `_row_sum` from 8 entries up (`_sum_source`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from operator import add

import numpy as np

from .errors import InvariantError, ParameterError, check_labels

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

    Samples masked by `exclude`, a bool array of the labels' length, stay out;
    the others' labels, as many latent as observed, pass `check_labels`.
    """
    if exclude is not None:
        exclude = np.asarray(exclude)
        shapes = {exclude.shape, np.shape(labels), np.shape(observed_labels)}
        if exclude.dtype != bool or shapes != {(exclude.size,)}:
            raise ParameterError("exclude must be a bool array of the labels' length")
        keep = ~exclude
        labels, observed_labels = np.asarray(labels)[keep], np.asarray(observed_labels)[keep]
    labels = check_labels(labels, n_latent, "latent labels")
    observed_labels = check_labels(observed_labels, n_observed, "observed labels")
    if labels.size != observed_labels.size:
        raise ParameterError("latent and observed labels must have the same length")
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
    observed_labels = check_labels(observed_labels, n_observed, "observed labels")
    predictions = np.asarray(predictions, dtype=np.float64)
    if predictions.ndim != 2 or predictions.shape[0] != observed_labels.size:
        raise ParameterError("predictions must be (n, n_latent) matching observed_labels")
    k = n_observed
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
    in both rows of the result; every touched row is computed by
    `_certificate`'s pass on plain floats with numpy's arithmetic and
    summation order (see the module docstring), and its smoothed rows before
    and after must pass `check_transition`'s row check. A touched row left
    with negative mass raises `InvariantError`, before the `ParameterError`
    of any failed row check.
    """
    _check_counts(before, prior)
    if not isinstance(after, np.ndarray) or after.shape != before.shape:
        raise ParameterError("count matrices must have the same shape")
    rows = zip(range(before.shape[0]), before.tolist(), after.tolist())
    certified, _, _ = _certificate(rows, prior.concentration.tolist(), prior.total)
    certificate = np.zeros((2, before.shape[0]))
    for r, pair in certified.items():
        certificate[:, r] = pair
    return certificate


# Refusal codes of a certificate kernel, combined with `|` over a pass.
_ROW_CHECK_FAILED = 1
_NEGATIVE_MASS = 2


def _certificate(rows, alpha: list, total: float):
    """Certify (row, counts before, counts after) triples in one pass.

    Returns `certified`, the (measured, bound) of each row whose counts
    changed, by row; the (measured, bound) of the row that moved most, as
    `np.argmax` reads the whole measured row (the first of equal maxima, every
    other row reading 0.0); and whether some row moved more than its bound
    plus `BOUND_SLACK`. Each row is one call of `_certificate_kernel(W)` for
    the W entries of `alpha`, the prior's concentration. After the pass, a
    row left with negative mass raises `InvariantError`, and else a failed
    row check `ParameterError`.
    """
    kernel = _certificate_kernel(len(alpha))
    certified = {}
    refused = 0
    worst_row, worst = 0, (0.0, 0.0)
    violated = False
    for r, before, after in rows:
        if before == after:
            continue
        code, measured, bound = kernel(before, after, alpha, total)
        if code:
            refused |= code
            continue
        certified[r] = measured, bound
        violated = violated or measured > bound + BOUND_SLACK
        # Measured changes are never negative or NaN, so an untouched row 0 reading
        # 0.0 wins every tie at 0.0, as `np.argmax` would pick it.
        if measured > worst[0] or (measured == worst[0] and r <= worst_row):
            worst_row, worst = r, (measured, bound)
    if refused & _NEGATIVE_MASS:
        raise InvariantError("a batch cannot leave a row with negative mass")
    if refused:
        raise ParameterError("transition rows must be finite, nonnegative and sum to 1")
    return certified, worst, violated


_CERTIFICATE_SOURCE = """\
def certify(before, after, alpha, total):
    [{b}] = before
    [{a}] = after
    mass_after = {mass_after}
    if mass_after < 0:
        return NEGATIVE_MASS, 0.0, 0.0
    mass = {mass}
    denom = mass + total
    if denom == 0.0:  # a row of negative counts; its smoothed row has no norm either
        return ROW_CHECK_FAILED, 0.0, 0.0
    net = mass_after - mass
    churn = {churn}
    net_ratio = net / denom
    shrink = 1.0 + net_ratio
    if shrink > 0.0:
        bound = (abs(net_ratio) + churn / denom) / shrink
    else:
        # Under a tiny prior a batch that empties a row makes d / D = -n / (n + total)
        # round to -1; such rows take the equal form over the row's mass after the
        # batch, which may overflow to inf but never undercuts the measured change.
        bound = (abs(net) + churn) / (mass_after + total)
    [{k}] = alpha
{smooth_before}
{smooth_after}
    return 0, {measured}, bound
"""

_SMOOTH_SOURCE = """\
{n}
norm = {norm}
if norm == 0.0:
    return ROW_CHECK_FAILED, 0.0, bound
{divide}
# A NaN entry fails the sum test, so the sign test may let NaN through.
if not abs({row_sum} - 1.0) <= ROW_SUM_TOL or {negative}:
    return ROW_CHECK_FAILED, 0.0, bound
"""


def _sum_source(terms: list[str]) -> str:
    """Source of the float sum of `terms` with `_row_sum`'s bits: inline below 8 terms."""
    if len(terms) >= _NUMPY_UNROLL:
        return f"_row_sum([{', '.join(terms)}])"
    return " + ".join(["0.0", *terms])


@functools.lru_cache(maxsize=None)
def _certificate_kernel(width: int):
    """`certify(before, after, alpha, total)`: one count row's certificate, W = width.

    `_CERTIFICATE_SOURCE` written out for W observed labels, with no loop,
    on the row's counts before and after, the prior's concentration `alpha`
    and its `total`. It returns (code, measured, bound): code 0 is a
    certified row; `_NEGATIVE_MASS` a row left with negative mass, before
    anything else is computed; `_ROW_CHECK_FAILED` a row whose smoothed row
    before or after (`transition_from_counts`'s) fails `check_transition`'s
    row check. Float sums take `_row_sum`'s
    order (`_sum_source`); integer ones are exact in any order. It is
    compiled at first use, as `sampler._draw_kernel` is.
    """
    js = range(width)

    def smooth(counts: str, out: str) -> str:
        block = _SMOOTH_SOURCE.format(
            n="\n".join(f"n{j} = {counts}{j} + k{j}" for j in js),
            norm=_sum_source([f"n{j}" for j in js]),
            divide="\n".join(f"{out}{j} = n{j} / norm" for j in js),
            row_sum=_sum_source([f"{out}{j}" for j in js]),
            negative=" or ".join(f"{out}{j} < 0.0" for j in js),
        )
        return "\n".join("    " + line for line in block.splitlines())

    source = _CERTIFICATE_SOURCE.format(
        b=", ".join(f"b{j}" for j in js),
        a=", ".join(f"a{j}" for j in js),
        mass=" + ".join(f"b{j}" for j in js),
        mass_after=" + ".join(f"a{j}" for j in js),
        churn=" + ".join(f"abs(a{j} - b{j})" for j in js),
        k=", ".join(f"k{j}" for j in js),
        smooth_before=smooth("b", "p"),
        smooth_after=smooth("a", "q"),
        measured=_sum_source([f"abs(q{j} - p{j})" for j in js]),
    )
    namespace = {
        "NEGATIVE_MASS": _NEGATIVE_MASS, "ROW_CHECK_FAILED": _ROW_CHECK_FAILED,
        "ROW_SUM_TOL": ROW_SUM_TOL, "_row_sum": _row_sum,
    }
    exec(compile(source, f"<noise_model._certificate_kernel({width})>", "exec"), namespace)
    return namespace["certify"]
