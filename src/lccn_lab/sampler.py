"""Collapsed Gibbs sampling of latent true labels, plus exact references.

Each sample's latent label is resampled from the product of two factors: the
classifier's probability for that class, and the leave-one-out predictive
probability of the observed label given the class (from the Dirichlet-
multinomial channel). Enumerating all joint assignments, each weighted from
log rising factorials, gives an exact posterior for small instances, used to
validate the chain. The chain's state is two plain arrays, both updated in
place: the int64 latent label of every sample, which every sample always
holds (a chain starts from the observed labels), and the count matrix of
`noise_model.confusion_counts`. A warmup channel is a plain array of the
count matrix's shape (`check_transition`). Annealing raises the channel
factor alone, never the classifier's, to a plain exponent `anneal` in
[0, inf): 1 is the collapsed posterior and 0 follows the classifier. The
trainers' schedule of that exponent is `trainers._anneal`.

`sampling_distribution` is the one-draw reference; its scores come from
`_scores`. A `GibbsChain` runs the same chain on plain Python floats with
its own copy of that arithmetic, written out inside its draw loop, and its
`step` is bit-identical to replaying the reference draw by draw
(`np.cumsum`/`np.searchsorted` on its output against one scalar
`rng.random()` each): the same labels, the same counts and the same
generator state after the batch. The two score paths share no code, so the
replay property checks one against the other. A plan draws the uniforms of
an epoch, a sweep or a batch with one `rng.random(M)` call (the same doubles
as M scalar calls); each draw builds its score list and sum in the loop and
walks the CDF with `cumulative += score / norm`. Score sums follow numpy's
order (see `noise_model`): for fewer than 8 latent classes the loop that
builds the scores adds them up left to right from 0.0 as it goes, and from
8 on `_row_sum` sums the list again in numpy's pairwise order.
`gibbs_sample_batch` is one plan and one step of a chain built for one batch.

The count channel `(a + c) / (A + t)` of a draw depends only on its
(observed label, old label) pair and on the counts. The chain keeps those
columns, exactly the floats the draw would compute, across its batches (the
latent trainers and `mixing_diagnostic` each hold one chain), so a draw that
keeps its label is two list lookups, the scores and the CDF walk, with no
count arithmetic. A move changes two cells and two row totals: it recomputes
the two classes' entries of every kept column and drops the column of a cell
it emptied, as SparseLDA (Yao, Mimno and McCallum, 2009) updates its
count-only coefficients. The chain also keeps each count row its last step
touched as it was before, so `GibbsChain.certify` gives
`noise_model.update_bound`'s certificate from those rows alone. An exponent
other than 1 always goes through numpy's `**`, whose vectorized power may
round differently from Python's; an annealed batch raises each pair's base
column (kept or warmup) once and reuses it until a draw moves a label.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvariantError, ParameterError, TrainingError, check_type
from .noise_model import (
    _NUMPY_UNROLL,
    DirichletPrior,
    _certificate,
    _check_counts,
    _row_sum,
    _worst_certified_row,
    confusion_counts,
)

_SCORE_ERROR = "sampling scores are non-finite or all zero"


def _scores(
    row: list, a: float, column: list, totals: list, alpha_total: float,
    warmup: list | None, anneal: float,
) -> tuple[list[float], float]:
    """Unnormalized scores of one reference draw and their sum, which must be finite and positive.

    A score is a classifier probability times the channel: the warmup column if
    given, else the count column (a + c) / (alpha_total + t). `anneal` tempers
    the channel alone, through numpy's `**`. The loop that builds the scores
    adds them up left to right from 0.0, which is `_row_sum` of a row of fewer
    than `_NUMPY_UNROLL` entries; a wider row is summed again by `_row_sum`.
    """
    channel = warmup
    if channel is None:
        channel = [(a + c) / (alpha_total + t) for c, t in zip(column, totals)]
    if anneal != 1.0:
        channel = (np.array(channel, dtype=np.float64) ** anneal).tolist()
    scores = []
    norm = 0.0
    for p, c in zip(row, channel):
        score = p * c
        scores.append(score)
        norm += score
    if len(scores) >= _NUMPY_UNROLL:
        norm = _row_sum(scores)
    if not 0.0 < norm < math.inf:  # also False for NaN
        raise TrainingError(_SCORE_ERROR)
    return scores, norm


def _check_anneal(anneal: float) -> None:
    if not 0.0 <= check_type(anneal, "float", "anneal") < math.inf:  # also False for NaN
        raise ParameterError(f"anneal must be finite and >= 0, got {anneal!r}")


def _check_warmup(warmup_phi, counts: np.ndarray) -> np.ndarray | None:
    """The warmup channel as a float64 array of the counts' shape, or None."""
    if warmup_phi is None:
        return None
    try:
        warmup_phi = np.asarray(warmup_phi, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"warmup_phi must be an array of floats: {exc}") from None
    if warmup_phi.shape != counts.shape:
        raise ParameterError(f"warmup_phi has shape {warmup_phi.shape}, the counts {counts.shape}")
    return warmup_phi


def sampling_distribution(
    probs_row: np.ndarray,
    observed_label: int,
    counts: np.ndarray,
    prior: DirichletPrior,
    warmup_phi: np.ndarray | None = None,
    anneal: float = 1.0,
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
    if not 0 <= check_type(observed_label, "int", "observed_label") < counts.shape[1]:
        raise ParameterError("observed label out of range")
    _check_anneal(anneal)
    warmup_phi = _check_warmup(warmup_phi, counts)
    scores, norm = _scores(
        probs_row.tolist(), float(prior.concentration[observed_label]),
        counts[:, observed_label].tolist(), counts.sum(axis=1).tolist(), prior.total,
        None if warmup_phi is None else warmup_phi[:, observed_label].tolist(),
        anneal,
    )
    return np.array([score / norm for score in scores])


class GibbsChain:
    """One collapsed Gibbs chain over the samples, with what its draws keep between batches.

    The chain owns the latent `labels` (mirrored as the list `latent`) and
    the `counts` it is built with (both updated in place, by the chain
    alone), the prior and the warmup channel's columns, and checks them
    once, here. `columns` and `totals` mirror the counts as column lists
    with row totals. `channels[observed][old]` is None or, for a nonempty
    cell, the count channel `(a + c) / (A + t)` that a sample in that cell
    scores against once its own count is removed. `before` holds each count
    row that the last `step` moved a label into or out of, as it was before
    that step. `draws` holds the plan's (observed label, position, uniform)
    triples, and `cursor` how many of them the steps have taken.
    """

    def __init__(
        self, labels: np.ndarray, counts: np.ndarray, prior: DirichletPrior,
        warmup_phi: np.ndarray | None = None,
    ) -> None:
        _check_counts(counts, prior)
        if not isinstance(labels, np.ndarray) or labels.ndim != 1 or labels.dtype.kind not in "iu":
            raise ParameterError("labels must be a 1-d integer array")
        # A negative label would index the count column from its end.
        outside = np.flatnonzero((labels < 0) | (labels >= counts.shape[0]))
        if outside.size:
            i = outside[0]
            raise InvariantError(f"latent label {labels[i]} of sample {i} is no latent class")
        warmup_phi = _check_warmup(warmup_phi, counts)
        self.labels, self.counts, self.prior = labels, counts, prior
        self.latent = labels.tolist()
        self.alpha = prior.concentration.tolist()
        self.warmup_columns = None if warmup_phi is None else warmup_phi.T.tolist()
        self.columns = counts.T.tolist()
        self.totals = [sum(row) for row in zip(*self.columns)]
        self.channels: list[list] = [[None] * len(self.totals) for _ in self.columns]
        self.before: dict[int, list] = {}
        self.draws: list[tuple[int, int, float]] = []
        self.cursor = 0

    def plan(self, observed: np.ndarray, positions: np.ndarray, rng: np.random.Generator) -> None:
        """Check the (M,) integer observed labels and positions the next steps resample, in order.

        Observed labels lie in [0, K) and positions in [0, N). Then one
        `rng.random(M)` draws all their uniforms; a plan replaces what is
        left of the previous one.
        """
        observed, positions = np.asarray(observed), np.asarray(positions)
        for name, values, size in (
            ("observed labels", observed, len(self.columns)),
            ("batch indices", positions, len(self.latent)),
        ):
            if values.ndim != 1 or values.dtype.kind not in "iu":
                raise ParameterError(f"{name} must be a 1-d integer array")
            if values.size and not 0 <= values.min() <= values.max() < size:
                raise ParameterError(f"{name} out of range")
        if len(observed) != len(positions):
            raise ParameterError("batch arrays must have matching lengths")
        if not isinstance(rng, np.random.Generator):
            raise ParameterError(f"rng must be a numpy Generator, got {type(rng).__name__}")
        uniforms = rng.random(len(observed)).tolist()
        self.draws = list(zip(observed.tolist(), positions.tolist(), uniforms))
        self.cursor = 0

    def step(self, probs: np.ndarray, warmup: bool = False, anneal: float = 1.0) -> bool:
        """Resample the plan's next len(probs) samples in order; True if some label moved.

        Each draw removes the sample's old count, scores every latent class
        against counts already updated by earlier draws (through its entry of
        `channels`, filled on a miss; the warmup column with `warmup`, or a
        tempered column, replaces it as `_scores` replaces the count
        channel), draws a new class with its planned uniform and books it. A
        move writes its label and two count cells and refreshes the two
        classes it changed in every kept channel; a batch that keeps every
        label writes nothing. A batch that fails part-way has consumed its
        whole plan, and its failing draw's removal stays booked.

        probs is (M, R), M at most the rows the plan has left; anneal, in
        [0, inf), tempers the channel factor alone. Only these and `warmup`
        are checked, before anything is booked.
        """
        probs = np.asarray(probs, dtype=np.float64)
        totals = self.totals
        n_latent = len(totals)
        if probs.ndim != 2 or probs.shape[1] != n_latent:
            raise ParameterError("probs must be (batch, n_latent)")
        start = self.cursor
        stop = start + probs.shape[0]
        if stop > len(self.draws):
            raise ParameterError(
                f"the batch has {probs.shape[0]} rows, the plan {len(self.draws) - start} left"
            )
        _check_anneal(anneal)
        warmup_columns = self.warmup_columns if warmup else None
        if warmup and warmup_columns is None:
            raise ParameterError("the chain was built without a warmup channel")
        self.cursor = stop
        labels, latent, counts = self.labels, self.latent, self.counts
        alpha, alpha_total = self.alpha, self.prior.total
        channels, columns = self.channels, self.columns
        before = self.before = {}
        # Tempered channel columns by (observed label, old label), valid until a label moves.
        tempered = None if anneal == 1.0 else {}
        wide = n_latent >= _NUMPY_UNROLL
        moved = False
        for row, (observed, position, u) in zip(probs.tolist(), self.draws[start:stop]):
            old = latent[position]
            kept = channels[observed]
            channel = kept[old]
            if channel is None:
                column = columns[observed]
                if not column[old] > 0:
                    raise InvariantError(
                        f"latent label {old} of sample {position} has no count in cell "
                        f"({old}, {observed})"
                    )
                column[old] -= 1
                totals[old] -= 1
                a = alpha[observed]
                channel = kept[old] = [(a + c) / (alpha_total + t) for c, t in zip(column, totals)]
                column[old] += 1
                totals[old] += 1
            if warmup_columns is not None:
                channel = warmup_columns[observed]
            if tempered is not None:
                key = observed, old
                base, channel = channel, tempered.get(key)
                if channel is None:
                    channel = tempered[key] = (np.array(base, dtype=np.float64) ** anneal).tolist()
            # The scores and their sum, as `_scores` gives them.
            scores = []
            norm = 0.0
            for p, c in zip(row, channel):
                score = p * c
                scores.append(score)
                norm += score
            if wide:
                norm = _row_sum(scores)
            if not 0.0 < norm < math.inf:  # also False for NaN
                # The failing draw's removal stays booked, and no channel holds for it.
                column = columns[observed]
                column[old] -= 1
                totals[old] -= 1
                counts[old, observed] = column[old]
                for kept in channels:
                    kept[:] = [None] * n_latent
                raise TrainingError(_SCORE_ERROR)
            cumulative = 0.0
            # Without a break, a uniform at or above the rounded total takes the last class.
            for new, score in enumerate(scores):
                cumulative += score / norm
                if cumulative > u:
                    break
            if new != old:
                for r in old, new:
                    if r not in before:
                        before[r] = [cells[r] for cells in columns]
                column = columns[observed]
                column[old] -= 1
                totals[old] -= 1
                column[new] += 1
                totals[new] += 1
                counts[old, observed] = column[old]
                counts[new, observed] = column[new]
                latent[position] = labels[position] = new
                moved = True
                if not column[old]:
                    kept[old] = None
                # Each channel's entries for the two classes, as a miss computes them,
                # `(a + (c - own)) / (A + (t - own))`, where `own` is 1 in the class of
                # the channel's own cell alone: the denominators are worked out once.
                old_all, old_own = alpha_total + totals[old], alpha_total + (totals[old] - 1)
                new_all, new_own = alpha_total + totals[new], alpha_total + (totals[new] - 1)
                for a, column, kept in zip(alpha, columns, channels):
                    at_old, at_new = (a + column[old]) / old_all, (a + column[new]) / new_all
                    for channel in kept:
                        if channel is not None:
                            channel[old], channel[new] = at_old, at_new
                    if kept[old] is not None:
                        kept[old][old] = (a + (column[old] - 1)) / old_own
                    if kept[new] is not None:
                        kept[new][new] = (a + (column[new] - 1)) / new_own
                if tempered:
                    tempered.clear()
        return moved

    def certify(self) -> tuple[float, float]:
        """(measured, bound) of the row the last step moved most, as `update_bound` reads it.

        Only the rows in `before` are computed: every other row kept its
        counts, and `_certificate` gives such rows 0.0. Raises as
        `update_bound` and `_worst_certified_row` would on the whole matrix.
        """
        columns = self.columns
        rows = ((r, row, [cells[r] for cells in columns]) for r, row in self.before.items())
        return _worst_certified_row(*_certificate(rows, len(self.totals), self.prior))


def gibbs_sample_batch(
    probs: np.ndarray,
    observed_labels: np.ndarray,
    counts: np.ndarray,
    prior: DirichletPrior,
    labels: np.ndarray,
    batch_indices: np.ndarray,
    rng: np.random.Generator,
    warmup_phi: np.ndarray | None = None,
    anneal: float = 1.0,
) -> np.ndarray:
    """Resample the latent labels of one batch, updating `counts` and `labels` in place.

    One plan and one `GibbsChain.step`, scored against `warmup_phi` when it
    is given, of a chain built for this batch alone; every argument is
    checked before the plan draws. Returns the (M,) int64 latent labels of
    the batch samples after the batch (a sample listed twice reads its last
    draw).
    """
    chain = GibbsChain(labels, counts, prior, warmup_phi)
    # The step checks these only after the plan has drawn.
    _check_anneal(anneal)
    probs = np.asarray(probs, dtype=np.float64)
    if probs.shape != np.shape(batch_indices)[:1] + counts.shape[:1]:
        raise ParameterError("probs must be (batch, n_latent)")
    chain.plan(observed_labels, batch_indices, rng)
    chain.step(probs, warmup_phi is not None, anneal)
    return labels[np.asarray(batch_indices)].astype(np.int64)


@np.errstate(divide="ignore", invalid="ignore")  # a non-finite weight fails the final check
def exact_posterior_bruteforce(
    probs: np.ndarray,
    observed_labels: np.ndarray,
    prior: DirichletPrior,
    max_states: int = 2**22,
) -> np.ndarray:
    """Exact per-sample posterior marginals by enumerating every joint assignment.

    An assignment's weight is the product of the classifier probabilities and,
    per latent class with counts n_k against the observed labels, the rising
    factorials prod_k alpha_k^(n_k) / A^(sum_k n_k), A being the prior's total.
    Their logs come from a table of sums of log(alpha_k + i) over i < c, whose
    last row holds log(A + i). Only instances with n_latent ** n <= max_states
    are accepted.
    """
    probs = np.asarray(probs, dtype=np.float64)
    observed_labels = np.asarray(observed_labels)
    if probs.ndim != 2 or probs.shape[1] < 1:
        raise ParameterError("probs must be (n_samples, n_latent) with n_latent >= 1")
    n, n_latent = probs.shape
    n_observed = prior.n_observed
    if observed_labels.shape != (n,) or observed_labels.dtype.kind not in "iu":
        raise ParameterError("observed_labels must hold one integer label per row of probs")
    if n and not 0 <= observed_labels.min() <= observed_labels.max() < n_observed:
        raise ParameterError("observed labels out of range")
    n_states = n_latent**n
    if n_states > max_states:
        raise ParameterError(f"state space {n_states} exceeds the limit {max_states}")
    log_probs = np.log(probs)
    bases = np.append(prior.concentration, prior.total)
    log_rising = np.zeros((n_observed + 1, n + 1))
    log_rising[:, 1:] = np.log(bases[:, None] + np.arange(n)).cumsum(axis=1)
    obs_onehot = np.zeros((n, n_observed), dtype=np.int64)
    obs_onehot[np.arange(n), observed_labels] = 1

    block = 1 << 14
    radix = n_latent ** np.arange(n, dtype=np.int64)
    log_weights = np.empty(n_states)

    def decode(states: np.ndarray) -> np.ndarray:
        return (states[:, None] // radix[None, :]) % n_latent

    for start in range(0, n_states, block):
        states = np.arange(start, min(start + block, n_states), dtype=np.int64)
        assign = decode(states)
        lw = log_probs[np.arange(n)[None, :], assign].sum(axis=1)
        for r in range(n_latent):
            cell_counts = (assign == r) @ obs_onehot
            lw += log_rising[np.arange(n_observed), cell_counts].sum(axis=1)
            lw -= log_rising[-1, cell_counts.sum(axis=1)]
        log_weights[start : start + states.size] = lw

    # Log-sum-exp; as in scipy's, a non-finite maximum shifts by 0, so all -inf gives -inf.
    shift = log_weights.max() if np.isfinite(log_weights.max()) else 0.0
    log_z = shift + np.log(np.exp(log_weights - shift).sum())
    marginals = np.zeros((n, n_latent))
    for start in range(0, n_states, block):
        states = np.arange(start, min(start + block, n_states), dtype=np.int64)
        assign = decode(states)
        weights = np.exp(log_weights[start : start + states.size] - log_z)
        for r in range(n_latent):
            marginals[:, r] += (assign == r).T @ weights
    row_sums = marginals.sum(axis=1)
    # Written so that a NaN sum fails: every comparison with NaN is False.
    if not np.all(np.abs(row_sums - 1.0) <= 1e-8):
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
    if sweeps < 0 or burn_in < 0:
        raise ParameterError("sweeps and burn_in must be nonnegative")
    if sweeps > 0 and burn_in >= sweeps:
        raise ParameterError("burn_in must be smaller than sweeps")
    reference = exact_posterior_bruteforce(probs, observed_labels, prior)
    probs = np.asarray(probs, dtype=np.float64)
    observed_labels = np.asarray(observed_labels, dtype=np.int64)
    n, n_latent = reference.shape
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
    chain = GibbsChain(labels, counts, prior)
    tally = np.zeros((n, n_latent))
    trace: list[tuple[int, float, float]] = []
    rows = np.arange(n)
    for sweep in range(1, sweeps + 1):
        chain.plan(observed_labels, rows, rng)
        chain.step(probs)
        if sweep > burn_in:
            tally[rows, labels] += 1.0
            if sweep in checkpoints:
                empirical = tally / (sweep - burn_in)
                tv = total_variation_rows(empirical, reference)
                trace.append((sweep, float(tv.max()), float(tv.mean())))
    return GibbsDiagnostics(sweeps, burn_in, tally / (sweeps - burn_in), reference, trace)
