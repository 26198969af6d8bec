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
`_scores`. `gibbs_sample_batch` runs the same chain on plain Python floats
with its own copy of that arithmetic, written out inside its draw loop, and
is bit-identical to replaying the reference draw by draw
(`np.cumsum`/`np.searchsorted` on its output against one scalar
`rng.random()` each): the same labels, the same counts and the same
generator state after the batch. The two score paths share no code, so the
replay property checks one against the other. The batch draws its uniforms
with one `rng.random(M)` call (the same doubles as M scalar calls); each
draw builds its score list and sum in the loop and walks the CDF with
`cumulative += score / norm`. Score sums follow numpy's order (see
`noise_model`): for fewer than 8 latent classes the loop that builds the
scores adds them up left to right from 0.0 as it goes, and from 8 on
`_row_sum` sums the list again in numpy's pairwise order.

The count channel `(a + c) / (A + t)` of a draw depends only on its
(observed label, old label) pair and on the counts, which change only when
a label moves. A `ChannelCache` keeps those columns, exactly the floats the
draw would compute, for as long as the counts stay as they are: a caller
that keeps one across the consecutive batches of a chain (the latent
trainers, `mixing_diagnostic`) makes a draw that keeps its label a dict
lookup, the scores and the CDF walk, with no count arithmetic. SparseLDA
(Yao, Mimno and McCallum, 2009) caches its count-only coefficients alike.
An exponent other than 1 always goes through numpy's `**`, whose vectorized
power may round differently from Python's; an annealed batch raises each
pair's base column (cached or warmup) once and reuses it until a draw moves
a label.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvariantError, ParameterError, TrainingError, check_type
from .noise_model import _NUMPY_UNROLL, DirichletPrior, _check_counts, _row_sum, confusion_counts

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
    if anneal != 1.0:
        if warmup is None:
            warmup = [(a + c) / (alpha_total + t) for c, t in zip(column, totals)]
        channel = (np.array(warmup, dtype=np.float64) ** anneal).tolist()
    scores = []
    norm = 0.0
    if channel is None:
        for p, c, t in zip(row, column, totals):
            score = p * ((a + c) / (alpha_total + t))
            scores.append(score)
            norm += score
    else:
        for p, c in zip(row, channel):
            score = p * c
            scores.append(score)
            norm += score
    if len(scores) >= _NUMPY_UNROLL:
        norm = _row_sum(scores)
    if not 0.0 < norm < math.inf:  # also False for NaN
        raise TrainingError(_SCORE_ERROR)
    return scores, norm


def _check_anneal_and_warmup(anneal: float, warmup_phi, counts: np.ndarray) -> np.ndarray | None:
    """The warmup channel as a float64 array of the counts' shape, or None; `anneal` checked."""
    if not 0.0 <= check_type(anneal, "float", "anneal") < math.inf:  # also False for NaN
        raise ParameterError(f"anneal must be finite and >= 0, got {anneal!r}")
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
    warmup_phi = _check_anneal_and_warmup(anneal, warmup_phi, counts)
    scores, norm = _scores(
        probs_row.tolist(), float(prior.concentration[observed_label]),
        counts[:, observed_label].tolist(), counts.sum(axis=1).tolist(), prior.total,
        None if warmup_phi is None else warmup_phi[:, observed_label].tolist(),
        anneal,
    )
    return np.array([score / norm for score in scores])


@dataclass(eq=False)
class ChannelCache:
    """Leave-one-out count channels of one chain, kept across its consecutive batches.

    `channels` maps an (observed label, old latent label) pair to the count
    channel that a sample in that cell scores against once its own count is
    removed: `(a + c) / (A + t)` for each latent class, where a is the observed
    label's concentration, A the prior's total, c the class's count against
    the label and t the class's row total. The entries hold for the count
    matrix and prior in `counts` and `prior` (kept by identity) as long as
    those counts do not change. `gibbs_sample_batch` starts the cache over
    when it gets another count matrix or prior, and empties it when a draw
    moves a label or a batch fails. Code that changes the counts in any
    other way must empty it too (`channels.clear()`).
    """

    counts: np.ndarray | None = None
    prior: DirichletPrior | None = None
    channels: dict[tuple[int, int], list[float]] = field(default_factory=dict)


def _mirror(counts: np.ndarray) -> tuple[list[list], list]:
    """The count matrix as column lists, and its row totals summed from them."""
    columns = counts.T.tolist()
    return columns, [sum(row) for row in zip(*columns)]


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
    *,
    cache: ChannelCache | None = None,
) -> np.ndarray:
    """Resample the latent labels of one batch, updating `counts` and `labels` in place.

    Samples are processed sequentially: each draw removes the sample's old
    count, scores every latent class against counts already updated by
    earlier draws in the batch, draws a new class, and books it. A draw
    scores against its (observed label, old label) entry of the channel
    cache, filled from the counts on a miss; the warmup column or a tempered
    column replaces it as `_scores` replaces the count channel for the
    reference. A draw that keeps its label therefore does no count
    arithmetic at all. The count matrix is mirrored as column lists, with
    its row totals, only once the batch meets a cache miss or a move. A
    label is written only when its draw moves it, and the counts are
    written back when the batch ends only if some label moved or the batch
    ended on an error, so a batch that keeps every label writes nothing. The
    batch's uniforms are drawn up front, so a batch that fails part-way has
    consumed all of them, and its failing draw's removal stays booked.

    Args:
        probs: (M, R) classifier probabilities for the batch samples.
        observed_labels: (M,) integer observed labels of the batch samples, each
            in [0, K).
        counts: (R, K) count matrix of latent vs observed labels.
        labels: (N,) integer latent label of every sample, each in [0, R) with a
            nonempty count cell against its observed label.
        batch_indices: (M,) integer positions of the batch samples in `labels`,
            each in [0, N).
        warmup_phi: (R, K) channel whose column replaces the count-based channel
            factor, or None to score from the counts.
        anneal: exponent in [0, inf) applied to the channel factor alone;
            checked before any uniform is drawn.
        cache: the chain's `ChannelCache`, shared by its consecutive batches so
            that settled draws skip the count arithmetic across batches too;
            None gives the call a fresh one. Either way the bits are the same.

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
    observed_labels = np.asarray(observed_labels)
    if observed_labels.ndim != 1 or observed_labels.dtype.kind not in "iu":
        raise ParameterError("observed labels must be a 1-d integer array")
    observed_list = observed_labels.tolist()
    if observed_list and not 0 <= min(observed_list) <= max(observed_list) < counts.shape[1]:
        raise ParameterError("observed labels out of range")
    batch_indices = np.asarray(batch_indices)
    if batch_indices.ndim != 1 or batch_indices.dtype.kind not in "iu":
        raise ParameterError("batch_indices must be a 1-d integer array")
    positions = batch_indices.tolist()
    if positions and not 0 <= min(positions) <= max(positions) < len(labels):
        raise ParameterError("batch indices out of range")
    warmup_phi = _check_anneal_and_warmup(anneal, warmup_phi, counts)
    if cache is None:
        cache = ChannelCache()
    if cache.counts is not counts or cache.prior is not prior:
        cache.channels.clear()
        cache.counts, cache.prior = counts, prior
    channels = cache.channels
    uniforms = rng.random(probs.shape[0]).tolist()
    alpha_total = prior.total
    warmup_columns = None if warmup_phi is None else warmup_phi.T.tolist()
    # Tempered channel columns by (observed label, old label), valid until a label moves.
    tempered = None if anneal == 1.0 else {}
    n_latent = counts.shape[0]
    wide = n_latent >= _NUMPY_UNROLL
    columns = totals = None
    sampled = []
    moved = finished = False
    try:
        for row, observed, position, u in zip(probs.tolist(), observed_list, positions, uniforms):
            old = labels.item(position)
            key = observed, old
            channel = channels.get(key)
            if channel is None:
                if columns is None:
                    columns, totals = _mirror(counts)
                column = columns[observed]
                # Range first: a negative label would index the column from its end.
                if not (0 <= old < n_latent and column[old] > 0):
                    raise InvariantError(
                        f"latent label {old} of sample {position} has no count in cell "
                        f"({old}, {observed})"
                    )
                column[old] -= 1
                totals[old] -= 1
                a = prior.concentration.item(observed)
                channel = channels[key] = []
                for c, t in zip(column, totals):
                    channel.append((a + c) / (alpha_total + t))
                column[old] += 1
                totals[old] += 1
            if warmup_columns is not None:
                channel = warmup_columns[observed]
            if tempered is not None:
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
                # The failing draw's removal stays booked.
                if columns is None:
                    columns, totals = _mirror(counts)
                columns[observed][old] -= 1
                raise TrainingError(_SCORE_ERROR)
            cumulative = 0.0
            # Without a break, a uniform at or above the rounded total takes the last class.
            for new, score in enumerate(scores):
                cumulative += score / norm
                if cumulative > u:
                    break
            if new != old:
                if columns is None:
                    columns, totals = _mirror(counts)
                column = columns[observed]
                column[old] -= 1
                totals[old] -= 1
                column[new] += 1
                totals[new] += 1
                labels[position] = new
                moved = True
                channels.clear()
                if tempered:
                    tempered.clear()
            sampled.append(new)
        finished = True
    finally:
        if not finished:
            channels.clear()
        # Only a move or a failure leaves the mirrored counts unlike the counts.
        if moved or (not finished and columns is not None):
            counts.T[...] = columns
    return np.array(sampled, dtype=np.int64)


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
    cache = ChannelCache()
    tally = np.zeros((n, n_latent))
    trace: list[tuple[int, float, float]] = []
    rows = np.arange(n)
    for sweep in range(1, sweeps + 1):
        gibbs_sample_batch(probs, observed_labels, counts, prior, labels, rows, rng, cache=cache)
        if sweep > burn_in:
            tally[rows, labels] += 1.0
            if sweep in checkpoints:
                empirical = tally / (sweep - burn_in)
                tv = total_variation_rows(empirical, reference)
                trace.append((sweep, float(tv.max()), float(tv.mean())))
    return GibbsDiagnostics(sweeps, burn_in, tally / (sweeps - burn_in), reference, trace)
