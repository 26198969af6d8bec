"""Anneal exponent, single-draw distributions, batch bit-identity and exact-enumeration checks."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import conditional_transition_column
from lccn_lab import trainers
from lccn_lab.errors import InvariantError, ParameterError, TrainingError
from lccn_lab.noise_model import (
    DirichletPrior,
    _row_sum,
    _worst_certified_row,
    check_transition,
    confusion_counts,
    update_bound,
)
from lccn_lab.sampler import (
    GibbsChain,
    _scores,
    exact_posterior_bruteforce,
    gibbs_sample_batch,
    mixing_diagnostic,
    sampling_distribution,
    total_variation_rows,
)


def counts_of(matrix):
    return np.array(matrix, dtype=np.int64)


# ------------------------------------------------------------- annealing


def test_anneal_disabled_is_identity():
    assert trainers._anneal(False, 0, 200) == 1.0
    assert trainers._anneal(False, 10_000, 200) == 1.0


def test_anneal_frozen_values():
    # The exponents that annealing has always given a run of T batches: the
    # schedule's step count was T, or 1 for T <= 1, with decay 0.8 and floor 0.5.
    assert trainers._anneal(False, 100, 200) == 1.0
    assert [trainers._anneal(True, step, 200) for step in (0, 100, 200)] == [
        1.0, 0.6703200460356393, 0.5,
    ]
    # Divide, then scale: exp(-0.8 * 2 / 5) is 0.7261490370736909.
    assert trainers._anneal(True, 2, 5) == 0.7261490370736908
    assert [trainers._anneal(True, 0, total) for total in (0, 1)] == [1.0, 1.0]
    assert [trainers._anneal(True, 1, total) for total in (0, 1)] == [0.5, 0.5]


def test_anneal_monotone_until_floor():
    values = [trainers._anneal(True, step, 1000) for step in range(0, 1001, 50)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert min(values) == 0.5


@pytest.mark.parametrize("bad", [pytest.param({"anneal": 1}, id="bad1")])
def test_anneal_schedule_checks_its_field_types(bad):
    # 1 is truthy but no bool: it would turn annealing on.
    with pytest.raises(ParameterError, match="anneal"):
        trainers.TrainConfig(**bad)


# ------------------------------------------------- sampling distribution


def test_sampling_distribution_frozen_example():
    # flat channel: counts are uniform, so the draw follows the classifier
    counts = counts_of([[5.0, 5.0], [5.0, 5.0]])
    prior = DirichletPrior.uniform(2, 1.0)
    dist = sampling_distribution(np.array([0.8, 0.2]), 0, counts, prior)
    np.testing.assert_allclose(dist, [0.8, 0.2], atol=1e-15)


def test_sampling_distribution_scale_invariant():
    counts = counts_of([[3.0, 1.0], [0.0, 4.0]])
    prior = DirichletPrior.uniform(2, 1.0)
    a = sampling_distribution(np.array([0.8, 0.2]), 0, counts, prior)
    b = sampling_distribution(np.array([8.0, 2.0]), 0, counts, prior)
    np.testing.assert_allclose(a, b, atol=1e-15)


def test_sampling_distribution_anneal_zero_follows_classifier():
    counts = counts_of([[30.0, 1.0], [1.0, 30.0]])
    prior = DirichletPrior.uniform(2, 1.0)
    probs = np.array([0.7, 0.3])
    dist = sampling_distribution(probs, 1, counts, prior, anneal=0.0)
    np.testing.assert_allclose(dist, probs, atol=1e-15)


def test_sampling_distribution_warmup_column_overrides_counts():
    counts = counts_of([[100.0, 0.0], [0.0, 100.0]])
    prior = DirichletPrior.uniform(2, 1.0)
    warm = np.array([[0.5, 0.5], [0.5, 0.5]])
    dist = sampling_distribution(np.array([0.6, 0.4]), 0, counts, prior, warmup_phi=warm)
    np.testing.assert_allclose(dist, [0.6, 0.4], atol=1e-15)


def test_sampling_distribution_zero_scores_raise():
    counts = counts_of([[1.0, 1.0], [1.0, 1.0]])
    prior = DirichletPrior.uniform(2, 1.0)
    with pytest.raises(TrainingError):
        sampling_distribution(np.array([0.0, 0.0]), 0, counts, prior)


# ------------------------------------------------------------ batch draws


def test_gibbs_batch_updates_counts_incrementally(rng):
    # Two copies of the same sample: after the first draw moves, the second
    # draw must see the updated counts. Replaying the generator verifies the
    # exact sequential arithmetic.
    probs = np.array([[0.5, 0.5], [0.5, 0.5]])
    observed = np.array([0, 0])
    latent = np.array([0, 0])
    counts = confusion_counts(latent, observed, 2, 2)
    prior = DirichletPrior.uniform(2, 1.0)
    replay = np.random.default_rng(42)
    sampled = gibbs_sample_batch(
        probs, observed, counts, prior, latent, np.array([0, 1]), np.random.default_rng(42)
    )
    # manual replay of the two sequential draws
    work = confusion_counts(np.array([0, 0]), observed, 2, 2)
    labels = [0, 0]
    for i in range(2):
        work[labels[i], 0] -= 1
        dist = sampling_distribution(probs[i], 0, work, prior)
        draw = int(np.searchsorted(np.cumsum(dist), replay.random(), side="right"))
        draw = min(draw, 1)
        work[draw, 0] += 1
        labels[i] = draw
    assert sampled.tolist() == labels
    np.testing.assert_array_equal(counts, work)
    assert latent.tolist() == labels


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_gibbs_batch_labels_in_range(seed):
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(3), size=5)
    observed = rng.integers(0, 3, size=5)
    latent = observed.copy()
    counts = confusion_counts(latent, observed, 3, 3)
    prior = DirichletPrior.uniform(3, 0.5)
    sampled = gibbs_sample_batch(probs, observed, counts, prior, latent, np.arange(5), rng)
    assert sampled.min() >= 0 and sampled.max() < 3
    np.testing.assert_array_equal(counts, confusion_counts(latent, observed, 3, 3))


def _numpy_distribution(probs_row, observed, counts, prior, warmup_phi, anneal):
    """The whole-array formula `sampling_distribution` was first written with."""
    if warmup_phi is not None:
        channel = warmup_phi[:, observed]
    else:
        channel = conditional_transition_column(counts, prior, observed)
    scores = probs_row * channel**anneal if anneal != 1.0 else probs_row * channel
    return scores / scores.sum()


def _replay(probs, observed, counts, prior, labels, positions, rng, warmup_phi, anneal):
    """Step-by-step reference chain: one reference draw and one scalar uniform per sample."""
    n_latent = counts.shape[0]
    sampled = []
    for row, obs, position in zip(probs, observed, positions):
        counts[labels[position], obs] -= 1
        dist = sampling_distribution(row, int(obs), counts, prior, warmup_phi, anneal)
        new = int(np.searchsorted(np.cumsum(dist), rng.random(), side="right"))
        new = min(new, n_latent - 1)
        counts[new, obs] += 1
        labels[position] = new
        sampled.append(new)
    return sampled


@st.composite
def batch_cases(draw):
    """A Gibbs batch: counts, assignment, batch, prior, warmup and anneal settings."""
    n_latent = draw(st.integers(min_value=2, max_value=10))
    n_observed = draw(st.integers(min_value=max(1, n_latent - 1), max_value=n_latent))
    size = draw(st.integers(min_value=1, max_value=40))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    data = np.random.default_rng(seed)
    n = size + int(data.integers(0, 20))
    # a few observed labels repeat throughout the batch
    pool = data.choice(n_observed, size=min(n_observed, int(data.integers(1, 4))), replace=False)
    observed = data.choice(pool, size=n)
    labels = data.integers(0, n_latent, size=n)
    positions = data.permutation(n)[:size]
    probs = data.dirichlet(np.full(n_latent, 0.7), size=size)
    alpha = data.uniform(0.05, 5.0, size=n_observed)
    warmup = None
    if draw(st.booleans()):
        warmup = check_transition(data.dirichlet(np.ones(n_observed), size=n_latent))
    anneal = draw(st.sampled_from([1.0, 0.5]) | st.floats(min_value=0.2, max_value=1.5))
    return probs, observed, labels, positions, DirichletPrior(alpha), warmup, anneal, seed


def plain_case(n_latent, alpha, size=32, seed=0):
    """A batch of the runs' own shape: uniform alpha, no warmup, anneal exactly 1."""
    data = np.random.default_rng(seed)
    n = size + 8
    observed = data.integers(0, n_latent, size=n)
    labels = data.integers(0, n_latent, size=n)
    positions = data.permutation(n)[:size]
    probs = data.dirichlet(np.ones(n_latent), size=size)
    prior = DirichletPrior.uniform(n_latent, alpha)
    return probs, observed, labels, positions, prior, None, 1.0, seed


# The properties' own alpha is drawn from U(0.05, 5), so these pin the training
# runs' all-ones prior at the benchmarks' K and at numpy's summation width
# (K = 8), a tiny prior and an integer-valued one.
PLAIN_CASES = [plain_case(3, 1.0), plain_case(4, 1.0), plain_case(8, 1.0),
               plain_case(4, 1e-12, seed=1), plain_case(3, 2.0, seed=2)]


def with_plain_cases(test):
    for case in PLAIN_CASES:
        test = example(case=case)(test)
    return test


@with_plain_cases
@given(case=batch_cases())
@settings(max_examples=300, deadline=None)
def test_gibbs_batch_is_bit_identical_to_stepwise_replay(case):
    probs, observed, labels, positions, prior, warmup, anneal, seed = case
    n_latent, n_observed = probs.shape[1], prior.n_observed
    counts = confusion_counts(labels, observed, n_latent, n_observed)
    work = counts.copy()
    latent = labels.copy()
    replay_labels = labels.copy()
    rng, replay_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    batch_observed = observed[positions]
    sampled = gibbs_sample_batch(
        probs, batch_observed, counts, prior, latent, positions, rng,
        warmup_phi=warmup, anneal=anneal,
    )
    expected = _replay(
        probs, batch_observed, work, prior, replay_labels, positions, replay_rng, warmup, anneal
    )
    assert sampled.tolist() == expected
    assert np.array_equal(counts, work)
    assert np.array_equal(latent, replay_labels)
    assert rng.bit_generator.state == replay_rng.bit_generator.state


@with_plain_cases
@given(case=batch_cases())
@settings(max_examples=300, deadline=None)
def test_sampling_distribution_is_bit_identical_to_numpy_formula(case):
    probs, observed, labels, _, prior, warmup, anneal, _ = case
    counts = confusion_counts(labels, observed, probs.shape[1], prior.n_observed)
    for row, obs in zip(probs, observed):
        dist = sampling_distribution(row, int(obs), counts, prior, warmup, anneal)
        reference = _numpy_distribution(row, int(obs), counts, prior, warmup, anneal)
        assert dist.tobytes() == reference.tobytes()


def _comprehension_scores(row, a, column, totals, alpha_total, warmup, anneal):
    """`sampler._scores` as first written: the scores by a comprehension, then `_row_sum`."""
    if warmup is None and anneal == 1.0:
        scores = [p * ((a + c) / (alpha_total + t)) for p, c, t in zip(row, column, totals)]
    else:
        if warmup is None:
            warmup = [(a + c) / (alpha_total + t) for c, t in zip(column, totals)]
        if anneal != 1.0:
            warmup = (np.array(warmup, dtype=np.float64) ** anneal).tolist()
        scores = [p * c for p, c in zip(row, warmup)]
    norm = _row_sum(scores)
    if not 0.0 < norm < math.inf:
        raise TrainingError("sampling scores are non-finite or all zero")
    return scores, norm


@given(
    k=st.integers(2, 12),
    seed=st.integers(0, 2**32 - 1),
    warmup=st.booleans(),
    anneal=st.sampled_from([1.0, 0.5, 1.3]),
    row_kind=st.sampled_from(["dirichlet", "sparse", "all_zero", "inf", "nan", "huge"]),
)
@example(k=3, seed=0, warmup=False, anneal=1.0, row_kind="all_zero")
@example(k=8, seed=0, warmup=False, anneal=1.0, row_kind="all_zero")
@example(k=3, seed=0, warmup=False, anneal=1.0, row_kind="inf")
@example(k=8, seed=0, warmup=False, anneal=1.0, row_kind="nan")
@settings(max_examples=300, deadline=None)
def test_scores_match_the_comprehension_and_row_sum_bit_for_bit(k, seed, warmup, anneal, row_kind):
    # K < 8 takes the one-pass sum, K >= 8 `_row_sum`'s numpy reduction; both
    # must raise alike on an all-zero row and on a non-finite one.
    data = np.random.default_rng(seed)
    row = data.dirichlet(np.full(k, 0.7)).tolist()
    if row_kind == "sparse":
        row = [p if data.random() < 0.5 else 0.0 for p in row]
    elif row_kind == "all_zero":
        row = [0.0] * k
    elif row_kind in ("inf", "nan"):
        row[int(data.integers(k))] = math.inf if row_kind == "inf" else math.nan
    elif row_kind == "huge":
        row = [1e308] * k
    column = data.integers(0, 40, size=k).tolist()
    totals = [c + int(data.integers(0, 100)) for c in column]
    a = float(data.uniform(0.05, 5.0))
    alpha_total = a + float(data.uniform(0.05, 20.0))
    channel = data.dirichlet(np.ones(k)).tolist() if warmup else None
    outcomes = []
    for scores in (_scores, _comprehension_scores):
        try:
            with np.errstate(over="ignore"):  # numpy's sum of a huge row at K >= 8
                values, norm = scores(row, a, column, totals, alpha_total, channel, anneal)
            outcomes.append((np.array(values).tobytes(), np.float64(norm).tobytes()))
        except TrainingError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]
    if row_kind in ("all_zero", "inf", "nan"):
        assert outcomes[0] == "sampling scores are non-finite or all zero"


class _GivenUniforms(np.random.Generator):
    """A Generator whose next uniforms are given."""

    def __init__(self, values):
        super().__init__(np.random.PCG64(0))
        self.values = list(values)

    def random(self, size=None):
        if size is None:
            return self.values.pop(0)
        taken, self.values = self.values[:size], self.values[size:]
        return np.array(taken)


def _one_draw(probs_row, u):
    # The sample's own count is removed before the draw, which then sees all-zero counts.
    n_latent = len(probs_row)
    counts = np.zeros((n_latent, n_latent), dtype=np.int64)
    counts[0, 0] = 1
    sampled = gibbs_sample_batch(
        np.array([probs_row]), np.array([0]), counts, DirichletPrior.uniform(n_latent, 1.0),
        np.array([0]), np.array([0]), _GivenUniforms([u]),
    )
    return int(sampled[0])


def test_gibbs_batch_cdf_edges_match_searchsorted():
    # A uniform equal to a partial sum takes the next class (searchsorted
    # side="right"); one at or above the rounded total takes the last class.
    assert _one_draw([0.5, 0.5], 0.5) == 1
    data = np.random.default_rng(0)
    prior = DirichletPrior.uniform(3, 1.0)
    row = next(
        r for r in data.dirichlet(np.ones(3), size=1000)
        if np.cumsum(sampling_distribution(r, 0, np.zeros((3, 3), dtype=np.int64), prior))[-1] < 1.0
    )
    assert _one_draw(row.tolist(), np.nextafter(1.0, 0.0)) == 2


def test_gibbs_batch_failure_writes_counts_back():
    # The second draw has all-zero scores; the first draw and the second
    # sample's removal stay booked, as with per-draw updates of the counts.
    probs = np.array([[0.5, 0.5], [0.0, 0.0]])
    observed = np.array([0, 1])
    latent = np.array([0, 1])
    counts = confusion_counts(latent, observed, 2, 2)
    prior = DirichletPrior.uniform(2, 1.0)
    with pytest.raises(TrainingError):
        gibbs_sample_batch(
            probs, observed, counts, prior, latent, np.array([0, 1]), np.random.default_rng(3)
        )
    expected = np.zeros((2, 2), dtype=np.int64)
    expected[latent[0], 0] = 1
    np.testing.assert_array_equal(counts, expected)


@with_plain_cases
@given(case=batch_cases())
@settings(max_examples=100, deadline=None)
def test_batch_that_keeps_every_label_writes_nothing(case):
    # A classifier sure of the current labels keeps them all. Counts and labels
    # are read-only, so any write would raise; their bytes stay as they were.
    probs, observed, labels, positions, prior, warmup, anneal, seed = case
    counts = confusion_counts(labels, observed, probs.shape[1], prior.n_observed)
    sure = np.zeros_like(probs)
    sure[np.arange(len(positions)), labels[positions]] = 1.0
    state = counts.tobytes(), labels.tobytes()
    for array in (counts, labels):
        array.setflags(write=False)
    sampled = gibbs_sample_batch(
        sure, observed[positions], counts, prior, labels, positions,
        np.random.default_rng(seed), warmup_phi=warmup, anneal=anneal,
    )
    assert sampled.tolist() == labels[positions].tolist()
    assert (counts.tobytes(), labels.tobytes()) == state


def test_batch_returns_each_samples_label_after_the_batch():
    # Sample 0 is listed twice: its first draw surely moves it to 1, its second back to 0.
    observed = np.array([0, 1])
    labels = np.array([0, 1])
    counts = confusion_counts(labels, observed, 2, 2)
    sampled = gibbs_sample_batch(
        np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([0, 0]), counts,
        DirichletPrior.uniform(2, 1.0), labels, np.array([0, 0]), np.random.default_rng(0),
    )
    assert sampled.dtype == np.int64 and sampled.tolist() == [0, 0]
    assert labels.tolist() == [0, 1] and counts.tolist() == [[1, 0], [0, 1]]


def test_batch_that_fails_after_keeping_its_labels_writes_counts_back():
    # The first draw surely keeps its label; the second has all-zero scores,
    # and its sample's removal stays booked although no label moved.
    probs = np.array([[1.0, 0.0], [0.0, 0.0]])
    observed = np.array([0, 1])
    latent = np.array([0, 1])
    counts = confusion_counts(latent, observed, 2, 2)
    with pytest.raises(TrainingError):
        gibbs_sample_batch(
            probs, observed, counts, DirichletPrior.uniform(2, 1.0), latent, np.array([0, 1]),
            np.random.default_rng(0),
        )
    np.testing.assert_array_equal(counts, [[1, 0], [0, 0]])
    np.testing.assert_array_equal(latent, [0, 1])


def test_gibbs_batch_decrement_of_empty_cell_raises():
    # the assignment claims a label the counts do not hold
    counts = np.zeros((2, 2), dtype=np.int64)
    with pytest.raises(InvariantError):
        gibbs_sample_batch(
            np.array([[0.5, 0.5]]), np.array([0]), counts, DirichletPrior.uniform(2, 1.0),
            np.array([1]), np.array([0]), np.random.default_rng(0),
        )
    assert counts.sum() == 0


@pytest.mark.parametrize("anneal", [float("nan"), float("inf"), -0.5])
def test_gibbs_batch_rejects_bad_anneal_before_drawing(anneal):
    # NaN and inf would otherwise fail as TrainingError after the uniforms were drawn.
    counts = counts_of([[1, 0], [0, 1]])
    latent = np.array([0, 1])
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ParameterError, match="anneal"):
        gibbs_sample_batch(
            np.array([[0.5, 0.5]]), np.array([0]), counts, DirichletPrior.uniform(2, 1.0),
            latent, np.array([0]), rng, anneal=anneal,
        )
    assert rng.bit_generator.state == state
    assert counts.tolist() == [[1, 0], [0, 1]]
    assert latent.tolist() == [0, 1]
    with pytest.raises(ParameterError, match="anneal"):
        sampling_distribution(
            np.array([0.5, 0.5]), 0, counts, DirichletPrior.uniform(2, 1.0), anneal=anneal
        )


def test_gibbs_batch_shape_validation():
    prior = DirichletPrior.uniform(2, 1.0)
    counts = counts_of([[1, 0], [0, 1]])
    with pytest.raises(ParameterError):
        gibbs_sample_batch(
            np.array([0.5, 0.5]), np.array([0]), counts, prior, np.array([0, 1]),
            np.array([0]), np.random.default_rng(0),
        )


BAD_SAMPLER_INPUTS = {
    # A prior longer than the count columns used to be sampled under silently.
    "prior_too_long": {"prior": DirichletPrior.uniform(5, 1.0)},
    "prior_too_short": {"prior": DirichletPrior.uniform(1, 1.0)},
    "counts_as_list": {"counts": [[1, 0], [0, 1]]},
    "counts_1d": {"counts": np.array([1, 1])},
    "labels_as_list": {"labels": [0, 1]},
    "labels_2d": {"labels": np.array([[0, 1]])},
    "labels_float": {"labels": np.array([0.0, 1.0])},
}


@pytest.mark.parametrize("case", BAD_SAMPLER_INPUTS)
def test_gibbs_batch_rejects_bad_state_before_drawing(case):
    args = {"counts": counts_of([[1, 0], [0, 1]]), "prior": DirichletPrior.uniform(2, 1.0),
            "labels": np.array([0, 1]), **BAD_SAMPLER_INPUTS[case]}
    counts, labels = np.array(args["counts"]), np.array(args["labels"])
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ParameterError):
        gibbs_sample_batch(
            np.array([[0.5, 0.5]]), np.array([0]), args["counts"], args["prior"],
            args["labels"], np.array([0]), rng,
        )
    assert rng.bit_generator.state == state
    assert np.array_equal(args["counts"], counts) and np.array_equal(args["labels"], labels)


@pytest.mark.parametrize("label", [-2, -1, 2])
def test_gibbs_batch_rejects_a_label_outside_the_latent_range(label):
    # A negative label would index the count column from its end, and 2 past it.
    counts = counts_of([[1, 0], [0, 1]])
    labels = np.array([label, 1])
    with pytest.raises(InvariantError, match=f"latent label {label} "):
        gibbs_sample_batch(
            np.array([[0.5, 0.5]]), np.array([0]), counts, DirichletPrior.uniform(2, 1.0),
            labels, np.array([0]), np.random.default_rng(0),
        )
    assert counts.tolist() == [[1, 0], [0, 1]] and labels.tolist() == [label, 1]


def _assert_warmup_refused_before_drawing(warm):
    counts = counts_of([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    prior = DirichletPrior.uniform(3, 1.0)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ParameterError, match="warmup_phi"):
        gibbs_sample_batch(
            np.full((1, 3), 1 / 3), np.array([0]), counts, prior, np.array([0, 1, 2]),
            np.array([0]), rng, warmup_phi=warm,
        )
    assert rng.bit_generator.state == state and counts.trace() == 3
    with pytest.raises(ParameterError, match="warmup_phi"):
        sampling_distribution(np.full(3, 1 / 3), 0, counts, prior, warmup_phi=warm)


def test_warmup_channel_must_have_the_counts_shape():
    # A 2 x 2 channel against 3 latent classes would never let class 2 be drawn.
    _assert_warmup_refused_before_drawing(np.full((2, 2), 0.5))


# Nested lists that are no float array of the counts' 3 x 3 shape.
BAD_WARMUP_LISTS = {
    "too_small": [[0.5, 0.5], [0.5, 0.5]],
    "ragged": [[0.5, 0.5, 0.0], [1.0], [0.0, 0.0, 1.0]],
    "strings": [["a"] * 3] * 3,
}


@pytest.mark.parametrize("case", BAD_WARMUP_LISTS)
def test_warmup_channel_list_is_checked_before_drawing(case):
    _assert_warmup_refused_before_drawing(BAD_WARMUP_LISTS[case])


@pytest.mark.parametrize("anneal", [1.0, 0.5])
def test_warmup_channel_given_as_a_nested_list_scores_as_its_array(anneal):
    # A list used to pass the shape check, draw the uniforms, then fail on `.T`.
    warm = [[0.7, 0.2, 0.1], [0.1, 0.8, 0.1], [0.25, 0.25, 0.5]]
    prior = DirichletPrior.uniform(3, 1.0)
    observed = np.array([0, 1, 2, 1])
    probs = np.random.default_rng(1).dirichlet(np.ones(3), size=4)
    outcomes = []
    for channel in (warm, np.array(warm)):
        labels = np.array([0, 1, 2, 2])
        counts = confusion_counts(labels, observed, 3, 3)
        rng = np.random.default_rng(7)
        sampled = gibbs_sample_batch(
            probs, observed, counts, prior, labels, np.arange(4), rng,
            warmup_phi=channel, anneal=anneal,
        )
        dist = sampling_distribution(probs[0], 1, counts, prior, warmup_phi=channel, anneal=anneal)
        outcomes.append(
            (sampled.tolist(), counts.tolist(), labels.tolist(), rng.bit_generator.state,
             dist.tobytes())
        )
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize(
    "case", [c for c in BAD_SAMPLER_INPUTS if not c.startswith("labels")] + ["observed_out_of_range"]
)
def test_sampling_distribution_rejects_bad_state(case):
    args = {"counts": counts_of([[1, 0], [0, 1]]), "prior": DirichletPrior.uniform(2, 1.0),
            "observed": 0, **BAD_SAMPLER_INPUTS.get(case, {"observed": 2})}
    with pytest.raises(ParameterError):
        sampling_distribution(np.array([0.5, 0.5]), args["observed"], args["counts"], args["prior"])


# entry point ("batch" or "draw") -> the argument it gets wrong. Index -1 is
# out of range too: it would name the last sample of `labels`.
BAD_ENTRY_ARGUMENTS = {
    "batch_anneal_a_string": ("batch", {"anneal": "0.5"}),
    "batch_index_past_the_end": ("batch", {"batch_indices": np.array([2])}),
    "batch_index_negative": ("batch", {"batch_indices": np.array([-1])}),
    "batch_index_a_float": ("batch", {"batch_indices": np.array([0.0])}),
    # A float label passed the range check and drew the uniforms, then leaked a TypeError.
    "batch_observed_label_fractional": ("batch", {"observed": 0.5}),
    "batch_observed_label_a_whole_float": ("batch", {"observed": 1.0}),
    # Observed labels of shape (1, 1) compared a list with an int and leaked a TypeError.
    "batch_observed_labels_2d": ("batch", {"observed": [0]}),
    "draw_anneal_a_string": ("draw", {"anneal": "0.5"}),
    "draw_observed_label_fractional": ("draw", {"observed": 1.5}),
    "draw_observed_label_a_string": ("draw", {"observed": "1"}),
}


@pytest.mark.parametrize("case", BAD_ENTRY_ARGUMENTS)
def test_sampler_entry_points_check_arguments_before_drawing(case):
    entry, bad = BAD_ENTRY_ARGUMENTS[case]
    args = {"observed": 0, "batch_indices": np.array([0]), "anneal": 1.0, **bad}
    counts, labels = counts_of([[1, 0], [0, 1]]), np.array([0, 1])
    prior = DirichletPrior.uniform(2, 1.0)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ParameterError):
        if entry == "batch":
            gibbs_sample_batch(
                np.array([[0.5, 0.5]]), np.array([args["observed"]]), counts, prior, labels,
                args["batch_indices"], rng, anneal=args["anneal"],
            )
        else:
            sampling_distribution(
                np.array([0.5, 0.5]), args["observed"], counts, prior, anneal=args["anneal"]
            )
    assert rng.bit_generator.state == state
    assert counts.tolist() == [[1, 0], [0, 1]] and labels.tolist() == [0, 1]


# ---------------------------------------------------------- channel cache


def _leave_one_out_channels(counts, prior, observed, labels):
    """Each (observed, label) cell's count channel with one sample of the cell removed."""
    channels = {}
    for obs, old in zip(observed.tolist(), labels.tolist()):
        work = counts.copy()
        work[old, obs] -= 1
        channels[obs, old] = conditional_transition_column(work, prior, obs).tolist()
    return channels


def _kept_channels(chain):
    """The channels the chain keeps, by (observed label, old label)."""
    n_latent, n_observed = chain.counts.shape
    assert len(chain.channels) == n_observed
    assert all(len(kept) == n_latent for kept in chain.channels)
    return {
        (obs, old): channel
        for obs, kept in enumerate(chain.channels)
        for old, channel in enumerate(kept)
        if channel is not None
    }


def _assert_channels_hold(chain):
    """Every channel the chain keeps sits on a nonempty cell and is that cell's channel now."""
    channels = _kept_channels(chain)
    observed, labels = (np.array([key[i] for key in channels], int) for i in (0, 1))
    assert all(chain.counts[old, obs] > 0 for obs, old in channels)
    assert channels == _leave_one_out_channels(chain.counts, chain.prior, observed, labels)


def _cache_case():
    observed = np.array([0, 1, 1, 2, 0, 2])
    labels = np.array([0, 1, 2, 2, 1, 2])
    counts = confusion_counts(labels, observed, 3, 3)
    return observed, labels, counts, DirichletPrior(np.array([0.5, 1.0, 2.0]))


def test_cache_holds_each_cells_channel_until_a_label_moves():
    observed, labels, counts, prior = _cache_case()
    chain = GibbsChain(labels, counts, prior)
    rng = np.random.default_rng(0)
    sure = np.eye(3)[labels]
    chain.plan(observed, np.arange(6), rng)
    assert not chain.step(sure)
    assert _kept_channels(chain) == _leave_one_out_channels(counts, prior, observed, labels)
    # The batch's one draw moves sample 0 from class 0 to class 2 and empties
    # cell (0, 0): the other channels are refreshed, and the emptied one goes.
    chain.plan(observed[:1], np.array([0]), rng)
    assert chain.step(np.array([[0.0, 0.0, 1.0]]))
    assert labels[0] == 2 and (0, 0) not in _kept_channels(chain)
    assert set(_kept_channels(chain)) == {(1, 1), (1, 2), (2, 2), (0, 1)}
    _assert_channels_hold(chain)
    assert np.array_equal(counts, confusion_counts(labels, observed, 3, 3))


@pytest.mark.parametrize("filled", [False, True], ids=["empty", "filled"])
def test_failed_batch_empties_the_cache_and_keeps_its_removal_booked(filled):
    # The first draw surely keeps its label; the second has all-zero scores.
    # From a filled cache both draws are hits, so no count was read before the failure.
    probs = np.array([[1.0, 0.0], [0.0, 0.0]])
    observed = np.array([0, 1])
    latent = np.array([0, 1])
    counts = confusion_counts(latent, observed, 2, 2)
    chain = GibbsChain(latent, counts, DirichletPrior.uniform(2, 1.0))
    rng = np.random.default_rng(0)
    if filled:
        chain.plan(observed, np.arange(2), rng)
        chain.step(np.eye(2))
        assert set(_kept_channels(chain)) == {(0, 0), (1, 1)}
    chain.plan(observed, np.arange(2), rng)
    with pytest.raises(TrainingError):
        chain.step(probs)
    assert chain.cursor == 2
    assert _kept_channels(chain) == {}
    np.testing.assert_array_equal(counts, [[1, 0], [0, 0]])
    np.testing.assert_array_equal(latent, [0, 1])


def chain_case(n_observed, extra_class, plan, seed):
    """Consecutive batches of one chain over 40 samples.

    `plan` gives each batch as (size, settled, warmup, anneal). A settled
    batch's classifier gives each sample's current label 0.99 when the batch
    runs, so few of its draws move; the others draw Dirichlet(0.7) rows.
    `extra_class` adds the outlier class of lccn_star (R = K + 1).
    """
    data = np.random.default_rng(seed)
    n, n_latent = 40, n_observed + extra_class
    observed = data.integers(0, n_observed, size=n)
    labels = data.integers(0, n_latent, size=n)
    prior = DirichletPrior(data.uniform(0.05, 5.0, size=n_observed))
    warmup = check_transition(data.dirichlet(np.ones(n_observed), size=n_latent))
    batches = []
    for size, settled, warm, anneal in plan:
        positions = data.permutation(n)[:size]
        probs = None if settled else data.dirichlet(np.full(n_latent, 0.7), size=size)
        batches.append((positions, probs, warmup if warm else None, anneal))
    return observed, labels, prior, n_latent, batches, seed


@st.composite
def chain_cases(draw):
    batch = st.tuples(
        st.integers(1, 32), st.booleans(), st.booleans(), st.sampled_from([1.0, 1.0, 0.5, 0.8])
    )
    return chain_case(
        draw(st.integers(2, 9)), draw(st.booleans()), draw(st.lists(batch, min_size=2, max_size=8)),
        draw(st.integers(0, 2**32 - 1)),
    )


def _run_chain(case, sample=None):
    """Each batch's (labels drawn, counts, labels) under `sample`, and the final generator state.

    With no `sample`, one `GibbsChain` plans all the batches at once and
    steps through them, and its channels are checked against the counts
    after each of them.
    """
    observed, labels, prior, n_latent, batches, seed = case
    labels = labels.copy()
    counts = confusion_counts(labels, observed, n_latent, prior.n_observed)
    rng = np.random.default_rng(seed)
    if sample is None:
        warmup = next((w for _, _, w, _ in batches if w is not None), None)
        chain = GibbsChain(labels, counts, prior, warmup)
        planned = np.concatenate([positions for positions, _, _, _ in batches])
        chain.plan(observed[planned], planned, rng)
    outcomes = []
    for positions, probs, warmup, anneal in batches:
        if probs is None:
            probs = np.full((len(positions), n_latent), 0.01 / (n_latent - 1))
            probs[np.arange(len(positions)), labels[positions]] = 0.99
        if sample is None:
            previous = labels[positions]
            moved = chain.step(probs, warmup is not None, anneal)
            sampled = labels[positions]
            assert moved == (sampled.tolist() != previous.tolist())
            _assert_channels_hold(chain)
        else:
            sampled = sample(
                probs, observed[positions], counts, prior, labels, positions, rng, warmup, anneal
            )
        outcomes.append((list(sampled), counts.tolist(), labels.tolist()))
    return outcomes, rng.bit_generator.state


# The runs' own shapes: K=3 in batches of 8 and lccn_star's R=5 at K=4 in
# batches of 32, settled after a warmup batch, with one moving batch and an
# annealed stretch; and R=9 rows, summed by `_row_sum`.
RUN_PLAN = [(8, True, True, 1.0), (8, True, False, 1.0), (8, False, False, 1.0),
            (8, True, False, 1.0), (8, True, False, 0.7), (8, True, False, 0.7)]


# Batches that each move some label, so that every batch refreshes the channels.
MOVING_PLAN = [(8, False, False, 1.0)] * 4 + [(8, False, True, 1.0), (8, False, False, 0.7)]


@example(case=chain_case(3, False, RUN_PLAN, 0))
@example(case=chain_case(4, True, [(32, *step[1:]) for step in RUN_PLAN], 1))
@example(case=chain_case(8, True, RUN_PLAN, 2))
@example(case=chain_case(3, False, MOVING_PLAN, 3))
@example(case=chain_case(4, True, [(32, *step[1:]) for step in MOVING_PLAN], 4))
@given(case=chain_cases())
@settings(max_examples=200, deadline=None)
def test_batches_sharing_a_cache_match_fresh_caches_and_the_stepwise_replay(case):
    # One chain over all batches, a fresh chain per batch, and the reference draws.
    shared = _run_chain(case)
    assert shared == _run_chain(case, gibbs_sample_batch)
    assert shared == _run_chain(case, _replay)


@pytest.mark.parametrize("n_observed, extra_class, size, seed", [(3, False, 8, 3), (4, True, 32, 4)])
def test_the_moving_plan_moves_a_label_in_every_batch(n_observed, extra_class, size, seed):
    observed, labels, prior, n_latent, batches, _ = chain_case(
        n_observed, extra_class, [(size, *step[1:]) for step in MOVING_PLAN], seed
    )
    counts = confusion_counts(labels, observed, n_latent, prior.n_observed)
    warmup = next(w for _, _, w, _ in batches if w is not None)
    chain = GibbsChain(labels, counts, prior, warmup)
    rng = np.random.default_rng(seed)
    for positions, probs, warm, anneal in batches:
        chain.plan(observed[positions], positions, rng)
        assert chain.step(probs, warm is not None, anneal)


@st.composite
def certify_cases(draw):
    """A chain over 10 samples and the one-hot target labels of each of its batches.

    A batch either moves every sample of one latent class to another class
    (emptying its row), swaps the labels of two samples that share an
    observed label (the counts cancel), or redraws random samples to random
    labels. `extra_class` adds lccn_star's outlier class (R = K + 1).
    """
    n_observed = draw(st.integers(2, 5))
    n_latent = n_observed + draw(st.booleans())
    alpha = 10.0 ** draw(st.floats(-300.0, 1.0)) * np.ones(n_observed)
    if draw(st.booleans()):
        alpha = alpha * draw(st.lists(st.floats(0.5, 2.0), min_size=n_observed, max_size=n_observed))
    data = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    observed = data.integers(0, n_observed, size=10)
    labels = data.integers(0, n_latent, size=10)
    kinds = draw(st.lists(st.sampled_from(["empty", "swap", "random"]), min_size=1, max_size=6))
    return observed, labels, DirichletPrior(alpha), n_latent, kinds, data


def _certify_targets(kind, observed, labels, n_latent, data):
    """Positions and target labels of one batch of `certify_cases`."""
    if kind == "empty":
        row = data.choice(labels)
        positions = np.flatnonzero(labels == row)
        return positions, np.full(len(positions), (row + 1 + data.integers(n_latent - 1)) % n_latent)
    if kind == "swap":
        pairs = [(i, j) for i in range(10) for j in range(i) if observed[i] == observed[j]
                 and labels[i] != labels[j]]
        if pairs:
            i, j = pairs[data.integers(len(pairs))]
            return np.array([i, j]), labels[[j, i]]
    positions = data.permutation(10)[: data.integers(1, 11)]
    return positions, data.integers(0, n_latent, size=len(positions))


def _outcome(certificate):
    """The bytes of a (measured, bound) pair, or the type of the error that refused it."""
    try:
        return np.array(certificate()).tobytes()
    except (InvariantError, ParameterError) as exc:
        return type(exc)


@given(case=certify_cases())
@settings(max_examples=200, deadline=None)
def test_chain_certificate_is_the_update_bound_of_the_whole_count_matrix(case):
    observed, labels, prior, n_latent, kinds, data = case
    counts = confusion_counts(labels, observed, n_latent, prior.n_observed)
    chain = GibbsChain(labels, counts, prior)
    for kind in kinds:
        positions, targets = _certify_targets(kind, observed, labels, n_latent, data)
        before = counts.copy()
        # A classifier sure of each target makes the chain draw it.
        chain.plan(observed[positions], positions, data)
        chain.step(np.eye(n_latent)[targets])
        assert labels[positions].tolist() == targets.tolist()
        assert _outcome(chain.certify) == _outcome(
            lambda: _worst_certified_row(*update_bound(before, counts, prior).tolist())
        )


# ------------------------------------------------------------ epoch plans


@st.composite
def epoch_cases(draw):
    """One epoch of a latent trainer's chain: its order, its batches and their classifier rows.

    K observed labels and R = K or K + 1 latent classes over n samples. The
    epoch's order is cut into batches of random sizes, some empty, and the
    last batch takes the rest. `excluded` samples (lccn_plus's clean rows)
    stay out of the counts and of the plan, so a batch may have no row to
    resample. Each batch is settled or not (a settled batch's classifier gives each sample's current
    label 0.99), warm or not, and annealed or not. `overask` names the batch
    before which a step asks for one row more than the plan has left.
    """
    n_observed = draw(st.integers(2, 5))
    n_latent = n_observed + draw(st.booleans())
    n = draw(st.integers(1, 40))
    sizes = draw(st.lists(st.integers(0, 12), min_size=1, max_size=10))
    excluded_share = draw(st.sampled_from([0.0, 0.0, 0.3, 0.8, 1.0]))
    seed = draw(st.integers(0, 2**32 - 1))
    data = np.random.default_rng(seed)
    observed = data.integers(0, n_observed, size=n)
    labels = data.integers(0, n_latent, size=n)
    excluded = data.random(n) < excluded_share
    prior = DirichletPrior(data.uniform(0.05, 5.0, size=n_observed))
    warmup = check_transition(data.dirichlet(np.ones(n_observed), size=n_latent))
    cuts = np.cumsum(sizes)
    batches = [
        (order, bool(data.random() < 0.5), bool(data.random() < 0.2),
         float(data.choice([1.0, 1.0, 0.6])))
        for order in np.split(data.permutation(n), cuts[cuts < n])
    ]
    rows = data.dirichlet(np.full(n_latent, 0.7), size=n)
    overask = draw(st.integers(0, len(batches)))
    return observed, labels, excluded, prior, warmup, batches, rows, overask, seed


def _run_epoch(case, planned):
    """Each batch's (moved, certificate, labels, counts), and the generator state after the epoch.

    `planned` plans the epoch once on one chain and steps it batch by batch,
    as the latent trainers do; otherwise each batch is a fresh
    `gibbs_sample_batch`, certified by `update_bound` on the whole matrix.
    """
    observed, labels, excluded, prior, warmup, batches, rows, overask, seed = case
    n_latent = warmup.shape[0]
    labels = labels.copy()
    counts = confusion_counts(labels, observed, n_latent, prior.n_observed, exclude=excluded)
    rng = np.random.default_rng(seed)
    if planned:
        chain = GibbsChain(labels, counts, prior, warmup)
        epoch = np.concatenate([order for order, _, _, _ in batches])
        epoch = epoch[~excluded[epoch]]
        chain.plan(observed[epoch], epoch, rng)
    outcomes = []
    for index, (order, settled, warm, anneal) in enumerate(batches):
        positions = order[~excluded[order]]
        probs = rows[positions]
        if settled:
            probs = np.full((len(positions), n_latent), 0.01 / (n_latent - 1))
            probs[np.arange(len(positions)), labels[positions]] = 0.99
        previous = labels[positions].tolist()
        if planned:
            if index == overask:
                _assert_overask_refused(chain, rng)
            moved = chain.step(probs, warm, anneal)
            certificate = _outcome(chain.certify) if moved else None
            _assert_channels_hold(chain)
        else:
            before = counts.copy()
            gibbs_sample_batch(
                probs, observed[positions], counts, prior, labels, positions, rng,
                warmup if warm else None, anneal,
            )
            moved = labels[positions].tolist() != previous
            certificate = None
            if moved:
                certificate = _outcome(
                    lambda: _worst_certified_row(*update_bound(before, counts, prior).tolist())
                )
        assert moved == (labels[positions].tolist() != previous)
        outcomes.append((moved, certificate, labels.tolist(), counts.tolist()))
    if planned:
        assert chain.cursor == len(chain.draws)
        _assert_overask_refused(chain, rng)
    return outcomes, rng.bit_generator.state


def _assert_overask_refused(chain, rng):
    """A step of one row more than the plan has left is refused before it books anything."""
    state = (chain.labels.tolist(), chain.counts.tolist(), chain.cursor, _kept_channels(chain),
             rng.bit_generator.state)
    n_latent = chain.counts.shape[0]
    over = np.full((len(chain.draws) - chain.cursor + 1, n_latent), 1.0 / n_latent)
    with pytest.raises(ParameterError, match="the plan"):
        chain.step(over)
    assert state == (chain.labels.tolist(), chain.counts.tolist(), chain.cursor,
                     _kept_channels(chain), rng.bit_generator.state)


@given(case=epoch_cases())
@settings(max_examples=300, deadline=None)
def test_an_epoch_planned_once_matches_a_fresh_batch_each_time(case):
    assert _run_epoch(case, planned=True) == _run_epoch(case, planned=False)


# What a plan must refuse before it draws. The scalars leaked a TypeError from
# `len()` and a plain seed an AttributeError from `.random`.
BAD_PLANS = {
    "observed_a_scalar": {"observed": np.int64(0)},
    "positions_a_scalar": {"positions": 0},
    "rng_a_seed": {"rng": 0},
    "rng_a_random_state": {"rng": np.random.RandomState(0)},
}


@pytest.mark.parametrize("case", BAD_PLANS)
def test_plan_refuses_scalars_and_a_non_generator_before_drawing(case):
    counts, labels = counts_of([[1, 0], [0, 1]]), np.array([0, 1])
    prior = DirichletPrior.uniform(2, 1.0)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    args = {"observed": np.array([0]), "positions": np.array([0]), "rng": rng, **BAD_PLANS[case]}
    chain = GibbsChain(labels, counts, prior)
    with pytest.raises(ParameterError):
        chain.plan(args["observed"], args["positions"], args["rng"])
    with pytest.raises(ParameterError):
        gibbs_sample_batch(
            np.array([[0.5, 0.5]]), args["observed"], counts, prior, labels, args["positions"],
            args["rng"],
        )
    assert chain.draws == [] and rng.bit_generator.state == state
    assert counts.tolist() == [[1, 0], [0, 1]] and labels.tolist() == [0, 1]


# --------------------------------------------------------- exact posterior


def test_bruteforce_single_sample_uniform_prior_follows_classifier():
    # With one sample and a symmetric prior the count factor is identical for
    # every latent class, so the posterior is exactly the classifier row.
    probs = np.array([[0.3, 0.7]])
    observed = np.array([1])
    prior = DirichletPrior.uniform(2, 1.0)
    marginals = exact_posterior_bruteforce(probs, observed, prior)
    np.testing.assert_allclose(marginals, probs, atol=1e-12)


def test_bruteforce_two_samples_matches_direct_enumeration():
    probs = np.array([[0.6, 0.4], [0.2, 0.8]])
    observed = np.array([0, 1])
    alpha = np.array([1.0, 2.0])
    prior = DirichletPrior(alpha)

    def beta_fn(vec):
        return math.prod(math.gamma(v) for v in vec) / math.gamma(sum(vec))

    weights = {}
    for y1 in range(2):
        for y2 in range(2):
            counts = np.zeros((2, 2))
            counts[y1, observed[0]] += 1
            counts[y2, observed[1]] += 1
            w = probs[0, y1] * probs[1, y2]
            for row in range(2):
                w *= beta_fn(alpha + counts[row]) / beta_fn(alpha)
            weights[(y1, y2)] = w
    z = sum(weights.values())
    expected = np.zeros((2, 2))
    for (y1, y2), w in weights.items():
        expected[0, y1] += w / z
        expected[1, y2] += w / z

    marginals = exact_posterior_bruteforce(probs, observed, prior)
    np.testing.assert_allclose(marginals, expected, atol=1e-12)


def _lgamma_marginals(probs, observed, alpha):
    """Marginals from each state's weight written as a product of gamma-function ratios."""
    n, k = probs.shape
    marginals = np.zeros((n, k))
    for assign in itertools.product(range(k), repeat=n):
        log_weight = sum(math.log(probs[i, z]) for i, z in enumerate(assign))
        for r in range(k):
            cells = [sum(z == r and y == c for z, y in zip(assign, observed)) for c in range(k)]
            log_weight += sum(math.lgamma(a + c) - math.lgamma(a) for a, c in zip(alpha, cells))
            log_weight += math.lgamma(sum(alpha)) - math.lgamma(sum(alpha) + sum(cells))
        marginals[np.arange(n), assign] += math.exp(log_weight)
    return marginals / marginals.sum(axis=1, keepdims=True)


@given(k=st.integers(2, 3), n=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_bruteforce_matches_a_per_state_lgamma_product(k, n, seed):
    data = np.random.default_rng(seed)
    probs = data.dirichlet(np.ones(k), size=n)
    observed = data.integers(0, k, size=n)
    alpha = data.uniform(0.05, 5.0, size=k)
    marginals = exact_posterior_bruteforce(probs, observed, DirichletPrior(alpha))
    np.testing.assert_allclose(
        marginals, _lgamma_marginals(probs, observed.tolist(), alpha.tolist()), rtol=0, atol=1e-12
    )


# Observed labels the reference must refuse, for two rows of K=2 probabilities:
# -1 would index the last class, 2 is past it, and one label would broadcast.
BAD_REFERENCE_LABELS = {"negative": [0, -1], "past_the_end": [0, 2], "one_for_two_rows": [0]}


@pytest.mark.parametrize("case", BAD_REFERENCE_LABELS)
def test_bruteforce_rejects_bad_observed_labels(case):
    probs = np.array([[0.7, 0.3], [0.4, 0.6]])
    observed = np.array(BAD_REFERENCE_LABELS[case])
    prior = DirichletPrior.uniform(2, 1.0)
    with pytest.raises(ParameterError):
        exact_posterior_bruteforce(probs, observed, prior)
    with pytest.raises(ParameterError):
        mixing_diagnostic(probs, observed, prior, sweeps=10, burn_in=1)


@pytest.mark.parametrize("row", [[0.0, 0.0], [math.nan, 0.5]])
def test_bruteforce_non_finite_weights_are_a_training_error(row):
    # As in `sampling_distribution`, a classifier row that scores nothing is a runtime failure.
    probs = np.array([[0.7, 0.3], row])
    with pytest.raises(TrainingError, match="normalization"):
        exact_posterior_bruteforce(probs, np.array([0, 1]), DirichletPrior.uniform(2, 1.0))


def test_bruteforce_rejects_oversized_state_space():
    probs = np.full((30, 4), 0.25)
    observed = np.zeros(30, dtype=np.int64)
    prior = DirichletPrior.uniform(4, 1.0)
    with pytest.raises(ParameterError):
        exact_posterior_bruteforce(probs, observed, prior)


def test_total_variation_rows_hand_example():
    a = np.array([[0.5, 0.5], [1.0, 0.0]])
    b = np.array([[0.25, 0.75], [1.0, 0.0]])
    np.testing.assert_allclose(total_variation_rows(a, b), [0.25, 0.0], atol=1e-15)


# ------------------------------------------------------ mixing diagnostics


def test_mixing_zero_sweeps_is_point_mass():
    rng = np.random.default_rng(5)
    probs = rng.dirichlet(np.ones(2), size=4)
    observed = rng.integers(0, 2, size=4)
    prior = DirichletPrior.uniform(2, 1.0)
    diag = mixing_diagnostic(probs, observed, prior, sweeps=0, burn_in=0, seed=1)
    expected = np.zeros((4, 2))
    expected[np.arange(4), observed] = 1.0
    np.testing.assert_array_equal(diag.empirical, expected)
    assert len(diag.trace) == 1


def test_mixing_converges_on_small_instance():
    rng = np.random.default_rng(123)
    probs = rng.dirichlet(np.ones(2), size=5)
    observed = rng.integers(0, 2, size=5)
    prior = DirichletPrior.uniform(2, 1.0)
    diag = mixing_diagnostic(probs, observed, prior, sweeps=4000, burn_in=500, seed=11)
    assert diag.max_tv <= 0.05
    assert diag.mean_tv <= diag.max_tv
    sweeps_logged = [t[0] for t in diag.trace]
    assert sweeps_logged == sorted(sweeps_logged)
