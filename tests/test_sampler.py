"""Annealing schedule, single-draw distributions, batch bit-identity and exact-enumeration checks."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lccn_lab.errors import InvariantError, ParameterError, TrainingError
from lccn_lab.noise_model import (
    DirichletPrior,
    TransitionMatrix,
    conditional_transition_column,
    confusion_counts,
)
from lccn_lab.sampler import (
    UNASSIGNED,
    AnnealSchedule,
    anneal_coefficient,
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
    assert anneal_coefficient(0, AnnealSchedule()) == 1.0
    assert anneal_coefficient(10_000, AnnealSchedule()) == 1.0


def test_anneal_frozen_values():
    sched = AnnealSchedule(enabled=True, max_step=200, floor=0.5, decay=0.8)
    assert anneal_coefficient(0, sched) == pytest.approx(1.0)
    assert anneal_coefficient(100, sched) == pytest.approx(math.exp(-0.4), abs=1e-15)
    # exp(-0.8) = 0.449... falls below the floor
    assert anneal_coefficient(200, sched) == 0.5


def test_anneal_monotone_until_floor():
    sched = AnnealSchedule(enabled=True, max_step=1000, floor=0.5, decay=0.8)
    values = [anneal_coefficient(s, sched) for s in range(0, 1001, 50)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert min(values) >= 0.5


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


def test_sampling_distribution_product_target():
    counts = counts_of([[3.0, 1.0], [0.0, 4.0]])
    prior = DirichletPrior.uniform(2, 1.0)
    probs = np.array([0.8, 0.2])
    channel = np.array([(1 + 3) / (2 + 4), (1 + 0) / (2 + 4)])
    expected = (probs * channel) ** 0.5
    expected /= expected.sum()
    dist = sampling_distribution(probs, 0, counts, prior, anneal=0.5, anneal_target="product")
    np.testing.assert_allclose(dist, expected, atol=1e-15)


def test_sampling_distribution_warmup_column_overrides_counts():
    counts = counts_of([[100.0, 0.0], [0.0, 100.0]])
    prior = DirichletPrior.uniform(2, 1.0)
    warm = TransitionMatrix(np.array([[0.5, 0.5], [0.5, 0.5]]))
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


def _numpy_distribution(probs_row, observed, counts, prior, warmup_phi, anneal, target):
    """The whole-array formula `sampling_distribution` was first written with."""
    if warmup_phi is not None:
        channel = warmup_phi.matrix[:, observed]
    else:
        channel = conditional_transition_column(counts, prior, observed)
    if target == "transition":
        scores = probs_row * channel**anneal if anneal != 1.0 else probs_row * channel
    else:
        base = probs_row * channel
        scores = base**anneal if anneal != 1.0 else base
    return scores / scores.sum()


def _replay(probs, observed, counts, prior, labels, positions, rng, warmup_phi, anneal, target):
    """Step-by-step reference chain: one reference draw and one scalar uniform per sample."""
    n_latent = counts.shape[0]
    sampled = []
    for row, obs, position in zip(probs, observed, positions):
        if labels[position] != UNASSIGNED:
            counts[labels[position], obs] -= 1
        dist = sampling_distribution(row, int(obs), counts, prior, warmup_phi, anneal, target)
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
    labels[data.random(n) < 0.2] = UNASSIGNED
    positions = data.permutation(n)[:size]
    probs = data.dirichlet(np.full(n_latent, 0.7), size=size)
    alpha = data.uniform(0.05, 5.0, size=n_observed)
    warmup = None
    if draw(st.booleans()):
        warmup = TransitionMatrix(data.dirichlet(np.ones(n_observed), size=n_latent))
    anneal = draw(st.sampled_from([1.0, 0.5]) | st.floats(min_value=0.2, max_value=1.5))
    target = draw(st.sampled_from(["transition", "product"]))
    return probs, observed, labels, positions, DirichletPrior(alpha), warmup, anneal, target, seed


def plain_case(n_latent, alpha, size=32, seed=0):
    """A batch of the runs' own shape: uniform alpha, no warmup, anneal exactly 1."""
    data = np.random.default_rng(seed)
    n = size + 8
    observed = data.integers(0, n_latent, size=n)
    labels = data.integers(0, n_latent, size=n)
    labels[:4] = UNASSIGNED
    positions = data.permutation(n)[:size]
    probs = data.dirichlet(np.ones(n_latent), size=size)
    prior = DirichletPrior.uniform(n_latent, alpha)
    return probs, observed, labels, positions, prior, None, 1.0, "transition", seed


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
    probs, observed, labels, positions, prior, warmup, anneal, target, seed = case
    n_latent, n_observed = probs.shape[1], prior.n_observed
    counts = confusion_counts(labels, observed, n_latent, n_observed)
    work = counts.copy()
    latent = labels.copy()
    replay_labels = labels.copy()
    rng, replay_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    batch_observed = observed[positions]
    sampled = gibbs_sample_batch(
        probs, batch_observed, counts, prior, latent, positions, rng,
        warmup_phi=warmup, anneal=anneal, anneal_target=target,
    )
    expected = _replay(
        probs, batch_observed, work, prior, replay_labels, positions, replay_rng,
        warmup, anneal, target,
    )
    assert sampled.tolist() == expected
    assert np.array_equal(counts, work)
    assert np.array_equal(latent, replay_labels)
    assert rng.bit_generator.state == replay_rng.bit_generator.state


@with_plain_cases
@given(case=batch_cases())
@settings(max_examples=300, deadline=None)
def test_sampling_distribution_is_bit_identical_to_numpy_formula(case):
    probs, observed, labels, _, prior, warmup, anneal, target, _ = case
    counts = confusion_counts(labels, observed, probs.shape[1], prior.n_observed)
    for row, obs in zip(probs, observed):
        dist = sampling_distribution(row, int(obs), counts, prior, warmup, anneal, target)
        reference = _numpy_distribution(row, int(obs), counts, prior, warmup, anneal, target)
        assert dist.tobytes() == reference.tobytes()


class _GivenUniforms:
    """Stands in for a Generator whose next uniforms are given."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, size=None):
        if size is None:
            return self.values.pop(0)
        taken, self.values = self.values[:size], self.values[size:]
        return np.array(taken)


def _one_draw(probs_row, u):
    n_latent = len(probs_row)
    counts = np.zeros((n_latent, n_latent), dtype=np.int64)
    sampled = gibbs_sample_batch(
        np.array([probs_row]), np.array([0]), counts, DirichletPrior.uniform(n_latent, 1.0),
        np.array([UNASSIGNED]), np.array([0]), _GivenUniforms([u]),
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


def test_gibbs_batch_decrement_of_empty_cell_raises():
    # the assignment claims a label the counts do not hold
    counts = np.zeros((2, 2), dtype=np.int64)
    with pytest.raises(InvariantError):
        gibbs_sample_batch(
            np.array([[0.5, 0.5]]), np.array([0]), counts, DirichletPrior.uniform(2, 1.0),
            np.array([1]), np.array([0]), np.random.default_rng(0),
        )
    assert counts.sum() == 0


def test_gibbs_batch_rejects_unknown_anneal_target_before_drawing():
    counts = counts_of([[1, 0], [0, 1]])
    latent = np.array([0, 1])
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ParameterError, match="anneal target"):
        gibbs_sample_batch(
            np.array([[0.5, 0.5]]), np.array([0]), counts, DirichletPrior.uniform(2, 1.0),
            latent, np.array([0]), rng, anneal_target="bogus",
        )
    assert rng.bit_generator.state == state
    assert counts.tolist() == [[1, 0], [0, 1]]
    assert latent.tolist() == [0, 1]


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


@pytest.mark.parametrize(
    "case", [c for c in BAD_SAMPLER_INPUTS if not c.startswith("labels")] + ["observed_out_of_range"]
)
def test_sampling_distribution_rejects_bad_state(case):
    args = {"counts": counts_of([[1, 0], [0, 1]]), "prior": DirichletPrior.uniform(2, 1.0),
            "observed": 0, **BAD_SAMPLER_INPUTS.get(case, {"observed": 2})}
    with pytest.raises(ParameterError):
        sampling_distribution(np.array([0.5, 0.5]), args["observed"], args["counts"], args["prior"])


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
