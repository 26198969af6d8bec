"""Counts, transition estimates, and the per-batch update bound.

The frozen numeric expectations below were derived by hand from the
definitions (smoothed row (C_ij + a_j) / (O_i + sum(a)), channel column
(a_obs + C[:, obs]) / (sum(a) + O_row), bound (|net| + abs) / (O + sum(a) + net))
before the implementation existed.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import conditional_transition_column
from lccn_lab.errors import InvariantError, ParameterError
from lccn_lab.noise_model import (
    DirichletPrior,
    _row_sum,
    check_transition,
    confusion_counts,
    transition_from_counts,
    update_bound,
    warmup_transition,
)

COUNTS_2X2 = np.array([[3, 1], [0, 4]])


def make_counts(matrix):
    return np.array(matrix, dtype=np.int64)


# ---------------------------------------------------------------- priors


def test_prior_uniform():
    prior = DirichletPrior.uniform(3, 2.0)
    assert prior.concentration.tolist() == [2.0, 2.0, 2.0]
    assert prior.total == pytest.approx(6.0)


def test_prior_rejects_nonpositive():
    with pytest.raises(ParameterError):
        DirichletPrior(np.array([1.0, 0.0]))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_prior_rejects_non_finite(bad):
    # NaN slips past a `<= 0.0` test, and inf makes every count channel 0 or NaN.
    with pytest.raises(ParameterError, match="finite"):
        DirichletPrior(np.array([1.0, bad, 1.0]))
    with pytest.raises(ParameterError, match="finite"):
        DirichletPrior.uniform(3, bad)


def test_prior_total_is_the_sum_of_a_read_only_copy():
    alpha = np.array([0.1, 0.2, 0.3])
    prior = DirichletPrior(alpha)
    assert prior.total == float(alpha.sum())
    alpha[0] = 5.0  # the caller's array is not the prior's
    assert prior.concentration.tolist() == [0.1, 0.2, 0.3]
    with pytest.raises(ValueError):
        prior.concentration[0] = 5.0


# ---------------------------------------------------------------- counts


def test_counts_from_assignment_tallies_pairs():
    assignment = np.array([0, 0, 1, 1, 1])
    observed = np.array([0, 1, 1, 1, 0])
    counts = confusion_counts(assignment, observed, 2, 2)
    assert counts.dtype == np.int64
    assert counts.tolist() == [[1, 1], [1, 2]]


def test_counts_skip_excluded_samples_whatever_their_labels():
    # An excluded sample may hold any label, such as an outlier's -1 true label.
    assignment = np.array([0, -1, 1, 0])
    observed = np.array([0, 0, 1, 5])
    exclude = np.array([False, True, False, True])
    counts = confusion_counts(assignment, observed, 2, 2, exclude=exclude)
    assert counts.tolist() == [[1, 0], [0, 1]]


@pytest.mark.parametrize(
    "latent, observed",
    [([0, 1, -2], [0, 0, 1]), ([0, 1, 2], [0, 1, 1]),
     ([0, 1, 1], [0, -1, 1]), ([0, 1, 1], [0, 1, 2])],
)
def test_counts_reject_labels_outside_their_range(latent, observed):
    # -1 would be counted in the last column, -2 dropped, and 2 an IndexError.
    with pytest.raises(ParameterError, match="labels must lie in"):
        confusion_counts(np.array(latent), np.array(observed), 2, 2)


# ------------------------------------------------- transition estimates


def test_smoothed_transition_frozen_example():
    counts = make_counts(COUNTS_2X2)
    prior = DirichletPrior.uniform(2, 1.0)
    phi = transition_from_counts(counts, prior)
    expected = [[4 / 6, 2 / 6], [1 / 6, 5 / 6]]
    assert phi.dtype == np.float64
    np.testing.assert_allclose(phi, expected, rtol=0, atol=1e-15)


def test_conditional_column_frozen_example():
    counts = make_counts(COUNTS_2X2)
    prior = DirichletPrior.uniform(2, 1.0)
    column = conditional_transition_column(counts, prior, 0)
    np.testing.assert_allclose(column, [4 / 6, 1 / 6], atol=1e-15)


def test_warmup_transition_frozen_example():
    predictions = np.array([[0.5, 0.5], [1.0, 0.0]])
    observed = np.array([0, 1])
    phi = warmup_transition(predictions, observed, 2)
    np.testing.assert_allclose(phi, [[1 / 3, 2 / 3], [1.0, 0.0]], atol=1e-15)


def test_warmup_transition_zero_mass_row_is_uniform():
    predictions = np.array([[1.0, 0.0], [1.0, 0.0]])
    observed = np.array([0, 0])
    phi = warmup_transition(predictions, observed, 2)
    np.testing.assert_allclose(phi[1], [0.5, 0.5], atol=1e-15)


def test_transition_matrix_rejects_bad_rows():
    nan, inf = float("nan"), float("inf")
    for values in ([[0.6, 0.3], [0.5, 0.5]], [[-0.1, 1.1], [0.5, 0.5]], [0.5, 0.5], [[[1.0]]],
                   [[nan, 1.0], [0.5, 0.5]], [[inf, 0.0], [0.0, 1.0]]):
        with pytest.raises(ParameterError):
            check_transition(np.array(values))
    assert check_transition([[1, 0], [0.25, 0.75]]).dtype == np.float64


# ----------------------------------------------------------- update bound


def test_update_bound_frozen_example():
    # Row 0 holds 100 samples; a batch adds 3 to column 0 and removes 1 from
    # column 1: net +2, absolute churn 4, so with sum(a)=2 the certified bound
    # is (2/102 + 4/102) / (1 + 2/102) = 6/104.
    before = make_counts([[60.0, 40.0], [10.0, 10.0]])
    after = make_counts([[63.0, 39.0], [10.0, 10.0]])
    prior = DirichletPrior.uniform(2, 1.0)
    measured, bound = update_bound(before, after, prior)
    assert bound[0] == pytest.approx(6 / 104, abs=1e-15)
    # measured change of the smoothed row: (61/102, 41/102) -> (64/104, 40/104)
    expected_measured = abs(61 / 102 - 64 / 104) + abs(41 / 102 - 40 / 104)
    assert measured[0] == pytest.approx(expected_measured, abs=1e-15)
    assert measured[0] <= bound[0] + 1e-12
    # untouched row moves not at all
    assert measured[1] == pytest.approx(0.0, abs=1e-15)
    assert bound[1] == pytest.approx(0.0, abs=1e-15)


def _random_batch_update(draw_counts, draw_moves, n_latent, n_obs):
    """Build (before, after) counts linked by a legal batch of reassignments."""
    before = np.asarray(draw_counts, dtype=np.float64).reshape(n_latent, n_obs)
    after = before.copy()
    for old_row, new_row, col in draw_moves:
        if after[old_row, col] >= 1.0:
            after[old_row, col] -= 1.0
            after[new_row, col] += 1.0
    return before, after


@given(
    counts=st.lists(st.integers(min_value=0, max_value=40), min_size=6, max_size=6),
    moves=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=1),
            st.integers(min_value=0, max_value=1),
            st.integers(min_value=0, max_value=2),
        ),
        max_size=16,
    ),
    alpha=st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_update_bound_property(counts, moves, alpha):
    before_m, after_m = _random_batch_update(counts, moves, 2, 3)
    before = make_counts(before_m)
    after = make_counts(after_m)
    prior = DirichletPrior.uniform(3, alpha)
    measured, bound = update_bound(before, after, prior)
    assert np.all(measured <= bound + 1e-12)
    assert np.all(bound >= -1e-15)


@given(
    occupancy=st.integers(min_value=3200, max_value=20000),
    removals=st.integers(min_value=0, max_value=16),
    additions=st.integers(min_value=0, max_value=16),
)
@settings(max_examples=200, deadline=None)
def test_update_bound_small_batch_regime(occupancy, removals, additions):
    # When the batch is at most 1% of the row occupancy, the measured change
    # is at most twice the churn ratio (plus float slack).
    half = occupancy // 2
    before = make_counts([[float(half), float(occupancy - half)], [5.0, 5.0]])
    after_m = before.copy()
    after_m[0, 0] -= min(removals, half)
    after_m[0, 1] += additions
    after = make_counts(after_m)
    prior = DirichletPrior.uniform(2, 1.0)
    measured, _ = update_bound(before, after, prior)
    churn_ratio = np.abs(after - before)[0].sum() / (occupancy + prior.total)
    assert measured[0] <= 2.0 * churn_ratio + 1e-6


def test_update_bound_rejects_row_wipeout_past_total():
    before = make_counts([[2.0, 0.0], [0.0, 2.0]])
    # removing more than the row plus prior holds is not a legal batch update
    bad_after = make_counts([[-3, 0], [0, 2]])
    prior = DirichletPrior.uniform(2, 1.0)
    with pytest.raises(InvariantError):
        update_bound(before, bad_after, prior)


def test_update_bound_covers_emptied_row_under_tiny_prior():
    # 1 + net_ratio rounds to 0 for the emptied row; its bound must still hold
    before = make_counts([[2.0, 1.0], [0.0, 2.0]])
    after = make_counts([[0.0, 0.0], [2.0, 3.0]])
    measured, bound = update_bound(before, after, DirichletPrior.uniform(2, 1e-300))
    assert np.all(measured <= bound)


def _numpy_update_bound(before, after, prior):
    """The whole-matrix formula `update_bound` was first written with, as the reference.

    Returns (measured, bound), the two arrays `update_bound` returns.
    """
    delta = after - before
    net_change = delta.sum(axis=1).astype(np.float64)
    abs_change = np.abs(delta).sum(axis=1).astype(np.float64)
    denom = before.sum(axis=1) + prior.total
    net_ratio = net_change / denom
    abs_ratio = abs_change / denom
    shrink = 1.0 + net_ratio
    if np.all(shrink > 0.0):
        bound = (np.abs(net_ratio) + abs_ratio) / shrink
    else:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            exact = (np.abs(net_change) + abs_change) / (after.sum(axis=1) + prior.total)
            bound = np.where(shrink > 0.0, (np.abs(net_ratio) + abs_ratio) / shrink, exact)
    phi_before = transition_from_counts(before, prior)
    phi_after = transition_from_counts(after, prior)
    return np.abs(phi_after - phi_before).sum(axis=1), bound


@given(
    n_observed=st.integers(min_value=2, max_value=10),
    extra_row=st.booleans(),
    log_alpha=st.floats(min_value=-300.0, max_value=1.0),
    vector_alpha=st.booleans(),
    n_moves=st.integers(min_value=0, max_value=40),
    emptied=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=300, deadline=None)
def test_update_bound_is_bit_identical_to_numpy_formula(
    n_observed, extra_row, log_alpha, vector_alpha, n_moves, emptied, seed
):
    data = np.random.default_rng(seed)
    n_latent = n_observed + extra_row
    before_m = data.integers(0, 30, size=(n_latent, n_observed)) * (data.random((n_latent, 1)) < 0.8)
    after_m = before_m.copy()
    for _ in range(n_moves):
        old, new, col = data.integers(0, n_latent), data.integers(0, n_latent), data.integers(0, n_observed)
        if after_m[old, col] > 0:
            after_m[old, col] -= 1
            after_m[new, col] += 1
    if emptied:
        # the batch moves every sample of one row elsewhere
        row = data.integers(0, n_latent)
        after_m[(row + 1) % n_latent] += after_m[row]
        after_m[row] = 0
    alpha = 10.0**log_alpha * (data.uniform(0.5, 2.0, size=n_observed) if vector_alpha else 1.0)
    prior = DirichletPrior(np.broadcast_to(alpha, (n_observed,)))
    certificate = update_bound(before_m, after_m, prior)
    reference = _numpy_update_bound(before_m, after_m, prior)
    for name, got, expected in zip(("measured", "bound"), certificate, reference):
        assert got.tobytes() == expected.tobytes(), name


# Each case is (before, after, prior value, the class update_bound raises). The
# reference has no totals check: on a row left with negative mass it refuses at
# that row's smoothing instead, with ParameterError.
REFUSED_BATCHES = {
    "negative total after the batch": ([[2, 0], [0, 2]], [[-3, 0], [0, 2]], 1.0, InvariantError),
    "negative total from a row of zero smoothed mass": (
        [[-2, 0], [0, 2]], [[-3, 0], [0, 2]], 1.0, InvariantError
    ),
    "row wiped out under a 1e-300 prior": (
        [[2, 1], [0, 2]], [[-1, 0], [3, 3]], 1e-300, InvariantError
    ),
    "row failing its row check": ([[-2, 3], [0, 2]], [[-2, 2], [0, 3]], 1.0, ParameterError),
    "row check failed before a negative total": (
        [[-2, 3], [2, 0], [0, 2]], [[-2, 2], [-3, 0], [2, 2]], 1.0, InvariantError
    ),
}


@pytest.mark.parametrize("case", REFUSED_BATCHES.values(), ids=list(REFUSED_BATCHES))
def test_update_bound_refuses_what_the_numpy_formula_refuses(case):
    before, after, value, error = case
    before, after = make_counts(before), make_counts(after)
    prior = DirichletPrior.uniform(2, value)
    with pytest.raises(error):
        update_bound(before, after, prior)
    with np.errstate(all="ignore"), pytest.raises(ParameterError):
        _numpy_update_bound(before, after, prior)


@given(
    n_observed=st.integers(min_value=1, max_value=9),
    extra_row=st.booleans(),
    log_alpha=st.floats(min_value=-300.0, max_value=1.0) | st.just(0.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=300, deadline=None)
def test_update_bound_on_negative_counts_follows_the_numpy_formula(
    n_observed, extra_row, log_alpha, seed
):
    # Count matrices no chain can reach: cells down to -3. update_bound reads
    # only the touched rows, so the reference runs on those. update_bound
    # raises InvariantError exactly where a touched row ends with negative
    # mass; otherwise it gives the reference's bits where the reference
    # accepts the rows, and ParameterError where it refuses them.
    data = np.random.default_rng(seed)
    n_latent = n_observed + extra_row
    before = data.integers(-3, 6, size=(n_latent, n_observed))
    after = before + data.integers(-2, 3, size=before.shape) * (data.random(before.shape) < 0.3)
    prior = DirichletPrior.uniform(n_observed, 10.0**log_alpha)
    touched = (before != after).any(axis=1)
    negative_mass = (after.sum(axis=1)[touched] < 0).any()
    try:
        with np.errstate(all="ignore"):
            reference = _numpy_update_bound(before[touched], after[touched], prior)
    except ParameterError:
        reference = None
    try:
        measured, bound = update_bound(before, after, prior)
    except InvariantError:
        assert negative_mass
        return
    except ParameterError:
        assert not negative_mass and reference is None
        return
    assert not negative_mass and reference is not None
    for name, got, expected in zip(("measured", "bound"), (measured, bound), reference):
        assert got[touched].tobytes() == expected.tobytes(), name
        assert not got[~touched].any(), name


# ±0, the smallest subnormal, the subnormal edge, the largest finite, inf and NaN.
SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072e-308, 1.7976931348623157e308,
                  -1.7976931348623157e308, math.inf, -math.inf, math.nan]


def _same_float(got, expected):
    """Equal bits, or both NaN (a NaN's payload may depend on the operand order)."""
    if math.isnan(expected):
        return math.isnan(got)
    return np.float64(got).tobytes() == np.float64(expected).tobytes()


def _numpy_row_sums(values):
    row = np.array(values, dtype=np.float64)
    with np.errstate(all="ignore"):
        return float(np.add.reduce(row)), float(np.stack([row, row[::-1]]).sum(axis=1)[0])


@given(values=st.lists(st.floats() | st.sampled_from(SPECIAL_FLOATS), min_size=1, max_size=300))
@example(values=[-0.0] * 3)  # numpy adds its sum to 0.0, so an all -0.0 row sums to 0.0
@example(values=[-0.0] * 9)
@example(values=[-0.0] * 200)
@settings(max_examples=300, deadline=None)
def test_row_sum_matches_numpy_reduce(values):
    with np.errstate(all="ignore"):
        got = _row_sum(values)
    assert all(_same_float(got, expected) for expected in _numpy_row_sums(values))


@given(
    n=st.integers(min_value=1, max_value=300) | st.sampled_from([7, 8, 9]),
    special_share=st.sampled_from([0.0, 0.02, 0.3]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=300, deadline=None)
def test_row_sum_matches_numpy_reduce_at_every_length(n, special_share, seed):
    # Long rows of mixed magnitudes, where every order of summation rounds differently.
    data = np.random.default_rng(seed)
    values = data.normal(size=n) * 10.0 ** data.integers(-20, 20, size=n)
    special = data.random(n) < special_share
    values[special] = data.choice(SPECIAL_FLOATS, size=int(special.sum()))
    with np.errstate(all="ignore"):
        got = _row_sum(values.tolist())
    assert all(_same_float(got, expected) for expected in _numpy_row_sums(values))



# Lengths around numpy's blocks: 8 accumulators up to 128 entries, halves aligned to 8 above.
PAIRWISE_EDGES = [7, 8, 9, 15, 16, 17, 127, 128, 129, 135, 136, 137, 255, 256, 257, 263, 400]
EXTREME_FLOATS = [1e308, -1e308, 1e-308, -1e-308, 1e300, -1e300, 1.0, -1.0]


@given(
    n=st.integers(min_value=1, max_value=400) | st.sampled_from(PAIRWISE_EDGES),
    special_share=st.sampled_from([0.0, 0.01, 0.1, 0.5, 1.0]),
    extreme_share=st.sampled_from([0.0, 0.2, 1.0]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(n=400, special_share=1.0, extreme_share=0.0, seed=0)
@example(n=129, special_share=0.0, extreme_share=1.0, seed=1)
@settings(max_examples=300, deadline=None)
def test_row_sum_is_numpys_pairwise_sum_up_to_400_entries(n, special_share, extreme_share, seed):
    # Signed zeros, infinities, NaN and magnitudes whose sums overflow or cancel,
    # at every length the pure-Python pairwise order must follow numpy through.
    data = np.random.default_rng(seed)
    values = data.normal(size=n) * 10.0 ** data.integers(-300, 300, size=n)
    extreme = data.random(n) < extreme_share
    values[extreme] = data.choice(EXTREME_FLOATS, size=int(extreme.sum()))
    special = data.random(n) < special_share
    values[special] = data.choice(SPECIAL_FLOATS, size=int(special.sum()))
    with np.errstate(all="ignore"):
        got = _row_sum(values.tolist())
    assert type(got) is float
    assert all(_same_float(got, expected) for expected in _numpy_row_sums(values))
