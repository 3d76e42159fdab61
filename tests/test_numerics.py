import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hullmle import make_target_set, mahalanobis_prune
from hullmle.numerics import (
    as_matrix,
    as_vector,
    center,
    covariance,
    distinct_rows,
    rank,
    tilted_moments,
)


def test_as_matrix_rejects_non_2d():
    with pytest.raises(ValueError):
        as_matrix([1.0, 2.0, 3.0])


def test_as_matrix_rejects_nan():
    with pytest.raises(ValueError):
        as_matrix([[1.0, float("nan")]])


def test_as_vector_accepts_row_and_column_shapes():
    assert as_vector([[1.0, 2.0]]).shape == (2,)
    assert as_vector([[1.0], [2.0]]).shape == (2,)


def test_as_vector_rejects_true_matrix():
    with pytest.raises(ValueError):
        as_vector([[1.0, 2.0], [3.0, 4.0]])


def test_distinct_rows_in_order_of_first_appearance():
    pts = np.array([[3.0, 1.0], [1.0, 2.0], [3.0, 1.0], [0.0, 0.0],
                    [1.0, 2.0], [-0.0, 0.0], [1.0, 2.0 + 1e-10]])
    first, inverse = distinct_rows(pts)
    assert first.tolist() == [0, 1, 3, 5, 6]
    assert inverse.tolist() == [0, 1, 0, 2, 1, 3, 4]
    assert np.array_equal(pts[first][inverse], pts)


def _direct_tilted_moments(rows, weights, theta):
    p = weights * np.exp(rows @ theta)
    total = p.sum()
    mean = sum(pi * row for pi, row in zip(p, rows)) / total
    cov = sum(pi * np.outer(row - mean, row - mean) for pi, row in zip(p, rows)) / total
    return np.log(total), mean, cov


def _assert_moments_close(got, want):
    assert got[0] == pytest.approx(want[0], rel=1e-12, abs=0.0)
    for a, b in zip(got[1:], want[1:]):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12 * np.abs(b).max())


def test_tilted_moments_match_the_direct_formula():
    rng = np.random.default_rng(11)
    rows = rng.integers(0, 6, size=(20, 3)).astype(float)
    weights = rng.uniform(0.5, 3.0, size=20)
    for theta in ([0.0, 0.0, 0.0], [0.3, -0.2, 0.1], [-0.5, 0.4, 0.25]):
        theta = np.array(theta)
        _assert_moments_close(tilted_moments(rows, weights, theta),
                              _direct_tilted_moments(rows, weights, theta))


def test_tilted_moments_of_repeated_rows_equal_weighted_distinct_rows():
    # A sample with unit weights and its histogram of distinct rows with
    # their counts as weights give the same three answers.
    rows = np.array([[1.0, 2.0], [3.0, 0.0], [0.0, 5.0], [2.0, 2.0], [4.0, 1.0]])
    counts = np.array([3, 1, 4, 2, 5])
    sample = np.repeat(rows, counts, axis=0)
    np.random.default_rng(2).shuffle(sample)
    for theta in (np.array([0.2, -0.1]), np.array([-0.7, 0.45])):
        _assert_moments_close(tilted_moments(sample, np.ones(len(sample)), theta),
                              tilted_moments(rows, counts.astype(float), theta))


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_tilted_moments_stay_finite_at_large_theta(sign):
    rows = np.array([[1.0, 2.0], [3.0, 1.0], [0.0, 5.0], [2.0, 2.0]])
    weights = np.array([2.0, 1.0, 3.0, 1.0])
    theta = sign * np.array([1e3, 1e3])
    log_sum, mean, cov = tilted_moments(rows, weights, theta)
    assert np.isfinite(log_sum) and np.isfinite(mean).all() and np.isfinite(cov).all()
    # All the weight sits on the row that maximizes rows @ theta.
    top = int(np.argmax(rows @ theta))
    assert log_sum == pytest.approx(float(rows[top] @ theta) + np.log(weights[top]))
    assert np.allclose(mean, rows[top]) and np.allclose(cov, 0.0)


def test_center_subtracts_mean_exactly():
    pts = np.array([[1.0, 2.0], [3.0, 6.0]])
    centered, mu = center(pts)
    assert np.array_equal(mu, np.array([2.0, 4.0]))
    assert np.array_equal(centered, np.array([[-1.0, -2.0], [1.0, 2.0]]))


def test_covariance_matches_numpy_on_well_scaled_data():
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((200, 4))
    ours = covariance(pts)
    theirs = np.cov(pts, rowvar=False, ddof=1)
    assert np.allclose(ours, theirs, rtol=1e-12, atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=5000))
def test_covariance_is_permutation_invariant(seed):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((37, 3)) * 10.0 ** rng.integers(-3, 4)
    perm = rng.permutation(37)
    a = covariance(pts)
    b = covariance(pts[perm])
    # fsum accumulation makes the sums exact, so any order gives the
    # same bits.
    assert np.array_equal(a, b)


def test_covariance_needs_two_rows():
    with pytest.raises(ValueError):
        covariance(np.ones((1, 2)))


def test_rank_detects_degenerate_cloud():
    line = np.outer(np.arange(5.0), [1.0, 2.0])
    assert rank(line) == 1
    rng = np.random.default_rng(1)
    assert rank(rng.standard_normal((30, 3))) == 3


# The depth ordering factors numerics.covariance inside
# batch.mahalanobis_prune; the two tests below check it through the prune.

def test_covariance_inverse_regularizes_singular_input():
    # A collinear cloud has a singular covariance, so the factorisation
    # needs its ridge; the kept rows are still finite, deterministic and
    # the outermost along the line.
    t = np.random.default_rng(6).standard_normal(30)
    line = np.column_stack([t, np.zeros(30)])
    target = make_target_set(line)
    kept = mahalanobis_prune(target, 0.25)
    assert np.all(np.isfinite(kept.points))
    assert np.array_equal(kept.points, mahalanobis_prune(target, 0.25).points)
    outermost = np.sort(np.abs(target.points[:, 0]))[-kept.n_points:]
    assert np.array_equal(np.sort(np.abs(kept.points[:, 0])), outermost)


def test_mahalanobis_is_affine_invariant_in_scale():
    # Scaling every point by a constant leaves the depth ORDER alone, so
    # the prune keeps the same rows in the same order.
    rng = np.random.default_rng(5)
    pts = rng.standard_normal((80, 3))
    kept = mahalanobis_prune(make_target_set(pts), 0.5)
    kept_scaled = mahalanobis_prune(make_target_set(3.0 * pts), 0.5)
    assert np.allclose(kept_scaled.points, 3.0 * kept.points, rtol=1e-12, atol=1e-12)
