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
    rank,
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
