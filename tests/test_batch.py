import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hullmle.batch import (
    mahalanobis_prune,
    make_test_set,
    min_scale,
    prune_curve,
)
from hullmle.expfam import StatDef, mcmc_sample
from hullmle.hull import HullStatus, TargetSet, make_target_set, query
from hullmle.numerics import distinct_rows

from conftest import random_target

ET = StatDef.from_names(["edges", "triangles"])


def test_min_scale_triangle_values(triangle):
    tests = make_test_set(np.array([[3.0, 2.0], [0.1, 0.2]]))
    report = min_scale(triangle, tests)
    assert report.min_scale == pytest.approx(1.0 / 3.0, rel=1e-9)
    assert report.argmin == 0
    assert report.per_point_scales[1] > 1.0
    assert not report.any_degenerate


def test_min_scale_centroid_row_is_infinite(triangle):
    tests = make_test_set(np.zeros((1, 2)))
    report = min_scale(triangle, tests)
    assert np.isinf(report.min_scale)


def test_min_scale_empty_tests_rejected(triangle):
    with pytest.raises(ValueError):
        min_scale(triangle, make_test_set(np.zeros((0, 2))))


def test_min_scale_union_property(triangle):
    rng = np.random.default_rng(21)
    a = rng.standard_normal((5, 2))
    b = rng.standard_normal((7, 2))
    ra = min_scale(triangle, make_test_set(a)).min_scale
    rb = min_scale(triangle, make_test_set(b)).min_scale
    rc = min_scale(triangle, make_test_set(np.vstack([a, b]))).min_scale
    assert rc == min(ra, rb)


def test_min_scale_threaded_matches_serial():
    rng = np.random.default_rng(22)
    target = random_target(rng, 40, 3)
    tests = make_test_set(rng.standard_normal((16, 3)))
    serial = min_scale(target, tests, threads=1)
    threaded = min_scale(target, tests, threads=4)
    assert np.array_equal(
        np.asarray(serial.per_point_scales), np.asarray(threaded.per_point_scales)
    )
    assert serial.argmin == threaded.argmin
    assert serial.argmin_verdict.gamma == threaded.argmin_verdict.gamma


def test_min_scale_hands_back_the_argmin_verdict(triangle):
    tests = make_test_set(np.array([[0.1, 0.2], [3.0, 2.0], [1.0, 0.0]]))
    report = min_scale(triangle, tests)
    again = query(triangle, tests.points[report.argmin])
    verdict = report.argmin_verdict
    assert verdict.status is again.status is HullStatus.EXTERIOR
    assert verdict.gamma == again.gamma == report.min_scale
    assert verdict.hyperplane[0] == again.hyperplane[0]
    assert np.array_equal(verdict.hyperplane[1], again.hyperplane[1])
    assert np.array_equal(verdict.boundary_point, again.boundary_point)


def test_min_scale_degenerate_argmin_verdict():
    # The reference sits outside the hull of these rows and no ray from
    # it toward either test point meets the hull, so both queries are
    # Degenerate and contribute +inf.
    target = make_target_set(np.array([[1.0, 0.0], [2.0, 1.0], [2.0, -1.0]]),
                             centroid=np.zeros(2))
    report = min_scale(target, make_test_set(np.array([[-1.0, 0.0], [0.0, 1.0]])))
    assert report.any_degenerate
    assert np.isinf(report.per_point_scales).all()
    assert report.argmin_verdict.status is HullStatus.DEGENERATE


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=100_000), st.booleans())
def test_distinct_rows_give_the_answers_of_every_row(seed, nudge):
    # Edge and triangle counts of short chains on 4 to 6 vertices repeat
    # rows often.  With nudge, copies of three rows moved by 1e-10 in one
    # column are shuffled in; such near-duplicates must stay apart.  The
    # targets stay below row generation's threshold, as the estimator's
    # masked K4 samples do.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 7))
    theta = rng.uniform(-1.0, 1.0, size=2)

    def cloud(count):
        rows = mcmc_sample(ET, theta, n, count, seed=int(rng.integers(2**32))).rows
        if nudge:
            near = rows[rng.integers(count, size=3)]
            near[:, rng.integers(2)] += 1e-10
            rows = np.vstack([rows, near])[rng.permutation(count + 3)]
        return rows

    target = make_target_set(cloud(int(rng.integers(10, 80))))
    assume(target.rank == 2)
    tests = make_test_set(cloud(int(rng.integers(1, 30))))

    report = min_scale(target, tests)
    verdicts = [query(target, row) for row in tests.points]
    gammas = np.array([v.gamma for v in verdicts])
    assert np.array_equal(report.per_point_scales, gammas)
    assert report.argmin == int(np.argmin(gammas))
    expected = verdicts[report.argmin]
    assert report.argmin_verdict.status is expected.status
    assert report.argmin_verdict.gamma == expected.gamma
    assert (report.argmin_verdict.minimizer is None) == (expected.minimizer is None)
    if expected.minimizer is not None:
        assert np.array_equal(report.argmin_verdict.minimizer, expected.minimizer)

    first, _ = distinct_rows(target.points)
    assert first.size == len({tuple(row) for row in target.points})
    hull = TargetSet(points=target.points[first], centroid=target.centroid,
                     rank=target.rank)
    assert np.array_equal(min_scale(hull, tests).per_point_scales, gammas)


def test_rescaling_invariance(triangle):
    # After shrinking the centered test points by 0.9 * minScale, every
    # point is strictly interior with margin 1/0.9.
    rng = np.random.default_rng(23)
    tests = rng.standard_normal((10, 2)) * 2.0
    report = min_scale(triangle, make_test_set(tests))
    assert np.isfinite(report.min_scale)
    scaled = tests * (0.9 * report.min_scale)
    rescaled = min_scale(triangle, make_test_set(scaled))
    assert rescaled.min_scale >= 1.0 / 0.9 - 1e-6


def test_prune_keeps_ceiling_and_partitions():
    rng = np.random.default_rng(24)
    pts = rng.standard_normal((17, 3))
    target = make_target_set(pts)
    pruned = mahalanobis_prune(target, 0.4)
    assert pruned.n_points == int(np.ceil(0.4 * 17))
    # kept rows are original rows (as raw points)
    raw = target.points + target.centroid
    kept_raw = pruned.points + pruned.centroid
    original = {tuple(np.round(r, 12)) for r in raw}
    for row in kept_raw:
        assert tuple(np.round(row, 12)) in original


def test_prune_keeps_original_centroid():
    rng = np.random.default_rng(25)
    pts = rng.standard_normal((30, 2)) + 5.0
    target = make_target_set(pts)
    pruned = mahalanobis_prune(target, 0.5)
    assert np.array_equal(pruned.centroid, target.centroid)


def test_prune_drops_deepest_point_first():
    # Four corners plus a near-center point: the central point goes.
    pts = np.array([
        [1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0], [0.1, 0.0],
    ])
    target = make_target_set(pts, centroid=np.zeros(2))
    pruned = mahalanobis_prune(target, 0.8)
    kept = {tuple(r) for r in pruned.points}
    assert (0.1, 0.0) not in kept
    assert len(kept) == 4


def test_prune_full_fraction_keeps_multiset():
    rng = np.random.default_rng(26)
    pts = rng.standard_normal((12, 2))
    target = make_target_set(pts)
    pruned = mahalanobis_prune(target, 1.0)
    assert sorted(map(tuple, pruned.points)) == sorted(map(tuple, target.points))


def test_prune_fraction_validation():
    rng = np.random.default_rng(27)
    target = make_target_set(rng.standard_normal((10, 2)))
    for bad in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            mahalanobis_prune(target, bad)


def test_prune_curve_monotone_in_fraction():
    rng = np.random.default_rng(28)
    target = make_target_set(rng.standard_normal((200, 3)))
    tests = make_test_set(target.centroid + rng.standard_normal((6, 3)) * 2.0)
    fractions = [0.2, 0.4, 0.6, 0.8, 1.0]
    curve = prune_curve(target, tests, fractions)
    values = [s for _, s in curve]
    for lo, hi in zip(values, values[1:]):
        assert lo <= hi + 1e-9
    # full fraction reproduces plain min_scale
    assert values[-1] == pytest.approx(
        min_scale(target, tests).min_scale, rel=1e-12
    )
