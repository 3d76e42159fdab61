import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hullmle.hull import (
    HullStatus,
    make_target_set,
    oracle_2d,
    oracle_membership_small,
    query,
    query_dual,
    query_original_lp,
    separating_direction,
    transform_invariance_check,
    unit_axis_transform,
)
from hullmle.lp import SolverConfig

from conftest import random_target


# ---------------------------------------------------------------------------
# the worked triangle, frozen values derived by hand and by both oracles

def test_triangle_interior_point(triangle):
    v = query(triangle, np.array([1.0, 0.0]))
    assert v.status is HullStatus.INTERIOR
    assert v.gamma == pytest.approx(1.5, rel=1e-12)
    assert v.boundary_point == pytest.approx([1.5, 0.0], rel=1e-9)
    assert v.hyperplane is None
    # minimizer z* = (-2/3, 1/3) for the axis query
    assert v.minimizer == pytest.approx([-2.0 / 3.0, 1.0 / 3.0], rel=1e-9)


def test_triangle_exterior_point(triangle):
    v = query(triangle, np.array([3.0, 2.0]))
    assert v.status is HullStatus.EXTERIOR
    assert v.gamma == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert v.boundary_point == pytest.approx([1.0, 2.0 / 3.0], rel=1e-9)
    offset, normal = v.hyperplane
    assert offset == pytest.approx(1.0)
    assert normal == pytest.approx([1.0, -3.0], rel=1e-9)
    assert v.minimizer == pytest.approx([1.0, -3.0], rel=1e-9)
    assert separating_direction(v) == pytest.approx([-1.0, 3.0], rel=1e-9)


def test_triangle_vertex_is_not_exterior(triangle):
    for row in triangle.points:
        v = query(triangle, row)
        assert v.status in (HullStatus.INTERIOR, HullStatus.BOUNDARY)


def test_separating_direction_requires_exterior(triangle):
    v = query(triangle, np.array([0.5, 0.0]))
    with pytest.raises(ValueError):
        separating_direction(v)


def test_closed_form_family():
    # Target {(-1,0),(a,1),(b,-1)} with p on the first axis exits the
    # right edge at x = (a+b)/2 with minimizer (-2/(a+b), (a-b)/(a+b)).
    rng = np.random.default_rng(42)
    for _ in range(10):
        a, b = rng.uniform(0.05, 3.0, size=2)
        target = make_target_set(
            np.array([[-1.0, 0.0], [a, 1.0], [b, -1.0]]), centroid=np.zeros(2)
        )
        v = query(target, np.array([1.0, 0.0]))
        assert v.gamma == pytest.approx((a + b) / 2.0, rel=1e-9)
        expected_z = np.array([-2.0 / (a + b), (a - b) / (a + b)])
        assert v.minimizer == pytest.approx(expected_z, rel=1e-9, abs=1e-12)


# ---------------------------------------------------------------------------
# degenerate and centroid paths

def test_centroid_query_is_interior_with_infinite_gamma(triangle):
    v = query(triangle, np.zeros(2))
    assert v.status is HullStatus.INTERIOR
    assert np.isinf(v.gamma)


def test_rank_deficient_target_is_degenerate():
    line = np.array([[-2.0, -2.0], [1.0, 1.0], [3.0, 3.0]])
    target = make_target_set(line, centroid=np.zeros(2))
    v = query(target, np.array([1.0, 0.0]))
    assert v.status is HullStatus.DEGENERATE


def test_mean_centering_default():
    pts = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]])
    target = make_target_set(pts)
    assert target.centroid == pytest.approx([1.0, 1.0])
    assert np.allclose(target.points.mean(axis=0), 0.0, atol=1e-15)
    # Query takes raw coordinates and answers about the original cloud.
    v = query(target, np.array([1.0, 1.0]))
    assert v.status is HullStatus.INTERIOR


def test_explicit_centroid_keeps_points_verbatim():
    pts = np.array([[-1.0, 0.0], [2.0, 1.0], [1.0, -1.0]])
    target = make_target_set(pts, centroid=np.zeros(2))
    assert np.array_equal(target.points, pts)
    assert np.array_equal(target.centroid, np.zeros(2))


# ---------------------------------------------------------------------------
# original boxed formulation

def test_boxed_lp_frozen_values(triangle):
    res = query_original_lp(triangle, np.array([3.0, 2.0]))
    assert res.objective == pytest.approx(-2.0, rel=1e-9)
    assert res.z0 == pytest.approx(3.0, rel=1e-9)
    assert res.z == pytest.approx([-1.0, -1.0], rel=1e-9)


def test_boxed_lp_first_intersection_is_suboptimal(triangle):
    p = np.array([3.0, 2.0])
    res = query_original_lp(triangle, p)
    t1 = -res.z0 / float(p @ res.z)
    gamma = query(triangle, p).gamma
    assert t1 == pytest.approx(0.6, rel=1e-9)
    assert t1 > gamma + 1e-6
    # One more application from the first intersection reaches the hull.
    res2 = query_original_lp(triangle, t1 * p)
    t2 = -res2.z0 / float((t1 * p) @ res2.z)
    assert t1 * t2 == pytest.approx(gamma, rel=1e-7)


def test_boxed_objective_zero_iff_member(triangle):
    config = SolverConfig()
    rng = np.random.default_rng(3)
    for _ in range(30):
        p = rng.standard_normal(2) * 2.0
        res = query_original_lp(triangle, p)
        gamma = query(triangle, p).gamma
        member = gamma >= 1.0 - config.boundary_tol
        assert (abs(res.objective) <= config.feas_tol) == member


# ---------------------------------------------------------------------------
# dual formulation

def test_dual_frozen_values(triangle):
    rep = query_dual(triangle, np.array([3.0, 2.0]))
    assert rep.max_objective == pytest.approx(-3.0, rel=1e-9)
    assert rep.weights == pytest.approx([1.0, 2.0, 0.0], abs=1e-9)


def test_dual_matches_primal_gamma_on_random_instances():
    rng = np.random.default_rng(8)
    for _ in range(40):
        target = random_target(rng, int(rng.integers(4, 30)), int(rng.integers(2, 5)))
        p = rng.standard_normal(target.dim)
        v = query(target, p)
        if v.status is HullStatus.DEGENERATE or np.isinf(v.gamma):
            continue
        rep = query_dual(target, p)
        assert rep.max_objective == pytest.approx(
            -1.0 / v.gamma, abs=1e-7 * (1.0 + 1.0 / v.gamma)
        )
        # weights reconstruct p
        assert target.points.T @ rep.weights == pytest.approx(p, abs=1e-6)


def test_dual_infeasible_reports_degenerate():
    line = np.array([[-1.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    target = make_target_set(line, centroid=np.zeros(2))
    rep = query_dual(target, np.array([0.0, 1.0]))
    assert rep.status is HullStatus.DEGENERATE


# ---------------------------------------------------------------------------
# property invariants

@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_membership_iff_minimizer_above_minus_one(seed):
    rng = np.random.default_rng(seed)
    target = random_target(rng, int(rng.integers(4, 25)), int(rng.integers(2, 5)))
    p = rng.standard_normal(target.dim) * rng.uniform(0.1, 3.0)
    config = SolverConfig()
    v = query(target, p, config=config)
    if v.status is HullStatus.DEGENERATE or np.isinf(v.gamma):
        return
    value = float(p @ v.minimizer)
    if v.status is HullStatus.INTERIOR:
        assert value > -1.0 + config.boundary_tol or v.gamma > 1.0
    if v.status is HullStatus.EXTERIOR:
        assert value < -1.0
    # gamma*p sits on the boundary
    scaled = query(target, v.gamma * (p - 0.0), config=config)
    assert scaled.status is HullStatus.BOUNDARY


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_scale_direction_invariance(seed):
    rng = np.random.default_rng(seed)
    target = random_target(rng, int(rng.integers(4, 20)), int(rng.integers(2, 4)))
    p = rng.standard_normal(target.dim)
    c = float(rng.uniform(0.1, 10.0))
    v1 = query(target, p)
    if v1.status is HullStatus.DEGENERATE or np.isinf(v1.gamma):
        return
    v2 = query(target, c * p)
    assert v2.gamma == pytest.approx(v1.gamma / c, rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_monotonicity_under_target_growth(seed):
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((int(rng.integers(4, 15)), 3))
    extra = rng.standard_normal((int(rng.integers(1, 8)), 3))
    p = rng.standard_normal(3)
    small = make_target_set(base, centroid=np.zeros(3))
    grown = make_target_set(np.vstack([base, extra]), centroid=np.zeros(3))
    v1 = query(small, p)
    v2 = query(grown, p)
    if HullStatus.DEGENERATE in (v1.status, v2.status):
        return
    if np.isinf(v1.gamma) or np.isinf(v2.gamma):
        return
    assert v2.gamma >= v1.gamma - 1e-9 * (1.0 + abs(v1.gamma))


def test_oracle_equivalence_small_instances():
    # Mean centering keeps the reference inside the hull; pinning the
    # reference elsewhere turns gamma into a ray statement that no
    # longer has to agree with plain membership.
    rng = np.random.default_rng(12)
    config = SolverConfig()
    for _ in range(120):
        d = int(rng.integers(1, 4))
        r = int(rng.integers(d + 1, 13))
        target = random_target(rng, r, d, centered=False)
        p = target.centroid + rng.standard_normal(d) * rng.uniform(0.2, 2.0)
        v = query(target, p, config=config)
        if v.status is HullStatus.DEGENERATE:
            continue
        ours = v.gamma >= 1.0 - config.boundary_tol
        oracle = oracle_membership_small(target, p)
        assert ours == oracle


def test_2d_oracle_gamma_agreement():
    # Mean centering keeps the ray origin strictly inside the polygon,
    # which the planar oracle requires.
    rng = np.random.default_rng(13)
    for _ in range(80):
        pts = rng.standard_normal((int(rng.integers(4, 25)), 2))
        target = make_target_set(pts)
        p = target.centroid + rng.standard_normal(2)
        v = query(target, p)
        if v.status is HullStatus.DEGENERATE or np.isinf(v.gamma):
            continue
        o = oracle_2d(target, p)
        assert abs(v.gamma - o.gamma) <= 1e-7 * (1.0 + abs(v.gamma))
        assert v.status is o.status


def test_unit_axis_transform_maps_p_to_e1():
    rng = np.random.default_rng(14)
    for _ in range(20):
        p = rng.standard_normal(4)
        if abs(p[0]) < 1e-3:
            continue
        transform = unit_axis_transform(p)
        image = transform @ p
        assert image == pytest.approx([1.0, 0.0, 0.0, 0.0], abs=1e-9)


def test_transform_invariance_random_transforms():
    rng = np.random.default_rng(15)
    for _ in range(25):
        target = random_target(rng, int(rng.integers(5, 20)), 3)
        p = rng.standard_normal(3)
        transform = rng.standard_normal((3, 3))
        while abs(np.linalg.det(transform)) < 1e-2:
            transform = rng.standard_normal((3, 3))
        assert transform_invariance_check(target, p, transform)
