"""Row generation in hull.query: route selection, the Unbounded round,
and a differential sweep against the all-rows LP, the dual LP and HiGHS."""

import itertools

import numpy as np
import pytest

from hullmle import hull
from hullmle.hull import HullStatus, make_target_set, query, query_dual
from hullmle.lp import LpStatus, SolverConfig

CFG = SolverConfig()


@pytest.fixture
def solve_calls(monkeypatch):
    """(rows, status) of every LP that hull.query hands to the solver."""
    calls = []
    original = hull.solve

    def recording(problem, config=None):
        sol = original(problem, config)
        calls.append((problem.n_rows, sol.status))
        return sol

    monkeypatch.setattr(hull, "solve", recording)
    return calls


def _all_rows_query(monkeypatch, target, point):
    """The same query answered by one LP over every target row."""
    with monkeypatch.context() as patch:
        patch.setattr(hull, "ROW_GENERATION_FACTOR", target.n_points)
        return query(target, point)


def _same_gamma(a: float, b: float, rtol: float) -> bool:
    if np.isinf(a) or np.isinf(b):
        return bool(a == b)
    return abs(a - b) <= rtol * abs(b)


# ---------------------------------------------------------------------------
# which targets take the loop


@pytest.mark.parametrize("dim", [2, 3, 5])
def test_at_threshold_one_solve_over_all_rows(solve_calls, dim):
    rng = np.random.default_rng(dim)
    m = hull.ROW_GENERATION_FACTOR * dim
    target = make_target_set(rng.random((m, dim)))
    verdict = query(target, np.ones(dim))
    assert verdict.status is HullStatus.EXTERIOR
    assert solve_calls == [(m, LpStatus.OPTIMAL)]


@pytest.mark.parametrize("m,dim", [(201, 2), (301, 3), (501, 5), (5000, 5)])
def test_above_threshold_every_round_is_smaller(monkeypatch, solve_calls, m, dim):
    rng = np.random.default_rng(m)
    target = make_target_set(rng.random((m, dim)))
    verdict = query(target, np.ones(dim))
    assert solve_calls and all(rows < m for rows, _ in solve_calls)
    assert solve_calls[-1][1] is LpStatus.OPTIMAL
    full = _all_rows_query(monkeypatch, target, np.ones(dim))
    assert verdict.status is full.status is HullStatus.EXTERIOR
    assert _same_gamma(verdict.gamma, full.gamma, 1e-9)


def test_unbounded_round_then_the_full_lp_gamma(solve_calls):
    """The seed rows (the four furthest along p = (1, 0) and the column
    extremes) all lie in the half-plane y >= x / 2, so their cone misses
    p and the first round is Unbounded.  The row (1, -4) cuts the ray
    off; the ray along p leaves the hull through the edge from (1, -4)
    to (10, 10), at x = 25/7."""
    rng = np.random.default_rng(5)
    angle = rng.uniform(0.0, 2.0 * np.pi, 250)
    filler = rng.uniform(0.0, 1.0, (250, 1)) * np.column_stack([np.cos(angle), np.sin(angle)])
    corners = np.array([[10.0, 10.0], [9.0, 9.5], [9.0, 9.0], [8.5, 9.0],
                        [-12.0, 0.0], [-10.0, -5.0], [1.0, -4.0]])
    target = make_target_set(np.vstack([filler, corners]), centroid=np.zeros(2))
    verdict = query(target, np.array([1.0, 0.0]))
    statuses = [status for _, status in solve_calls]
    assert statuses[0] is LpStatus.UNBOUNDED
    assert statuses[-1] is LpStatus.OPTIMAL
    assert verdict.status is HullStatus.INTERIOR
    assert verdict.gamma == pytest.approx(25.0 / 7.0, rel=1e-12)


def test_unbounded_full_lp_stays_degenerate(monkeypatch, solve_calls):
    """A reference outside the hull: no row cuts off the ray, as on the
    all-rows LP, so the verdict is Degenerate."""
    rng = np.random.default_rng(6)
    target = make_target_set(rng.random((500, 2)) + 2.0, centroid=np.zeros(2))
    point = np.array([-1.0, -1.0])
    verdict = query(target, point)
    assert solve_calls[-1][1] is LpStatus.UNBOUNDED
    assert all(rows < 500 for rows, _ in solve_calls)
    assert verdict.status is HullStatus.DEGENERATE
    assert _all_rows_query(monkeypatch, target, point).status is HullStatus.DEGENERATE


# ---------------------------------------------------------------------------
# differential sweep above the threshold

SWEEP = 240


def _cloud(rng, kind: int, m: int, d: int) -> np.ndarray:
    if kind == 0:  # uniform cube
        return rng.random((m, d))
    if kind == 1:  # Gaussian, columns 10x to 100x apart in scale
        scales = np.geomspace(1.0, rng.uniform(10.0, 100.0), d)
        return rng.standard_normal((m, d)) * rng.permutation(scales)
    # duplicated rows, half of them nudged by a relative 1e-10
    base = rng.standard_normal((m // 4, d))
    rows = base[rng.integers(0, m // 4, m)]
    nudged = rng.random(m) < 0.5
    rows[nudged] *= 1.0 + 1e-10 * rng.standard_normal((nudged.sum(), d))
    return rows


def _sweep():
    """(target, point) pairs with more than ROW_GENERATION_FACTOR rows
    per column; every fourth point sits 1e-9 off the boundary."""
    rng = np.random.default_rng(2026)
    for k in range(SWEEP):
        d = int(rng.integers(2, 7))
        m = int(rng.integers(hull.ROW_GENERATION_FACTOR * d + 1,
                             hull.ROW_GENERATION_FACTOR * d + 300))
        target = make_target_set(_cloud(rng, k % 3, m, d))
        spread = target.points.std(axis=0)
        point = target.centroid + rng.standard_normal(d) * spread * rng.uniform(0.5, 4.0)
        if k % 4 == 3:
            gamma = query(target, point).gamma
            offset = 1.0 + (1e-9 if rng.random() < 0.5 else -1e-9)
            point = target.centroid + gamma * offset * (point - target.centroid)
        yield target, point


def test_row_generation_matches_all_rows_lp_and_dual(monkeypatch):
    tol = 2.0 * CFG.feas_tol
    for target, point in _sweep():
        verdict = query(target, point)
        full = _all_rows_query(monkeypatch, target, point)
        assert verdict.status is full.status
        assert _same_gamma(verdict.gamma, full.gamma, 1e-9)
        if verdict.status is HullStatus.EXTERIOR:
            assert (1.0 + target.points @ verdict.minimizer >= -tol).all()
        dual = query_dual(target, point)
        assert dual.status is verdict.status
        assert dual.max_objective == pytest.approx(
            -1.0 / verdict.gamma, abs=1e-7 * (1.0 + 1.0 / verdict.gamma))


def test_row_generation_matches_highs():
    linprog = pytest.importorskip("scipy.optimize").linprog
    for target, point in _sweep():
        verdict = query(target, point)
        p = point - target.centroid
        m, d = target.points.shape
        res = linprog(p, A_ub=-target.points, b_ub=np.ones(m),
                      bounds=[(None, None)] * d, method="highs-ds")
        assert res.status == 0
        assert _same_gamma(verdict.gamma, -1.0 / res.fun, 1e-6)


def test_singular_basis_is_an_arithmetic_error(monkeypatch):
    # Instance 191 of the sweep drawn at half the threshold: 301 duplicated
    # and nudged rows in 5 columns, a point 1e-9 off the boundary.  The
    # all-rows simplex meets a singular basis there.
    with monkeypatch.context() as patch:
        patch.setattr(hull, "ROW_GENERATION_FACTOR", 50)
        target, point = next(itertools.islice(_sweep(), 191, None))
    assert target.points.shape == (301, 5)
    with pytest.raises(ArithmeticError) as info:
        query(target, point)
    assert not isinstance(info.value, ValueError)
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)
    assert query_dual(target, point).status is HullStatus.BOUNDARY
