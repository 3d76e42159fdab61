import contextlib
import dataclasses
import fractions
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hullmle import lp
from hullmle.estimate import EstimatorConfig, iterate_until_contained
from hullmle.expfam import StatDef, mcmc_sample
from hullmle.hull import SolverConfig
from hullmle.lp import (
    ConstraintSense,
    IterationLimitError,
    LinearProgram,
    LpStatus,
    MembershipProgram,
    ObjectiveSense,
    dual_of_membership,
    solve,
)

from conftest import masked_k4_instance


def _simple_lp():
    # min -x - y  s.t. x + y <= 1, x, y >= 0  -> optimum -1 on the face
    return LinearProgram(
        objective=np.array([-1.0, -1.0]),
        constraint_matrix=np.array([[1.0, 1.0]]),
        constraint_senses=[ConstraintSense.LE],
        rhs=np.array([1.0]),
        lower_bounds=np.zeros(2),
        upper_bounds=np.array([np.inf, np.inf]),
        objective_sense=ObjectiveSense.MINIMIZE,
    )


def test_bounded_optimum():
    sol = solve(_simple_lp())
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective_value == pytest.approx(-1.0, abs=1e-9)
    assert sol.primal.sum() == pytest.approx(1.0, abs=1e-9)


def test_unbounded_detection():
    problem = LinearProgram(
        objective=np.array([-1.0]),
        constraint_matrix=np.array([[1.0]]),
        constraint_senses=[ConstraintSense.GE],
        rhs=np.array([0.0]),
        lower_bounds=np.array([0.0]),
        upper_bounds=np.array([np.inf]),
        objective_sense=ObjectiveSense.MINIMIZE,
    )
    sol = solve(problem)
    assert sol.status is LpStatus.UNBOUNDED
    assert sol.ray is not None
    # The ray must be a recession direction: feasible and improving.
    assert problem.constraint_matrix @ sol.ray >= -1e-12
    assert problem.objective @ sol.ray < 0


def test_infeasible_detection():
    problem = LinearProgram(
        objective=np.array([1.0]),
        constraint_matrix=np.array([[1.0], [1.0]]),
        constraint_senses=[ConstraintSense.GE, ConstraintSense.LE],
        rhs=np.array([2.0, 1.0]),
        lower_bounds=np.array([0.0]),
        upper_bounds=np.array([np.inf]),
        objective_sense=ObjectiveSense.MINIMIZE,
    )
    sol = solve(problem)
    assert sol.status is LpStatus.INFEASIBLE


def test_equality_constraints_hold():
    # min x + y  s.t. x + 2y = 4, x - y = 1
    problem = LinearProgram(
        objective=np.array([1.0, 1.0]),
        constraint_matrix=np.array([[1.0, 2.0], [1.0, -1.0]]),
        constraint_senses=[ConstraintSense.EQ, ConstraintSense.EQ],
        rhs=np.array([4.0, 1.0]),
        lower_bounds=np.full(2, -np.inf),
        upper_bounds=np.full(2, np.inf),
        objective_sense=ObjectiveSense.MINIMIZE,
    )
    sol = solve(problem)
    assert sol.status is LpStatus.OPTIMAL
    assert np.allclose(sol.primal, [2.0, 1.0], atol=1e-9)


def test_free_variables_supported():
    # min z1 subject to z1 >= -5 expressed through a row, z free.
    problem = LinearProgram(
        objective=np.array([1.0, 0.0]),
        constraint_matrix=np.array([[1.0, 0.0]]),
        constraint_senses=[ConstraintSense.GE],
        rhs=np.array([-5.0]),
        lower_bounds=np.full(2, -np.inf),
        upper_bounds=np.full(2, np.inf),
        objective_sense=ObjectiveSense.MINIMIZE,
    )
    sol = solve(problem)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective_value == pytest.approx(-5.0, abs=1e-9)


def test_max_sense_negates_correctly():
    problem = LinearProgram(
        objective=np.array([1.0, 1.0]),
        constraint_matrix=np.array([[1.0, 1.0]]),
        constraint_senses=[ConstraintSense.LE],
        rhs=np.array([2.0]),
        lower_bounds=np.zeros(2),
        upper_bounds=np.full(2, np.inf),
        objective_sense=ObjectiveSense.MAXIMIZE,
    )
    sol = solve(problem)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective_value == pytest.approx(2.0, abs=1e-9)


def test_variable_bounds_respected():
    # Slack constraint; the binding limit is the variable's own bound.
    problem = LinearProgram(
        objective=np.array([-1.0]),
        constraint_matrix=np.array([[1.0]]),
        constraint_senses=[ConstraintSense.LE],
        rhs=np.array([10.0]),
        lower_bounds=np.array([-1.0]),
        upper_bounds=np.array([1.0]),
        objective_sense=ObjectiveSense.MINIMIZE,
    )
    sol = solve(problem)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.primal[0] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("sense", [ConstraintSense.GE, ConstraintSense.LE], ids=["ge", "le"])
@pytest.mark.parametrize("bound", [np.inf, -np.inf], ids=["plus-inf", "minus-inf"])
def test_a_column_bounded_at_infinity_is_rejected(bound, sense):
    # x0 in [bound, bound] has no finite value.  The solver used to take
    # it as free at 0: with bound +inf and the >= row it answered
    # Optimal at x = (0, 2).
    with pytest.raises(ValueError, match="lower bound may not be"):
        LinearProgram(
            objective=np.ones(2),
            constraint_matrix=np.array([[1.0, 1.0]]),
            constraint_senses=[sense],
            rhs=np.array([2.0]),
            lower_bounds=np.array([bound, 0.0]),
            upper_bounds=np.array([bound, 5.0]),
            objective_sense=ObjectiveSense.MINIMIZE,
        )


def _membership_problem(points, p):
    # min p'z subject to Mz >= -1, z free
    r, d = points.shape
    return LinearProgram(
        objective=p.astype(float),
        constraint_matrix=points.astype(float),
        constraint_senses=[ConstraintSense.GE] * r,
        rhs=np.full(r, -1.0),
        lower_bounds=np.full(d, -np.inf),
        upper_bounds=np.full(d, np.inf),
        objective_sense=ObjectiveSense.MINIMIZE,
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_primal_dual_agreement_on_membership_instances(seed):
    rng = np.random.default_rng(seed)
    r = int(rng.integers(4, 20))
    d = int(rng.integers(2, 5))
    program = MembershipProgram(rng.standard_normal((r, d)), rng.standard_normal(d))
    primal = solve(program)
    dual = solve(dual_of_membership(program))
    if primal.status is LpStatus.OPTIMAL:
        assert dual.status is LpStatus.OPTIMAL
        gap = abs(primal.objective_value - dual.objective_value)
        assert gap <= 1e-7 * (1.0 + abs(primal.objective_value))
    else:
        # Unbounded primal pairs with infeasible dual.
        assert primal.status is LpStatus.UNBOUNDED
        assert dual.status is LpStatus.INFEASIBLE


def test_dual_of_membership_shape_and_signs():
    rng = np.random.default_rng(7)
    points = rng.standard_normal((8, 3))
    p = rng.standard_normal(3)
    dual = dual_of_membership(MembershipProgram(points, p))
    assert dual.objective_sense is ObjectiveSense.MAXIMIZE
    # Multipliers are nonnegative, one per target point.
    assert dual.lower_bounds.shape == (8,)
    assert np.all(dual.lower_bounds == 0.0)
    sol = solve(dual)
    if sol.status is LpStatus.OPTIMAL:
        recombined = points.T @ sol.primal
        assert np.allclose(recombined, p, atol=1e-7)


def test_solver_is_deterministic():
    rng = np.random.default_rng(11)
    problem = MembershipProgram(rng.standard_normal((30, 4)), rng.standard_normal(4))
    a = solve(problem)
    b = solve(problem)
    assert a.status is b.status
    assert np.array_equal(a.primal, b.primal)
    assert a.objective_value == b.objective_value
    assert a.iterations == b.iterations


def _pivot_budget(monkeypatch, pivots, m, n):
    """Make the pivot budget of an m x n LP exactly pivots on both routes,
    which read ITERATION_LIMIT_FACTOR at each solve."""
    monkeypatch.setattr(lp, "ITERATION_LIMIT_FACTOR", fractions.Fraction(pivots, m + n))


def test_iteration_limit_raises(monkeypatch):
    rng = np.random.default_rng(13)
    points = rng.standard_normal((40, 6))
    p = rng.standard_normal(6)
    problem = _membership_problem(points, p)
    _pivot_budget(monkeypatch, 1, 40, 6)
    with pytest.raises(IterationLimitError) as exc:
        solve(problem)
    assert exc.value.iterations == 2


@pytest.mark.parametrize("value, message", [
    (math.inf, "must be finite"),
    (math.nan, "must be positive"),
    (0.0, "must be positive"),
])
def test_solver_config_rejects_tolerances_that_are_not_finite_and_positive(value, message):
    with pytest.raises(ValueError, match=f"boundary_tol {message}"):
        SolverConfig(boundary_tol=value)


def test_solver_config_holds_only_the_boundary_tolerance():
    # The LP's tolerances are lp constants; the one setting a caller
    # makes is the Boundary band, and it lives with the verdicts in hull.
    names = [f.name for f in dataclasses.fields(SolverConfig)]
    assert names == ["boundary_tol"]
    assert not hasattr(lp, "SolverConfig")
    assert (lp.FEAS_TOL, lp.PIVOT_TOL) == (1e-7, 1e-9)


def test_solution_feasibility_on_random_instances():
    rng = np.random.default_rng(17)
    for _ in range(40):
        r = int(rng.integers(3, 25))
        d = int(rng.integers(2, 6))
        points = rng.standard_normal((r, d))
        p = rng.standard_normal(d)
        sol = solve(MembershipProgram(points, p))
        if sol.status is LpStatus.OPTIMAL:
            assert np.all(points @ sol.primal >= -1.0 - lp.FEAS_TOL)


@pytest.mark.parametrize("senses", [
    (">=", ">="),
    (ConstraintSense.GE, "<="),
    (ConstraintSense.LE, ConstraintSense.EQ, None),
])
def test_constraint_senses_must_be_enum_values(senses):
    m = len(senses)
    with pytest.raises(ValueError, match="must be ConstraintSense values"):
        LinearProgram(
            objective=np.ones(2),
            constraint_matrix=np.ones((m, 2)),
            constraint_senses=senses,
            rhs=np.zeros(m),
            lower_bounds=np.zeros(2),
            upper_bounds=np.ones(2),
            objective_sense=ObjectiveSense.MINIMIZE,
        )


@pytest.mark.parametrize("field, value, message", [
    ("objective", np.ones(3), "objective has 3 entries for 2 columns"),
    ("rhs", np.zeros(2), "rhs has 2 entries for 1 rows"),
    ("constraint_senses", (ConstraintSense.LE,) * 2, "one constraint sense required per row"),
    ("lower_bounds", np.zeros(3), "bound vectors must have one entry per column"),
    ("upper_bounds", np.ones(1), "bound vectors must have one entry per column"),
    ("lower_bounds", np.array([0.0, np.nan]), "bounds may be infinite but not NaN"),
    ("upper_bounds", np.array([np.nan, 1.0]), "bounds may be infinite but not NaN"),
    ("lower_bounds", np.array([0.0, 2.0]), "lower bound exceeds upper bound"),
], ids=["objective-length", "rhs-length", "sense-count", "lower-length", "upper-length",
        "nan-lower", "nan-upper", "lower-above-upper"])
def test_linear_program_rejects_mismatched_input(field, value, message):
    fields = {f.name: getattr(_simple_lp(), f.name) for f in dataclasses.fields(LinearProgram)}
    fields["upper_bounds"] = np.ones(2)
    fields[field] = value
    with pytest.raises(ValueError, match=message):
        LinearProgram(**fields)


# ---------------------------------------------------------------------------
# artificials left basic by phase one, against HiGHS


def _spy_evictions(monkeypatch):
    """Record how many artificials are basic when each solve starts to
    pivot them out after phase one."""
    basic = []
    evict = lp._Simplex._evict_artificials

    def spy(self):
        basic.append(int((self.unit_col >= self.n + self.m).sum()))
        evict(self)

    monkeypatch.setattr(lp._Simplex, "_evict_artificials", spy)
    return basic


def _assert_matches_highs(problem, linprog):
    """solve agrees with HiGHS on an equality-constrained LP: the same
    status and, at an optimum, the same objective."""
    sign = -1.0 if problem.objective_sense is ObjectiveSense.MAXIMIZE else 1.0
    ref = linprog(sign * problem.objective, A_eq=problem.constraint_matrix,
                  b_eq=problem.rhs, bounds=list(zip(problem.lower_bounds, problem.upper_bounds)),
                  method="highs")
    sol = solve(problem)
    assert sol.status is {0: LpStatus.OPTIMAL, 2: LpStatus.INFEASIBLE,
                          3: LpStatus.UNBOUNDED}[ref.status]
    if sol.status is LpStatus.OPTIMAL:
        assert sol.objective_value == pytest.approx(sign * ref.fun, rel=1e-9, abs=1e-9)
        assert np.allclose(problem.constraint_matrix @ sol.primal, problem.rhs, atol=1e-7)
    return sol.status


def test_dual_of_a_rank_deficient_target_evicts_artificials_as_highs_agrees(monkeypatch):
    # The dual's rows are the target's columns, so a target of rank k < d
    # gives d - k redundant equality rows.
    linprog = pytest.importorskip("scipy.optimize").linprog
    basic = _spy_evictions(monkeypatch)
    rng = np.random.default_rng(41)
    for _ in range(30):
        d = int(rng.integers(3, 6))
        rank = int(rng.integers(1, d))
        span = rng.standard_normal((rank, d))
        rows = rng.standard_normal((int(rng.integers(rank + 2, 30)), rank)) @ span
        p = rng.standard_normal(rank) @ span
        dual = dual_of_membership(MembershipProgram(rows - rows.mean(axis=0), p))
        assert _assert_matches_highs(dual, linprog) is LpStatus.OPTIMAL
    assert len(basic) == 30 and min(basic) > 0


def test_redundant_equality_rows_evict_artificials_as_highs_agrees(monkeypatch):
    linprog = pytest.importorskip("scipy.optimize").linprog
    basic = _spy_evictions(monkeypatch)
    rng = np.random.default_rng(42)
    statuses = set()
    for _ in range(40):
        n = int(rng.integers(2, 7))
        independent = rng.standard_normal((int(rng.integers(1, n + 1)), n))
        combined = rng.standard_normal((int(rng.integers(1, 4)), independent.shape[0]))
        a = np.vstack([independent, combined @ independent])
        a = a[rng.permutation(a.shape[0])]
        lo = np.where(rng.random(n) < 0.7, 0.0, -np.inf)
        hi = np.where(rng.random(n) < 0.3, 2.0, np.inf)
        x0 = np.minimum(np.where(np.isfinite(lo), lo + rng.random(n), rng.standard_normal(n)), hi)
        problem = LinearProgram(
            objective=rng.standard_normal(n),
            constraint_matrix=a,
            constraint_senses=(ConstraintSense.EQ,) * a.shape[0],
            rhs=a @ x0,
            lower_bounds=lo,
            upper_bounds=hi,
            objective_sense=ObjectiveSense.MINIMIZE,
        )
        statuses.add(_assert_matches_highs(problem, linprog))
    assert statuses == {LpStatus.OPTIMAL, LpStatus.UNBOUNDED}
    assert len(basic) == 40 and min(basic) > 0


# ---------------------------------------------------------------------------
# the membership route against the general simplex


def _general(problem):
    """The general two-phase simplex on any problem, as solve reports it."""
    try:
        return lp._Simplex(problem).solve()
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError(f"simplex basis solve failed: {exc}") from exc


def _bytes(array):
    return None if array is None else array.tobytes()


def _assert_same(ours, theirs):
    """Two solutions agree bit for bit: status, pivots, primal or ray,
    and objective."""
    assert ours.status is theirs.status
    assert ours.iterations == theirs.iterations
    assert _bytes(ours.primal) == _bytes(theirs.primal)
    assert _bytes(ours.ray) == _bytes(theirs.ray)
    assert repr(ours.objective_value) == repr(theirs.objective_value)


# Rules that force one route on a membership LP whatever its shape.
ROUTES = {"floats": lambda m, n: True, "simplex": lambda m, n: False}


@contextlib.contextmanager
def _forced(route):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lp, "_runs_on_floats", ROUTES[route])
        yield


def _spy_routes(monkeypatch):
    """Record the shape of every problem the float kernel and the general
    simplex solve."""
    seen = {"floats": [], "simplex": []}
    floats = lp._membership_floats

    def spy(A, c):
        seen["floats"].append(A.shape)
        return floats(A, c)

    class Simplex(lp._Simplex):
        def __init__(self, problem):
            seen["simplex"].append(problem.constraint_matrix.shape)
            super().__init__(problem)

    monkeypatch.setattr(lp, "_membership_floats", spy)
    monkeypatch.setattr(lp, "_Simplex", Simplex)
    return seen


@contextlib.contextmanager
def _on_floats():
    """Force the float kernel and yield the shape of every problem it
    runs."""
    with _forced("floats"), pytest.MonkeyPatch.context() as patch:
        yield _spy_routes(patch)["floats"]


def _assert_floats_match_general(points, p):
    """The float kernel, forced, answers MembershipProgram(points, p) bit
    for bit as the general simplex answers its LinearProgram.  The
    kernel must run exactly once, so the check cannot pass on the
    general simplex alone."""
    with _on_floats() as shapes:
        ours = solve(MembershipProgram(points, p))
    assert shapes == [np.shape(points)]
    _assert_same(ours, _general(_membership_problem(points, p)))
    return ours


def _ergm_cloud(rng, n, duplicate):
    """Centered edges/2-stars/triangles rows of an MCMC sample, with rows
    repeated and half of the repeats nudged by a relative 1e-10."""
    stats = StatDef.from_names(["edges", "two-stars", "triangles"])
    theta = np.array([-0.5, 0.02, 0.1]) + 0.05 * rng.standard_normal(3)
    sample = mcmc_sample(stats, theta, n, 80, seed=int(rng.integers(2**31)))
    rows = sample.rows[rng.integers(0, 80, 80 * duplicate)]
    nudged = rng.random(rows.shape[0]) < 0.5
    rows[nudged] *= 1.0 + 1e-10 * rng.standard_normal((nudged.sum(), 3))
    return rows - rows.mean(axis=0)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_membership_route_matches_general_on_gaussian_clouds(seed):
    rng = np.random.default_rng(seed)
    r = int(rng.integers(1, 120))
    d = int(rng.integers(1, 7))
    _assert_floats_match_general(rng.standard_normal((r, d)), rng.standard_normal(d))


@pytest.mark.parametrize("bland_at_once", [False, True])
def test_membership_route_matches_general_on_ergm_clouds(monkeypatch, bland_at_once):
    if bland_at_once:
        # Switch to Bland's rule at the first degenerate pivot, so both
        # routes are compared on that rule's path too.
        monkeypatch.setattr(lp, "DEGENERATE_SWITCH_FACTOR", 0)
    rng = np.random.default_rng(21)
    statuses, switched = set(), 0
    for k in range(12):
        rows = _ergm_cloud(rng, n=int(rng.integers(6, 12)), duplicate=1 + k % 3)
        spread = rows.std(axis=0)
        for _ in range(4):
            p = rng.standard_normal(3) * spread * rng.uniform(0.2, 3.0)
            statuses.add(_assert_floats_match_general(rows, p).status)
            general = lp._Simplex(_membership_problem(rows, p))
            general.solve()
            switched += general.bland
    assert statuses == {LpStatus.OPTIMAL}
    assert (switched > 0) is bland_at_once


@pytest.mark.parametrize("factor", [0.0, 1.0 / 32.0], ids=["switch-at-1", "switch-at-2"])
def test_bland_rule_matches_general_with_structurals_left_to_enter(monkeypatch, factor):
    # Column 0 enters first, and only the half of the rows that read 1
    # there block it, all at z0 = -1: the next pivots are degenerate, and
    # Bland's rule then picks among structurals that have not entered.
    # With m + n = 32 the rule takes over after 1 or 2 degenerate pivots.
    monkeypatch.setattr(lp, "DEGENERATE_SWITCH_FACTOR", factor)
    rng = np.random.default_rng(28)
    switched = 0
    for d in (4, 5, 6):
        for _ in range(8):
            rows = rng.standard_normal((32 - d, d))
            rows[:, 0] = -np.abs(rows[:, 0])
            rows[::2, 0] = 1.0
            p = rng.uniform(-1.0, 1.0, d)
            p[0] = 3.0
            _assert_floats_match_general(rows, p)
            general = lp._Simplex(_membership_problem(rows, p))
            general.solve()
            switched += general.bland
    assert switched == 24


def test_membership_route_matches_general_on_column_scales():
    rng = np.random.default_rng(22)
    for d in (2, 3, 5, 8):
        scales = np.geomspace(1.0, 1000.0, d)
        for _ in range(6):
            m = int(rng.integers(d + 1, 400))
            rows = rng.standard_normal((m, d)) * rng.permutation(scales)
            p = rng.standard_normal(d) * scales * rng.uniform(0.1, 4.0)
            _assert_floats_match_general(rows, p)


def test_membership_route_matches_general_unbounded_rays():
    # Rows in a proper subspace leave a direction the rows cannot see.
    rng = np.random.default_rng(23)
    for d in (2, 3, 5):
        for _ in range(6):
            rank, m = int(rng.integers(1, d)), int(rng.integers(2, 200))
            rows = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, d))
            sol = _assert_floats_match_general(rows, rng.standard_normal(d))
            assert sol.status is LpStatus.UNBOUNDED
            assert (rows @ sol.ray >= -1e-9).all()


def test_membership_route_iteration_limit_matches_general(monkeypatch):
    rng = np.random.default_rng(13)
    points, p = rng.standard_normal((40, 6)), rng.standard_normal(6)
    problem = _membership_problem(points, p)
    pivots = _general(problem).iterations
    for budget in (1, pivots - 1):
        _pivot_budget(monkeypatch, budget, 40, 6)
        with pytest.raises(IterationLimitError) as theirs:
            _general(problem)
        with _on_floats() as shapes, pytest.raises(IterationLimitError) as ours:
            solve(MembershipProgram(points, p))
        assert shapes == [(40, 6)]
        assert ours.value.iterations == theirs.value.iterations == budget + 1
    _pivot_budget(monkeypatch, pivots, 40, 6)
    _assert_floats_match_general(points, p)


def _probe_points():
    rng = np.random.default_rng(24)
    return rng.standard_normal((12, 3)), rng.standard_normal(3)


def _shape_probe():
    return _membership_problem(*_probe_points())


# One way each to leave the membership shape, as fields to replace.
OFF_SHAPE = {
    "le-row": lambda base: {
        "constraint_senses": (ConstraintSense.LE,) + base.constraint_senses[1:]},
    "rhs": lambda base: {"rhs": np.concatenate([[-2.0], base.rhs[1:]])},
    "bound": lambda base: {"upper_bounds": np.array([np.inf, 0.5, np.inf])},
    "maximize": lambda base: {"objective_sense": ObjectiveSense.MAXIMIZE},
}


def test_membership_shape_takes_the_membership_route(monkeypatch):
    # Only a MembershipProgram of the shape takes the float kernel; the
    # same problem as a LinearProgram runs on the general simplex, agrees
    # with it bit for bit, and has no dual.
    seen = _spy_routes(monkeypatch)
    points, p = _probe_points()
    _assert_same(solve(MembershipProgram(points, p)), solve(_shape_probe()))
    assert seen == {"floats": [(12, 3)], "simplex": [(12, 3)]}
    with pytest.raises(TypeError, match="membership primal must be a MembershipProgram"):
        dual_of_membership(_shape_probe())


@pytest.mark.parametrize("kind", sorted(OFF_SHAPE))
def test_off_shape_problems_take_the_general_route(monkeypatch, kind):
    # With the size rule forced true, a LinearProgram still runs on the
    # general simplex: only a MembershipProgram takes the float kernel or
    # has a dual.
    seen = _spy_routes(monkeypatch)
    monkeypatch.setattr(lp, "_runs_on_floats", ROUTES["floats"])
    base = _shape_probe()
    problem = dataclasses.replace(base, **OFF_SHAPE[kind](base))
    solve(problem)
    with pytest.raises(TypeError, match="membership primal must be a MembershipProgram"):
        dual_of_membership(problem)
    assert seen == {"floats": [], "simplex": [(12, 3)]}


# ---------------------------------------------------------------------------
# the float kernel and the general simplex


@pytest.mark.parametrize("shape, route", [
    ((3, 2), "floats"), ((20, 2), "floats"),  # masked K4 estimator rounds
    ((8, 3), "floats"), ((20, 3), "floats"),  # n = 30 estimator rounds
    ((49, 2), "floats"),  # the exact-MLE attainable hull
    ((100, 2), "floats"), ((40, 5), "floats"),
    ((101, 2), "simplex"), ((10, 6), "simplex"),
    ((3000, 20), "simplex"),  # a cube-corner row-generation round
    ((66, 3), "floats"), ((67, 3), "simplex"), ((41, 5), "simplex"),  # the rule's edges
])
def test_the_shape_alone_picks_the_membership_kernel(monkeypatch, shape, route):
    seen = _spy_routes(monkeypatch)
    rng = np.random.default_rng(26)
    rows = rng.standard_normal(shape)
    solve(MembershipProgram(rows, rng.standard_normal(shape[1])))
    assert seen[route] == [shape]
    assert all(not shapes for other, shapes in seen.items() if other != route)


def test_estimator_hull_queries_run_on_floats(monkeypatch):
    seen = _spy_routes(monkeypatch)
    graph, mask = masked_k4_instance()
    cfg = EstimatorConfig(r_target=75, s_test=25, safety_factor=0.7,
                          max_outer_iterations=10, seed=3)
    iterate_until_contained(StatDef.from_names(["edges", "triangles"]), graph, mask,
                            np.zeros(2), cfg)
    assert seen["floats"] and not seen["simplex"]


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_singular_basis_is_an_arithmetic_error_on_each_kernel(route, monkeypatch):
    # Rows 0 and 1 are equal.  Column 0 enters on row 0; then column 1's
    # entry in row 1 reads b - 3 fl(b / 3), a rounding residue that passes
    # a tiny PIVOT_TOL, and the block on rows 0 and 1 is exactly singular.
    b = 0.9
    rows = np.array([[3.0, b], [3.0, b], [-1.0, 0.0], [0.0, -1.0], [0.0, 1.0]])
    monkeypatch.setattr(lp, "PIVOT_TOL", 1e-300)
    with _forced(route), pytest.raises(ArithmeticError, match="simplex basis solve failed") as err:
        solve(MembershipProgram(rows, np.array([1.0, 0.5])))
    assert isinstance(err.value.__cause__, np.linalg.LinAlgError)


# Exact pricing ties on rows of 0 and +-1, whose block solves are all
# exact, so no rounding can decide them.  A float kernel that let an
# equal score replace the best, among structurals or slacks, fails both.
EXACT_TIES = {
    "unbounded": ([[1, -1, 1], [-1, -1, -1], [-1, -1, 0], [1, 0, 1]], [-1, 0, 1]),
    "optimal": ([[0, 1, 1], [1, 0, 0], [1, 1, 0], [1, -1, 1], [-1, 1, 0], [0, -1, 0],
                 [-1, 0, 1]], [-1, -1, 1]),
}


@pytest.mark.parametrize("rows, p", EXACT_TIES.values(), ids=EXACT_TIES.keys())
def test_exact_ties_take_the_lowest_index_on_each_kernel(rows, p):
    _assert_floats_match_general(np.array(rows, dtype=float), np.array(p, dtype=float))


def _integer_cloud(rng):
    """A full-rank cloud of distinct small-integer rows and an integer
    objective: data full of exact ties in pricing and ratio tests."""
    while True:
        d = int(rng.integers(2, 4))
        rows = np.unique(rng.integers(-3, 4, (int(rng.integers(d, 31)), d)), axis=0)
        p = rng.integers(-3, 4, d)
        if p.any() and np.linalg.matrix_rank(rows) == d:
            return rows.astype(float), p.astype(float)


def test_kernels_agree_on_a_small_integer_tie_corpus():
    # The float kernel and the general simplex solve their blocks with
    # different roundings, so an exact tie may break differently and end
    # at another optimal vertex.  Both must still agree on the status and
    # the optimal value, and return a feasible minimizer.  With x86
    # OpenBLAS, three of these 400 LPs take other pivots, one ending at
    # another vertex.  Nudged off the integers, the same data has no
    # exact ties, and the two agree pivot for pivot and bit for bit.
    rng = np.random.default_rng(152)
    statuses = set()
    for _ in range(400):
        rows, p = _integer_cloud(rng)
        problem = MembershipProgram(rows, p)
        with _forced("floats"):
            ours = solve(problem)
        theirs = _general(_membership_problem(rows, p))
        statuses.add(ours.status)
        assert ours.status is theirs.status
        if ours.status is LpStatus.OPTIMAL:
            assert ours.objective_value == pytest.approx(theirs.objective_value, rel=1e-12,
                                                         abs=1e-12)
            assert (rows @ ours.primal >= -1.0 - 1e-9).all()

        nudged = rows + 1e-3 * rng.standard_normal(rows.shape)
        _assert_floats_match_general(nudged, p)
    assert statuses == {LpStatus.OPTIMAL, LpStatus.UNBOUNDED}


# ---------------------------------------------------------------------------
# the fixed-shape membership program


@pytest.mark.parametrize("matrix, objective, message", [
    (np.array([[1.0, np.nan]]), np.ones(2), "constraint_matrix contains NaN"),
    (np.array([[1.0, np.inf]]), np.ones(2), "constraint_matrix contains NaN"),
    (np.ones((3, 2)), np.array([1.0, -np.inf]), "objective contains NaN"),
    (np.ones((3, 2)), np.array([np.nan, 1.0]), "objective contains NaN"),
    (np.ones((3, 2)), np.ones(3), "objective has 3 entries for 2 columns"),
    (np.ones((3, 2)), np.ones(1), "objective has 1 entries for 2 columns"),
    (np.ones(3), np.ones(3), "constraint_matrix must be two dimensional"),
    (np.ones((0, 2)), np.ones(2), "constraint_matrix must be non-empty"),
])
def test_membership_program_rejects_bad_input(matrix, objective, message):
    with pytest.raises(ValueError, match=message):
        MembershipProgram(matrix, objective)


def test_membership_program_sizes():
    program = MembershipProgram(np.arange(12).reshape(4, 3), [1, 2, 3])
    assert (program.n_rows, program.n_cols) == (4, 3)
    assert program.constraint_matrix.dtype == program.objective.dtype == np.float64


def _assert_program_matches(points, p):
    """A MembershipProgram of points and p answers byte for byte as the
    general simplex answers its LinearProgram, on the route its shape
    picks and with the float kernel forced."""
    program = MembershipProgram(points, p)
    problem = _membership_problem(points, p)
    for forced in (contextlib.nullcontext(), _forced("floats")):
        with forced:
            try:
                theirs = _general(problem)
            except IterationLimitError as exc:
                with pytest.raises(IterationLimitError) as ours:
                    solve(program)
                assert ours.value.iterations == exc.iterations
                ours = None
                continue
            ours = solve(program)
        _assert_same(ours, theirs)
    return ours


def test_membership_program_matches_both_routes():
    rng = np.random.default_rng(31)
    statuses = set()
    for _ in range(40):
        r, d = int(rng.integers(1, 120)), int(rng.integers(1, 7))
        sol = _assert_program_matches(rng.standard_normal((r, d)), rng.standard_normal(d))
        statuses.add(sol.status)
    for k in range(6):
        rows = _ergm_cloud(rng, n=int(rng.integers(6, 12)), duplicate=1 + k % 3)
        p = rng.standard_normal(3) * rows.std(axis=0)
        statuses.add(_assert_program_matches(rows, p).status)
    for d in (2, 3, 5):
        rank, m = int(rng.integers(1, d)), int(rng.integers(2, 200))
        rows = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, d))
        statuses.add(_assert_program_matches(rows, rng.standard_normal(d)).status)
    assert statuses == {LpStatus.OPTIMAL, LpStatus.UNBOUNDED}


def test_membership_program_iteration_limit_matches(monkeypatch):
    rng = np.random.default_rng(13)
    points, p = rng.standard_normal((40, 6)), rng.standard_normal(6)
    _pivot_budget(monkeypatch, 1, 40, 6)
    assert _assert_program_matches(points, p) is None


def test_membership_program_takes_the_membership_route(monkeypatch):
    seen = _spy_routes(monkeypatch)
    rng = np.random.default_rng(24)
    solve(MembershipProgram(rng.standard_normal((12, 3)), rng.standard_normal(3)))
    assert seen == {"floats": [(12, 3)], "simplex": []}


def test_solve_rejects_other_problem_types():
    with pytest.raises(TypeError, match="LinearProgram or a MembershipProgram"):
        solve((np.ones((2, 2)), np.ones(2)))
