import contextlib
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hullmle import lp
from hullmle.estimate import EstimatorConfig, iterate_until_contained
from hullmle.expfam import StatDef, mcmc_sample
from hullmle.lp import (
    ConstraintSense,
    IterationLimitError,
    LinearProgram,
    LpStatus,
    MembershipProgram,
    ObjectiveSense,
    SolverConfig,
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
    sol = solve(_simple_lp(), SolverConfig())
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
    sol = solve(problem, SolverConfig())
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
    sol = solve(problem, SolverConfig())
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
    sol = solve(problem, SolverConfig())
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
    sol = solve(problem, SolverConfig())
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
    sol = solve(problem, SolverConfig())
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
    sol = solve(problem, SolverConfig())
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
    points = rng.standard_normal((r, d))
    p = rng.standard_normal(d)
    problem = _membership_problem(points, p)
    primal = solve(problem)
    dual = solve(dual_of_membership(problem))
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
    dual = dual_of_membership(_membership_problem(points, p))
    assert dual.objective_sense is ObjectiveSense.MAXIMIZE
    # Multipliers are nonnegative, one per target point.
    assert dual.lower_bounds.shape == (8,)
    assert np.all(dual.lower_bounds == 0.0)
    sol = solve(dual, SolverConfig())
    if sol.status is LpStatus.OPTIMAL:
        recombined = points.T @ sol.primal
        assert np.allclose(recombined, p, atol=1e-7)


def test_solver_is_deterministic():
    rng = np.random.default_rng(11)
    points = rng.standard_normal((30, 4))
    p = rng.standard_normal(4)
    problem = _membership_problem(points, p)
    a = solve(problem, SolverConfig())
    b = solve(problem, SolverConfig())
    assert a.status is b.status
    assert np.array_equal(a.primal, b.primal)
    assert a.objective_value == b.objective_value
    assert a.iterations == b.iterations


def test_iteration_limit_raises():
    rng = np.random.default_rng(13)
    points = rng.standard_normal((40, 6))
    p = rng.standard_normal(6)
    problem = _membership_problem(points, p)
    with pytest.raises(IterationLimitError):
        solve(problem, SolverConfig(iteration_limit=1))


@pytest.mark.parametrize("name", ["feas_tol", "pivot_tol", "boundary_tol"])
@pytest.mark.parametrize("value, message", [
    (math.inf, "must be finite"),
    (math.nan, "must be positive"),
    (0.0, "must be positive"),
])
def test_solver_config_rejects_tolerances_that_are_not_finite_and_positive(
        name, value, message):
    with pytest.raises(ValueError, match=f"{name} {message}"):
        SolverConfig(**{name: value})


@pytest.mark.parametrize("value", [math.nan, math.inf, 2.5, True, False, 0, -3, "5", 1e3])
def test_solver_config_iteration_limit_is_a_count(value):
    with pytest.raises(ValueError, match="iteration_limit must be an integer of at least 1"):
        SolverConfig(iteration_limit=value)


def test_solver_config_iteration_limit_takes_integers():
    assert SolverConfig().iteration_limit is None
    for value in (1, np.int64(7), np.int32(7)):
        limit = SolverConfig(iteration_limit=value).iteration_limit
        assert limit == value and type(limit) is int


def test_solution_feasibility_on_random_instances():
    rng = np.random.default_rng(17)
    config = SolverConfig()
    for _ in range(40):
        r = int(rng.integers(3, 25))
        d = int(rng.integers(2, 6))
        points = rng.standard_normal((r, d))
        p = rng.standard_normal(d)
        sol = solve(_membership_problem(points, p), config)
        if sol.status is LpStatus.OPTIMAL:
            assert np.all(points @ sol.primal >= -1.0 - config.feas_tol)


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


# ---------------------------------------------------------------------------
# the membership route against the general simplex


def _general(problem, config=None):
    """The general two-phase simplex on any problem, as solve reports it."""
    try:
        return lp._Simplex(problem, config or SolverConfig()).solve()
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError(f"simplex basis solve failed: {exc}") from exc


def _bytes(array):
    return None if array is None else array.tobytes()


def _assert_same_as_general(problem, config=None):
    """solve and the general simplex agree bit for bit: status, pivots,
    primal or ray, and objective."""
    ours, theirs = solve(problem, config), _general(problem, config)
    assert ours.status is theirs.status
    assert ours.iterations == theirs.iterations
    assert _bytes(ours.primal) == _bytes(theirs.primal)
    assert _bytes(ours.ray) == _bytes(theirs.ray)
    assert repr(ours.objective_value) == repr(theirs.objective_value)
    return ours


# Rules that force one route on a membership LP whatever its shape.
ROUTES = {"floats": lambda m, n: True, "simplex": lambda m, n: False}


@contextlib.contextmanager
def _forced(route):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lp, "_runs_on_floats", ROUTES[route])
        yield


def _assert_floats_match_general(problem, config=None):
    """_assert_same_as_general with the float kernel forced."""
    with _forced("floats"):
        return _assert_same_as_general(problem, config)


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
    _assert_floats_match_general(
        _membership_problem(rng.standard_normal((r, d)), rng.standard_normal(d)))


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
            problem = _membership_problem(rows, p)
            statuses.add(_assert_floats_match_general(problem).status)
            general = lp._Simplex(problem, SolverConfig())
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
            problem = _membership_problem(rows, p)
            _assert_floats_match_general(problem)
            general = lp._Simplex(problem, SolverConfig())
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
            _assert_floats_match_general(_membership_problem(rows, p))


def test_membership_route_matches_general_unbounded_rays():
    # Rows in a proper subspace leave a direction the rows cannot see.
    rng = np.random.default_rng(23)
    for d in (2, 3, 5):
        for _ in range(6):
            rank, m = int(rng.integers(1, d)), int(rng.integers(2, 200))
            rows = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, d))
            sol = _assert_floats_match_general(
                _membership_problem(rows, rng.standard_normal(d)))
            assert sol.status is LpStatus.UNBOUNDED
            assert (rows @ sol.ray >= -1e-9).all()


def test_membership_route_iteration_limit_matches_general():
    rng = np.random.default_rng(13)
    problem = _membership_problem(rng.standard_normal((40, 6)), rng.standard_normal(6))
    config = SolverConfig(iteration_limit=1)
    with pytest.raises(IterationLimitError) as theirs:
        _general(problem, config)
    with _forced("floats"), pytest.raises(IterationLimitError) as ours:
        solve(problem, config)
    assert ours.value.iterations == theirs.value.iterations == 2
    _assert_floats_match_general(
        problem, SolverConfig(iteration_limit=_general(problem).iterations))


def _shape_probe():
    rng = np.random.default_rng(24)
    return _membership_problem(rng.standard_normal((12, 3)), rng.standard_normal(3))


# One way each to leave the membership shape, as fields to replace.
OFF_SHAPE = {
    "le-row": lambda base: {
        "constraint_senses": (ConstraintSense.LE,) + base.constraint_senses[1:]},
    "rhs": lambda base: {"rhs": np.concatenate([[-2.0], base.rhs[1:]])},
    "bound": lambda base: {"upper_bounds": np.array([np.inf, 0.5, np.inf])},
    "maximize": lambda base: {"objective_sense": ObjectiveSense.MAXIMIZE},
}


def _spy_routes(monkeypatch):
    """Record the shape of every problem the float kernel and the general
    simplex solve."""
    seen = {"floats": [], "simplex": []}
    floats = lp._membership_floats

    def spy(A, c, cfg):
        seen["floats"].append(A.shape)
        return floats(A, c, cfg)

    class Simplex(lp._Simplex):
        def __init__(self, problem, config):
            seen["simplex"].append(problem.constraint_matrix.shape)
            super().__init__(problem, config)

    monkeypatch.setattr(lp, "_membership_floats", spy)
    monkeypatch.setattr(lp, "_Simplex", Simplex)
    return seen


def test_membership_shape_takes_the_membership_route(monkeypatch):
    seen = _spy_routes(monkeypatch)
    _assert_same_as_general(_shape_probe())
    # solve ran the float kernel; the general simplex ran as the reference.
    assert seen == {"floats": [(12, 3)], "simplex": [(12, 3)]}


@pytest.mark.parametrize("kind", sorted(OFF_SHAPE))
def test_off_shape_problems_take_the_general_route(monkeypatch, kind):
    # With the size rule forced true, only the shape keeps these problems
    # off the float kernel.
    def refuse(A, c, cfg):
        raise AssertionError("float kernel taken")

    monkeypatch.setattr(lp, "_membership_floats", refuse)
    monkeypatch.setattr(lp, "_runs_on_floats", ROUTES["floats"])
    base = _shape_probe()
    problem = dataclasses.replace(base, **OFF_SHAPE[kind](base))
    _assert_same_as_general(problem)
    with pytest.raises(ValueError, match="membership primal"):
        dual_of_membership(problem)


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
    solve(_membership_problem(rows, rng.standard_normal(shape[1])))
    assert seen[route] == [shape, shape]
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
def test_singular_basis_is_an_arithmetic_error_on_each_kernel(route):
    # Rows 0 and 1 are equal.  Column 0 enters on row 0; then column 1's
    # entry in row 1 reads b - 3 fl(b / 3), a rounding residue that passes
    # the tiny pivot_tol, and the block on rows 0 and 1 is exactly singular.
    b = 0.9
    rows = np.array([[3.0, b], [3.0, b], [-1.0, 0.0], [0.0, -1.0], [0.0, 1.0]])
    config = SolverConfig(pivot_tol=1e-300)
    with _forced(route), pytest.raises(ArithmeticError, match="simplex basis solve failed") as err:
        solve(MembershipProgram(rows, np.array([1.0, 0.5])), config)
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
    _assert_floats_match_general(
        _membership_problem(np.array(rows, dtype=float), np.array(p, dtype=float)))


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
        _assert_floats_match_general(_membership_problem(nudged, p))
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


def _assert_program_matches(points, p, config=None):
    """A MembershipProgram of points and p answers byte for byte as the
    LinearProgram route and the general simplex do, on the route its
    shape picks and with the float kernel forced."""
    program = MembershipProgram(points, p)
    problem = _membership_problem(points, p)
    for forced in (contextlib.nullcontext(), _forced("floats")):
        with forced:
            try:
                theirs = _assert_same_as_general(problem, config)
            except IterationLimitError as exc:
                with pytest.raises(IterationLimitError) as ours:
                    solve(program, config)
                assert ours.value.iterations == exc.iterations
                ours = None
                continue
            ours = solve(program, config)
        assert ours.status is theirs.status
        assert ours.iterations == theirs.iterations
        assert _bytes(ours.primal) == _bytes(theirs.primal)
        assert _bytes(ours.ray) == _bytes(theirs.ray)
        assert repr(ours.objective_value) == repr(theirs.objective_value)
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


def test_membership_program_iteration_limit_matches():
    rng = np.random.default_rng(13)
    points, p = rng.standard_normal((40, 6)), rng.standard_normal(6)
    assert _assert_program_matches(points, p, SolverConfig(iteration_limit=1)) is None


def test_membership_program_takes_the_membership_route(monkeypatch):
    seen = _spy_routes(monkeypatch)
    rng = np.random.default_rng(24)
    solve(MembershipProgram(rng.standard_normal((12, 3)), rng.standard_normal(3)))
    assert seen == {"floats": [(12, 3)], "simplex": []}


def test_membership_program_dual_matches_the_linear_program_dual():
    rng = np.random.default_rng(25)
    points, p = rng.standard_normal((15, 3)), rng.standard_normal(3)
    ours = dual_of_membership(MembershipProgram(points, p))
    theirs = dual_of_membership(_membership_problem(points, p))
    for name in ("objective", "constraint_matrix", "rhs", "lower_bounds", "upper_bounds"):
        assert getattr(ours, name).tobytes() == getattr(theirs, name).tobytes()
    assert ours.constraint_senses == theirs.constraint_senses
    assert ours.objective_sense is theirs.objective_sense


def test_solve_rejects_other_problem_types():
    with pytest.raises(TypeError, match="LinearProgram or a MembershipProgram"):
        solve((np.ones((2, 2)), np.ones(2)))
