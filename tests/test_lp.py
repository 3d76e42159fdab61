import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hullmle import lp
from hullmle.expfam import StatDef, mcmc_sample
from hullmle.lp import (
    ConstraintSense,
    IterationLimitError,
    LinearProgram,
    LpStatus,
    ObjectiveSense,
    SolverConfig,
    dual_of_membership,
    solve,
    solve_dual_pair,
)


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
    config = SolverConfig()
    primal, dual = solve_dual_pair(problem, config)
    if primal.status is LpStatus.OPTIMAL:
        assert dual.status is LpStatus.OPTIMAL
        gap = abs(primal.objective_value - dual.objective_value)
        assert gap <= config.duality_tol * (1.0 + abs(primal.objective_value))
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
    _assert_same_as_general(
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
            statuses.add(_assert_same_as_general(problem).status)
            general = lp._Simplex(problem, SolverConfig())
            general.solve()
            switched += general.bland
    assert statuses == {LpStatus.OPTIMAL}
    assert (switched > 0) is bland_at_once


def test_membership_route_matches_general_on_column_scales():
    rng = np.random.default_rng(22)
    for d in (2, 3, 5, 8):
        scales = np.geomspace(1.0, 1000.0, d)
        for _ in range(6):
            m = int(rng.integers(d + 1, 400))
            rows = rng.standard_normal((m, d)) * rng.permutation(scales)
            p = rng.standard_normal(d) * scales * rng.uniform(0.1, 4.0)
            _assert_same_as_general(_membership_problem(rows, p))


def test_membership_route_matches_general_unbounded_rays():
    # Rows in a proper subspace leave a direction the rows cannot see.
    rng = np.random.default_rng(23)
    for d in (2, 3, 5):
        for _ in range(6):
            rank, m = int(rng.integers(1, d)), int(rng.integers(2, 200))
            rows = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, d))
            sol = _assert_same_as_general(_membership_problem(rows, rng.standard_normal(d)))
            assert sol.status is LpStatus.UNBOUNDED
            assert (rows @ sol.ray >= -1e-9).all()


def test_membership_route_iteration_limit_matches_general():
    rng = np.random.default_rng(13)
    problem = _membership_problem(rng.standard_normal((40, 6)), rng.standard_normal(6))
    config = SolverConfig(iteration_limit=1)
    with pytest.raises(IterationLimitError) as ours:
        solve(problem, config)
    with pytest.raises(IterationLimitError) as theirs:
        _general(problem, config)
    assert ours.value.iterations == theirs.value.iterations == 2
    _assert_same_as_general(problem, SolverConfig(iteration_limit=_general(problem).iterations))


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


def test_membership_shape_takes_the_membership_route(monkeypatch):
    calls = []
    original = lp._solve_membership

    def recording(problem, config):
        calls.append(problem)
        return original(problem, config)

    monkeypatch.setattr(lp, "_solve_membership", recording)
    problem = _shape_probe()
    _assert_same_as_general(problem)
    assert calls == [problem]


@pytest.mark.parametrize("kind", sorted(OFF_SHAPE))
def test_off_shape_problems_take_the_general_route(monkeypatch, kind):
    def refuse(problem, config):
        raise AssertionError("membership route taken")

    monkeypatch.setattr(lp, "_solve_membership", refuse)
    base = _shape_probe()
    problem = dataclasses.replace(base, **OFF_SHAPE[kind](base))
    _assert_same_as_general(problem)
    with pytest.raises(ValueError, match="membership primal"):
        dual_of_membership(problem)
