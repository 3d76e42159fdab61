import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hullmle.lp import (
    ConstraintSense,
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
    from hullmle.lp import IterationLimitError

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
