"""Interior membership tests and boundary scaling factors for convex hulls.

A target set holds points centered about a chosen reference (the column
mean by default), and every query asks where the ray from that reference
through a test point crosses the hull boundary.  The scaling factor
gamma multiplies the centered test point onto the boundary: gamma > 1
means the point lies strictly inside, gamma < 1 strictly outside.

The production route answers each query with one free-variable LP:

    minimize p'z   subject to  M z >= -1   (z unconstrained)

whose optimal value v gives gamma = -1/v, and whose minimizer z defines
the supporting hyperplane 1 + x'z = 0 through the boundary point.
Each LP is handed to lp.solve as a MembershipProgram, which holds only
M and p.  One of at most 5 columns and 200 entries, the size of every
estimator hull query, runs phase two only on a kernel of Python floats,
from the feasible all-slack basis at z = 0; a larger one runs on the
general simplex.  The two give the same answer bit for bit, except that
an exact tie can break the other way on a last-bit difference in a
block solve, and the float kernel can then end at another optimal
vertex with the same objective (see lp).  The LP has one row per target
point and only d columns, so when the target has more than
ROW_GENERATION_FACTOR * d rows it is solved by exact row generation
(Kelley's cutting planes): solve on a small active set of rows, check
the minimizer against every row with one matrix-vector product, add the
most violated rows and repeat.  That all-rows check is both the stopping
rule and the certificate, so the answer is that of the full LP.
Smaller targets take the same loop with every row active, which is one
solve.  The legacy box-constrained formulation and the dual weight
formulation (both on every row) are kept as cross-checks.

A query has one setting, SolverConfig.boundary_tol: the relative
half-width of the band about gamma = 1 that reads Boundary.  The LP's
own numerics are lp's constants FEAS_TOL and PIVOT_TOL; FEAS_TOL also
sets how close to the reference a test point reads as the reference.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import lp, numerics
from .lp import (
    ConstraintSense,
    LinearProgram,
    LpStatus,
    MembershipProgram,
    ObjectiveSense,
    dual_of_membership,
    solve,
)

__all__ = [
    "HullStatus",
    "TargetSet",
    "HullVerdict",
    "OriginalLpResult",
    "DualReport",
    "SolverConfig",
    "make_target_set",
    "query",
    "query_original_lp",
    "query_dual",
    "separating_direction",
]

# Targets with more rows than this many per column are queried by row
# generation.  Measured crossovers against one all-rows solve fell
# between 100 and 200 rows per column for d = 3, 5 and 10; below them
# the extra rounds cost more than the smaller LPs save.
ROW_GENERATION_FACTOR = 100


class HullStatus(enum.Enum):
    INTERIOR = "Interior"
    BOUNDARY = "Boundary"
    EXTERIOR = "Exterior"
    DEGENERATE = "Degenerate"


@dataclass(frozen=True)
class SolverConfig:
    """boundary_tol, the relative half-width of the band about gamma = 1
    whose verdicts read Boundary.  It is the one tolerance a caller sets;
    the LP's are lp.FEAS_TOL and lp.PIVOT_TOL."""

    boundary_tol: float = 1e-7

    def __post_init__(self) -> None:
        if not self.boundary_tol > 0.0:
            raise ValueError("boundary_tol must be positive")
        if not math.isfinite(self.boundary_tol):
            raise ValueError("boundary_tol must be finite")


@dataclass(frozen=True)
class TargetSet:
    """Centered target points plus the reference they were centered about.

    points has one row per target point, already shifted by centroid.
    rank is the numerical affine rank of the rows; queries report
    Degenerate when it is below the ambient dimension.  Instances built
    by make_target_set with the default centroid have column means that
    vanish to roundoff; pruned sets deliberately keep the centroid of
    the set they were carved from, so their rows need not re-center.
    """

    points: np.ndarray
    centroid: np.ndarray
    rank: int

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def n_points(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class HullVerdict:
    """Outcome of one membership query.

    gamma scales the centered test point onto the hull boundary and is
    +inf for a test point at the reference (and for Degenerate hulls,
    where no finite factor exists).  boundary_point is reported in the
    original coordinates.  hyperplane = (z0, z) is present exactly for
    Exterior verdicts and satisfies z0 + x'z >= 0 on every centered
    target row with z0 + p'z < 0 at the centered test point.  minimizer
    retains the LP solution that produced the verdict when one exists.
    """

    status: HullStatus
    gamma: float
    boundary_point: np.ndarray | None
    hyperplane: tuple[float, np.ndarray] | None
    minimizer: np.ndarray | None = None


@dataclass(frozen=True)
class OriginalLpResult:
    """Box-constrained membership probe: objective 0 means the point lies
    in the closed hull, negative means (z0, z) separates it."""

    objective: float
    z0: float
    z: np.ndarray


@dataclass(frozen=True)
class DualReport:
    """Weight-based membership probe.  max_objective is the best value of
    -sum(y) over nonnegative row weights reproducing the centered test
    point; it equals -1/gamma of the primal route at optimality."""

    status: HullStatus
    max_objective: float | None
    weights: np.ndarray | None


def make_target_set(raw, centroid=None) -> TargetSet:
    """Build a TargetSet from raw points.

    With centroid=None the points are centered about their column mean.
    Passing an explicit centroid shifts by that reference instead; the
    caller asserts it lies in the hull interior, which is what every
    scaling factor is measured from.
    """
    arr = numerics.as_matrix(raw)
    if centroid is None:
        centered, ref = numerics.center(arr)
    else:
        ref = numerics.as_vector(centroid, "centroid")
        if ref.size != arr.shape[1]:
            raise ValueError(
                f"centroid has dimension {ref.size}, points have {arr.shape[1]}"
            )
        centered = arr - ref
    return TargetSet(points=centered, centroid=ref, rank=numerics.rank(arr))


def _centered_point(target: TargetSet, point) -> np.ndarray:
    p = numerics.as_vector(point, "point")
    if p.size != target.dim:
        raise ValueError(f"point has dimension {p.size}, target has {target.dim}")
    return p - target.centroid


def _classify(gamma: float, config: SolverConfig | None) -> HullStatus:
    tol = (config or SolverConfig()).boundary_tol
    if abs(gamma - 1.0) <= tol * (1.0 + abs(gamma)):
        return HullStatus.BOUNDARY
    return HullStatus.INTERIOR if gamma > 1.0 else HullStatus.EXTERIOR


def _seed_rows(points: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Initial active rows, sorted: every row up to ROW_GENERATION_FACTOR
    rows per column; above that the 2d rows projecting furthest along p
    plus each column's largest and smallest entry."""
    m, d = points.shape
    if m <= ROW_GENERATION_FACTOR * d:
        return np.arange(m)
    top = np.argpartition(points @ p, m - 2 * d)[m - 2 * d :]
    extremes = np.concatenate([points.argmax(axis=0), points.argmin(axis=0)])
    return np.unique(np.concatenate([top, extremes]))


def _solve_by_rows(points: np.ndarray, p: np.ndarray):
    """Membership LP over every row of points, solved on an active set.

    Each round solves the LP restricted to the active rows, starting
    from _seed_rows.  An Optimal minimizer z is checked against every
    inactive row with the allowance of the solver's own feasibility
    check on the active ones, 1 + M z >= -2 FEAS_TOL; an Unbounded ray r
    against every inactive row for M r < 0, which cuts it off.  Up to 2d
    of the worst inactive rows join the active set and the loop repeats.
    When none is left the round's answer is the full LP's: a minimizer
    of a relaxation that is feasible on every row is optimal, and a ray
    that no row cuts off leaves the full LP unbounded.  Every round adds
    a new row, so the loop ends.  With every row active there is nothing
    to check, and the round's answer is returned as it is.
    """
    active = _seed_rows(points, p)
    m, d = points.shape
    while True:
        if active.size == m:
            return solve(MembershipProgram(points, p))
        sol = solve(MembershipProgram(points[active], p))
        if sol.status is LpStatus.OPTIMAL:
            score, allowed = 1.0 + points @ sol.primal, -2.0 * lp.FEAS_TOL
        elif sol.status is LpStatus.UNBOUNDED:
            score, allowed = points @ sol.ray, 0.0
        else:
            return sol
        score[active] = np.inf
        worst = np.flatnonzero(score < allowed)
        if worst.size == 0:
            return sol
        if worst.size > 2 * d:
            worst = worst[np.argsort(score[worst], kind="stable")[: 2 * d]]
        active = np.union1d(active, worst)


def query(target: TargetSet, point, config: SolverConfig | None = None) -> HullVerdict:
    """Scaling-factor query along the ray from the reference through point.

    Returns Degenerate (never raises) when the target rows do not span
    the ambient space or the membership LP is unbounded.  A test point
    within lp.FEAS_TOL of the reference reports Interior with infinite
    gamma and no boundary point.  config sets only the Boundary band.

    A target with at most ROW_GENERATION_FACTOR * d rows is solved in
    one LP over all of its rows.  A larger one is solved by row
    generation: the first LP holds the 2d rows projecting furthest
    along the centered point plus each column's extremes, and rows the
    minimizer violates are added until it satisfies every row, which
    certifies it for the full LP; an unbounded round adds the rows that
    cut off its ray.
    """
    p = _centered_point(target, point)
    if np.abs(p).max() <= lp.FEAS_TOL:
        return HullVerdict(HullStatus.INTERIOR, np.inf, None, None)
    if target.rank < target.dim:
        return HullVerdict(HullStatus.DEGENERATE, np.inf, None, None)

    sol = _solve_by_rows(target.points, p)
    if sol.status is LpStatus.UNBOUNDED:
        return HullVerdict(HullStatus.DEGENERATE, np.inf, None, None)
    if sol.status is not LpStatus.OPTIMAL:
        raise ArithmeticError(f"membership LP returned {sol.status}")
    v = sol.objective_value
    if v >= 0.0:
        # Only reachable when p is microscopic relative to the hull; the
        # ray never meets the boundary at this resolution.
        return HullVerdict(HullStatus.INTERIOR, np.inf, None, None)

    gamma = -1.0 / v
    status = _classify(gamma, config)
    boundary = gamma * p + target.centroid
    hyperplane = (1.0, sol.primal) if status is HullStatus.EXTERIOR else None
    return HullVerdict(status, gamma, boundary, hyperplane, minimizer=sol.primal)


def query_original_lp(target: TargetSet, point) -> OriginalLpResult:
    """Box-constrained membership probe.

    Minimizes z0 + p'z subject to z0 + M z >= 0 with each z coordinate
    in [-1, 1].  Zero feasible, so the optimum is never positive; a
    strictly negative optimum certifies the point outside the closed
    hull.  The box constraints can clip the hyperplane short of the one
    supporting the true boundary crossing, which is why the free form
    in query is the production route.

    It solves every row at once, with no row generation, so it is a
    cross-check for small targets only: on a 3000x20 standard-normal
    target phase one exhausts the default pivot budget and raises
    IterationLimitError after 151,051 pivots.
    """
    p = _centered_point(target, point)
    m, d = target.points.shape
    problem = LinearProgram(
        objective_sense=ObjectiveSense.MINIMIZE,
        objective=np.concatenate([[1.0], p]),
        constraint_matrix=np.hstack([np.ones((m, 1)), target.points]),
        constraint_senses=(ConstraintSense.GE,) * m,
        rhs=np.zeros(m),
        lower_bounds=np.concatenate([[-np.inf], -np.ones(d)]),
        upper_bounds=np.concatenate([[np.inf], np.ones(d)]),
    )
    sol = solve(problem)
    if sol.status is not LpStatus.OPTIMAL:
        raise ArithmeticError(f"box-constrained membership LP returned {sol.status}")
    return OriginalLpResult(
        objective=sol.objective_value, z0=float(sol.primal[0]), z=sol.primal[1:]
    )


def query_dual(
    target: TargetSet, point, config: SolverConfig | None = None
) -> DualReport:
    """Row-weight membership probe.

    Maximizes -sum(y) over y >= 0 with M'y equal to the centered test
    point.  An optimum of at least -1 puts the point in the closed hull;
    infeasibility means no nonnegative row combination reaches it, which
    is reported as Degenerate.  config sets only the Boundary band.
    """
    p = _centered_point(target, point)
    if np.abs(p).max() <= lp.FEAS_TOL:
        return DualReport(HullStatus.INTERIOR, None, None)
    sol = solve(dual_of_membership(MembershipProgram(target.points, p)))
    if sol.status is LpStatus.INFEASIBLE:
        return DualReport(HullStatus.DEGENERATE, None, None)
    if sol.status is not LpStatus.OPTIMAL:
        raise ArithmeticError(f"dual membership LP returned {sol.status}")
    gamma = -1.0 / sol.objective_value if sol.objective_value < 0.0 else np.inf
    status = _classify(gamma, config) if np.isfinite(gamma) else HullStatus.INTERIOR
    return DualReport(status, sol.objective_value, sol.primal)


def separating_direction(verdict: HullVerdict) -> np.ndarray:
    """Direction w with w'M_i < w'p strictly for every target row, taken
    from an Exterior verdict's LP minimizer.  This is the certificate
    direction along which scaled log likelihood ratios grow without
    bound in the estimation modules."""
    if verdict.status is not HullStatus.EXTERIOR or verdict.minimizer is None:
        raise ValueError("separating direction requires an Exterior LP verdict")
    return -verdict.minimizer.copy()
