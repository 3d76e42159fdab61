"""Self-contained dense linear program solver.

The solver accepts problems in the form

    optimize    c' x
    subject to  A x  {>=, <=, =}  b
                lower <= x <= upper   (entries may be -inf / +inf)

and takes one of two routes, chosen from the problem alone.

The membership route serves the LP of every hull query: minimize, every
row >=, rhs identically -1, every bound infinite (min p'z subject to
M z >= -1 with z free).  Its all-slack basis is feasible at z = 0, so
it runs phase two only, with no artificial columns; the free structural
columns never leave the basis once they enter, and a leaving slack
always stops at its upper bound 0.  It performs the same basis solves,
products and tie breaks as the general route does on that shape, so the
two give bit-identical solutions, iteration counts and rays.

The general route runs a two-phase bounded-variable revised simplex on
anything else, including the dual and box-constrained cross-checks.
Free variables are handled natively (a nonbasic variable sits at a
bound or, if it has none, at zero), never by splitting into positive
and negative parts.  Internally every row gets a slack variable whose
bounds encode the row sense, plus an artificial variable when the
initial slack basis is infeasible for that row.

On both routes slack and artificial columns are unit vectors, so a
basis consists of unit columns plus at most n structural columns, and
every basis solve reduces to a k x k system with k <= n.  This keeps
pivots cheap on problems with very many rows and few variables, which
is the shape of every hull query in this package.

Pivoting is deterministic: Dantzig's rule with lowest-index tie breaks,
switching permanently to Bland's rule after 3 (m + n) consecutive
degenerate pivots.  Solving the same problem twice gives bit-identical
results.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .numerics import as_matrix, as_vector

__all__ = [
    "ObjectiveSense",
    "ConstraintSense",
    "LpStatus",
    "LinearProgram",
    "SolverConfig",
    "LpSolution",
    "IterationLimitError",
    "solve",
    "solve_dual_pair",
    "dual_of_membership",
]

ITERATION_LIMIT_FACTOR = 50
DEGENERATE_SWITCH_FACTOR = 3
DEGENERATE_STEP = 1e-12


class ObjectiveSense(enum.Enum):
    MINIMIZE = "min"
    MAXIMIZE = "max"


class ConstraintSense(enum.Enum):
    GE = ">="
    LE = "<="
    EQ = "=="


class LpStatus(enum.Enum):
    OPTIMAL = "Optimal"
    UNBOUNDED = "Unbounded"
    INFEASIBLE = "Infeasible"


class IterationLimitError(RuntimeError):
    """Raised when the pivot budget is exhausted; signals numerical
    trouble and is never converted into a solution status."""

    def __init__(self, iterations: int) -> None:
        super().__init__(f"simplex iteration limit reached after {iterations} pivots")
        self.iterations = iterations


@dataclass(frozen=True)
class SolverConfig:
    """Numerical knobs shared by the solver and the hull queries.

    feas_tol      absolute tolerance on constraint residuals
    pivot_tol     smallest pivot magnitude accepted during ratio tests
    boundary_tol  relative half-width of the boundary band in hull verdicts
    duality_tol   relative primal-dual objective agreement requirement
    iteration_limit  pivot budget of each LP solve, so of each round of a
                     row-generation hull query; None means 50 (rows +
                     columns) of the LP being solved
    """

    feas_tol: float = 1e-7
    pivot_tol: float = 1e-9
    boundary_tol: float = 1e-7
    duality_tol: float = 1e-7
    iteration_limit: int | None = None

    def __post_init__(self) -> None:
        for name in ("feas_tol", "pivot_tol", "boundary_tol", "duality_tol"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        if self.iteration_limit is not None and self.iteration_limit <= 0:
            raise ValueError("iteration_limit must be positive when given")


@dataclass(frozen=True)
class LinearProgram:
    """Validated dense LP instance.

    constraint_senses holds one ConstraintSense per row; bounds may use
    -inf / +inf.  Everything else must be finite.
    """

    objective_sense: ObjectiveSense
    objective: np.ndarray
    constraint_matrix: np.ndarray
    constraint_senses: tuple[ConstraintSense, ...]
    rhs: np.ndarray
    lower_bounds: np.ndarray
    upper_bounds: np.ndarray

    def __post_init__(self) -> None:
        obj = as_vector(self.objective, "objective")
        mat = as_matrix(self.constraint_matrix, "constraint_matrix")
        rhs = as_vector(self.rhs, "rhs")
        lo = np.asarray(self.lower_bounds, dtype=np.float64).reshape(-1)
        hi = np.asarray(self.upper_bounds, dtype=np.float64).reshape(-1)
        m, n = mat.shape
        if obj.size != n:
            raise ValueError(f"objective has {obj.size} entries for {n} columns")
        if rhs.size != m:
            raise ValueError(f"rhs has {rhs.size} entries for {m} rows")
        senses = tuple(self.constraint_senses)
        if len(senses) != m:
            raise ValueError("one constraint sense required per row")
        if _sense_codes(senses) is None:
            raise ValueError("constraint_senses must be ConstraintSense values")
        if lo.size != n or hi.size != n:
            raise ValueError("bound vectors must have one entry per column")
        if np.isnan(lo).any() or np.isnan(hi).any():
            raise ValueError("bounds may be infinite but not NaN")
        if (lo > hi).any():
            raise ValueError("lower bound exceeds upper bound")
        object.__setattr__(self, "objective", obj)
        object.__setattr__(self, "constraint_matrix", mat)
        object.__setattr__(self, "constraint_senses", senses)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "lower_bounds", lo)
        object.__setattr__(self, "upper_bounds", hi)

    @property
    def n_rows(self) -> int:
        return self.constraint_matrix.shape[0]

    @property
    def n_cols(self) -> int:
        return self.constraint_matrix.shape[1]


@dataclass(frozen=True)
class LpSolution:
    status: LpStatus
    primal: np.ndarray | None
    objective_value: float | None
    iterations: int
    ray: np.ndarray | None = field(default=None)


# Column status codes.
_BASIC, _AT_LOWER, _AT_UPPER, _FREE = 0, 1, 2, 3

# Slack bounds encoding each row sense, indexed by _sense_codes.
_SLACK_LO = np.array([-np.inf, 0.0, 0.0])  # GE, LE, EQ
_SLACK_HI = np.array([0.0, np.inf, 0.0])


def _sense_codes(senses: tuple) -> np.ndarray | None:
    """Each row's sense as its index in ConstraintSense order, or None
    when some entry is not a ConstraintSense.  Rows of one sense, the
    shape of every membership LP and its dual, cost one C-level count."""
    m = len(senses)
    for code, sense in enumerate(ConstraintSense):
        if senses.count(sense) == m:
            return np.full(m, code)
    rows = np.fromiter(senses, dtype=object, count=m)
    codes = np.full(m, -1)
    for code, sense in enumerate(ConstraintSense):
        codes[rows == sense] = code
    return None if (codes < 0).any() else codes


class _Simplex:
    """One solve; columns are [structural | slack | artificial]."""

    def __init__(self, problem: LinearProgram, config: SolverConfig) -> None:
        self.cfg = config
        self.A = problem.constraint_matrix
        self.b = problem.rhs
        self.m, self.n = self.A.shape
        self.flip = problem.objective_sense is ObjectiveSense.MAXIMIZE
        self.c_struct = -problem.objective if self.flip else problem.objective

        m, n = self.m, self.n
        codes = _sense_codes(problem.constraint_senses)
        self.lo = np.concatenate([problem.lower_bounds, _SLACK_LO[codes]])
        self.hi = np.concatenate([problem.upper_bounds, _SLACK_HI[codes]])

        lo_fin = np.isfinite(self.lo[:n])
        hi_fin = np.isfinite(self.hi[:n])
        near_lo = lo_fin & (~hi_fin | (np.abs(self.lo[:n]) <= np.abs(self.hi[:n])))
        struct_status = np.where(near_lo, _AT_LOWER, np.where(hi_fin, _AT_UPPER, _FREE))

        # Start from the all-slack basis; rows whose residual violates the
        # slack bounds get an artificial unit column signed like the
        # violation, so artificials start basic and nonnegative.
        self.status = struct_status  # read by _nonbasic_values
        resid = self.b - self.A @ self._nonbasic_values(slice(0, n))
        fits = (self.lo[n:] <= resid) & (resid <= self.hi[n:])
        above = resid > self.hi[n:]
        art_rows = np.flatnonzero(~fits)
        self.n_art = art_rows.size
        self.total = n + m + self.n_art
        self.status = np.concatenate([
            struct_status,
            np.where(fits, _BASIC, np.where(above, _AT_UPPER, _AT_LOWER)),
            np.full(self.n_art, _BASIC),
        ])
        self.lo = np.concatenate([self.lo, np.zeros(self.n_art)])
        self.hi = np.concatenate([self.hi, np.full(self.n_art, np.inf)])

        # unit_col[i] is the basic unit column covering row i, or -1 when
        # the row is covered by a structural column instead.
        self.unit_col = n + np.arange(m)
        self.unit_col[art_rows] = n + m + np.arange(self.n_art)
        self.basic_struct: list[int] = []

        # Coefficient of each unit column in its row (slack +1, artificial
        # carries the violation sign); indexed by column id for vector use.
        self.col_coef = np.ones(self.total)
        self.col_coef[n + m :] = np.where(above[art_rows], 1.0, -1.0)
        self.col_row = np.concatenate([np.full(n, -1), np.arange(m), art_rows])

        self.iterations = 0
        self.bland = False
        self._degenerate_run = 0
        limit = config.iteration_limit
        self.limit = ITERATION_LIMIT_FACTOR * (m + n) if limit is None else limit
        self._ray: np.ndarray | None = None

    # -- value bookkeeping -------------------------------------------------

    def _nonbasic_values(self, cols: slice) -> np.ndarray:
        """Values of the columns in cols: nonbasic ones sit at their
        bound, free and basic ones read 0."""
        stat = self.status[cols]
        return np.where(
            stat == _AT_LOWER,
            self.lo[cols],
            np.where(stat == _AT_UPPER, self.hi[cols], 0.0),
        )

    def _basis(self):
        """Current basis split: rows covered by structurals, basic
        structural columns, the m-by-k column block, and unit rows."""
        w_rows = np.flatnonzero(self.unit_col < 0)
        s_cols = np.array(sorted(self.basic_struct), dtype=np.int64)
        if w_rows.size != s_cols.size:
            raise AssertionError("basis bookkeeping out of sync")
        a_cols = self.A[:, s_cols] if s_cols.size else np.zeros((self.m, 0))
        u_rows = np.flatnonzero(self.unit_col >= 0)
        return w_rows, s_cols, a_cols, u_rows

    def _split_solve(self, v, w_rows, s_cols, a_cols, u_rows):
        """Solve B z = v, split into (structural part, unit part by row)."""
        if s_cols.size:
            z_s = np.linalg.solve(a_cols[w_rows], v[w_rows])
        else:
            z_s = np.zeros(0)
        z_u = np.zeros(self.m)
        if u_rows.size:
            part = v[u_rows]
            if s_cols.size:
                part = part - a_cols[u_rows] @ z_s
            z_u[u_rows] = part / self.col_coef[self.unit_col[u_rows]]
        return z_s, z_u

    def _basic_values(self, w_rows, s_cols, a_cols, u_rows):
        """Solve for every basic value from scratch; no incremental drift."""
        n, m = self.n, self.m
        resid = self.b - self.A @ self._nonbasic_values(slice(0, n))
        resid -= self._nonbasic_values(slice(n, n + m))
        return self._split_solve(resid, w_rows, s_cols, a_cols, u_rows)

    def _duals(self, costs, w_rows, s_cols, a_cols, u_rows) -> np.ndarray:
        y = np.zeros(self.m)
        if u_rows.size:
            cols = self.unit_col[u_rows]
            y[u_rows] = costs[cols] / self.col_coef[cols]
        if s_cols.size:
            rhs = costs[s_cols]
            if u_rows.size:
                rhs = rhs - a_cols[u_rows].T @ y[u_rows]
            y[w_rows] = np.linalg.solve(a_cols[w_rows].T, rhs)
        return y

    def _representation(self, col: int, w_rows, s_cols, a_cols, u_rows):
        """Split B^{-1} A_col into (structural part, unit part)."""
        if col < self.n:
            a = self.A[:, col]
        else:
            a = np.zeros(self.m)
            a[self.col_row[col]] = self.col_coef[col]
        return self._split_solve(a, w_rows, s_cols, a_cols, u_rows)

    # -- pivot selection -----------------------------------------------------

    def _pick_entering(self, costs, y):
        n, m = self.n, self.m
        d = np.concatenate([costs[:n] - self.A.T @ y, costs[n : n + m] - y])
        stat = self.status[: n + m]
        at_lo = stat == _AT_LOWER
        at_hi = stat == _AT_UPPER
        free = stat == _FREE

        score = np.zeros(n + m)
        score[at_lo] = -d[at_lo]
        score[at_hi] = d[at_hi]
        score[free] = np.abs(d[free])
        score[self.lo[: n + m] == self.hi[: n + m]] = 0.0  # fixed columns never move

        tol = self.cfg.pivot_tol * (1.0 + np.abs(costs).max())
        eligible = score > tol
        if not eligible.any():
            return None
        if self.bland:
            e = int(np.flatnonzero(eligible)[0])
        else:
            e = int(np.argmax(np.where(eligible, score, -np.inf)))
        sigma = 1.0 if (at_lo[e] or (free[e] and d[e] < 0.0)) else -1.0
        return e, sigma

    def _ratio_test(self, e, sigma, w_s, w_u, s_cols, x_s, u_rows, unit_vals):
        """Smallest step that drives a basic variable to one of its bounds,
        with lowest-column-index tie breaks.  Returns (t, leaving column,
        bound hit) or (t_flip, -1, flip) or None when no step blocks."""
        tol = self.cfg.pivot_tol
        cols = np.concatenate([s_cols, self.unit_col[u_rows]])
        vals = np.concatenate([x_s, unit_vals[u_rows]])
        rates = np.concatenate([-sigma * w_s, -sigma * w_u[u_rows]])
        lo, hi = self.lo[cols], self.hi[cols]

        t = np.full(cols.shape, np.inf)
        dec = (rates < -tol) & np.isfinite(lo)
        inc = (rates > tol) & np.isfinite(hi)
        with np.errstate(invalid="ignore"):
            t[dec] = np.maximum(0.0, (vals[dec] - lo[dec]) / (-rates[dec]))
            t[inc] = np.maximum(0.0, (hi[inc] - vals[inc]) / rates[inc])

        t_flip = np.inf
        if np.isfinite(self.lo[e]) and np.isfinite(self.hi[e]):
            t_flip = self.hi[e] - self.lo[e]

        t_min = t.min() if t.size else np.inf
        if not np.isfinite(t_min) and not np.isfinite(t_flip):
            return None
        if t_flip < t_min:
            return t_flip, -1, "flip"
        near = np.flatnonzero(t <= t_min + DEGENERATE_STEP)
        pick = near[np.argmin(cols[near])]
        bound = _AT_LOWER if dec[pick] else _AT_UPPER
        return float(t[pick]), int(cols[pick]), bound

    def _apply_pivot(self, e: int, leaving: int, bound: int) -> None:
        if e >= self.n:
            row = self.col_row[e]
            if self.unit_col[row] >= 0 and self.unit_col[row] != leaving:
                raise AssertionError("pivot would create a parallel unit basis")
        if leaving < self.n:
            self.basic_struct.remove(leaving)
        else:
            self.unit_col[self.col_row[leaving]] = -1
        self.status[leaving] = bound
        if e < self.n:
            self.basic_struct.append(e)
        else:
            self.unit_col[self.col_row[e]] = e
        self.status[e] = _BASIC

    def _run_phase(self, costs: np.ndarray, phase_one: bool) -> str:
        while True:
            w_rows, s_cols, a_cols, u_rows = self._basis()
            x_s, unit_vals = self._basic_values(w_rows, s_cols, a_cols, u_rows)
            y = self._duals(costs, w_rows, s_cols, a_cols, u_rows)
            pick = self._pick_entering(costs, y)
            if pick is None:
                return "optimal"
            e, sigma = pick
            w_s, w_u = self._representation(e, w_rows, s_cols, a_cols, u_rows)
            outcome = self._ratio_test(e, sigma, w_s, w_u, s_cols, x_s, u_rows, unit_vals)
            if outcome is None:
                if phase_one:
                    raise ArithmeticError("phase one became unbounded")
                self._ray = self._build_ray(e, sigma, s_cols, w_s)
                return "unbounded"
            t, leaving, bound = outcome

            self.iterations += 1
            if self.iterations > self.limit:
                raise IterationLimitError(self.iterations)
            if t < DEGENERATE_STEP:
                self._degenerate_run += 1
                if self._degenerate_run > DEGENERATE_SWITCH_FACTOR * (self.m + self.n):
                    self.bland = True
            else:
                self._degenerate_run = 0

            if bound == "flip":
                self.status[e] = _AT_UPPER if self.status[e] == _AT_LOWER else _AT_LOWER
            else:
                self._apply_pivot(e, leaving, bound)

    def _build_ray(self, e: int, sigma: float, s_cols, w_s) -> np.ndarray:
        ray = np.zeros(self.n)
        if e < self.n:
            ray[e] = sigma
        ray[s_cols] -= sigma * w_s
        return ray

    def _evict_artificials(self) -> None:
        """Pivot basic artificials out after phase one where any replacement
        column has a usable pivot element; rows without one are redundant and
        keep their artificial pinned at zero by the bound clamp."""
        for i in np.flatnonzero(self.unit_col >= self.n + self.m):
            col = self.unit_col[i]
            w_rows, s_cols, a_cols, _ = self._basis()
            coef = self.col_coef[col]
            if s_cols.size:
                q = np.linalg.solve(a_cols[w_rows].T, self.A[i, s_cols])
                comp = (self.A[i, :] - q @ self.A[w_rows, :]) / coef
            else:
                comp = self.A[i, :] / coef
            entering = -1
            for j in range(self.n):
                if self.status[j] != _BASIC and abs(comp[j]) > self.cfg.pivot_tol:
                    entering = j
                    break
            if entering < 0:
                slack = self.n + i
                if self.status[slack] != _BASIC and self.lo[slack] != self.hi[slack]:
                    entering = slack
            if entering >= 0:
                self._apply_pivot(entering, col, _AT_LOWER)

    def solve(self) -> LpSolution:
        n, m = self.n, self.m
        if self.n_art:
            costs1 = np.zeros(self.total)
            costs1[n + m :] = 1.0
            self._run_phase(costs1, phase_one=True)
            w_rows, s_cols, a_cols, u_rows = self._basis()
            _, unit_vals = self._basic_values(w_rows, s_cols, a_cols, u_rows)
            art_basic = u_rows[self.unit_col[u_rows] >= n + m]
            infeas = float(np.abs(unit_vals[art_basic]).sum()) if art_basic.size else 0.0
            if infeas > self.cfg.feas_tol:
                return LpSolution(LpStatus.INFEASIBLE, None, None, self.iterations)
            self._evict_artificials()
            self.lo[n + m :] = 0.0
            self.hi[n + m :] = 0.0

        costs2 = np.zeros(self.total)
        costs2[:n] = self.c_struct
        outcome = self._run_phase(costs2, phase_one=False)
        if outcome == "unbounded":
            return LpSolution(
                LpStatus.UNBOUNDED, None, None, self.iterations, ray=self._ray
            )

        w_rows, s_cols, a_cols, u_rows = self._basis()
        x_s, unit_vals = self._basic_values(w_rows, s_cols, a_cols, u_rows)
        x = self._nonbasic_values(slice(0, n))
        x[s_cols] = x_s
        self._check_feasible(x)
        value = float(self.c_struct @ x)
        if self.flip:
            value = -value
        return LpSolution(LpStatus.OPTIMAL, x, value, self.iterations)

    def _check_feasible(self, x: np.ndarray) -> None:
        resid = self.b - self.A @ x
        lo = self.lo[self.n : self.n + self.m]
        hi = self.hi[self.n : self.n + self.m]
        allowance = self.cfg.feas_tol * (1.0 + np.abs(self.b))
        bad = (resid < lo - allowance) | (resid > hi + allowance)
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            raise ArithmeticError(
                f"optimal basis violates row {i} by {resid[i]:.3e}; numerical trouble"
            )


def _is_membership_shape(problem: LinearProgram) -> bool:
    """True for min p'z subject to M z >= -1 with every z free."""
    return (
        problem.objective_sense is ObjectiveSense.MINIMIZE
        and problem.constraint_senses.count(ConstraintSense.GE) == problem.n_rows
        and bool(np.all(problem.rhs == -1.0))
        and not np.isfinite(problem.lower_bounds).any()
        and not np.isfinite(problem.upper_bounds).any()
    )


def _solve_membership(problem: LinearProgram, cfg: SolverConfig) -> LpSolution:
    """Phase two of _Simplex on a membership-shaped problem.

    The all-slack basis is feasible at z = 0.  Basic structurals are
    free, so no ratio test blocks on them and they never leave; a basic
    slack blocks only at its upper bound 0.  The basis is therefore the
    basic structural columns over the rows whose slack has left, a k x k
    block with k <= n.  Each pivot solves that block three times (basic
    values, duals, entering column), forms one A'y and ratio-tests the
    basic slacks, with the expressions _Simplex uses on this shape, so
    the two agree bit for bit.  The column block A[:, s_cols] is
    gathered again only when a structural enters.
    """
    A, c, b = problem.constraint_matrix, problem.objective, problem.rhs
    m, n = A.shape
    limit = cfg.iteration_limit
    limit = ITERATION_LIMIT_FACTOR * (m + n) if limit is None else limit
    tol = cfg.pivot_tol * (1.0 + np.abs(c).max())
    basic = np.zeros(n, dtype=bool)  # basic structurals
    covered = np.zeros(m, dtype=bool)  # rows whose slack left the basis
    s_cols = np.zeros(0, dtype=np.int64)
    a_cols = np.zeros((m, 0))
    iterations, degenerate_run, bland = 0, 0, False
    while True:
        w_rows = np.flatnonzero(covered)
        u_rows = np.flatnonzero(~covered)
        y = np.zeros(m)
        if s_cols.size:
            block, a_u = a_cols[w_rows], a_cols[u_rows]
            x_s = np.linalg.solve(block, b[w_rows])
            slack_vals = b[u_rows] - a_u @ x_s
            y[w_rows] = np.linalg.solve(block.T, c[s_cols])
        else:
            x_s, slack_vals = np.zeros(0), b[u_rows]
        d = c - A.T @ y

        # A nonbasic free structural scores |d|; a nonbasic slack sits at
        # its upper bound and scores -y, which is 0 on basic slacks.
        score = np.concatenate([np.where(basic, 0.0, np.abs(d)), -y])
        eligible = score > tol
        if not eligible.any():
            break
        if bland:
            e = int(np.flatnonzero(eligible)[0])
        else:
            e = int(np.argmax(np.where(eligible, score, -np.inf)))
        if e < n:
            sigma = 1.0 if d[e] < 0.0 else -1.0
            column = A[:, e]
        else:
            sigma = -1.0
            column = np.zeros(m)
            column[e - n] = 1.0
        if s_cols.size:
            w_s = np.linalg.solve(block, column[w_rows])
            w_u = column[u_rows] - a_u @ w_s
        else:
            w_s, w_u = np.zeros(0), column[u_rows]

        rates = -sigma * w_u
        rising = rates > cfg.pivot_tol
        with np.errstate(invalid="ignore"):
            t = np.maximum(0.0, (0.0 - slack_vals[rising]) / rates[rising])
        t_min = t.min() if t.size else np.inf
        if not np.isfinite(t_min):
            ray = np.zeros(n)
            if e < n:
                ray[e] = sigma
            ray[s_cols] -= sigma * w_s
            return LpSolution(LpStatus.UNBOUNDED, None, None, iterations, ray=ray)
        first = np.flatnonzero(t <= t_min + DEGENERATE_STEP)[0]

        iterations += 1
        if iterations > limit:
            raise IterationLimitError(iterations)
        if t[first] < DEGENERATE_STEP:
            degenerate_run += 1
            if degenerate_run > DEGENERATE_SWITCH_FACTOR * (m + n):
                bland = True
        else:
            degenerate_run = 0

        covered[u_rows[rising][first]] = True
        if e < n:
            basic[e] = True
            s_cols = np.flatnonzero(basic)
            a_cols = A[:, s_cols]
        else:
            covered[e - n] = False

    x = np.zeros(n)
    x[s_cols] = x_s
    resid = b - A @ x
    bad = resid > cfg.feas_tol * (1.0 + np.abs(b))
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise ArithmeticError(
            f"optimal basis violates row {i} by {resid[i]:.3e}; numerical trouble"
        )
    return LpSolution(LpStatus.OPTIMAL, x, float(c @ x), iterations)


def solve(problem: LinearProgram, config: SolverConfig | None = None) -> LpSolution:
    """Solve a dense LP; deterministic for identical inputs.

    A membership-shaped problem (minimize, every row >=, rhs identically
    -1, every bound infinite) takes the phase-two-only membership route;
    any other problem takes the general two-phase simplex.  On the
    membership shape both routes return bit-identical solutions, so the
    route is an implementation detail, chosen from the problem alone.

    Raises IterationLimitError when the pivot budget runs out, and
    ArithmeticError when the final basis fails its feasibility check or
    a basis turns out numerically singular (the numpy LinAlgError is
    chained as its cause, so it is not mistaken for bad input).
    """
    if not isinstance(problem, LinearProgram):
        raise TypeError("problem must be a LinearProgram")
    cfg = config or SolverConfig()
    try:
        if _is_membership_shape(problem):
            return _solve_membership(problem, cfg)
        return _Simplex(problem, cfg).solve()
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError(f"simplex basis solve failed: {exc}") from exc


def dual_of_membership(primal: LinearProgram) -> LinearProgram:
    """Dual of the free-variable membership LP: maximize -1'y subject to
    M'y = p with y >= 0, one weight per target row."""
    if not _is_membership_shape(primal):
        raise ValueError(
            "membership primal must minimize p'z subject to M z >= -1 with z free"
        )
    mat = primal.constraint_matrix
    r = mat.shape[0]
    return LinearProgram(
        objective_sense=ObjectiveSense.MAXIMIZE,
        objective=-np.ones(r),
        constraint_matrix=mat.T.copy(),
        constraint_senses=(ConstraintSense.EQ,) * mat.shape[1],
        rhs=primal.objective.copy(),
        lower_bounds=np.zeros(r),
        upper_bounds=np.full(r, np.inf),
    )


def solve_dual_pair(
    primal: LinearProgram, config: SolverConfig | None = None
) -> tuple[LpSolution, LpSolution]:
    """Solve a membership-shaped primal and its dual independently.

    Both problems go through the same simplex entry point but as separate
    instances, so agreement of the two objective values is a genuine
    numerical cross-check.  Raises ArithmeticError when strong duality
    fails beyond duality_tol or the statuses are inconsistent (an
    unbounded primal must pair with an infeasible dual).
    """
    cfg = config or SolverConfig()
    primal_sol = solve(primal, cfg)
    dual_sol = solve(dual_of_membership(primal), cfg)

    if primal_sol.status is LpStatus.OPTIMAL and dual_sol.status is LpStatus.OPTIMAL:
        gap = abs(primal_sol.objective_value - dual_sol.objective_value)
        allowed = cfg.duality_tol * (1.0 + abs(primal_sol.objective_value))
        if gap > allowed:
            raise ArithmeticError(
                f"strong duality violated: gap {gap:.3e} exceeds {allowed:.3e}"
            )
    elif primal_sol.status is LpStatus.UNBOUNDED:
        if dual_sol.status is not LpStatus.INFEASIBLE:
            raise ArithmeticError("unbounded primal paired with a feasible dual")
    elif primal_sol.status is LpStatus.INFEASIBLE:
        raise ArithmeticError("membership primal cannot be infeasible (zero is feasible)")
    return primal_sol, dual_sol
