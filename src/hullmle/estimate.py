"""Iterative rescaled Monte Carlo maximum likelihood.

The sampled likelihood-ratio surface has a maximizer only when every
constrained test statistic lies strictly inside the hull of the
unconstrained target statistics.  Each outer iteration draws fresh
samples at the current parameter, measures the minimum boundary scaling
factor of the test points, and either stops (factor comfortably above
1) or maximizes the ratio surface with the test rows shrunk to 90% of
that factor, which guarantees the surface being optimized has a
maximizer.  An exact-MLE oracle over enumerable spaces validates the
whole loop on toy instances.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from . import numerics
from .batch import make_test_set, min_scale
from .expfam import (
    Graph,
    ObservationMask,
    StatDef,
    exact_moments,
    loglik_ratio_grad,
    loglik_ratio_hat,
    mcmc_sample,
    statistic_histogram,
    statistics,
)
from .hull import HullStatus, SolverConfig, make_target_set, query

__all__ = [
    "EstimatorConfig",
    "IterationRecord",
    "EstimatorTrace",
    "NonexistentMle",
    "OptimizationError",
    "rescaled_step",
    "iterate_until_contained",
    "exact_mle",
]


class NonexistentMle(Exception):
    """The likelihood has no maximizer: the observed statistic sits on
    the boundary of the attainable hull (or the ascent diverges)."""


class OptimizationError(RuntimeError):
    def __init__(self, message: str, last_iterate: np.ndarray, gradient_norm: float):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.gradient_norm = gradient_norm


@dataclass(frozen=True)
class EstimatorConfig:
    """Knobs of the outer loop.

    safety_factor shrinks the hull multiplier before it is applied, so
    the effective rescaling keeps test points strictly interior;
    stop_threshold ends the loop once safety_factor times the multiplier
    exceeds 1 with margin (0.9 * 1.11 is just shy of parity, meaning the
    final step ran at essentially unshrunk scale).
    """

    r_target: int = 500
    s_test: int = 100
    safety_factor: float = 0.9
    stop_threshold: float = 1.11
    max_outer_iterations: int = 20
    mcmc_interval: int | None = None
    seed: int = 0
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        if not 0.0 < self.safety_factor < 1.0:
            raise ValueError("safety factor must be in (0, 1)")
        if not self.stop_threshold > 1.0:
            raise ValueError("stop threshold must exceed 1")
        for name in ("r_target", "s_test", "max_outer_iterations", "mcmc_interval"):
            value = getattr(self, name)
            if value is None and name == "mcmc_interval":
                continue
            try:
                count = 0 if isinstance(value, bool) else operator.index(value)
            except TypeError:
                count = 0
            if count < 1:
                raise ValueError(f"{name} must be an integer of at least 1, got {value!r}")


@dataclass(frozen=True)
class IterationRecord:
    """State recorded before each re-estimation step.

    variance_condition_ok reports whether the sampled target covariance
    exceeds the test covariance in the positive-definite order, the
    known sufficient condition for the ratio surface to have a
    maximizer; it is informational only and never gates the loop.  None
    when either sample is too small to estimate a covariance.
    """

    theta: np.ndarray
    multiplier: float
    variance_condition_ok: bool | None


@dataclass(frozen=True)
class EstimatorTrace:
    iterations: tuple[IterationRecord, ...]
    final_theta: np.ndarray
    converged: bool

    @property
    def multipliers(self) -> list[float]:
        return [record.multiplier for record in self.iterations]


# The inner maximizer stops once the gradient norm reaches STEP_GRADIENT_TOL
# and gives up after STEP_MAX_ITERATIONS quasi-Newton iterations.
STEP_GRADIENT_TOL = 1e-8
STEP_MAX_ITERATIONS = 500


def _maximize(value, grad, x0, restart_rng):
    """Quasi-Newton ascent with backtracking; one random restart.

    Maintains an inverse-Hessian approximation via rank-two secant
    updates, skipping updates whose curvature is not usable.  The
    surface is smooth but not globally concave, so a failed line search
    triggers a single restart from a small perturbation before giving
    up.
    """
    x = np.array(x0, dtype=float)
    h = np.eye(x.size)
    g = grad(x)
    restarted = False
    for _ in range(STEP_MAX_ITERATIONS):
        gnorm = float(np.linalg.norm(g))
        if gnorm <= STEP_GRADIENT_TOL:
            return x
        direction = h @ g
        if float(direction @ g) <= 0.0:
            direction = g.copy()
            h = np.eye(x.size)

        f0 = value(x)
        slope = float(direction @ g)
        step = 1.0
        while step >= 1e-14:
            candidate = x + step * direction
            if value(candidate) >= f0 + 1e-4 * step * slope:
                break
            step *= 0.5
        else:
            if restarted:
                raise OptimizationError(
                    "line search failed twice", last_iterate=x, gradient_norm=gnorm
                )
            restarted = True
            x = np.array(x0, dtype=float) + 1e-4 * restart_rng.standard_normal(x.size)
            h = np.eye(x.size)
            g = grad(x)
            continue

        s = step * direction
        x = x + s
        g_new = grad(x)
        y = g - g_new  # gradient of the negated objective increases
        sy = float(s @ y)
        if sy > 1e-12 * float(np.linalg.norm(s)) * float(np.linalg.norm(y)):
            rho = 1.0 / sy
            hy = h @ y
            h = (
                h
                - rho * (np.outer(s, hy) + np.outer(hy, s))
                + rho * (1.0 + rho * float(y @ hy)) * np.outer(s, s)
            )
        g = g_new

    gnorm = float(np.linalg.norm(grad(x)))
    if gnorm > STEP_GRADIENT_TOL:
        raise OptimizationError(
            "inner iteration limit reached", last_iterate=x, gradient_norm=gnorm
        )
    return x


def rescaled_step(theta0, g_y, g_z, scale: float, cfg: EstimatorConfig) -> np.ndarray:
    """One re-estimation step at a shrunk test sample.

    Maximizes the sampled likelihood ratio with the centered test rows
    multiplied by safety_factor * scale, starting from no change, and
    returns the updated parameter.  Inputs must already be centered by
    the target-sample column mean.
    """
    theta = numerics.as_vector(theta0, "theta0")
    if not np.isfinite(scale) or scale <= 0.0:
        raise ValueError("scale must be finite and positive")
    effective = cfg.safety_factor * scale
    restart_rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(97,)))
    dtheta = _maximize(
        value=lambda dt: loglik_ratio_hat(dt, g_y, g_z, effective),
        grad=lambda dt: loglik_ratio_grad(dt, g_y, g_z, effective),
        x0=np.zeros(theta.size),
        restart_rng=restart_rng,
    )
    return theta + dtheta


def _variance_condition(y_rows: np.ndarray, z_rows: np.ndarray) -> bool | None:
    if y_rows.shape[0] < 2 or z_rows.shape[0] < 2:
        return None
    try:
        difference = numerics.covariance(y_rows) - numerics.covariance(z_rows)
        return bool(np.linalg.eigvalsh(difference).min() > 0.0)
    except np.linalg.LinAlgError:
        return None


def _estimation_mask(y_obs: Graph, mask: ObservationMask | None) -> ObservationMask:
    checked = ObservationMask.checked(y_obs, mask)
    if not checked.observed_dyads.any():
        raise ValueError("mask observes nothing; estimation has no data")
    return checked


def iterate_until_contained(
    stats: StatDef,
    y_obs: Graph,
    mask: ObservationMask | None,
    theta0,
    cfg: EstimatorConfig | None = None,
) -> EstimatorTrace:
    """Outer loop: sample, measure containment, rescale, re-estimate.

    Stops as soon as the minimum scaling factor of the constrained test
    sample against the unconstrained target hull reaches stop_threshold;
    records (theta, multiplier) before every re-estimation so the trace
    shows the containment trajectory.  Sample seeds derive from the
    master seed and the iteration index, so traces are reproducible
    bit for bit.
    """
    cfg = cfg or EstimatorConfig()
    theta = numerics.as_vector(theta0, "theta0").copy()
    if theta.size != stats.dim:
        raise ValueError(f"theta0 has {theta.size} entries, statistics have {stats.dim}")
    mask = _estimation_mask(y_obs, mask)

    records: list[IterationRecord] = []
    converged = False
    for iteration in range(cfg.max_outer_iterations):
        seed_y = np.random.SeedSequence(cfg.seed, spawn_key=(iteration, 0))
        seed_z = np.random.SeedSequence(cfg.seed, spawn_key=(iteration, 1))
        sample_y = mcmc_sample(
            stats, theta, y_obs.n, cfg.r_target, cfg.mcmc_interval, None, seed_y
        )
        sample_z = mcmc_sample(
            stats, theta, y_obs.n, cfg.s_test, cfg.mcmc_interval, mask, seed_z
        )

        target = make_target_set(sample_y.rows)
        if target.rank < stats.dim:
            raise ValueError(
                "sampled target statistics are rank-deficient; draw more samples "
                "or drop a statistic"
            )
        report = min_scale(target, make_test_set(sample_z.rows), cfg.solver)
        multiplier = report.min_scale
        records.append(
            IterationRecord(
                theta=theta.copy(),
                multiplier=multiplier,
                variance_condition_ok=_variance_condition(sample_y.rows, sample_z.rows),
            )
        )

        if multiplier >= cfg.stop_threshold:
            converged = True
            break

        centered_y = target.points
        centered_z = sample_z.rows - target.centroid
        theta = rescaled_step(theta, centered_y, centered_z, multiplier, cfg)

    return EstimatorTrace(
        iterations=tuple(records), final_theta=theta.copy(), converged=converged
    )


# Ascent iterates beyond this norm are treated as divergence to a
# boundary direction rather than approach to a finite maximizer; along
# such rays the gradient also vanishes, so the bound must be checked
# even after the gradient test passes.
DIVERGENCE_BOUND = 20.0

# Smallest move of an ascent step, relative to the largest parameter
# entry (or 1), that the line search still tries: a few units of rounding.
MOVE_RESOLUTION = 4.0 * np.finfo(np.float64).eps


def exact_mle(
    stats: StatDef,
    y_obs: Graph,
    mask: ObservationMask | None = None,
    gradient_tol: float = 1e-8,
    max_iterations: int = 200,
) -> np.ndarray:
    """Maximum-likelihood parameter by exact enumeration.

    Fully observed data first checks that the observed statistic lies
    strictly inside the hull of attainable statistics, the exact
    existence condition; ascent then drives the moment equation
    E[g] = g(y_obs) to gradient_tol.  With missing data the gradient is
    the difference of constrained and unconstrained means and existence
    is detected by divergence of the ascent instead.
    """
    mask = _estimation_mask(y_obs, mask)
    if mask.observed_dyads.all():
        hull_set = make_target_set(statistic_histogram(stats, y_obs.n)[0])
        verdict = query(hull_set, statistics(y_obs, stats))
        if verdict.status is not HullStatus.INTERIOR:
            raise NonexistentMle(
                "observed statistics lie on or outside the attainable hull "
                f"(status {verdict.status.value})"
            )

    def loglik_parts(theta):
        lk_con, mean_con, cov_con = exact_moments(stats, theta, y_obs.n, mask)
        lk_full, mean_full, cov_full = exact_moments(stats, theta, y_obs.n, None)
        value = lk_con - lk_full
        gradient = mean_con - mean_full
        hessian = cov_con - cov_full
        return value, gradient, hessian

    theta = np.zeros(stats.dim)
    value, gradient, hessian = loglik_parts(theta)
    for _ in range(max_iterations):
        if float(np.abs(gradient).max()) <= gradient_tol:
            if float(np.abs(theta).max()) > DIVERGENCE_BOUND:
                raise NonexistentMle(
                    "likelihood ascent diverges; no finite maximizer exists"
                )
            return theta
        try:
            direction = np.linalg.solve(-hessian, gradient)
        except np.linalg.LinAlgError:
            direction = gradient.copy()
        if float(direction @ gradient) <= 0.0:
            direction = gradient.copy()

        # Halve the step until the Armijo test passes, while it still
        # moves theta by more than its rounding.  Below that the value
        # cannot rank candidates (noise would pass steps that move
        # nothing), so the full step is taken if it reduces the gradient,
        # as Newton's step does near the maximizer; else the search fails.
        step = 1.0
        reach = float(np.abs(direction).max())
        floor = MOVE_RESOLUTION * max(1.0, float(np.abs(theta).max()))
        while step >= 1e-14 and step * reach > floor:
            candidate = theta + step * direction
            cand = loglik_parts(candidate)
            if cand[0] >= value + 1e-4 * step * float(direction @ gradient):
                break
            step *= 0.5
        else:
            candidate = theta + direction
            cand = loglik_parts(candidate)
            if not float(np.abs(cand[1]).max()) < float(np.abs(gradient).max()):
                raise OptimizationError(
                    "exact likelihood line search failed",
                    last_iterate=theta,
                    gradient_norm=float(np.abs(gradient).max()),
                )
        theta = candidate
        value, gradient, hessian = cand
        if float(np.abs(theta).max()) > DIVERGENCE_BOUND:
            raise NonexistentMle(
                "likelihood ascent diverges; no finite maximizer exists"
            )

    raise OptimizationError(
        "exact likelihood ascent did not converge",
        last_iterate=theta,
        gradient_norm=float(np.abs(gradient).max()),
    )
