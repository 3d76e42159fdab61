"""Iterative rescaled Monte Carlo maximum likelihood.

The sampled likelihood-ratio surface has a maximizer only when every
constrained test statistic lies strictly inside the hull of the
unconstrained target statistics.  Each outer iteration draws fresh
samples at the current parameter, measures the minimum boundary scaling
factor of the test points, and either stops (factor comfortably above
1) or maximizes the ratio surface with the test rows shrunk to 90% of
that factor, which guarantees the surface being optimized has a
maximizer.  An exact-MLE oracle over enumerable spaces validates the
whole loop on toy instances.  Both maximize a difference of two
log-partition functions, whose gradient and Hessian are differences of
means and covariances, with the same Newton ascent.

Log-likelihood ratios between two parameter values are estimated from
samples by the difference of two log-mean-exp terms, each the kernel
numerics.tilted_moments over a sample's histogram (its distinct rows
weighted by their counts) less the log of the sample size, optionally
with a scaling factor applied to the (centered) constrained rows; that
factor is how the hull machinery's minimum scaling factor enters
estimation.  The step and the public ratio functions share that surface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import numerics
from .batch import make_test_set, min_scale
from .expfam import (
    Graph,
    ObservationMask,
    StatDef,
    StatMatrix,
    exact_moments,
    mcmc_sample,
    statistic_histogram,
    statistics,
)
from .hull import HullStatus, SolverConfig, TargetSet, make_target_set, query

__all__ = [
    "EstimatorConfig",
    "IterationRecord",
    "EstimatorTrace",
    "NonexistentMle",
    "OptimizationError",
    "rescaled_step",
    "iterate_until_contained",
    "exact_mle",
    "loglik_ratio_hat",
    "loglik_ratio_grad",
    "loglik_ratio_hess",
    "demonstrate_unbounded",
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
    final step ran at essentially unshrunk scale).  mcmc_interval is
    the chain's recording interval, None for 10 per free dyad; it
    applies only to spaces of more than 12 free dyads, which mcmc_sample
    runs as chains.
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
        for name, least in (("r_target", 1), ("s_test", 1), ("max_outer_iterations", 1),
                            ("mcmc_interval", 1), ("seed", 0)):
            value = getattr(self, name)
            if not (value is None and name == "mcmc_interval"):
                numerics.check_count(name, value, least)


# Slotted, with no per-instance dict: a caller that keeps every trace it
# gets, as a seed sweep does, holds only the fields.
@dataclass(frozen=True, slots=True)
class IterationRecord:
    """State recorded before each re-estimation step."""

    theta: np.ndarray
    multiplier: float


@dataclass(frozen=True, slots=True)
class EstimatorTrace:
    iterations: tuple[IterationRecord, ...]
    final_theta: np.ndarray
    converged: bool

    @property
    def multipliers(self) -> list[float]:
        return [record.multiplier for record in self.iterations]


# Every likelihood ascent stops once the largest gradient entry reaches
# GRADIENT_TOL and gives up after MAX_ITERATIONS Newton iterations.
GRADIENT_TOL = 1e-8
MAX_ITERATIONS = 200

# Smallest move of an ascent step, relative to the largest parameter
# entry (or 1), that the line search still tries: a few units of rounding.
MOVE_RESOLUTION = 4.0 * np.finfo(np.float64).eps


def _ascend(evaluate, x0, gradient_tol, bound=np.inf):
    """Newton ascent with a backtracking line search.

    evaluate(x) returns the value, gradient and Hessian at x, from one
    pass.  The Newton direction falls back to the gradient where it is
    not an ascent direction.  A step to an iterate whose largest entry
    exceeds bound raises NonexistentMle, whatever the gradient there.
    """
    x = np.array(x0, dtype=float)
    value, gradient, hessian = evaluate(x)
    for _ in range(MAX_ITERATIONS):
        gnorm = float(np.abs(gradient).max())
        if gnorm <= gradient_tol:
            return x
        try:
            direction = np.linalg.solve(-hessian, gradient)
        except np.linalg.LinAlgError:
            direction = gradient.copy()
        if float(direction @ gradient) <= 0.0:
            direction = gradient.copy()
        slope = float(direction @ gradient)

        # Halve the step until the Armijo test passes, while it still
        # moves x by more than its rounding.  Below that the value cannot
        # rank candidates (noise would pass steps that move nothing), so
        # the full step is taken if it reduces the gradient, as Newton's
        # step does near the maximizer; else the search fails.
        step = 1.0
        reach = float(np.abs(direction).max())
        floor = MOVE_RESOLUTION * max(1.0, float(np.abs(x).max()))
        while step >= 1e-14 and step * reach > floor:
            candidate = x + step * direction
            moved = evaluate(candidate)
            if moved[0] >= value + 1e-4 * step * slope:
                break
            step *= 0.5
        else:
            candidate = x + direction
            moved = evaluate(candidate)
            if not float(np.abs(moved[1]).max()) < gnorm:
                raise OptimizationError(
                    "likelihood line search failed", last_iterate=x, gradient_norm=gnorm
                )
        x = candidate
        value, gradient, hessian = moved
        if float(np.abs(x).max()) > bound:
            raise NonexistentMle(
                "likelihood ascent diverges; no finite maximizer exists"
            )

    raise OptimizationError(
        "likelihood ascent did not converge",
        last_iterate=x,
        gradient_norm=float(np.abs(gradient).max()),
    )


def _ratio_surface(g_y, g_z, scale: float):
    """(evaluate, target rows, test rows) of the sampled ratio surface.

    g_y and g_z are row arrays or StatMatrix samples of equal width.
    Each becomes a histogram once, the test rows times scale first: its
    distinct rows in order of first appearance and their counts.
    evaluate(dtheta) returns the value, gradient and Hessian.
    """
    if not (math.isfinite(scale) and scale > 0.0):
        raise ValueError("scale must be finite and positive")
    histograms = []
    for sample, factor in ((g_y, 1.0), (g_z, scale)):
        rows = sample.rows if isinstance(sample, StatMatrix) else sample
        rows = factor * numerics.as_matrix(rows, "sample rows")
        first, inverse = numerics.distinct_rows(rows)
        histograms.append((rows[first], np.bincount(inverse).astype(np.float64)))
    (y_rows, y_counts), (z_rows, z_counts) = histograms
    if y_rows.shape[1] != z_rows.shape[1]:
        raise ValueError(
            f"target rows have {y_rows.shape[1]} columns, test rows have {z_rows.shape[1]}")
    log_r, log_s = math.log(y_counts.sum()), math.log(z_counts.sum())

    def evaluate(dt):
        lk_z, mean_z, cov_z = numerics.tilted_moments(z_rows, z_counts, dt)
        lk_y, mean_y, cov_y = numerics.tilted_moments(y_rows, y_counts, dt)
        return (lk_z - log_s) - (lk_y - log_r), mean_z - mean_y, cov_z - cov_y

    return evaluate, y_rows, z_rows


def _vector_of_width(x, name: str, width: int) -> np.ndarray:
    vector = numerics.as_vector(x, name)
    if vector.size != width:
        raise ValueError(f"{name} has {vector.size} entries, sample rows have {width} columns")
    return vector


def _evaluated(evaluate, dtheta: np.ndarray, where: str):
    """evaluate(dtheta), raising ValueError naming where if its value is
    NaN, as when dtheta overflows an exponent; numpy stays quiet."""
    with np.errstate(over="ignore", invalid="ignore"):
        result = evaluate(dtheta)
    if math.isnan(result[0]):
        raise ValueError(f"the estimate at {where} is NaN: the exponent overflows")
    return result


def _ratio_at(dtheta, g_y, g_z, scale: float):
    evaluate, y_rows, _ = _ratio_surface(g_y, g_z, scale)
    dt = _vector_of_width(dtheta, "dtheta", y_rows.shape[1])
    return _evaluated(evaluate, dt, f"dtheta {dt.tolist()}")


def loglik_ratio_hat(dtheta, g_y, g_z, scale: float = 1.0) -> float:
    """Sampled log-likelihood-ratio estimate between theta0 + dtheta and
    theta0.

    Both terms are log-mean-exp over sample rows; scale multiplies the
    constrained rows only, which is exactly how the hull-derived factor
    shrinks the test sample toward the target centroid when both inputs
    are centered by the unconstrained column mean.  A dtheta so large
    that the estimate is NaN raises ValueError naming it; so do
    loglik_ratio_grad and loglik_ratio_hess.
    """
    return _ratio_at(dtheta, g_y, g_z, scale)[0]


def loglik_ratio_grad(dtheta, g_y, g_z, scale: float = 1.0) -> np.ndarray:
    """Gradient of loglik_ratio_hat in dtheta: the difference of the two
    samples' tilted means, the constrained rows multiplied by scale
    first."""
    return _ratio_at(dtheta, g_y, g_z, scale)[1]


def loglik_ratio_hess(dtheta, g_y, g_z, scale: float = 1.0) -> np.ndarray:
    """Hessian of loglik_ratio_hat in dtheta: the difference of the two
    samples' tilted covariances, as in loglik_ratio_grad."""
    return _ratio_at(dtheta, g_y, g_z, scale)[2]


def demonstrate_unbounded(g_y, g_z, direction, alphas) -> list[float]:
    """Likelihood-ratio values along a separating direction.

    direction must strictly separate the best constrained row from every
    unconstrained row: max over gZ rows of z'g exceeds the max over gY
    rows.  Then theta0 + alpha*direction drives the estimate upward
    without bound, certifying that the sampled likelihood surface has no
    maximizer.  Returns the estimate at each alpha; alphas must be finite,
    and an alpha so large that its estimate is NaN (alpha * direction
    overflows the exponent) raises ValueError naming it.
    """
    alphas = [float(alpha) for alpha in alphas]
    if not all(map(math.isfinite, alphas)):
        raise ValueError(f"alphas must be finite, got {alphas}")
    evaluate, y_rows, z_rows = _ratio_surface(g_y, g_z, 1.0)
    z = _vector_of_width(direction, "direction", y_rows.shape[1])
    if not float((y_rows @ z).max()) < float((z_rows @ z).max()):
        raise ValueError(
            "direction does not separate the test rows from the target rows"
        )
    return [_evaluated(evaluate, alpha * z, f"alpha {alpha!r}")[0] for alpha in alphas]


def rescaled_step(theta0, g_y, g_z, scale: float, cfg: EstimatorConfig) -> np.ndarray:
    """One re-estimation step at a shrunk test sample.

    Maximizes the sampled likelihood ratio (loglik_ratio_hat's surface)
    with the centered test rows multiplied by safety_factor * scale,
    starting from no change, and returns the updated parameter.  Inputs
    must already be centered by the target-sample column mean.  The
    shrunk test rows lie inside the target hull, so the surface has a
    maximizer.
    """
    evaluate, y_rows, _ = _ratio_surface(g_y, g_z, cfg.safety_factor * scale)
    theta = _vector_of_width(theta0, "theta0", y_rows.shape[1])
    return theta + _ascend(evaluate, np.zeros(theta.size), GRADIENT_TOL)


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
    bit for bit.  Each iterate is one read-only array, held by its record
    and, for the last, by final_theta too.
    """
    cfg = cfg or EstimatorConfig()
    theta = numerics.as_vector(theta0, "theta0").copy()
    theta.flags.writeable = False
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
        # The LP needs each distinct target row once; the step below
        # counts how often each row was drawn, so it takes the full sample.
        first, _ = numerics.distinct_rows(target.points)
        hull = TargetSet(points=target.points[first], centroid=target.centroid,
                         rank=target.rank)
        report = min_scale(hull, make_test_set(sample_z.rows), cfg.solver)
        multiplier = report.min_scale
        records.append(IterationRecord(theta=theta, multiplier=multiplier))

        if multiplier >= cfg.stop_threshold:
            converged = True
            break

        centered_y = target.points
        centered_z = sample_z.rows - target.centroid
        theta = rescaled_step(theta, centered_y, centered_z, multiplier, cfg)
        theta.flags.writeable = False

    return EstimatorTrace(iterations=tuple(records), final_theta=theta, converged=converged)


# Ascent iterates beyond this norm are treated as divergence to a
# boundary direction rather than approach to a finite maximizer; along
# such rays the gradient also vanishes, so the bound is checked after
# every step, before the gradient test.
DIVERGENCE_BOUND = 20.0


def exact_mle(
    stats: StatDef,
    y_obs: Graph,
    mask: ObservationMask | None = None,
    gradient_tol: float = GRADIENT_TOL,
) -> np.ndarray:
    """Maximum-likelihood parameter by exact enumeration.

    Fully observed data first checks that the observed statistic lies
    strictly inside the hull of attainable statistics, the exact
    existence condition; ascent then drives the moment equation
    E[g] = g(y_obs) to gradient_tol.  With missing data the gradient is
    the difference of constrained and unconstrained means and existence
    is detected by divergence of the ascent instead.
    """
    if not (gradient_tol > 0.0 and math.isfinite(gradient_tol)):
        raise ValueError(f"gradient_tol must be finite and positive, got {gradient_tol!r}")
    mask = _estimation_mask(y_obs, mask)
    if mask.observed_dyads.all():
        hull_set = make_target_set(statistic_histogram(stats, y_obs.n)[0])
        verdict = query(hull_set, statistics(y_obs, stats))
        if verdict.status is not HullStatus.INTERIOR:
            raise NonexistentMle(
                "observed statistics lie on or outside the attainable hull "
                f"(status {verdict.status.value})"
            )

    def evaluate(theta):
        lk_con, mean_con, cov_con = exact_moments(stats, theta, y_obs.n, mask)
        lk_full, mean_full, cov_full = exact_moments(stats, theta, y_obs.n, None)
        return lk_con - lk_full, mean_con - mean_full, cov_con - cov_full

    return _ascend(evaluate, np.zeros(stats.dim), gradient_tol, bound=DIVERGENCE_BOUND)
