"""Convex hull membership via linear programming, with applications to
Monte Carlo maximum likelihood for exponential-family graph models.

The pieces compose bottom-up: ``lp`` solves small dense linear
programs, ``hull`` turns one solve into a point-versus-hull verdict
with an exact boundary scaling factor, ``batch`` sweeps verdicts over
test sets and pruned targets, ``expfam`` supplies graph statistics,
exact toy-model moments, and a Metropolis sampler, and ``estimate``
drives the containment-checked likelihood stepping that ties them
together.
"""

from .batch import (
    ScaleReport,
    TestSet,
    mahalanobis_prune,
    make_test_set,
    min_scale,
    prune_curve,
)
from .estimate import (
    EstimatorConfig,
    EstimatorTrace,
    IterationRecord,
    NonexistentMle,
    OptimizationError,
    exact_mle,
    iterate_until_contained,
    rescaled_step,
)
from .expfam import (
    Graph,
    ObservationMask,
    StatDef,
    StatMatrix,
    StatTerm,
    demonstrate_unbounded,
    dyad_pairs,
    enumerate_statistics,
    exact_log_kappa,
    exact_loglik,
    exact_moments,
    loglik_ratio_grad,
    loglik_ratio_hat,
    loglik_ratio_hess,
    mcmc_sample,
    statistic_histogram,
    statistics,
)
from .hull import (
    DualReport,
    HullStatus,
    HullVerdict,
    OriginalLpResult,
    TargetSet,
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
from .lp import (
    ConstraintSense,
    LinearProgram,
    LpSolution,
    LpStatus,
    ObjectiveSense,
    SolverConfig,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "ConstraintSense",
    "DualReport",
    "EstimatorConfig",
    "EstimatorTrace",
    "Graph",
    "HullStatus",
    "HullVerdict",
    "IterationRecord",
    "LinearProgram",
    "LpSolution",
    "LpStatus",
    "NonexistentMle",
    "ObjectiveSense",
    "ObservationMask",
    "OptimizationError",
    "OriginalLpResult",
    "ScaleReport",
    "SolverConfig",
    "StatDef",
    "StatMatrix",
    "StatTerm",
    "TargetSet",
    "TestSet",
    "demonstrate_unbounded",
    "dyad_pairs",
    "enumerate_statistics",
    "exact_log_kappa",
    "exact_loglik",
    "exact_mle",
    "exact_moments",
    "iterate_until_contained",
    "loglik_ratio_grad",
    "loglik_ratio_hat",
    "loglik_ratio_hess",
    "mahalanobis_prune",
    "make_target_set",
    "make_test_set",
    "mcmc_sample",
    "min_scale",
    "oracle_2d",
    "oracle_membership_small",
    "prune_curve",
    "query",
    "query_dual",
    "query_original_lp",
    "rescaled_step",
    "separating_direction",
    "solve",
    "statistic_histogram",
    "statistics",
    "transform_invariance_check",
    "unit_axis_transform",
    "__version__",
]
