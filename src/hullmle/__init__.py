"""Convex hull membership via linear programming, with applications to
Monte Carlo maximum likelihood for exponential-family graph models.

The pieces compose bottom-up: ``lp`` solves small dense linear
programs, ``hull`` turns one solve into a point-versus-hull verdict
with an exact boundary scaling factor, ``batch`` sweeps verdicts over
test sets and pruned targets, ``expfam`` supplies graph statistics,
exact toy-model moments, and a sampler (exact draws on small spaces, a
Metropolis chain on larger ones), and ``estimate`` drives the
containment-checked likelihood stepping that ties them together.
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
    demonstrate_unbounded,
    exact_mle,
    iterate_until_contained,
    loglik_ratio_grad,
    loglik_ratio_hat,
    loglik_ratio_hess,
    rescaled_step,
)
from .expfam import (
    Graph,
    ObservationMask,
    StatDef,
    StatMatrix,
    StatTerm,
    dyad_pairs,
    enumerate_statistics,
    exact_log_kappa,
    exact_loglik,
    exact_moments,
    mcmc_sample,
    statistic_histogram,
    statistics,
)
from .hull import (
    DualReport,
    HullStatus,
    HullVerdict,
    OriginalLpResult,
    SolverConfig,
    TargetSet,
    make_target_set,
    query,
    query_dual,
    query_original_lp,
    separating_direction,
)
from .lp import (
    ConstraintSense,
    LinearProgram,
    LpSolution,
    MembershipProgram,
    LpStatus,
    ObjectiveSense,
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
    "MembershipProgram",
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
    "prune_curve",
    "query",
    "query_dual",
    "query_original_lp",
    "rescaled_step",
    "separating_direction",
    "solve",
    "statistic_histogram",
    "statistics",
    "__version__",
]
