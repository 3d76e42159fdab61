"""Batch hull queries: minimum scaling factor over a test set, and
Mahalanobis-depth pruning of the target set as an accuracy/speed
experiment.

The minimum scaling factor over a set of test statistics decides whether
a sampled likelihood-ratio surface has a maximizer at all: any test
point outside the open hull (factor at most 1) certifies an unbounded
surface.  Pruning keeps only the outermost fraction of target points by
Mahalanobis depth.  It is a heuristic, kept for prune_curve and the
prune-curve command, and does not pay for itself: on a 100k x 20 cube
cloud with 5 corner tests (2-core machine) min_scale on the full target
takes 0.2-0.3 s, the prune to a quarter takes 2-2.5 s (most of it the
exactly summed covariance), and the pruned hull is smaller, so its
min_scale reads 2.7% lower.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import numerics
from .hull import HullStatus, HullVerdict, SolverConfig, TargetSet, query

__all__ = [
    "TestSet",
    "ScaleReport",
    "make_test_set",
    "min_scale",
    "mahalanobis_prune",
    "prune_curve",
]


@dataclass(frozen=True)
class TestSet:
    """Test points in original (uncentered) coordinates, one per row."""

    points: np.ndarray

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class ScaleReport:
    """Per-point scaling factors and their minimum.

    min_scale at or below 1 means at least one test point sits outside
    the open hull, so no common rescaling short of min_scale brings the
    whole set strictly inside.  any_degenerate flags individual queries
    that could not produce a finite factor; those contribute +inf.
    argmin_verdict is the query verdict of the argmin point, so callers
    need not solve that point again.
    """

    min_scale: float
    per_point_scales: np.ndarray
    argmin: int
    any_degenerate: bool
    argmin_verdict: HullVerdict


def make_test_set(raw) -> TestSet:
    return TestSet(points=numerics.as_matrix(raw, "test points"))


def min_scale(
    target: TargetSet,
    tests: TestSet,
    config: SolverConfig | None = None,
    threads: int | None = None,
) -> ScaleReport:
    """Smallest per-point boundary scaling factor over the test set.

    Queries run one after another.  threads > 1 runs them on a thread
    pool instead; its only caller is the threaded re-timing in
    perfbench/harness.py.  The report is assembled by point index either
    way.  A rank-deficient target is rejected outright since every query
    would be Degenerate.
    """
    cfg = config or SolverConfig()
    if tests.n_points < 1:
        raise ValueError("test set is empty")
    if target.rank < target.dim:
        raise ValueError(
            "target set is rank-deficient; every query would be Degenerate"
        )

    def one(row) -> HullVerdict:
        return query(target, row, cfg)

    rows = list(tests.points)
    if threads is not None and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            verdicts = list(pool.map(one, rows))
    else:
        verdicts = [one(row) for row in rows]

    # A Degenerate verdict's gamma is +inf.
    scales = np.array([v.gamma for v in verdicts])
    argmin = int(np.argmin(scales))
    return ScaleReport(
        min_scale=float(scales[argmin]),
        per_point_scales=scales,
        argmin=argmin,
        any_degenerate=any(v.status is HullStatus.DEGENERATE for v in verdicts),
        argmin_verdict=verdicts[argmin],
    )


def _depth_order(target: TargetSet) -> np.ndarray:
    """Row indices sorted by decreasing squared Mahalanobis distance from
    the centroid, ties broken by original index.  The covariance is the
    sample covariance of the full target set, computed once; when it is
    numerically singular, eps * I with eps = 1e-10 * trace / dim is added
    before factoring, which is enough to rank points by depth."""
    cov = numerics.covariance(target.points)
    try:
        factor = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        dim = cov.shape[0]
        eps = 1e-10 * np.trace(cov) / dim
        if eps <= 0.0:
            eps = 1e-10
        factor = np.linalg.cholesky(cov + eps * np.eye(dim))
    half = np.linalg.solve(factor, target.points.T)
    return np.argsort(-np.sum(half * half, axis=0), kind="stable")


def _keep_count(keep_fraction: float, r: int) -> int:
    if not 0.0 < keep_fraction <= 1.0:
        raise ValueError(f"keep fraction must be in (0, 1], got {keep_fraction}")
    return math.ceil(keep_fraction * r)


def _pruned(target: TargetSet, order: np.ndarray, kept: int) -> TargetSet:
    rows = target.points[order[:kept]]
    return TargetSet(
        points=rows,
        centroid=target.centroid,
        # Rank of the survivors; pruning extreme points first makes a
        # rank drop before tiny kept counts unlikely but not impossible.
        rank=numerics.rank(rows),
    )


def mahalanobis_prune(target: TargetSet, keep_fraction: float) -> TargetSet:
    """Keep the outermost fraction of target points by Mahalanobis depth.

    The deepest points (smallest distance) are the likeliest to be
    interior to the hull of the rest, but dropping them can still pull
    the boundary in; see the module docstring.  The result keeps the
    original centroid on purpose: scaling factors are measured along
    rays from that reference, and re-centering on survivors would
    silently change every subsequent query.
    """
    if target.n_points < 2:
        raise ValueError("pruning needs at least two points")
    kept = _keep_count(keep_fraction, target.n_points)
    return _pruned(target, _depth_order(target), kept)


def prune_curve(
    target: TargetSet,
    tests: TestSet,
    fractions,
    config: SolverConfig | None = None,
) -> list[tuple[float, float]]:
    """min_scale at each kept fraction, sharing one depth ordering.

    Kept sets are nested across fractions, so the curve is monotone
    nondecreasing in the fraction: a larger kept set has a larger hull.
    That reading assumes every query stays answerable; pruning hard
    enough that the kept hull no longer surrounds the centroid turns
    queries Degenerate, whose infinite gammas are placeholders rather
    than scaling factors (min_scale sets any_degenerate there, which the
    curve does not carry).
    """
    fracs = [float(f) for f in fractions]
    if not fracs:
        raise ValueError("no fractions given")
    if target.n_points < 2:
        raise ValueError("pruning needs at least two points")
    order = _depth_order(target)
    curve = []
    for f in fracs:
        kept = _keep_count(f, target.n_points)
        report = min_scale(_pruned(target, order, kept), tests, config)
        curve.append((f, report.min_scale))
    return curve
