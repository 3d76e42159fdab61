"""Shared dense linear algebra helpers.

Conventions used throughout the package: a point set is a 2-D float64
array with one point per row, a vector is a 1-D float64 array.  All
public functions validate their inputs and raise ValueError on NaN or
infinite entries.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "as_matrix",
    "as_vector",
    "center",
    "covariance",
    "rank",
]

# Relative threshold below which a singular value counts as zero.
RANK_TOL = 1e-9


def as_matrix(points, name: str = "points") -> np.ndarray:
    """Coerce to a 2-D float64 array and reject non-finite entries."""
    arr = np.asarray(points, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be two dimensional, got shape {arr.shape}")
    if arr.shape[0] == 0 or arr.shape[1] == 0:
        raise ValueError(f"{name} must be non-empty, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains NaN or infinite entries")
    return arr


def as_vector(x, name: str = "vector") -> np.ndarray:
    """Coerce to a 1-D float64 array and reject non-finite entries."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 2 and 1 in arr.shape:
        arr = arr.reshape(-1)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains NaN or infinite entries")
    return arr


def _fsum_columns(points: np.ndarray) -> np.ndarray:
    """Column sums via math.fsum, so the result does not depend on row order."""
    return np.array([math.fsum(points[:, j]) for j in range(points.shape[1])])


def center(points) -> tuple[np.ndarray, np.ndarray]:
    """Subtract the column means.

    Returns (centered, centroid).  The centroid is computed with
    correctly rounded summation so that permuting the rows yields a
    bit-identical result.
    """
    arr = as_matrix(points)
    centroid = _fsum_columns(arr) / arr.shape[0]
    return arr - centroid, centroid


def covariance(points) -> np.ndarray:
    """Sample covariance with the rows-minus-one denominator.

    Each entry is accumulated with math.fsum, which makes the result
    exactly invariant under row permutation (the summands form the
    same multiset regardless of order).  Requires at least two rows.
    """
    arr = as_matrix(points)
    r, d = arr.shape
    if r < 2:
        raise ValueError("covariance requires at least two rows")
    centered = arr - _fsum_columns(arr) / r
    cov = np.empty((d, d))
    for i in range(d):
        for j in range(i, d):
            cov[i, j] = cov[j, i] = math.fsum(centered[:, i] * centered[:, j]) / (r - 1)
    return cov


def rank(points) -> int:
    """Numerical rank of the centered point set.

    Singular values below RANK_TOL times the largest count as zero, so a
    single repeated row (or any set of identical rows) has rank zero.
    """
    arr = as_matrix(points)
    centered = arr - arr.mean(axis=0)
    sigma = np.linalg.svd(centered, compute_uv=False)
    if sigma.size == 0 or sigma[0] == 0.0:
        return 0
    return int(np.count_nonzero(sigma > RANK_TOL * sigma[0]))
