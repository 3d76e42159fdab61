"""Shared dense linear algebra helpers.

Conventions used throughout the package: a point set is a 2-D float64
array with one point per row, a vector is a 1-D float64 array.  All
public functions but the likelihood kernel tilted_moments validate
their inputs and raise ValueError on NaN or infinite entries.
"""

from __future__ import annotations

import math
import operator

import numpy as np

__all__ = [
    "as_matrix",
    "as_vector",
    "center",
    "check_count",
    "covariance",
    "distinct_rows",
    "rank",
    "tilted_moments",
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


def check_count(name: str, value, least: int) -> int:
    """value as an int after checking that it is an integer of at least
    least; a bool, a float or any other non-integer is rejected, numpy
    integers pass."""
    try:
        number = least - 1 if isinstance(value, bool) else operator.index(value)
    except TypeError:
        number = least - 1
    if number < least:
        raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")
    return number


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


def distinct_rows(points) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows in order of first appearance.

    Returns (first, inverse): points[first] holds each distinct row once,
    at the index where it first appears, and points[first][inverse]
    rebuilds points.  Rows are compared by their bytes, so rows that
    differ in any bit, 0.0 against -0.0 included, stay apart.
    """
    arr = np.ascontiguousarray(as_matrix(points))
    keys = arr.view(np.dtype((np.void, arr.itemsize * arr.shape[1]))).reshape(-1)
    _, index, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(index)
    position = np.empty_like(order)
    position[order] = np.arange(order.size)
    return index[order], position[inverse.reshape(-1)]


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


def tilted_moments(rows: np.ndarray, weights: np.ndarray,
                   theta: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """log sum_i w_i exp(rows_i' theta), and the mean and covariance of
    the rows under the weights w_i exp(rows_i' theta).

    The exponent is shifted by its maximum, so exp cannot overflow and
    the result is finite wherever rows @ theta is; where its largest
    entry overflows, the result is NaN.  The covariance is about the mean.
    Unchecked: callers pass finite float arrays of matching shapes and
    positive weights, once checked, since this runs at every evaluation.
    """
    x = rows @ theta
    shift = float(x.max())
    w = weights * np.exp(x - shift)
    total = float(w.sum())
    mean = (w @ rows) / total
    dev = rows - mean
    cov = (dev.T * w) @ dev / total
    return shift + math.log(total), mean, cov
