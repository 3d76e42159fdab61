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
    "CovarianceInverse",
    "mahalanobis_sq",
    "rank",
]

# Relative threshold below which a singular value counts as zero.
RANK_TOL = 1e-9

# Ridge coefficient applied when a covariance matrix is numerically
# singular: eps = RIDGE_COEF * trace(cov) / dim.
RIDGE_COEF = 1e-10


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


class CovarianceInverse:
    """Applies the inverse of a covariance matrix through a Cholesky factor.

    If the matrix is numerically singular it is regularised by adding
    eps * I with eps = 1e-10 * trace / dim before factoring, which is
    enough to rank points by depth without changing the ordering of
    well separated distances.
    """

    def __init__(self, cov) -> None:
        mat = as_matrix(np.atleast_2d(cov), name="covariance")
        if mat.shape[0] != mat.shape[1]:
            raise ValueError(f"covariance must be square, got {mat.shape}")
        if not np.allclose(mat, mat.T, rtol=0.0, atol=1e-12 * (1.0 + np.abs(mat).max())):
            raise ValueError("covariance must be symmetric")
        sym = 0.5 * (mat + mat.T)
        self.dim = sym.shape[0]
        self.regularized = False
        try:
            self._factor = np.linalg.cholesky(sym)
        except np.linalg.LinAlgError:
            eps = RIDGE_COEF * np.trace(sym) / self.dim
            if eps <= 0.0:
                eps = RIDGE_COEF
            self._factor = np.linalg.cholesky(sym + eps * np.eye(self.dim))
            self.regularized = True

    def half_solve(self, rows: np.ndarray) -> np.ndarray:
        """Solve L w = rows.T for the Cholesky factor L; returns (dim, nrows)."""
        rhs = np.atleast_2d(rows).T
        return np.linalg.solve(self._factor, rhs)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Return cov^{-1} x for a single vector x."""
        w = self.half_solve(x.reshape(1, -1))
        return np.linalg.solve(self._factor.T, w).reshape(-1)


def mahalanobis_sq(x, cov_inverse: CovarianceInverse) -> float:
    """Squared Mahalanobis norm x^T cov^{-1} x.

    The applier holds the factored covariance; distances for many rows
    at once go through squared_distances below.
    """
    vec = as_vector(x, name="x")
    if vec.size != cov_inverse.dim:
        raise ValueError(f"x has dimension {vec.size}, expected {cov_inverse.dim}")
    w = cov_inverse.half_solve(vec.reshape(1, -1))
    return float(np.sum(w * w))


def squared_distances(rows, cov_inverse: CovarianceInverse) -> np.ndarray:
    """Squared Mahalanobis norms of many rows in one factored solve."""
    arr = as_matrix(rows, name="rows")
    if arr.shape[1] != cov_inverse.dim:
        raise ValueError(f"rows have dimension {arr.shape[1]}, expected {cov_inverse.dim}")
    w = cov_inverse.half_solve(arr)
    return np.sum(w * w, axis=0)


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
