"""Independent reference answers for the hull queries.

oracle_membership_small and oracle_2d decide membership and scaling
factors by enumeration and explicit geometry, not by linear
programming, so the tests check hullmle.hull against answers that share
none of its solver code.  transform_invariance_check compares query
with itself under an invertible change of coordinates.  They read a
TargetSet's public fields only and do their own centering, dimension
checks and boundary band.
"""

import itertools

import numpy as np

from hullmle.hull import HullStatus, HullVerdict, SolverConfig, make_target_set, query
from hullmle.lp import FEAS_TOL

# Relative gamma agreement required of transformed queries.
TRANSFORM_GAMMA_RTOL = 1e-7

ORACLE_ROW_LIMIT = 15
ORACLE_DIM_LIMIT = 4


def _centered(target, point) -> np.ndarray:
    p = np.asarray(point, dtype=np.float64).reshape(-1)
    if p.size != target.dim:
        raise ValueError(f"point has dimension {p.size}, target has {target.dim}")
    return p - target.centroid


def _status(gamma: float, cfg: SolverConfig) -> HullStatus:
    if abs(gamma - 1.0) <= cfg.boundary_tol * (1.0 + abs(gamma)):
        return HullStatus.BOUNDARY
    return HullStatus.INTERIOR if gamma > 1.0 else HullStatus.EXTERIOR


def oracle_membership_small(target, point, tol: float = 1e-9) -> bool:
    """Exact closed-hull membership by subset enumeration.

    Checks every subset of at most dim+1 rows for nonnegative affine
    coefficients reproducing the centered point.  Any subset that yields
    residual-free nonnegative coefficients is a valid certificate, and
    Caratheodory's theorem guarantees one exists whenever the point lies
    in the closed hull.  Deliberately slow and simple; limited to small
    instances.
    """
    r, d = target.points.shape
    if r > ORACLE_ROW_LIMIT or d > ORACLE_DIM_LIMIT:
        raise ValueError(
            f"oracle limited to {ORACLE_ROW_LIMIT} rows and {ORACLE_DIM_LIMIT} dims"
        )
    p = _centered(target, point)
    rhs = np.concatenate([p, [1.0]])
    scale = tol * (1.0 + np.abs(p).max() + np.abs(target.points).max())
    for size in range(1, min(d + 1, r) + 1):
        for subset in itertools.combinations(range(r), size):
            block = np.vstack([target.points[list(subset)].T, np.ones(size)])
            lam, *_ = np.linalg.lstsq(block, rhs, rcond=None)
            if lam.min() < -tol:
                continue
            if np.abs(block @ lam - rhs).max() <= scale:
                return True
    return False


def _cross2(u, v) -> float:
    return float(u[0] * v[1] - u[1] * v[0])


def _monotone_chain(points: np.ndarray) -> np.ndarray:
    """Counterclockwise convex hull of 2-D points (unique vertices)."""
    pts = np.unique(points, axis=0)
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    pts = pts[order]
    if pts.shape[0] <= 2:
        return pts

    def half(seq):
        out = []
        for q in seq:
            while len(out) >= 2 and _cross2(out[-1] - out[-2], q - out[-2]) <= 0.0:
                out.pop()
            out.append(q)
        return out

    lower = half(pts)
    upper = half(pts[::-1])
    return np.array(lower[:-1] + upper[:-1])


def oracle_2d(target, point, config: SolverConfig | None = None) -> HullVerdict:
    """Planar scaling-factor oracle via explicit hull construction.

    Builds the hull polygon with a monotone chain and intersects the ray
    from the reference with each edge.  Requires two dimensions, full
    rank, and a reference strictly inside the polygon.
    """
    cfg = config or SolverConfig()
    if target.dim != 2:
        raise ValueError("planar oracle requires two-dimensional targets")
    if target.rank < 2:
        raise ValueError("planar oracle requires full-rank targets")
    p = _centered(target, point)
    if np.abs(p).max() <= FEAS_TOL:
        return HullVerdict(HullStatus.INTERIOR, np.inf, None, None)

    poly = _monotone_chain(target.points)
    edges = list(zip(poly, np.roll(poly, -1, axis=0)))
    for a, b in edges:
        if _cross2(b - a, -a) <= 0.0:
            raise ValueError("reference is not strictly inside the hull polygon")

    best_t = None
    best_edge = None
    for a, b in edges:
        mat = np.column_stack([p, a - b])
        det = np.linalg.det(mat)
        if abs(det) < 1e-14 * (1.0 + np.abs(mat).max() ** 2):
            continue
        t, s = np.linalg.solve(mat, a)
        if t > 0.0 and -1e-12 <= s <= 1.0 + 1e-12:
            if best_t is None or t < best_t:
                best_t, best_edge = t, (a, b)
    if best_t is None:
        raise ArithmeticError("ray failed to meet the hull boundary")

    gamma = float(best_t)
    status = _status(gamma, cfg)
    hyperplane = None
    if status is HullStatus.EXTERIOR:
        a, b = best_edge
        normal = np.array([-(b - a)[1], (b - a)[0]])
        c = normal @ a  # nonzero: the edge line misses the interior reference
        hyperplane = (1.0, -normal / c)
    boundary = gamma * p + target.centroid
    return HullVerdict(status, gamma, boundary, hyperplane)


def unit_axis_transform(p) -> np.ndarray:
    """Invertible matrix sending p to the first standard basis vector.

    Identity except for the first column, which is
    (1/p1, -p2/p1, ..., -pd/p1).  Requires a nonzero first coordinate.
    """
    vec = np.asarray(p, dtype=np.float64).reshape(-1)
    if abs(vec[0]) < 1e-12:
        raise ValueError("transform requires a nonzero first coordinate")
    mat = np.eye(vec.size)
    mat[:, 0] = -vec / vec[0]
    mat[0, 0] = 1.0 / vec[0]
    return mat


def transform_invariance_check(
    target, point, transform, config: SolverConfig | None = None
) -> bool:
    """True when querying under an invertible change of coordinates
    preserves the verdict status and (finite) gamma to 1e-7 relative.

    The transformed query runs on rows M A' against the point A p, all in
    centered coordinates, so the hull geometry is mapped exactly.
    """
    cfg = config or SolverConfig()
    mat = np.asarray(transform, dtype=np.float64)
    d = target.dim
    if mat.shape != (d, d):
        raise ValueError(f"transform must be {d}x{d}, got {mat.shape}")
    if np.linalg.matrix_rank(mat) < d:
        raise ValueError("transform must be invertible")

    base = query(target, point, cfg)
    p = _centered(target, point)
    moved = make_target_set(target.points @ mat.T, centroid=np.zeros(d))
    image = query(moved, mat @ p, cfg)

    if base.status is not image.status:
        return False
    if np.isinf(base.gamma) or np.isinf(image.gamma):
        return bool(np.isinf(base.gamma) and np.isinf(image.gamma))
    return abs(base.gamma - image.gamma) <= TRANSFORM_GAMMA_RTOL * (1.0 + abs(base.gamma))
