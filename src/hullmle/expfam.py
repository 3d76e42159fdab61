"""Small exponential-family random-graph models with exact and sampled
inference primitives.

Graphs are binary, undirected, without self-loops; the model weight of
a graph y is exp(theta' g(y)) for a statistic vector g built from edge,
2-star, and triangle counts.  Everything here is deliberately desk
scale: normalizers come from explicit enumeration when the free-dyad
count permits, and a single-site Metropolis chain supplies samples when
it does not.  Missing data enters through an observation mask; the
constrained sample space holds every graph agreeing with the observed
dyads.

The model reads a graph only through g(y), so exact inference runs on
the statistic histogram of a space: its distinct rows and how many
graphs share each.  One enumeration builds it, a small memo keeps the
last few spaces, and exact moments are sums over its few rows.

Log-likelihood ratios between two parameter values are estimated from
samples by the difference of two log-mean-exp terms, optionally with a
scaling factor applied to the (centered) constrained rows; that factor
is how the hull machinery's minimum scaling factor enters estimation.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import numerics

__all__ = [
    "StatTerm",
    "StatDef",
    "Graph",
    "ObservationMask",
    "StatMatrix",
    "dyad_pairs",
    "statistics",
    "enumerate_statistics",
    "statistic_histogram",
    "exact_log_kappa",
    "exact_moments",
    "exact_loglik",
    "mcmc_sample",
    "loglik_ratio_hat",
    "loglik_ratio_grad",
    "demonstrate_unbounded",
]

# Free-dyad enumeration cap: 2**25 graphs.
ENUM_LIMIT = 25
_CHUNK = 1 << 16
_RNG_BLOCK = 1 << 13


class StatTerm(enum.Enum):
    EDGES = "edges"
    TWO_STARS = "two-stars"
    TRIANGLES = "triangles"


@dataclass(frozen=True)
class StatDef:
    """Ordered, distinct statistic terms defining g."""

    terms: tuple[StatTerm, ...]

    def __post_init__(self):
        if not self.terms:
            raise ValueError("statistic definition needs at least one term")
        if len(set(self.terms)) != len(self.terms):
            raise ValueError("statistic terms must be distinct")
        object.__setattr__(self, "terms", tuple(self.terms))

    @property
    def dim(self) -> int:
        return len(self.terms)

    @classmethod
    def from_names(cls, names) -> "StatDef":
        return cls(terms=tuple(StatTerm(name) for name in names))


def dyad_pairs(n: int) -> np.ndarray:
    """Vertex pairs (i, j) with i < j in the canonical dyad order."""
    return np.array(list(itertools.combinations(range(n), 2)), dtype=np.int64).reshape(
        -1, 2
    )


def _dyad_count(n: int) -> int:
    return n * (n - 1) // 2


def _flat_bools(values) -> np.ndarray:
    """values as a 1-D bool array; one that already is one is kept, not
    wrapped in a reshape view, so a held graph or mask costs one array
    per field."""
    bits = np.asarray(values, dtype=bool)
    return bits if bits.ndim == 1 else bits.reshape(-1)


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph as a flat boolean dyad vector.

    Dyads are ordered (0,1), (0,2), ..., (0,n-1), (1,2), ... so index
    arithmetic matches dyad_pairs(n).
    """

    n: int
    edges: np.ndarray

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("graphs need at least two vertices")
        bits = _flat_bools(self.edges)
        if bits.size != _dyad_count(self.n):
            raise ValueError(
                f"expected {_dyad_count(self.n)} dyads for n={self.n}, got {bits.size}"
            )
        object.__setattr__(self, "edges", bits)

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls(n=n, edges=np.zeros(_dyad_count(n), dtype=bool))

    @classmethod
    def complete(cls, n: int) -> "Graph":
        return cls(n=n, edges=np.ones(_dyad_count(n), dtype=bool))

    @classmethod
    def from_pairs(cls, n: int, pairs) -> "Graph":
        bits = np.zeros(_dyad_count(n), dtype=bool)
        index = {tuple(pq): k for k, pq in enumerate(map(tuple, dyad_pairs(n)))}
        for i, j in pairs:
            if i == j:
                raise ValueError(f"self-loop ({i}, {j}) not allowed")
            key = (min(i, j), max(i, j))
            if key not in index:
                raise ValueError(f"vertex pair {key} out of range for n={n}")
            bits[index[key]] = True
        return cls(n=n, edges=bits)

    def adjacency(self) -> np.ndarray:
        mat = np.zeros((self.n, self.n), dtype=np.int64)
        pairs = dyad_pairs(self.n)
        on = pairs[self.edges]
        mat[on[:, 0], on[:, 1]] = 1
        mat[on[:, 1], on[:, 0]] = 1
        return mat


@dataclass(frozen=True)
class ObservationMask:
    """Which dyads were observed, and the observed values there.

    observed_values is zero off the observed support.  Graphs in the
    constrained space agree with observed_values on observed_dyads and
    are arbitrary elsewhere.
    """

    observed_dyads: np.ndarray
    observed_values: np.ndarray

    def __post_init__(self):
        dyads = _flat_bools(self.observed_dyads)
        values = _flat_bools(self.observed_values)
        if dyads.size != values.size:
            raise ValueError("mask fields must have equal length")
        if np.any(values & ~dyads):
            raise ValueError("observed values present on unobserved dyads")
        object.__setattr__(self, "observed_dyads", dyads)
        object.__setattr__(self, "observed_values", values)

    @classmethod
    def from_graph(cls, graph: Graph, observed_dyads) -> "ObservationMask":
        dyads = _flat_bools(observed_dyads)
        return cls(observed_dyads=dyads, observed_values=graph.edges & dyads)

    @classmethod
    def all_observed(cls, graph: Graph) -> "ObservationMask":
        return cls(
            observed_dyads=np.ones_like(graph.edges), observed_values=graph.edges.copy()
        )

    @classmethod
    def checked(cls, graph: Graph, mask: "ObservationMask | None") -> "ObservationMask":
        """mask after checking that it agrees with graph; every dyad
        observed when mask is None."""
        if mask is None:
            return cls.all_observed(graph)
        if mask.observed_dyads.size != graph.edges.size:
            raise ValueError("mask and graph disagree on dyad count")
        if np.any(mask.observed_values != (graph.edges & mask.observed_dyads)):
            raise ValueError("mask values disagree with the observed graph")
        return mask

    @property
    def n_free(self) -> int:
        return int((~self.observed_dyads).sum())


@dataclass(frozen=True)
class StatMatrix:
    """Statistic vectors of sampled graphs, one row per draw."""

    rows: np.ndarray
    graphs: tuple[Graph, ...] | None = None


def _rows_of(sample) -> np.ndarray:
    arr = sample.rows if isinstance(sample, StatMatrix) else sample
    return numerics.as_matrix(arr, "sample rows")


def statistics(graph: Graph, stats: StatDef) -> np.ndarray:
    """Statistic vector of one graph.

    2-stars are paths of length two counted as center-vertex degree
    pairs; triangles are unordered vertex triples with all three edges.
    """
    adj = graph.adjacency()
    deg = adj.sum(axis=1)
    out = np.empty(stats.dim)
    for col, term in enumerate(stats.terms):
        if term is StatTerm.EDGES:
            out[col] = float(graph.edges.sum())
        elif term is StatTerm.TWO_STARS:
            out[col] = float((deg * (deg - 1) // 2).sum())
        else:
            out[col] = float(np.trace(adj @ adj @ adj) // 6)
    return out


def _space(n: int, mask: ObservationMask | None) -> tuple[np.ndarray, np.ndarray]:
    """Free dyad indices and base state of the (possibly constrained)
    space: every graph in it equals base off the free dyads."""
    m = _dyad_count(n)
    if mask is None:
        return np.arange(m), np.zeros(m, dtype=bool)
    if mask.observed_dyads.size != m:
        raise ValueError(f"mask covers {mask.observed_dyads.size} dyads, graph has {m}")
    return np.flatnonzero(~mask.observed_dyads), mask.observed_values.copy()


def _chunk_statistics(dyads, stats, incidence, triples) -> np.ndarray:
    cols = []
    for term in stats.terms:
        if term is StatTerm.EDGES:
            cols.append(dyads.sum(axis=1))
        elif term is StatTerm.TWO_STARS:
            deg = dyads @ incidence
            cols.append((deg * (deg - 1.0)).sum(axis=1) / 2.0)
        else:
            if triples.size == 0:
                cols.append(np.zeros(dyads.shape[0]))
            else:
                cols.append(dyads[:, triples].prod(axis=2).sum(axis=1))
    return np.column_stack(cols)


def enumerate_statistics(
    stats: StatDef, n: int, mask: ObservationMask | None = None
) -> Iterator[np.ndarray]:
    """Statistic rows of every graph in the (possibly constrained) space.

    Yields blocks of at most 2**16 rows in code order: row c of the
    concatenated blocks belongs to the graph whose k-th free dyad holds
    bit k of c.
    """
    free, base = _space(n, mask)
    k = free.size
    if k > ENUM_LIMIT:
        raise ValueError(f"{k} free dyads exceed the enumeration limit of {ENUM_LIMIT}")

    pairs = dyad_pairs(n)
    m = pairs.shape[0]
    incidence = np.zeros((m, n))
    incidence[np.arange(m), pairs[:, 0]] = 1.0
    incidence[np.arange(m), pairs[:, 1]] = 1.0
    pair_to_index = {tuple(pq): j for j, pq in enumerate(map(tuple, pairs))}
    triples = np.array(
        [
            [pair_to_index[(a, b)], pair_to_index[(a, c)], pair_to_index[(b, c)]]
            for a, b, c in itertools.combinations(range(n), 3)
        ],
        dtype=np.int64,
    ).reshape(-1, 3)

    total = 1 << k
    for lo in range(0, total, _CHUNK):
        hi = min(lo + _CHUNK, total)
        codes = np.arange(lo, hi, dtype=np.int64)
        dyads = np.broadcast_to(base.astype(np.float64), (hi - lo, m)).copy()
        if k:
            dyads[:, free] = (codes[:, None] >> np.arange(k)) & 1
        yield _chunk_statistics(dyads, stats, incidence, triples)


def statistic_histogram(
    stats: StatDef, n: int, mask: ObservationMask | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Distinct statistic rows over the (possibly constrained) space, in
    order of first appearance in enumerate_statistics, and the number of
    graphs with each row as float64.

    The likelihood reads a graph only through its row, so these two
    arrays stand for the whole space.  The last few spaces asked for are
    memoized on (stats, n, mask values); the arrays are read-only.
    """
    if mask is None:
        return _histogram(stats, n, None)
    return _histogram(
        stats, n, (mask.observed_dyads.tobytes(), mask.observed_values.tobytes())
    )


@functools.lru_cache(maxsize=8)
def _histogram(stats: StatDef, n: int, mask_bytes) -> tuple[np.ndarray, np.ndarray]:
    mask = None
    if mask_bytes is not None:
        dyads, values = (np.frombuffer(b, dtype=bool) for b in mask_bytes)
        mask = ObservationMask(observed_dyads=dyads, observed_values=values)
    counts: dict[tuple, int] = {}
    for g in enumerate_statistics(stats, n, mask):
        # Rows are small nonnegative integers, so within one chunk a
        # mixed-radix index over the chunk's own span is a unique key.
        low = g.min(axis=0)
        offsets = (g - low).astype(np.int64)
        keys = np.ravel_multi_index(offsets.T, tuple(offsets.max(axis=0) + 1))
        _, first, tally = np.unique(keys, return_index=True, return_counts=True)
        order = np.argsort(first)
        for row, count in zip(g[first[order]].tolist(), tally[order].tolist()):
            key = tuple(row)
            counts[key] = counts.get(key, 0) + count
    rows = np.array(list(counts))
    weights = np.array(list(counts.values()), dtype=np.float64)
    rows.flags.writeable = False
    weights.flags.writeable = False
    return rows, weights


def exact_moments(
    stats: StatDef, theta, n: int, mask: ObservationMask | None = None
) -> tuple[float, np.ndarray, np.ndarray]:
    """Log normalizer, mean, and covariance of g by exact enumeration.

    Sums over the rows of statistic_histogram, each weighted by its
    graph count, with the exponent shifted by its maximum so the result
    is overflow-safe at any theta; the covariance is summed about the
    mean.  Repeated calls on one space reuse the memoized histogram.
    """
    th = numerics.as_vector(theta, "theta")
    if th.size != stats.dim:
        raise ValueError(f"theta has {th.size} entries, statistics have {stats.dim}")

    rows, counts = statistic_histogram(stats, n, mask)
    x = rows @ th
    shift = float(x.max())
    w = counts * np.exp(x - shift)
    total = float(w.sum())
    mean = (w @ rows) / total
    dev = rows - mean
    cov = (dev.T * w) @ dev / total
    return shift + math.log(total), mean, cov


def exact_log_kappa(
    stats: StatDef, theta, n: int, mask: ObservationMask | None = None
) -> float:
    """Log of the normalizing sum over the (possibly constrained) space."""
    log_kappa, _, _ = exact_moments(stats, theta, n, mask)
    return log_kappa


def exact_loglik(
    stats: StatDef, theta, y_obs: Graph, mask: ObservationMask | None = None
) -> float:
    """Exact log likelihood of the observed (possibly partial) graph.

    With a mask this is the log ratio of the constrained to the full
    normalizer; fully observed data reduces it to theta' g(y) minus the
    log normalizer.
    """
    th = numerics.as_vector(theta, "theta")
    mask = ObservationMask.checked(y_obs, mask)
    constrained = exact_log_kappa(stats, th, y_obs.n, mask)
    full = exact_log_kappa(stats, th, y_obs.n)
    return constrained - full


def mcmc_sample(
    stats: StatDef,
    theta,
    n: int,
    count: int,
    interval: int | None = None,
    mask: ObservationMask | None = None,
    seed=None,
    keep_graphs: bool = False,
) -> StatMatrix:
    """Metropolis sample of statistic vectors at parameter theta.

    Single-dyad toggles, uniform over free dyads, accepted with
    probability min(1, exp(theta' dg)) where dg is computed
    incrementally (edge change, degree sums for 2-stars, common
    neighbors for triangles).  Each step holds in place with
    probability 1/2: a pure toggle chain flips the edge-count parity
    deterministically wherever acceptance is certain (theta = 0 being
    the worst case), so even recording intervals would only ever see
    one parity class.  The lazy step removes that period at no cost to
    the stationary distribution.  The chain starts from the observed
    values with free dyads filled independently at random, runs
    10*interval burn-in steps, then records g every interval steps.
    Fully masked spaces have a single state, returned count times.
    """
    th = numerics.as_vector(theta, "theta")
    if th.size != stats.dim:
        raise ValueError(f"theta has {th.size} entries, statistics have {stats.dim}")
    if count < 1:
        raise ValueError("count must be at least 1")
    free, base = _space(n, mask)
    n_free = free.size

    if n_free == 0:
        g0 = statistics(Graph(n=n, edges=base), stats)
        rows = np.tile(g0, (count, 1))
        graphs = tuple(Graph(n=n, edges=base.copy()) for _ in range(count)) if keep_graphs else None
        return StatMatrix(rows=rows, graphs=graphs)

    if interval is None:
        interval = 10 * n_free
    if interval < 1:
        raise ValueError("interval must be at least 1")

    rng = np.random.default_rng(seed)
    state = base.copy()
    state[free] = rng.random(n_free) < 0.5

    pairs = dyad_pairs(n)
    # Adjacency as per-vertex bitmasks; popcount of an AND gives common
    # neighbors, the triangle delta of a toggle.
    adj = [0] * n
    deg = [0] * n
    for k_dyad in np.flatnonzero(state):
        i, j = int(pairs[k_dyad, 0]), int(pairs[k_dyad, 1])
        adj[i] |= 1 << j
        adj[j] |= 1 << i
        deg[i] += 1
        deg[j] += 1
    edge_bit = state.astype(np.int8).tolist()

    start = statistics(Graph(n=n, edges=state), stats)
    lookup = {term: idx for idx, term in enumerate(stats.terms)}
    n_edges = float(start[lookup[StatTerm.EDGES]]) if StatTerm.EDGES in lookup else float(state.sum())
    n_stars = float(sum(v * (v - 1) // 2 for v in deg))
    n_tris = 0.0
    if StatTerm.TRIANGLES in lookup:
        n_tris = float(start[lookup[StatTerm.TRIANGLES]])

    t_edge = th[lookup[StatTerm.EDGES]] if StatTerm.EDGES in lookup else 0.0
    t_star = th[lookup[StatTerm.TWO_STARS]] if StatTerm.TWO_STARS in lookup else 0.0
    t_tri = th[lookup[StatTerm.TRIANGLES]] if StatTerm.TRIANGLES in lookup else 0.0

    ui = [int(pairs[k_dyad, 0]) for k_dyad in free]
    uj = [int(pairs[k_dyad, 1]) for k_dyad in free]
    free_list = [int(k_dyad) for k_dyad in free]

    burn_in = 10 * interval
    total_steps = burn_in + count * interval
    rows = np.empty((count, stats.dim))
    graphs: list[Graph] = []
    next_record = burn_in + interval
    recorded = 0

    pick_block = np.empty(0, dtype=np.int64)
    logu_block = np.empty(0)
    block_pos = 0

    for step in range(1, total_steps + 1):
        if block_pos >= pick_block.size:
            size = min(_RNG_BLOCK, total_steps - step + 1)
            # Draws in [n_free, 2*n_free) are lazy hold steps.
            pick_block = rng.integers(0, 2 * n_free, size=size)
            with np.errstate(divide="ignore"):
                logu_block = np.log(rng.random(size=size))
            block_pos = 0
        t = int(pick_block[block_pos])
        logu = float(logu_block[block_pos])
        block_pos += 1

        if t < n_free:
            i, j = ui[t], uj[t]
            k_dyad = free_list[t]
            common = (adj[i] & adj[j]).bit_count()
            if edge_bit[k_dyad]:
                d_edges = -1.0
                d_stars = -float(deg[i] + deg[j] - 2)
                d_tris = -float(common)
            else:
                d_edges = 1.0
                d_stars = float(deg[i] + deg[j])
                d_tris = float(common)
            gain = t_edge * d_edges + t_star * d_stars + t_tri * d_tris

            if logu < gain:
                if edge_bit[k_dyad]:
                    edge_bit[k_dyad] = 0
                    adj[i] &= ~(1 << j)
                    adj[j] &= ~(1 << i)
                    deg[i] -= 1
                    deg[j] -= 1
                else:
                    edge_bit[k_dyad] = 1
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
                    deg[i] += 1
                    deg[j] += 1
                n_edges += d_edges
                n_stars += d_stars
                n_tris += d_tris

        if step == next_record:
            values = {
                StatTerm.EDGES: n_edges,
                StatTerm.TWO_STARS: n_stars,
                StatTerm.TRIANGLES: n_tris,
            }
            rows[recorded] = [values[term] for term in stats.terms]
            if keep_graphs:
                graphs.append(Graph(n=n, edges=np.array(edge_bit, dtype=bool)))
            recorded += 1
            next_record += interval

    return StatMatrix(rows=rows, graphs=tuple(graphs) if keep_graphs else None)


def _log_mean_exp(x: np.ndarray) -> float:
    if x.size == 0:
        raise ValueError("empty sample")
    top = float(x.max())
    return top + math.log(float(np.mean(np.exp(x - top))))


def loglik_ratio_hat(dtheta, g_y, g_z, scale: float = 1.0) -> float:
    """Sampled log-likelihood-ratio estimate between theta0 + dtheta and
    theta0.

    Both terms are log-mean-exp over sample rows; scale multiplies the
    constrained rows only, which is exactly how the hull-derived factor
    shrinks the test sample toward the target centroid when both inputs
    are centered by the unconstrained column mean.
    """
    dt = numerics.as_vector(dtheta, "dtheta")
    ys = _rows_of(g_y)
    zs = _rows_of(g_z)
    if ys.shape[1] != dt.size or zs.shape[1] != dt.size:
        raise ValueError("sample rows and dtheta disagree on dimension")
    if scale <= 0.0:
        raise ValueError("scale must be positive")
    return _log_mean_exp(scale * (zs @ dt)) - _log_mean_exp(ys @ dt)


def loglik_ratio_grad(dtheta, g_y, g_z, scale: float = 1.0) -> np.ndarray:
    """Gradient of loglik_ratio_hat in dtheta: the difference of
    softmax-weighted row means, the constrained side carrying scale both
    as row multiplier and weight temperature."""
    dt = numerics.as_vector(dtheta, "dtheta")
    ys = _rows_of(g_y)
    zs = _rows_of(g_z)
    if ys.shape[1] != dt.size or zs.shape[1] != dt.size:
        raise ValueError("sample rows and dtheta disagree on dimension")
    if scale <= 0.0:
        raise ValueError("scale must be positive")

    def soft_mean(rows, x):
        w = np.exp(x - x.max())
        w /= w.sum()
        return w @ rows

    return scale * soft_mean(zs, scale * (zs @ dt)) - soft_mean(ys, ys @ dt)


def demonstrate_unbounded(g_y, g_z, direction, alphas) -> list[float]:
    """Likelihood-ratio values along a separating direction.

    direction must strictly separate the best constrained row from every
    unconstrained row: max over gZ rows of z'g exceeds the max over gY
    rows.  Then theta0 + alpha*direction drives the estimate upward
    without bound, certifying that the sampled likelihood surface has no
    maximizer.  Returns the estimate at each alpha.
    """
    z = numerics.as_vector(direction, "direction")
    ys = _rows_of(g_y)
    zs = _rows_of(g_z)
    top_y = float((ys @ z).max())
    top_z = float((zs @ z).max())
    if not top_y < top_z:
        raise ValueError(
            "direction does not separate the test rows from the target rows"
        )
    return [float(loglik_ratio_hat(alpha * z, ys, zs, scale=1.0)) for alpha in alphas]
