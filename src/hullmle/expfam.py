"""Small exponential-family random-graph models with exact and sampled
inference primitives.

Graphs are binary, undirected, without self-loops; the model weight of
a graph y is exp(theta' g(y)) for a statistic vector g built from edge,
2-star, and triangle counts.  Everything here is deliberately desk
scale: normalizers come from explicit enumeration when the free-dyad
count permits.  Samples on a space of at most 12 free dyads are exact
independent draws over its enumerated states, and a single-site
Metropolis chain supplies them on a larger space.  Missing data enters
through an observation mask; the constrained sample space holds every
graph agreeing with the observed dyads.

The model reads a graph only through g(y), so exact inference runs on
the statistic histogram of a space: its distinct rows and how many
graphs share each.  One enumeration builds it, a small memo keeps the
last few spaces, and exact moments are sums over its few rows.
"""

from __future__ import annotations

import enum
import functools
import itertools
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
]

# Free-dyad enumeration cap: 2**25 graphs.
ENUM_LIMIT = 25
# Rows per enumeration block: 2**12 keeps a block's temporaries (bit
# matrix, degree and triangle tests) near 1-2 MiB, where 2**16 took
# 10-40 MiB and ran slower on n = 6-7.
_CHUNK = 1 << 12
_RNG_BLOCK = 1 << 13
# mcmc_sample draws spaces of at most this many free dyads exactly, from
# a memo of every state's row that stays under 100 kB a space.
_CODE_TABLE_LIMIT = 12


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
        if not all(isinstance(term, StatTerm) for term in self.terms):
            raise ValueError("terms must be StatTerm values; StatDef.from_names takes names")
        if len(set(self.terms)) != len(self.terms):
            raise ValueError("statistic terms must be distinct")
        object.__setattr__(self, "terms", tuple(self.terms))

    @property
    def dim(self) -> int:
        return len(self.terms)

    @classmethod
    def from_names(cls, names) -> "StatDef":
        return cls(terms=tuple(StatTerm(name) for name in names))


# The sampler's own term order: the exact draws' weights and every
# Metropolis gain read all three.
_CHAIN_TERMS = StatDef((StatTerm.EDGES, StatTerm.TWO_STARS, StatTerm.TRIANGLES))


def dyad_pairs(n: int) -> np.ndarray:
    """Vertex pairs (i, j) with i < j in the canonical dyad order."""
    return np.array(list(itertools.combinations(range(n), 2)), dtype=np.int64).reshape(
        -1, 2
    )


def _dyad_count(n: int) -> int:
    return n * (n - 1) // 2


def _vertex_count(n) -> int:
    return numerics.check_count("n", n, 2)


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
        object.__setattr__(self, "n", _vertex_count(self.n))
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
        if dyads.size != graph.edges.size:
            raise ValueError(
                f"observed_dyads has {dyads.size} entries, graph has {graph.edges.size} dyads"
            )
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
    m = _dyad_count(_vertex_count(n))
    if mask is None:
        return np.arange(m), np.zeros(m, dtype=bool)
    if mask.observed_dyads.size != m:
        raise ValueError(f"mask covers {mask.observed_dyads.size} dyads, graph has {m}")
    return np.flatnonzero(~mask.observed_dyads), mask.observed_values.copy()


def _space_key(n, mask: ObservationMask | None) -> tuple:
    """(n, mask bytes): the key the per-space memos are held under, with
    n checked before any memo is consulted."""
    if mask is None:
        return _vertex_count(n), None
    return _vertex_count(n), (mask.observed_dyads.tobytes(), mask.observed_values.tobytes())


def _mask_of(mask_bytes) -> ObservationMask | None:
    if mask_bytes is None:
        return None
    dyads, values = (np.frombuffer(b, dtype=bool) for b in mask_bytes)
    return ObservationMask(observed_dyads=dyads, observed_values=values)


def enumerate_statistics(
    stats: StatDef, n: int, mask: ObservationMask | None = None
) -> Iterator[np.ndarray]:
    """Statistic rows of every graph in the (possibly constrained) space.

    Yields blocks of at most 2**12 rows (_CHUNK) in code order: row c of the
    concatenated blocks belongs to the graph whose k-th free dyad holds
    bit k of c.  Each count is the base graph's plus what the free dyads
    add.  The set-up reads only the base graph and the free dyads: it
    holds O(n**2) numbers for the graph (its adjacency, the code bit of
    each dyad, one matrix product for the base triangles) and O(k*n) for
    the k free dyads (their incidence and the triples through them), so
    it never lists every dyad or vertex triple.  A block costs work in
    the free dyads: degrees are the base degrees plus the free bits
    times their endpoints, and triangles are those of the base graph
    plus each triple through a free dyad whose other dyads are edges or
    free and whose free dyads are all on.
    """
    free, base = _space(n, mask)
    k = free.size
    if k > ENUM_LIMIT:
        raise ValueError(f"{k} free dyads exceed the enumeration limit of {ENUM_LIMIT}")

    pairs = dyad_pairs(n)
    a, b = pairs[free].T
    adjacency = np.zeros((n, n), dtype=bool)
    adjacency[tuple(pairs[base].T)] = True
    adjacency |= adjacency.T
    # Bit of each dyad in the code, 0 for an observed one: a triple that
    # can close is a triangle exactly when the code holds its bits.
    bit = 1 << np.arange(k, dtype=np.int64)
    code_bit = np.zeros((n, n), dtype=np.int64)
    code_bit[a, b] = bit
    code_bit += code_bit.T
    links = adjacency.astype(np.float64)
    base_edges = float(base.sum())
    base_degrees = links.sum(axis=1)
    incidence = np.zeros((k, n))
    incidence[np.arange(k), a] = 1.0
    incidence[np.arange(k), b] = 1.0
    # Common neighbours summed over both orientations of every base
    # edge count each base triangle six times.
    base_tris = int((links @ links)[adjacency].sum()) // 6
    # The triple of free dyad t and a third vertex w can close when (a, w)
    # and (b, w) are each an edge or free; it is counted once, at its
    # lowest free dyad, so neither other dyad may carry a bit below t's.
    edge_or_free = adjacency | (code_bit > 0)
    needs = bit[:, None] + code_bit[a] + code_bit[b]
    lowest = (needs & (bit[:, None] - 1)) == 0
    needs = needs[edge_or_free[a] & edge_or_free[b] & lowest]

    total = 1 << k
    for lo in range(0, total, _CHUNK):
        codes = np.arange(lo, min(lo + _CHUNK, total), dtype=np.int64)
        bits = ((codes[:, None] >> np.arange(k)) & 1).astype(np.float64)
        cols = []
        for term in stats.terms:
            if term is StatTerm.EDGES:
                cols.append(base_edges + bits.sum(axis=1))
            elif term is StatTerm.TWO_STARS:
                deg = base_degrees + bits @ incidence
                cols.append((deg * (deg - 1.0)).sum(axis=1) / 2.0)
            else:
                closed = (codes[:, None] & needs) == needs
                cols.append((base_tris + closed.sum(axis=1)).astype(np.float64))
        yield np.column_stack(cols)


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
    return _histogram(stats, *_space_key(n, mask))


@functools.lru_cache(maxsize=8)
def _histogram(stats: StatDef, n: int, mask_bytes) -> tuple[np.ndarray, np.ndarray]:
    counts: dict[tuple, int] = {}
    for g in enumerate_statistics(stats, n, _mask_of(mask_bytes)):
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

    numerics.tilted_moments over the rows of statistic_histogram, each
    weighted by its graph count.  Repeated calls on one space reuse the
    memoized histogram.
    """
    th = numerics.as_vector(theta, "theta")
    if th.size != stats.dim:
        raise ValueError(f"theta has {th.size} entries, statistics have {stats.dim}")
    return numerics.tilted_moments(*statistic_histogram(stats, n, mask), th)


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


def _toggle_segments(rng, n_free: int, interval: int, count: int):
    """The chain's toggle draws, cut at its recording steps.

    Draws come in blocks of up to 8192 steps: each block takes its dyad
    picks, then its acceptance uniforms, from the generator.  Picks in
    [n_free, 2*n_free) are lazy hold steps: they use up their random
    numbers and change nothing, so they are dropped here.  Yields
    (toggles, logus, recorded) in step order: the free-dyad picks and
    log-uniforms of the toggle steps up to the next recording step, and
    whether a record follows them.
    """
    burn_in = 10 * interval
    total_steps = burn_in + count * interval
    next_record = burn_in + interval
    done = 0
    while done < total_steps:
        size = min(_RNG_BLOCK, total_steps - done)
        picks = rng.integers(0, 2 * n_free, size=size)
        with np.errstate(divide="ignore"):
            logus = np.log(rng.random(size=size))
        moves = np.flatnonzero(picks < n_free)
        toggles = picks[moves].tolist()
        logus = logus[moves].tolist()
        # Block positions of the recording steps; a record follows every
        # toggle drawn at or before its position.
        marks = range(next_record - done - 1, size, interval)
        cuts = np.searchsorted(moves, marks, side="right").tolist()
        cuts.append(len(toggles))
        lo = 0
        for k, cut in enumerate(cuts):
            yield toggles[lo:cut], logus[lo:cut], k < len(marks)
            lo = cut
        next_record += len(marks) * interval
        done += size


def _bitmask_chain(segments, n, free, state, gains, keep_graphs):
    """Run the chain on per-vertex adjacency bitmasks and degrees.

    Returns the (edges, 2-stars, triangles) counts at each record and,
    with keep_graphs, the free-dyad values there.
    """
    # Per free dyad: its endpoints and whether the edge is on.  Popcount
    # of an AND of two bitmasks gives common neighbors, the triangle
    # delta of a toggle.
    pairs = dyad_pairs(n)
    ui = pairs[free, 0].tolist()
    uj = pairs[free, 1].tolist()
    on = state[free].tolist()
    adj = [0] * n
    deg = [0] * n
    edge_list = pairs[state].tolist()
    for i, j in edge_list:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
        deg[i] += 1
        deg[j] += 1
    # Counts and deltas stay Python ints: they are exact, and an int
    # operand converts to the same float its value has.
    n_edges = len(edge_list)
    n_stars = sum(v * (v - 1) // 2 for v in deg)
    n_tris = sum((adj[i] & adj[j]).bit_count() for i, j in edge_list) // 3
    t_edge, t_star, t_tri = gains
    tallies = []
    snapshots = []
    for toggles, logus, recorded in segments:
        for t, logu in zip(toggles, logus):
            i = ui[t]
            j = uj[t]
            common = (adj[i] & adj[j]).bit_count()
            if on[t]:
                d_edges = -1
                d_stars = 2 - deg[i] - deg[j]
                d_tris = -common
            else:
                d_edges = 1
                d_stars = deg[i] + deg[j]
                d_tris = common
            if logu < t_edge * d_edges + t_star * d_stars + t_tri * d_tris:
                on[t] = not on[t]
                adj[i] ^= 1 << j
                adj[j] ^= 1 << i
                deg[i] += d_edges
                deg[j] += d_edges
                n_edges += d_edges
                n_stars += d_stars
                n_tris += d_tris
        if recorded:
            tallies.append((n_edges, n_stars, n_tris))
            if keep_graphs:
                snapshots.append(on.copy())
    return tallies, snapshots


@functools.lru_cache(maxsize=8)
def _code_table(n: int, mask_bytes) -> np.ndarray:
    """The (edges, 2-stars, triangles) row of every state of the space in
    code order, a read-only (2**k, 3) array: the states the exact route
    of mcmc_sample draws from."""
    rows = np.concatenate(list(enumerate_statistics(_CHAIN_TERMS, n, _mask_of(mask_bytes))))
    rows.flags.writeable = False
    return rows


def _exact_codes(rng, rows: np.ndarray, coefs, count: int, theta) -> np.ndarray:
    """count independent state codes, code c drawn with probability
    proportional to exp(theta' g(c)), g(c) being rows[c] and coefs the
    (edges, 2-stars, triangles) coefficients of theta.

    Inverse CDF at count uniforms: a uniform u picks the first code whose
    cumulative weight exceeds u times the total.  u is below 1, and the
    largest weight is 1, so u times the total rounds below the total and
    no draw passes the last code of positive weight.  A theta whose
    theta' g overflows on the space raises ValueError naming it, without
    a warning.
    """
    t_edge, t_star, t_tri = coefs
    with np.errstate(over="ignore", invalid="ignore"):
        log_weights = t_edge * rows[:, 0] + t_star * rows[:, 1] + t_tri * rows[:, 2]
    if not np.isfinite(log_weights).all():
        raise ValueError(f"theta'g is not finite on this space at theta {theta}")
    cdf = np.cumsum(np.exp(log_weights - log_weights.max()))
    return np.searchsorted(cdf, rng.random(count) * cdf[-1], side="right")


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
    """Sample of statistic vectors at parameter theta: count graphs of
    the (possibly constrained) space, each drawn with probability
    proportional to exp(theta' g).  Fully masked spaces have a single
    state, returned count times.

    The space alone picks the route.  A space of at most 12 free dyads
    (_CODE_TABLE_LIMIT) is drawn exactly: a memo per space holds the
    (edges, 2-stars, triangles) row of every state code c (bit t is free
    dyad t), built from enumerate_statistics, and each call draws count
    independent codes by inverse CDF over the weights exp(theta' g(c)),
    from count uniforms of the generator.  The draws have the chain's
    stationary law without its burn-in bias or autocorrelation.  A theta
    whose theta' g is not finite on such a space raises ValueError naming
    it, and no warning.

    A larger space runs a Metropolis chain of single-dyad toggles,
    uniform over free dyads, accepted with probability min(1,
    exp(theta' dg)) where dg is the change in (edges, 2-stars,
    triangles).  Each step holds in place with probability 1/2: a pure
    toggle chain flips the edge-count parity deterministically wherever
    acceptance is certain (theta = 0 being the worst case), so even
    recording intervals would only ever see one parity class.  The lazy
    step removes that period at no cost to the stationary distribution.
    The chain starts from the observed values with free dyads filled
    independently at random, runs 10*interval burn-in steps, then
    records g every interval steps (interval defaults to 10 per free
    dyad).  Draws come in blocks of up to 8192 steps: each block takes
    its dyad picks, then its acceptance uniforms, from the generator.  A
    hold draw uses up its two random numbers but no loop iteration; only
    toggle draws run in Python, split at the block's recording steps.
    The kernel keeps per-vertex adjacency bitmasks and degrees and
    computes dg incrementally (degree sums for 2-stars, common neighbors
    for triangles), in Python floats, so samples and graphs are
    bit-identical to a chain that runs one iteration per step, hold
    steps included; at a theta large enough for a gain to overflow to
    inf or nan, it compares against that value, and no warning is
    raised.

    count and interval must be integers of at least 1 and n one of at
    least 2 (numpy integers pass, bools do not); interval applies only
    to chains.
    """
    th = numerics.as_vector(theta, "theta")
    if th.size != stats.dim:
        raise ValueError(f"theta has {th.size} entries, statistics have {stats.dim}")
    count = numerics.check_count("count", count, 1)
    if interval is not None:
        interval = numerics.check_count("interval", interval, 1)
    free, base = _space(n, mask)
    n_free = free.size

    if n_free == 0:
        g0 = statistics(Graph(n=n, edges=base), stats)
        rows = np.tile(g0, (count, 1))
        graphs = tuple(Graph(n=n, edges=base.copy()) for _ in range(count)) if keep_graphs else None
        return StatMatrix(rows=rows, graphs=graphs)

    rng = np.random.default_rng(seed)
    coef = dict(zip(stats.terms, th.tolist()))
    coefs = tuple(coef.get(term, 0.0) for term in _CHAIN_TERMS.terms)
    order = [_CHAIN_TERMS.terms.index(term) for term in stats.terms]

    if n_free <= _CODE_TABLE_LIMIT:
        table = _code_table(*_space_key(n, mask))
        codes = _exact_codes(rng, table, coefs, count, th.tolist())
        rows = table[np.ix_(codes, order)]
        if keep_graphs:
            snapshots = ((codes[:, None] >> np.arange(n_free)) & 1).astype(bool)
    else:
        if interval is None:
            interval = 10 * n_free
        state = base.copy()
        state[free] = rng.random(n_free) < 0.5
        segments = _toggle_segments(rng, n_free, interval, count)
        tallies, snapshots = _bitmask_chain(segments, n, free, state, coefs, keep_graphs)
        rows = np.array([[tally[c] for c in order] for tally in tallies], dtype=np.float64)

    graphs = None
    if keep_graphs:
        graphs = []
        for bits in snapshots:
            edges = base.copy()
            edges[free] = bits
            graphs.append(Graph(n=n, edges=edges))
        graphs = tuple(graphs)
    return StatMatrix(rows=rows, graphs=graphs)
