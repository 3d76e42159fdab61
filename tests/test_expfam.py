import hashlib
import itertools
import math

import numpy as np
import pytest
from numpy.random import SeedSequence
from hypothesis import given, settings
from hypothesis import strategies as st

from hullmle.estimate import (
    demonstrate_unbounded,
    loglik_ratio_grad,
    loglik_ratio_hat,
    loglik_ratio_hess,
)
from hullmle.expfam import (
    Graph,
    ObservationMask,
    StatDef,
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
from hullmle import expfam

from conftest import masked_k4_instance


EDGES = StatDef.from_names(["edges"])
ET = StatDef.from_names(["edges", "triangles"])
EST = StatDef.from_names(["edges", "two-stars", "triangles"])


# ---------------------------------------------------------------------------
# statistics

def brute_statistics(graph, stats):
    """O(n^3) recount straight from the adjacency matrix."""
    adj = graph.adjacency()
    n = graph.n
    edges = adj.sum() / 2.0
    stars = 0.0
    for i in range(n):
        deg = adj[i].sum()
        stars += deg * (deg - 1) / 2.0
    tris = 0.0
    for i, j, k in itertools.combinations(range(n), 3):
        if adj[i, j] and adj[j, k] and adj[i, k]:
            tris += 1.0
    values = {"edges": edges, "two-stars": stars, "triangles": tris}
    return np.array([values[t.value] for t in stats.terms])


def test_statistics_on_known_graphs():
    k3 = Graph.complete(3)
    assert np.array_equal(statistics(k3, EST), [3.0, 3.0, 1.0])
    k4 = Graph.complete(4)
    assert np.array_equal(statistics(k4, EST), [6.0, 12.0, 4.0])
    empty = Graph.empty(5)
    assert np.array_equal(statistics(empty, EST), [0.0, 0.0, 0.0])


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_statistics_match_brute_force(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 13))
    m = n * (n - 1) // 2
    graph = Graph(n=n, edges=rng.random(m) < rng.uniform(0.1, 0.9))
    assert np.array_equal(statistics(graph, EST), brute_statistics(graph, EST))


def test_dyad_pairs_order_is_combinations():
    assert [tuple(p) for p in dyad_pairs(4)] == list(itertools.combinations(range(4), 2))


# ---------------------------------------------------------------------------
# exact enumeration

def test_log_kappa_at_zero_counts_graphs():
    assert exact_log_kappa(EDGES, np.zeros(1), 3) == pytest.approx(math.log(8), abs=1e-12)
    assert exact_log_kappa(ET, np.zeros(2), 4) == pytest.approx(math.log(64), abs=1e-12)


def test_edges_only_kappa_matches_bernoulli_form():
    for n in (3, 4, 5):
        m = n * (n - 1) // 2
        for t in (-1.0, -0.25, 0.0, 0.7, 2.0):
            expected = m * math.log1p(math.exp(t))
            got = exact_log_kappa(EDGES, np.array([t]), n)
            assert got == pytest.approx(expected, abs=1e-10)


def test_exact_moments_mean_matches_gradient():
    theta = np.array([0.3, -0.2])
    _, mean, _ = exact_moments(ET, theta, 5)
    h = 1e-6
    for k in range(2):
        up = theta.copy(); up[k] += h
        dn = theta.copy(); dn[k] -= h
        fd = (exact_log_kappa(ET, up, 5) - exact_log_kappa(ET, dn, 5)) / (2 * h)
        assert mean[k] == pytest.approx(fd, abs=1e-6)


def test_exact_moments_covariance_is_psd():
    theta = np.array([0.1, 0.4])
    _, _, cov = exact_moments(ET, theta, 5)
    eigs = np.linalg.eigvalsh(cov)
    assert np.all(eigs >= -1e-10)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_log_kappa_is_convex_along_segments(seed):
    rng = np.random.default_rng(seed)
    t1 = rng.standard_normal(2)
    t2 = rng.standard_normal(2)
    lam = float(rng.uniform(0.05, 0.95))
    mid = lam * t1 + (1 - lam) * t2
    lhs = exact_log_kappa(ET, mid, 4)
    rhs = lam * exact_log_kappa(ET, t1, 4) + (1 - lam) * exact_log_kappa(ET, t2, 4)
    assert lhs <= rhs + 1e-10


def test_masked_kappa_counts_completions():
    graph, mask = masked_k4_instance()
    # two free dyads -> four completions
    got = exact_log_kappa(ET, np.zeros(2), 5, mask=mask)
    assert got == pytest.approx(math.log(4), abs=1e-12)


def test_masked_loglik_at_zero_is_count_ratio():
    graph, mask = masked_k4_instance()
    # log(#completions) - log(#all graphs) = log 4 - log 1024
    got = exact_loglik(ET, np.zeros(2), graph, mask=mask)
    assert got == pytest.approx(math.log(4) - math.log(1024), abs=1e-12)


def test_fully_observed_loglik_is_exponential_family_form():
    graph = Graph.from_pairs(4, [(0, 1), (1, 2), (2, 3)])
    theta = np.array([0.4, -0.3])
    g = statistics(graph, ET)
    expected = float(theta @ g) - exact_log_kappa(ET, theta, 4)
    got = exact_loglik(ET, theta, graph)
    assert got == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("terms", [("edges",), (StatTerm.EDGES, "triangles"), (0,)])
def test_stat_def_rejects_terms_that_are_not_stat_terms(terms):
    # Let through, a name would make statistics read the wrong column:
    # ("edges",) gave K4's triangle count, 4, for its 6 edges.
    with pytest.raises(ValueError, match="StatDef.from_names"):
        StatDef(terms=terms)


def test_moments_n_cap_enforced():
    with pytest.raises(ValueError):
        exact_log_kappa(EDGES, np.zeros(1), 26)


SPACE_USERS = {
    "Graph": lambda n: Graph(n=n, edges=np.zeros(1, dtype=bool)),
    "enumerate_statistics": lambda n: list(enumerate_statistics(ET, n)),
    "statistic_histogram": lambda n: statistic_histogram(ET, n),
    "exact_moments": lambda n: exact_moments(ET, [0.0, 0.0], n),
    "mcmc_sample": lambda n: mcmc_sample(ET, [0.0, 0.0], n, 3),
}


@pytest.mark.parametrize("n", [-2, -1, 0, 1, 2.5, 2.0, True, "3", None])
@pytest.mark.parametrize("user", list(SPACE_USERS))
def test_vertex_count_is_an_integer_of_at_least_two(user, n):
    with pytest.raises(ValueError, match="n must be an integer of at least 2"):
        SPACE_USERS[user](n)


def test_vertex_count_is_checked_before_the_memo():
    # 2.0 hashes and compares equal to the memoized 2.
    statistic_histogram(ET, 2)
    with pytest.raises(ValueError, match="n must be an integer of at least 2"):
        statistic_histogram(ET, 2.0)
    rows, _ = statistic_histogram(ET, np.int64(2))
    assert rows.tolist() == [[0.0, 0.0], [1.0, 0.0]]


def graph_of_code(n, mask, code):
    """The graph enumerated at code: bit k of code fills the k-th free dyad."""
    m = n * (n - 1) // 2
    edges = np.zeros(m, dtype=bool) if mask is None else mask.observed_values.copy()
    free = np.arange(m) if mask is None else np.flatnonzero(~mask.observed_dyads)
    edges[free] = [(code >> k) & 1 for k in range(free.size)]
    return Graph(n=n, edges=edges)


def masked_n5():
    graph, mask = masked_k4_instance()
    observed = mask.observed_dyads.copy()
    observed[[3, 5, 8]] = False
    return 5, ObservationMask.from_graph(graph, observed)


def seam_space():
    """n = 7 with 17 free dyads: several enumeration chunks."""
    observed = np.zeros(21, dtype=bool)
    observed[:4] = True
    return 7, ObservationMask.from_graph(Graph.complete(7), observed)


def masked_n30(k):
    """n = 30 with k free dyads among eight vertices of a random graph, so
    triples through two or three free dyads occur."""
    rng = np.random.default_rng(30 + k)
    graph = Graph(n=30, edges=rng.random(435) < 0.3)
    members = np.zeros(30, dtype=bool)
    members[rng.choice(30, 8, replace=False)] = True
    pairs = dyad_pairs(30)
    inside = np.flatnonzero(members[pairs[:, 0]] & members[pairs[:, 1]])
    observed = np.ones(435, dtype=bool)
    observed[rng.choice(inside, k, replace=False)] = False
    return 30, ObservationMask.from_graph(graph, observed)


def per_code_rows(stats, n, mask):
    k = n * (n - 1) // 2 if mask is None else mask.n_free
    return [statistics(graph_of_code(n, mask, c), stats) for c in range(1 << k)]


@pytest.mark.parametrize("n, mask", [(4, None), masked_n5(), masked_n30(8)],
                         ids=["n4", "n5-masked", "n30-masked"])
def test_enumerate_statistics_concatenates_to_per_code_rows(n, mask):
    rows = np.concatenate(list(enumerate_statistics(EST, n, mask)))
    assert np.array_equal(rows, per_code_rows(EST, n, mask))


@pytest.mark.parametrize("n", [3, 5, 7, 12, 30, 100])
def test_triangle_column_matches_the_product_over_every_triple(n):
    # The column is built from the triples through a free dyad plus the
    # base graph's count.  It must equal, byte for byte, the float
    # product over every vertex triple of each graph's three dyads.
    # Spaces have at most 12 free dyads and 2**18 triple products, but
    # up to 5 free dyads whatever the graph.
    rng = np.random.default_rng(n)
    m = n * (n - 1) // 2
    index = {pair: j for j, pair in enumerate(map(tuple, dyad_pairs(n).tolist()))}
    triples = np.array([[index[a, b], index[a, c], index[b, c]]
                        for a, b, c in itertools.combinations(range(n), 3)]).reshape(-1, 3)
    most_free = min(m, 12, max(5, ((1 << 18) // triples.shape[0]).bit_length() - 1))
    for trial in range(6):
        graph = Graph(n=n, edges=rng.random(m) < rng.uniform(0.2, 0.9))
        k = int(rng.integers(0, most_free + 1))
        observed = np.ones(m, dtype=bool)
        observed[rng.choice(m, k, replace=False)] = False
        mask = ObservationMask.from_graph(graph, observed)
        if trial == 0 and m <= most_free:
            mask, k = None, m
        free, base = expfam._space(n, mask)
        dyads = np.tile(base.astype(np.float64), (1 << k, 1))
        dyads[:, free] = (np.arange(1 << k)[:, None] >> np.arange(k)) & 1
        expected = np.array([row[triples].prod(axis=1).sum() for row in dyads])
        (column,) = enumerate_statistics(StatDef((StatTerm.TRIANGLES,)), n, mask)
        assert column.dtype == np.float64 and column.shape == (1 << k, 1)
        assert column[:, 0].tobytes() == expected.tobytes()


def test_enumerate_statistics_chunks_in_code_order():
    # Full chunks of expfam._CHUNK rows, checked across their seams.
    n, mask = seam_space()
    chunk = expfam._CHUNK
    blocks = list(enumerate_statistics(ET, n, mask))
    assert [b.shape for b in blocks] == [(chunk, 2)] * ((1 << 17) // chunk)
    rows = np.concatenate(blocks)
    for c in (0, 1, chunk - 1, chunk, chunk + 1, (1 << 16) - 1, 1 << 16, (1 << 17) - 1):
        assert np.array_equal(rows[c], statistics(graph_of_code(n, mask, c), ET))


@pytest.mark.parametrize("n, mask", [(4, None), masked_n5()], ids=["n4", "n5-masked"])
def test_attainable_statistics_in_first_appearance_order(n, mask):
    expected = {}
    for row in per_code_rows(EST, n, mask):
        expected.setdefault(tuple(row), row)
    rows, _ = statistic_histogram(EST, n, mask)
    assert np.array_equal(rows, list(expected.values()))


# ---------------------------------------------------------------------------
# statistic histogram

@pytest.mark.parametrize("n, mask", [(4, None), masked_n5()], ids=["n4", "n5-masked"])
def test_histogram_counts_graphs_per_row(n, mask):
    rows, counts = statistic_histogram(EST, n, mask)
    expected = {}
    for row in per_code_rows(EST, n, mask):
        expected[tuple(row)] = expected.get(tuple(row), 0) + 1
    assert np.array_equal(rows, list(expected))
    assert counts.dtype == np.float64
    assert counts.tolist() == list(expected.values())
    k = n * (n - 1) // 2 if mask is None else mask.n_free
    assert counts.sum() == 2.0**k


def test_histogram_merges_rows_across_the_chunk_seam():
    n, mask = seam_space()
    rows, counts = statistic_histogram(ET, n, mask)
    assert counts.sum() == 2.0**17
    every = np.concatenate(list(enumerate_statistics(ET, n, mask)))
    distinct, tally = np.unique(every, axis=0, return_counts=True)
    order = np.lexsort(rows.T[::-1])
    assert np.array_equal(rows[order], distinct)
    assert np.array_equal(counts[order], tally)


def oracle_moments(stats, theta, n, mask):
    """Log normalizer, mean and covariance from the per-code rows, with
    correctly rounded sums about the largest exponent."""
    rows = np.array(per_code_rows(stats, n, mask))
    x = rows @ theta
    top = x.max()
    u = np.exp(x - top)
    total = math.fsum(u)
    mean = np.array([math.fsum(u * col) / total for col in rows.T])
    dev = rows - mean
    cov = np.array([[math.fsum(u * a * b) / total for b in dev.T] for a in dev.T])
    return top + math.log(total), mean, cov


def assert_close(got, want, rtol=1e-12):
    assert np.all(np.abs(got - want) <= rtol * np.abs(want)), (got, want)


def assert_cov_close(got, want, rtol=1e-12):
    # Covariances are compared on the scale of their standard deviations:
    # an entry may sit at 0 with both variances positive.
    sd = np.sqrt(np.diag(want))
    scale = np.outer(sd, sd)
    assert np.all(np.abs(got - want) <= rtol * scale), (got, want)


MODERATE = [np.array([0.3, -0.2, 0.15]), np.array([-0.8, 0.1, 0.6])]
EXTREME = [40.0 * np.array(signs) for signs in itertools.product((1, -1), repeat=3)]


@pytest.mark.parametrize("n, mask", [(4, None), (5, None), masked_n5()],
                         ids=["n4", "n5", "n5-masked"])
@pytest.mark.parametrize("theta", MODERATE + EXTREME, ids=lambda t: ",".join(map(str, t)))
def test_exact_moments_match_per_code_oracle(n, mask, theta):
    log_kappa, mean, cov = exact_moments(EST, theta, n, mask)
    want_kappa, want_mean, want_cov = oracle_moments(EST, theta, n, mask)
    assert_close(log_kappa, want_kappa)
    assert_close(mean, want_mean)
    assert_cov_close(cov, want_cov)


@pytest.mark.parametrize("theta", MODERATE + EXTREME, ids=lambda t: ",".join(map(str, t)))
def test_exact_loglik_matches_per_code_oracle(theta):
    n, mask = masked_n5()
    graph = Graph(n=n, edges=mask.observed_values)
    full = oracle_moments(EST, theta, n, None)[0]
    constrained = oracle_moments(EST, theta, n, mask)[0]
    assert_close(exact_loglik(EST, theta, graph, mask), constrained - full)
    g = statistics(graph, EST)
    assert_close(exact_loglik(EST, theta, graph), float(theta @ g) - full)


def test_mask_from_graph_rejects_a_dyad_vector_of_another_length():
    with pytest.raises(ValueError, match="observed_dyads has 5 entries, graph has 6 dyads"):
        ObservationMask.from_graph(Graph.empty(4), np.ones(5, dtype=bool))


def test_histogram_memo_tells_masks_apart_by_values():
    n, mask = masked_n5()
    flipped = mask.observed_values.copy()
    flipped[np.flatnonzero(mask.observed_dyads)[0]] ^= True
    other = ObservationMask(observed_dyads=mask.observed_dyads, observed_values=flipped)
    rows, counts = statistic_histogram(EST, n, mask)
    other_rows, other_counts = statistic_histogram(EST, n, other)
    assert not np.array_equal(rows, other_rows)
    assert other_counts.sum() == counts.sum() == 2.0**mask.n_free
    expected = {tuple(row): row for row in per_code_rows(EST, n, other)}
    assert np.array_equal(other_rows, list(expected.values()))


def test_histogram_arrays_are_read_only():
    rows, counts = statistic_histogram(ET, 4)
    for arr in (rows, counts):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 99.0


def test_exact_moments_enumerate_each_space_once(monkeypatch):
    calls = []
    original = expfam.enumerate_statistics

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(expfam, "enumerate_statistics", counting)
    expfam._histogram.cache_clear()
    graph, mask = masked_k4_instance()
    for k in range(10):
        exact_moments(ET, np.array([0.1 * k, -0.2]), 5, mask)
    assert len(calls) == 1
    for k in range(10):
        exact_moments(ET, np.array([0.1 * k, -0.2]), 5)
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# sampler

def test_sampler_uniform_edge_mean():
    sample = mcmc_sample(EDGES, np.zeros(1), 7, 2000, seed=SeedSequence(7))
    mean = sample.rows.mean()
    se = sample.rows.std() / math.sqrt(2000)
    assert abs(mean - 10.5) <= 3 * se + 0.2


def test_sampler_mean_matches_exact_moments():
    theta = np.array([-0.4, 0.25])
    _, exact_mean, _ = exact_moments(ET, theta, 5)
    sample = mcmc_sample(ET, theta, 5, 6000, seed=SeedSequence(11))
    err = np.abs(sample.rows.mean(axis=0) - exact_mean)
    se = 3 * sample.rows.std(axis=0) / math.sqrt(6000)
    assert np.all(err <= se + 0.05)


def test_constrained_sampler_visits_all_completions():
    # At theta = 0 the four completions are equally likely; their
    # statistics multiset is {(6,4): 1, (7,4): 2, (8,5): 1}.
    graph, mask = masked_k4_instance()
    sample = mcmc_sample(ET, np.zeros(2), 5, 4000, mask=mask, seed=SeedSequence(123))
    uniq, counts = np.unique(sample.rows, axis=0, return_counts=True)
    assert [tuple(u) for u in uniq] == [(6.0, 4.0), (7.0, 4.0), (8.0, 5.0)]
    freq = counts / counts.sum()
    assert freq == pytest.approx([0.25, 0.5, 0.25], abs=0.04)


def test_masked_chain_never_touches_observed_dyads():
    graph, mask = masked_k4_instance()
    sample = mcmc_sample(
        ET, np.array([0.3, -0.2]), 5, 60, mask=mask,
        seed=SeedSequence(5), keep_graphs=True,
    )
    observed = mask.observed_dyads
    for g in sample.graphs:
        assert np.array_equal(g.edges[observed], mask.observed_values[observed])


def test_sampler_is_bit_deterministic():
    a = mcmc_sample(ET, np.array([0.2, 0.1]), 6, 100, seed=SeedSequence(42))
    b = mcmc_sample(ET, np.array([0.2, 0.1]), 6, 100, seed=SeedSequence(42))
    assert np.array_equal(a.rows, b.rows)


def test_fully_masked_space_returns_observed_stats():
    graph = Graph.from_pairs(4, [(0, 1), (2, 3)])
    mask = ObservationMask.all_observed(graph)
    sample = mcmc_sample(ET, np.array([0.5, 0.5]), 4, 9, mask=mask)
    assert np.all(sample.rows == statistics(graph, ET))


def test_sampler_validates_count_and_interval():
    cases = [("count", 0), ("count", -1), ("count", 2.5), ("count", True), ("count", "3"),
             ("interval", 0), ("interval", 2.5), ("interval", True),
             ("interval", np.float64(4.0))]
    for name, value in cases:
        args = {"count": 5, "interval": 3, name: value}
        with pytest.raises(ValueError, match=f"{name} must be an integer of at least 1"):
            mcmc_sample(EDGES, np.zeros(1), 4, args["count"], interval=args["interval"])
    # A given interval is checked even where a fully observed space needs none.
    full = ObservationMask.all_observed(Graph.empty(4))
    with pytest.raises(ValueError, match="interval must be an integer of at least 1"):
        mcmc_sample(EDGES, np.zeros(1), 4, 5, interval=0, mask=full)


def test_sampler_takes_numpy_integer_counts():
    a = mcmc_sample(ET, np.array([0.2, 0.1]), 5, np.int64(7), interval=np.int32(3),
                    seed=SeedSequence(4))
    b = mcmc_sample(ET, np.array([0.2, 0.1]), 5, 7, interval=3, seed=SeedSequence(4))
    assert a.rows.tobytes() == b.rows.tobytes()


def reference_sample(stats, theta, n, count, interval=None, mask=None, seed=None):
    """The sampler as one Python iteration per step, hold draws included:
    the chain mcmc_sample must reproduce bit for bit.  Returns the rows
    and the graphs at each record."""
    th = np.asarray(theta, dtype=np.float64)
    free, base = expfam._space(n, mask)
    n_free = free.size
    if n_free == 0:
        g0 = statistics(Graph(n=n, edges=base), stats)
        return np.tile(g0, (count, 1)), [Graph(n=n, edges=base.copy())] * count
    if interval is None:
        interval = 10 * n_free

    rng = np.random.default_rng(seed)
    state = base.copy()
    state[free] = rng.random(n_free) < 0.5
    pairs = dyad_pairs(n)
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
    terms = (StatTerm.EDGES, StatTerm.TWO_STARS, StatTerm.TRIANGLES)
    coef = [th[lookup[term]] if term in lookup else 0.0 for term in terms]
    n_edges = float(state.sum())
    n_stars = float(sum(v * (v - 1) // 2 for v in deg))
    n_tris = float(start[lookup[StatTerm.TRIANGLES]]) if StatTerm.TRIANGLES in lookup else 0.0

    burn_in = 10 * interval
    total_steps = burn_in + count * interval
    rows = np.empty((count, stats.dim))
    graphs = []
    next_record = burn_in + interval
    pick_block = np.empty(0, dtype=np.int64)
    logu_block = np.empty(0)
    block_pos = 0
    for step in range(1, total_steps + 1):
        if block_pos >= pick_block.size:
            size = min(expfam._RNG_BLOCK, total_steps - step + 1)
            pick_block = rng.integers(0, 2 * n_free, size=size)
            with np.errstate(divide="ignore"):
                logu_block = np.log(rng.random(size=size))
            block_pos = 0
        t = int(pick_block[block_pos])
        logu = float(logu_block[block_pos])
        block_pos += 1
        if t < n_free:
            i, j = int(pairs[free[t], 0]), int(pairs[free[t], 1])
            k_dyad = int(free[t])
            common = (adj[i] & adj[j]).bit_count()
            if edge_bit[k_dyad]:
                d = (-1.0, -float(deg[i] + deg[j] - 2), -float(common))
            else:
                d = (1.0, float(deg[i] + deg[j]), float(common))
            if logu < coef[0] * d[0] + coef[1] * d[1] + coef[2] * d[2]:
                step_sign = -1 if edge_bit[k_dyad] else 1
                edge_bit[k_dyad] = 1 - edge_bit[k_dyad]
                adj[i] ^= 1 << j
                adj[j] ^= 1 << i
                deg[i] += step_sign
                deg[j] += step_sign
                n_edges += d[0]
                n_stars += d[1]
                n_tris += d[2]
        if step == next_record:
            values = dict(zip(terms, (n_edges, n_stars, n_tris)))
            rows[len(graphs)] = [values[term] for term in stats.terms]
            graphs.append(Graph(n=n, edges=np.array(edge_bit, dtype=bool)))
            next_record += interval
    return rows, graphs


# Every state's (edges, 2-stars, triangles) row per space, for reference_draws.
SPACE_ROWS = {}


def reference_draws(stats, theta, n, count, mask=None, seed=None):
    """Exact draws as a pass over every code per draw: what mcmc_sample
    must reproduce on a space of at most _CODE_TABLE_LIMIT free dyads.
    Each code's statistics are recounted from its graph and weighted by
    exp(theta' g) relative to the largest weight; a uniform u draws the
    first code whose running weight sum exceeds u times the total.  A
    theta' g that is not finite raises ValueError.  Returns the rows and
    the graphs drawn."""
    th = np.asarray(theta, dtype=np.float64).tolist()
    coef = dict(zip(stats.terms, th))
    c_edge, c_star, c_tri = (coef.get(term, 0.0) for term in EST.terms)
    k = expfam._space(n, mask)[0].size
    key = expfam._space_key(n, mask)
    if key not in SPACE_ROWS:
        SPACE_ROWS[key] = [g.tolist() for g in per_code_rows(EST, n, mask)]
    full = SPACE_ROWS[key]
    log_weights = [c_edge * e + c_star * s + c_tri * t for e, s, t in full]
    if not all(map(math.isfinite, log_weights)):
        raise ValueError("theta'g is not finite")
    top = max(log_weights)
    running = list(itertools.accumulate(math.exp(w - top) for w in log_weights))
    codes = []
    for u in np.random.default_rng(seed).random(count).tolist():
        codes.append(next(c for c, total in enumerate(running) if total > u * running[-1]))
    assert max(codes) < 1 << k
    graphs = [graph_of_code(n, mask, c) for c in codes]
    return np.array([statistics(g, stats) for g in graphs]), graphs


def assert_same_sample(stats, theta, n, count, interval=None, mask=None, seed=None):
    """mcmc_sample against the reference of the route its space takes:
    exact draws up to _CODE_TABLE_LIMIT free dyads, the chain past it."""
    sample = mcmc_sample(stats, theta, n, count, interval=interval, mask=mask, seed=seed,
                         keep_graphs=True)
    if 0 < expfam._space(n, mask)[0].size <= expfam._CODE_TABLE_LIMIT:
        rows, graphs = reference_draws(stats, theta, n, count, mask, seed)
    else:
        rows, graphs = reference_sample(stats, theta, n, count, interval, mask, seed)
    assert sample.rows.dtype == np.float64 and sample.rows.shape == rows.shape
    assert sample.rows.strides == rows.strides
    assert sample.rows.tobytes() == rows.tobytes()
    assert len(sample.graphs) == len(graphs)
    for got, want in zip(sample.graphs, graphs):
        assert got.n == want.n and got.edges.tobytes() == want.edges.tobytes()


STAT_SETS = [StatDef(terms) for size in (1, 2, 3)
             for terms in itertools.combinations(tuple(StatTerm), size)]


@pytest.mark.parametrize("mask_kind", ["none", "partial", "full"])
@pytest.mark.parametrize("n", range(3, 9))
def test_sampler_matches_per_step_reference(monkeypatch, n, mask_kind):
    # Each case runs twice: as the space picks its route, then on the
    # chain, which a limit of 0 free dyads forces on every space.
    rng = np.random.default_rng(1000 * n + len(mask_kind))
    m = n * (n - 1) // 2
    graph = Graph(n=n, edges=rng.random(m) < 0.4)
    mask = {"none": None,
            "partial": ObservationMask.from_graph(graph, rng.random(m) < 0.5),
            "full": ObservationMask.all_observed(graph)}[mask_kind]
    state = rng.bit_generator.state
    for limit in (expfam._CODE_TABLE_LIMIT, 0):
        monkeypatch.setattr(expfam, "_CODE_TABLE_LIMIT", limit)
        rng.bit_generator.state = state
        for k, stats in enumerate(STAT_SETS):
            for sign in (1.0, -1.0):
                theta = 3.0 * sign * rng.choice([-1.0, 1.0], size=stats.dim)
                assert_same_sample(stats, theta, n, 12, mask=mask, seed=SeedSequence([n, k]))
            theta = rng.normal(scale=0.3, size=stats.dim)
            assert_same_sample(stats, theta, n, 30, interval=1 + k, mask=mask,
                               seed=SeedSequence([n, k, 1]))


@pytest.mark.parametrize("mask", [None, "partial"])
def test_sampler_matches_reference_across_block_seams(chain_sampler, mask):
    # interval 512: burn-in ends at step 5120 and the records fall on
    # 5632, ..., 16384, so one lands on the last step of each of the two
    # 8192-draw blocks and the chain ends exactly at a block boundary.
    assert expfam._RNG_BLOCK == 8192
    graph, k4_mask = masked_k4_instance()
    if mask == "partial":
        mask = k4_mask
    assert_same_sample(EST, np.array([0.4, -0.3, 0.5]), graph.n, 22, interval=512, mask=mask,
                       seed=SeedSequence(9))


@pytest.fixture
def kernel_calls(monkeypatch):
    """Names of the sampler routes run, in call order."""
    calls = []
    for name in ("_exact_codes", "_bitmask_chain"):
        def spy(*args, _name=name, _original=getattr(expfam, name)):
            calls.append(_name)
            return _original(*args)
        monkeypatch.setattr(expfam, name, spy)
    return calls


def toggle_gains(theta, n, mask):
    """theta' dg of every toggle of every state of the space: the gains
    the chain compares against."""
    rows = expfam._code_table(*expfam._space_key(n, mask)).astype(np.int64)
    k = rows.shape[0].bit_length() - 1
    codes = np.arange(rows.shape[0])
    changes = {tuple(change) for t in range(k)
               for change in (rows[codes ^ (1 << t)] - rows).tolist()}
    t_edge, t_star, t_tri = theta
    return [t_edge * de + t_star * ds + t_tri * dt for de, ds, dt in changes]


# Each entry overflows a gain: to +inf or -inf, and to nan where terms of
# both signs overflow.
EXTREME_THETAS = [(1e308, -1e308, 1e308), (-1e308, 1e308, -1e308), (1e308, 1e308, 1e308),
                  (-1e308, -1.0, 1e308)]


@pytest.mark.parametrize("theta", EXTREME_THETAS)
@pytest.mark.parametrize("on_codes", [True, False], ids=["state-code", "bitmask"])
def test_kernels_match_reference_at_extreme_theta(monkeypatch, kernel_calls, on_codes, theta):
    # A limit of 0 free dyads sends every space to the chain.  Exact
    # draws refuse a theta whose theta' g overflows, as their reference
    # does, naming theta; the chain runs, and matches its reference.
    monkeypatch.setattr(expfam, "_CODE_TABLE_LIMIT", 12 if on_codes else 0)
    n, mask = masked_n5()
    assert any(map(math.isinf, toggle_gains(theta, n, None)))
    theta = np.array(theta)
    for space in (None, mask):
        # The sampler runs outside errstate, so a warning from it fails
        # the test; the references compute in numpy scalars, which warn.
        if on_codes:
            with pytest.raises(ValueError, match=r"not finite on this space at theta \["):
                mcmc_sample(EST, theta, n, 20, mask=space, seed=SeedSequence(8))
            with pytest.raises(ValueError, match="not finite"):
                reference_draws(EST, theta, n, 20, mask=space, seed=SeedSequence(8))
            continue
        sample = mcmc_sample(EST, theta, n, 20, mask=space, seed=SeedSequence(8),
                             keep_graphs=True)
        with np.errstate(over="ignore", invalid="ignore"):
            rows, graphs = reference_sample(EST, theta, n, 20, mask=space, seed=SeedSequence(8))
        assert sample.rows.tobytes() == rows.tobytes()
        assert [g.edges.tobytes() for g in sample.graphs] == [g.edges.tobytes() for g in graphs]
    assert kernel_calls == ["_exact_codes" if on_codes else "_bitmask_chain"] * 2


def test_extreme_theta_reaches_nan_gains():
    # The first extreme theta's gains include nan, so the comparison above
    # covers the nan threshold too.
    gains = toggle_gains(EXTREME_THETAS[0], 5, None)
    assert any(map(math.isnan, gains)) and any(map(math.isinf, gains))


class _FixedUniforms:
    def __init__(self, u):
        self.u = u

    def random(self, count):
        return np.full(count, self.u)


@pytest.mark.parametrize("u", [0.0, float(np.nextafter(1.0, 0.0))], ids=["zero", "below-one"])
@pytest.mark.parametrize("t_edge, code", [(-800.0, 0), (800.0, 7)], ids=["first", "last"])
def test_exact_draws_take_only_codes_of_positive_weight(u, t_edge, code):
    # On n = 3 at |theta_edges| = 800 every code but the empty or the
    # complete graph has a weight that underflows to 0: the least and
    # the largest uniform both draw the one code of positive weight, and
    # neither passes the last code.
    rows = expfam._code_table(*expfam._space_key(3, None))
    codes = expfam._exact_codes(_FixedUniforms(u), rows, (t_edge, 0.0, 0.0), 4, [t_edge])
    assert codes.tolist() == [code] * 4


@pytest.mark.parametrize("count, interval", [(30, 20), (70, 1000)],
                         ids=["short-chain", "long-chain"])
@pytest.mark.parametrize("past", [0, 1], ids=["at-cutover", "one-past"])
def test_both_kernels_match_reference_at_the_cutover(kernel_calls, count, interval, past):
    # n = 6 (15 dyads).  The space alone picks the route: 12 free dyads
    # are drawn exactly and 13 run the chain, for 800 steps or 80,000.
    n, k = 6, expfam._CODE_TABLE_LIMIT + past
    assert k == 12 + past
    rng = np.random.default_rng(k)
    graph = Graph(n=n, edges=rng.random(15) < 0.5)
    observed = np.ones(15, dtype=bool)
    observed[rng.permutation(15)[:k]] = False
    mask = ObservationMask.from_graph(graph, observed)
    assert_same_sample(EST, np.array([-0.4, 0.15, 0.3]), n, count, interval=interval,
                       mask=mask, seed=SeedSequence([k, count]))
    assert kernel_calls == ["_bitmask_chain" if past else "_exact_codes"]


@pytest.mark.parametrize("k", [10, 12])
def test_small_spaces_on_a_large_graph_are_drawn_exactly(kernel_calls, k):
    # n = 30 with 10 or 12 free dyads: the draws come from the states of
    # the small space, whatever the size of the graph.
    n, mask = masked_n30(k)
    assert_same_sample(EST, np.array([-0.8, 0.05, 0.4]), n, 5, mask=mask,
                       seed=SeedSequence([30, k]))
    assert kernel_calls == ["_exact_codes"]


def test_code_table_arrays_are_read_only():
    # The exact route's memo cannot be changed by a caller: every state's
    # (edges, 2-stars, triangles) row, in code order, in a read-only array.
    n, mask = masked_n5()
    rows = expfam._code_table(*expfam._space_key(n, mask))
    assert rows.shape == (1 << mask.n_free, 3)
    assert not rows.flags.writeable
    with pytest.raises(ValueError):
        rows[0] = 99.0
    assert np.array_equal(rows, per_code_rows(EST, n, mask))


K4_THETA = np.array([-0.3, 0.8])


@pytest.mark.parametrize("mask, count, digest", [
    (None, 75, "d5370abfad324f3a8aa59879902be9e9ac59b848cf544e46a2d7dbb993aefae0"),
    ("masked", 25, "1bb3e6dca44594acd4af0ea42e99cd26798ae14da997cc25a60ddb1df8583c1d"),
])
def test_sampler_rows_are_pinned_on_k4(chain_sampler, kernel_calls, mask, count, digest):
    # The estimate-k4 samples at the default interval, on the chain.
    graph, k4_mask = masked_k4_instance()
    sample = mcmc_sample(ET, K4_THETA, graph.n, count,
                         mask=k4_mask if mask else None, seed=SeedSequence(count))
    assert kernel_calls == ["_bitmask_chain"]
    assert hashlib.sha256(sample.rows.astype("<f8").tobytes()).hexdigest() == digest


@pytest.mark.parametrize("mask, count, digest", [
    (None, 75, "c206b37184bcc4f8c648470753c99ea76c98f6dbf01de6b15cd28022187eb757"),
    ("masked", 25, "284766d7675de6207c31ab1655fb308159ac9bd0a8e13c4596ee31120394f97b"),
])
def test_exact_draws_are_pinned_on_k4(kernel_calls, mask, count, digest):
    # The estimate-k4 samples as the estimator draws them: exactly.
    graph, k4_mask = masked_k4_instance()
    sample = mcmc_sample(ET, K4_THETA, graph.n, count,
                         mask=k4_mask if mask else None, seed=SeedSequence(count))
    assert kernel_calls == ["_exact_codes"]
    assert hashlib.sha256(sample.rows.astype("<f8").tobytes()).hexdigest() == digest


# Upper 1e-4 point of the standard normal: the goodness-of-fit bound
# below is the chi-square quantile at that level, fixed before any run.
GOF_Z = 3.719


def chi_square_bound(df):
    """Wilson-Hilferty approximation of the upper GOF_Z quantile of the
    chi-square law with df degrees of freedom."""
    return df * (1.0 - 2.0 / (9.0 * df) + GOF_Z * math.sqrt(2.0 / (9.0 * df))) ** 3


@pytest.mark.parametrize("theta", [(0.0, 0.0), (-0.3, 0.8), (0.5, -0.6)],
                         ids=lambda t: ",".join(map(str, t)))
@pytest.mark.parametrize("masked", [False, True], ids=["n5", "k4-masked"])
@pytest.mark.parametrize("route", ["exact", "chain"])
def test_sampled_frequencies_match_the_histogram(request, route, masked, theta):
    # 4000 draws against statistic_histogram's exact probabilities at
    # theta.  Rows expected fewer than 5 times are pooled into one cell,
    # and the chi-square statistic must stay under its 1e-4 quantile.
    if route == "chain":
        request.getfixturevalue("chain_sampler")
    _, mask = masked_k4_instance()
    mask = mask if masked else None
    rows, counts = statistic_histogram(ET, 5, mask)
    log_weights = np.log(counts) + rows @ np.array(theta)
    probs = np.exp(log_weights - log_weights.max())
    probs /= probs.sum()
    draws = 4000
    sample = mcmc_sample(ET, np.array(theta), 5, draws, mask=mask, seed=SeedSequence(2024))
    index = {tuple(row): i for i, row in enumerate(rows.tolist())}
    observed = np.bincount([index[tuple(row)] for row in sample.rows.tolist()],
                           minlength=len(rows))
    expected = draws * probs
    small = expected < 5.0
    cells_o = [*observed[~small], observed[small].sum()]
    cells_e = [*expected[~small], expected[small].sum()]
    if not small.any():
        cells_o, cells_e = cells_o[:-1], cells_e[:-1]
    statistic = sum((o - e) ** 2 / e for o, e in zip(cells_o, cells_e))
    df = len(cells_o) - 1
    assert df >= 2
    assert statistic <= chi_square_bound(df), (statistic, df)


def test_sampler_rows_are_pinned_at_n30():
    # 100 rows at the default interval (4350 steps): 58 blocks of draws.
    sample = mcmc_sample(EST, np.array([-1.5, -0.02, 0.1]), 30, 100, seed=SeedSequence(30))
    digest = hashlib.sha256(sample.rows.astype("<f8").tobytes()).hexdigest()
    assert digest == "9ffeeca8004e9435ee45bec7cd62d5b2dc8d2ecfa85da98892a01f60f072ec8a"


# ---------------------------------------------------------------------------
# likelihood-ratio estimate

def test_ratio_hat_zero_cases():
    rng = np.random.default_rng(31)
    rows = rng.standard_normal((20, 2))
    assert loglik_ratio_hat(np.zeros(2), rows, rows) == 0.0
    other = rng.standard_normal((15, 2))
    assert loglik_ratio_hat(np.zeros(2), rows, other) == 0.0


def test_ratio_hat_antisymmetric_under_sample_swap():
    # Swapping the two samples at the same dtheta negates the value
    # exactly: both terms are computed once each and subtracted.
    rng = np.random.default_rng(32)
    ys = rng.standard_normal((25, 3))
    zs = rng.standard_normal((18, 3))
    for _ in range(20):
        dt = rng.standard_normal(3)
        assert loglik_ratio_hat(dt, ys, zs) == -loglik_ratio_hat(dt, zs, ys)


@pytest.mark.parametrize("scale", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("ratio", [loglik_ratio_hat, loglik_ratio_grad, loglik_ratio_hess],
                         ids=lambda ratio: ratio.__name__)
def test_ratio_scale_must_be_finite_and_positive(ratio, scale):
    # A NaN or infinite scale used to pass the check and return NaN.
    rows = np.ones((3, 2))
    with pytest.raises(ValueError, match="scale must be finite and positive"):
        ratio(np.zeros(2), rows, rows, scale=scale)


@pytest.mark.parametrize("ratio", [loglik_ratio_hat, loglik_ratio_grad, loglik_ratio_hess],
                         ids=lambda ratio: ratio.__name__)
def test_ratio_names_a_dtheta_whose_estimate_is_nan(ratio):
    # At dtheta = (1e308, 1e308) the exponents overflow and the estimate
    # is NaN, as on demonstrate_unbounded's ray; no RuntimeWarning escapes.
    ys = np.array([[0.0, 0.0], [1.0, 0.5], [0.5, 1.0]])
    zs = np.array([[2.0, 2.0], [1.5, 1.8]])
    assert np.isfinite(ratio(np.array([1.0, 1.0]), ys, zs)).all()
    with pytest.raises(ValueError, match=r"dtheta \[1e\+308, 1e\+308\] is NaN"):
        ratio(np.array([1e308, 1e308]), ys, zs)


def test_ratio_grad_matches_finite_differences():
    rng = np.random.default_rng(33)
    ys = rng.standard_normal((40, 2))
    zs = rng.standard_normal((30, 2)) * 0.8
    for _ in range(20):
        dt = rng.standard_normal(2) * 0.5
        scale = float(rng.uniform(0.5, 1.0))
        grad = loglik_ratio_grad(dt, ys, zs, scale=scale)
        h = 1e-6
        for k in range(2):
            up = dt.copy(); up[k] += h
            dn = dt.copy(); dn[k] -= h
            fd = (
                loglik_ratio_hat(up, ys, zs, scale=scale)
                - loglik_ratio_hat(dn, ys, zs, scale=scale)
            ) / (2 * h)
            denom = max(1.0, abs(fd))
            assert abs(grad[k] - fd) / denom <= 1e-5


def test_ratio_hess_matches_finite_differences():
    rng = np.random.default_rng(34)
    ys = rng.standard_normal((40, 2))
    zs = rng.standard_normal((30, 2)) * 0.8
    for _ in range(20):
        dt = rng.standard_normal(2) * 0.5
        scale = float(rng.uniform(0.5, 1.0))
        hess = loglik_ratio_hess(dt, ys, zs, scale=scale)
        h = 1e-6
        for k in range(2):
            up = dt.copy(); up[k] += h
            dn = dt.copy(); dn[k] -= h
            fd = (
                loglik_ratio_grad(up, ys, zs, scale=scale)
                - loglik_ratio_grad(dn, ys, zs, scale=scale)
            ) / (2 * h)
            denom = np.maximum(1.0, np.abs(fd))
            assert np.all(np.abs(hess[:, k] - fd) / denom <= 1e-5)


def test_demonstrate_unbounded_grows_along_separating_ray():
    # gZ max exceeds gY max along the ray, so every alpha step pushes
    # the estimate up without bound.
    ys = np.array([[0.0, 0.0], [1.0, 0.5], [0.5, 1.0]])
    zs = np.array([[2.0, 2.0], [1.5, 1.8]])
    direction = np.array([1.0, 1.0])
    values = demonstrate_unbounded(ys, zs, direction, [1.0, 2.0, 4.0, 8.0, 16.0])
    assert all(b > a for a, b in zip(values, values[1:]))


def test_demonstrate_unbounded_rejects_non_separating_direction():
    ys = np.array([[2.0, 0.0], [0.0, 2.0]])
    zs = np.array([[1.0, 1.0]])
    with pytest.raises(ValueError):
        demonstrate_unbounded(ys, zs, np.array([1.0, 0.0]), [1.0, 2.0])


def test_demonstrate_unbounded_rejects_a_direction_of_another_width():
    ys = np.array([[0.0, 0.0], [1.0, 0.5]])
    zs = np.array([[2.0, 2.0]])
    with pytest.raises(ValueError, match="direction has 3 entries, sample rows have 2 columns"):
        demonstrate_unbounded(ys, zs, np.ones(3), [1.0, 2.0])


@pytest.mark.parametrize("alphas", [[1.0, math.inf], [math.nan]], ids=["inf", "nan"])
def test_demonstrate_unbounded_rejects_non_finite_alphas(alphas):
    ys = np.array([[0.0, 0.0], [1.0, 0.5], [0.5, 1.0]])
    zs = np.array([[2.0, 2.0], [1.5, 1.8]])
    with pytest.raises(ValueError, match="alphas must be finite"):
        demonstrate_unbounded(ys, zs, np.array([1.0, 1.0]), alphas)


def test_demonstrate_unbounded_names_an_alpha_whose_estimate_is_nan():
    # At alpha = 1e308 the test rows' exponents overflow to inf, and their
    # log-sum-exp to NaN; no RuntimeWarning may escape on the way.
    ys = np.array([[0.0, 0.0], [1.0, 0.5], [0.5, 1.0]])
    zs = np.array([[2.0, 2.0], [1.5, 1.8]])
    direction = np.array([1.0, 1.0])
    values = demonstrate_unbounded(ys, zs, direction, [1.0, 1e300])
    assert all(map(math.isfinite, values)) and values[1] > values[0]
    with pytest.raises(ValueError, match=r"alpha 1e\+308 is NaN"):
        demonstrate_unbounded(ys, zs, direction, [1.0, 1e300, 1e308])

def test_demonstrate_unbounded_rejects_samples_of_different_widths():
    ys = np.array([[0.0, 0.0], [1.0, 0.5]])
    zs = np.array([[2.0, 2.0, 2.0]])
    with pytest.raises(ValueError, match="target rows have 2 columns, test rows have 3"):
        demonstrate_unbounded(ys, zs, np.ones(2), [1.0, 2.0])
