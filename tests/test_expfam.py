import itertools
import math

import numpy as np
import pytest
from numpy.random import SeedSequence
from hypothesis import given, settings
from hypothesis import strategies as st

from hullmle.expfam import (
    Graph,
    ObservationMask,
    StatDef,
    demonstrate_unbounded,
    dyad_pairs,
    enumerate_statistics,
    exact_log_kappa,
    exact_loglik,
    exact_moments,
    loglik_ratio_grad,
    loglik_ratio_hat,
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


def test_moments_n_cap_enforced():
    with pytest.raises(ValueError):
        exact_log_kappa(EDGES, np.zeros(1), 26)


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
    """n = 7 with 17 free dyads: two enumeration chunks."""
    observed = np.zeros(21, dtype=bool)
    observed[:4] = True
    return 7, ObservationMask.from_graph(Graph.complete(7), observed)


def per_code_rows(stats, n, mask):
    k = n * (n - 1) // 2 if mask is None else mask.n_free
    return [statistics(graph_of_code(n, mask, c), stats) for c in range(1 << k)]


@pytest.mark.parametrize("n, mask", [(4, None), masked_n5()], ids=["n4", "n5-masked"])
def test_enumerate_statistics_concatenates_to_per_code_rows(n, mask):
    rows = np.concatenate(list(enumerate_statistics(EST, n, mask)))
    assert np.array_equal(rows, per_code_rows(EST, n, mask))


def test_enumerate_statistics_chunks_in_code_order():
    # Two full chunks, checked across their seam.
    n, mask = seam_space()
    blocks = list(enumerate_statistics(ET, n, mask))
    assert [b.shape for b in blocks] == [(1 << 16, 2), (1 << 16, 2)]
    rows = np.concatenate(blocks)
    for c in (0, 1, (1 << 16) - 1, 1 << 16, (1 << 16) + 1, (1 << 17) - 1):
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
    with pytest.raises(ValueError):
        mcmc_sample(EDGES, np.zeros(1), 4, 0)
    with pytest.raises(ValueError):
        mcmc_sample(EDGES, np.zeros(1), 4, 5, interval=0)


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


def test_ratio_hat_scale_must_be_positive():
    rows = np.zeros((3, 2))
    with pytest.raises(ValueError):
        loglik_ratio_hat(np.zeros(2), rows, rows, scale=0.0)


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
