import math

import numpy as np
import pytest
from numpy.random import SeedSequence

from hullmle.batch import make_test_set, min_scale
from hullmle.estimate import (
    EstimatorConfig,
    NonexistentMle,
    exact_mle,
    iterate_until_contained,
    rescaled_step,
)
from hullmle.expfam import (
    Graph,
    ObservationMask,
    StatDef,
    dyad_pairs,
    exact_loglik,
    exact_moments,
    loglik_ratio_hat,
    mcmc_sample,
    statistics,
)
from hullmle.hull import make_target_set

from conftest import MASKED_K4_MLE, masked_k4_instance

EDGES = StatDef.from_names(["edges"])
ET = StatDef.from_names(["edges", "triangles"])


# ---------------------------------------------------------------------------
# exact_mle

def test_edges_only_mle_is_logit_of_density():
    # 4 of 6 dyads on: theta-hat = log(4/2) for the Bernoulli model.
    graph = Graph.from_pairs(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
    theta = exact_mle(EDGES, graph, gradient_tol=1e-12)
    assert theta[0] == pytest.approx(math.log(4.0 / 2.0), abs=1e-10)


def test_edges_only_mle_matches_closed_form_generally():
    rng = np.random.default_rng(3)
    for n in (4, 5):
        m = n * (n - 1) // 2
        for _ in range(3):
            edges = rng.random(m) < rng.uniform(0.2, 0.8)
            if edges.sum() in (0, m):
                continue
            graph = Graph(n=n, edges=edges)
            e = float(edges.sum())
            expected = math.log(e / (m - e))
            found = exact_mle(EDGES, graph, gradient_tol=1e-12)[0]
            assert found == pytest.approx(expected, abs=1e-10)


def test_moment_condition_at_mle():
    graph = Graph.from_pairs(4, [(0, 1), (1, 2), (2, 3), (0, 2)])
    theta = exact_mle(ET, graph)
    _, mean, _ = exact_moments(ET, theta, 4)
    assert np.max(np.abs(mean - statistics(graph, ET))) <= 1e-6


def test_mle_nonexistent_on_boundary_data():
    # The complete graph's statistics sit on the attainable hull
    # boundary; the likelihood has no maximizer.
    with pytest.raises(NonexistentMle):
        exact_mle(ET, Graph.complete(4))
    with pytest.raises(NonexistentMle):
        exact_mle(EDGES, Graph.empty(4))


def test_masked_mle_frozen_value():
    graph, mask = masked_k4_instance()
    theta = exact_mle(ET, graph, mask=mask)
    assert theta == pytest.approx(MASKED_K4_MLE, abs=1e-6)


def test_masked_mle_nonexistent_for_disjoint_missing_nonedges():
    # Observed: 6 edges among dyads excluding (0,1) and (2,3); the two
    # unobserved dyads are vertex-disjoint, so one completion attains a
    # hull vertex and the likelihood sup is a ray asymptote.
    graph = Graph.from_pairs(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 4), (3, 4)])
    observed = np.ones(10, dtype=bool)
    pairs = [tuple(p) for p in dyad_pairs(5)]
    observed[pairs.index((0, 1))] = False
    observed[pairs.index((2, 3))] = False
    mask = ObservationMask(observed_dyads=observed, observed_values=graph.edges & observed)
    with pytest.raises(NonexistentMle):
        exact_mle(ET, graph, mask=mask)


# ---------------------------------------------------------------------------
# rescaled_step

def test_rescaled_step_noop_when_samples_match():
    # Centered gY = gZ: the gradient at zero vanishes, step stays put.
    rng = np.random.default_rng(5)
    raw = rng.standard_normal((30, 2))
    rows = raw - raw.mean(axis=0)
    theta0 = np.array([0.3, -0.1])
    out = rescaled_step(theta0, rows, rows, 1.0, EstimatorConfig())
    assert out == pytest.approx(theta0, abs=1e-7)


def test_rescaled_step_increases_objective():
    # Shrinking by safety * min_scale keeps the shrunk test rows strictly
    # interior, so the ratio surface has a maximizer and its value at that
    # maximizer beats the value 0 at no change.
    rng = np.random.default_rng(6)
    raw_y = rng.standard_normal((60, 2))
    raw_z = rng.standard_normal((40, 2)) + np.array([0.8, 0.4])
    target = make_target_set(raw_y)
    multiplier = min_scale(target, make_test_set(raw_z)).min_scale
    assert np.isfinite(multiplier)
    ys = target.points
    zs = raw_z - target.centroid
    theta0 = np.zeros(2)
    cfg = EstimatorConfig()
    out = rescaled_step(theta0, ys, zs, multiplier, cfg)
    dtheta = out - theta0
    effective = cfg.safety_factor * multiplier
    grad0 = effective * zs.mean(axis=0) - ys.mean(axis=0)
    assert np.linalg.norm(grad0) > 1e-8
    assert loglik_ratio_hat(dtheta, ys, zs, effective) > 0.0


# ---------------------------------------------------------------------------
# iterate_until_contained

def _k4_cfg(seed):
    return EstimatorConfig(
        r_target=75, s_test=25, safety_factor=0.7,
        max_outer_iterations=10, seed=seed,
    )


def test_iterate_records_multiplier_before_stepping():
    graph, mask = masked_k4_instance()
    trace = iterate_until_contained(ET, graph, mask, np.zeros(2), _k4_cfg(3))
    assert np.array_equal(trace.iterations[0].theta, np.zeros(2))
    assert trace.iterations[0].multiplier < 1.0


def test_iterate_converges_and_multipliers_grow():
    graph, mask = masked_k4_instance()
    trace = iterate_until_contained(ET, graph, mask, np.zeros(2), _k4_cfg(3))
    assert trace.converged
    mults = trace.multipliers
    assert mults[-1] >= 1.11
    assert mults[-1] > mults[0]
    assert all(np.isfinite(m) and m > 0 for m in mults)


def test_iterate_is_deterministic():
    graph, mask = masked_k4_instance()
    a = iterate_until_contained(ET, graph, mask, np.zeros(2), _k4_cfg(0))
    b = iterate_until_contained(ET, graph, mask, np.zeros(2), _k4_cfg(0))
    assert a.converged == b.converged
    assert len(a.iterations) == len(b.iterations)
    for ra, rb in zip(a.iterations, b.iterations):
        assert np.array_equal(ra.theta, rb.theta)
        assert ra.multiplier == rb.multiplier
    assert np.array_equal(a.final_theta, b.final_theta)


def test_iterate_scaled_tests_become_interior():
    # Re-check the contract directly on the first iteration's samples:
    # scaling the centered test rows by safety * multiplier makes all
    # of them strictly interior.
    graph, mask = masked_k4_instance()
    cfg = _k4_cfg(3)
    sy = mcmc_sample(ET, np.zeros(2), 5, cfg.r_target,
                     seed=SeedSequence(cfg.seed, spawn_key=(0, 0)))
    sz = mcmc_sample(ET, np.zeros(2), 5, cfg.s_test, mask=mask,
                     seed=SeedSequence(cfg.seed, spawn_key=(0, 1)))
    target = make_target_set(sy.rows)
    report = min_scale(target, make_test_set(sz.rows))
    assert report.min_scale < 1.0
    centered = sz.rows - target.centroid
    scaled = centered * (cfg.safety_factor * report.min_scale) + target.centroid
    rescaled = min_scale(target, make_test_set(scaled))
    assert rescaled.min_scale >= 1.0 + 1e-6


T, F = True, False
VARIANCE_CONDITION = {
    0: [T, T], 1: [T], 2: [T, T], 3: [T, F, T], 4: [T, T, F, T, T],
    5: [T, T, T], 7: [T], 8: [T, T, T, T], 9: [T, T],
}


@pytest.mark.parametrize("seed", range(10))
def test_iterate_variance_condition_per_iteration(seed):
    graph, mask = masked_k4_instance()
    if seed not in VARIANCE_CONDITION:
        with pytest.raises(ValueError, match="rank-deficient"):
            iterate_until_contained(ET, graph, mask, np.zeros(2), _k4_cfg(seed))
        return
    trace = iterate_until_contained(ET, graph, mask, np.zeros(2), _k4_cfg(seed))
    got = [record.variance_condition_ok for record in trace.iterations]
    assert got == VARIANCE_CONDITION[seed]


def test_iterate_variance_condition_unknown_for_one_test_draw():
    graph, mask = masked_k4_instance()
    cfg = EstimatorConfig(r_target=75, s_test=1, safety_factor=0.7,
                          max_outer_iterations=3, seed=0)
    trace = iterate_until_contained(ET, graph, mask, np.zeros(2), cfg)
    assert [record.variance_condition_ok for record in trace.iterations] == [None]


def test_iterate_requires_some_observation():
    graph, _ = masked_k4_instance()
    nothing = ObservationMask(
        observed_dyads=np.zeros(10, dtype=bool),
        observed_values=np.zeros(10, dtype=bool),
    )
    with pytest.raises(ValueError):
        iterate_until_contained(ET, graph, nothing, np.zeros(2), _k4_cfg(0))


def test_iterate_fully_observed_at_exact_mle_stops_quickly():
    graph = Graph.from_pairs(4, [(0, 1), (1, 2), (2, 3), (0, 2)])
    theta_hat = exact_mle(ET, graph)
    mask = ObservationMask.all_observed(graph)
    cfg = EstimatorConfig(r_target=400, s_test=50, seed=1, max_outer_iterations=10)
    trace = iterate_until_contained(ET, graph, mask, theta_hat, cfg)
    assert trace.converged
    assert len(trace.iterations) == 1
    assert np.array_equal(trace.final_theta, theta_hat)


def test_iterate_theta0_shape_validated():
    graph, mask = masked_k4_instance()
    with pytest.raises(ValueError):
        iterate_until_contained(ET, graph, mask, np.zeros(3), _k4_cfg(0))


# ---------------------------------------------------------------------------
# mask contract

MASK_TAKERS = {
    "exact_loglik": lambda graph, mask: exact_loglik(ET, np.zeros(2), graph, mask),
    "iterate_until_contained": lambda graph, mask: iterate_until_contained(
        ET, graph, mask, np.zeros(2), _k4_cfg(0)),
    "exact_mle": lambda graph, mask: exact_mle(ET, graph, mask),
}


@pytest.mark.parametrize("taker", MASK_TAKERS.values(), ids=MASK_TAKERS.keys())
def test_mask_must_agree_with_graph(taker):
    graph, mask = masked_k4_instance()
    short = ObservationMask(observed_dyads=mask.observed_dyads[:6],
                            observed_values=mask.observed_values[:6])
    with pytest.raises(ValueError, match="mask and graph disagree on dyad count"):
        taker(graph, short)
    flipped = mask.observed_values.copy()
    flipped[9] = False
    wrong = ObservationMask(observed_dyads=mask.observed_dyads, observed_values=flipped)
    with pytest.raises(ValueError, match="mask values disagree with the observed graph"):
        taker(graph, wrong)


@pytest.mark.parametrize("taker", MASK_TAKERS.values(), ids=MASK_TAKERS.keys())
def test_mask_that_observes_nothing(taker):
    graph, _ = masked_k4_instance()
    nothing = ObservationMask(observed_dyads=np.zeros(10, dtype=bool),
                              observed_values=np.zeros(10, dtype=bool))
    if taker is MASK_TAKERS["exact_loglik"]:
        assert taker(graph, nothing) == 0.0
    else:
        with pytest.raises(ValueError, match="mask observes nothing"):
            taker(graph, nothing)


def test_estimator_config_validation():
    with pytest.raises(ValueError):
        EstimatorConfig(r_target=0)
    with pytest.raises(ValueError):
        EstimatorConfig(safety_factor=1.5)
    with pytest.raises(ValueError):
        EstimatorConfig(stop_threshold=0.9)
