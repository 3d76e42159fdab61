import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from numpy.random import SeedSequence

from hullmle import estimate, numerics
from hullmle.batch import make_test_set, min_scale
from hullmle.estimate import (
    EstimatorConfig,
    NonexistentMle,
    OptimizationError,
    exact_mle,
    iterate_until_contained,
    loglik_ratio_grad,
    loglik_ratio_hat,
    loglik_ratio_hess,
    rescaled_step,
)
from hullmle.expfam import (
    Graph,
    ObservationMask,
    StatDef,
    StatMatrix,
    dyad_pairs,
    exact_loglik,
    exact_moments,
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


def test_masked_mle_converges_where_the_likelihood_is_level():
    # Near this maximizer the log-likelihood is level to rounding: the
    # full Newton step takes the gradient from 1.9e-8 to 2e-15, but its
    # value compares a unit of rounding low, and halving the step until
    # noise let a step through stalled the ascent for its whole budget.
    edges = np.array([0, 0, 1, 1, 1, 1, 1, 1, 1, 0, 1, 0, 0, 1, 0], dtype=bool)
    graph = Graph(n=6, edges=edges)
    observed = np.ones(15, dtype=bool)
    observed[[0, 1, 5, 11, 14]] = False
    mask = ObservationMask.from_graph(graph, observed)
    theta = exact_mle(ET, graph, mask=mask)
    _, mean_con, _ = exact_moments(ET, theta, 6, mask)
    _, mean_full, _ = exact_moments(ET, theta, 6)
    assert np.abs(mean_con - mean_full).max() <= 1e-8
    assert theta == pytest.approx([2.2722404, -0.35568803], abs=1e-6)


@pytest.mark.parametrize("name, value", [
    ("gradient_tol", math.nan),
    ("gradient_tol", 0.0),
    ("gradient_tol", -1e-8),
    ("gradient_tol", math.inf),
])
def test_exact_mle_rejects_bad_ascent_settings(monkeypatch, name, value):
    # Each of these used to run the ascent and end in an OptimizationError.
    def no_enumeration(*args):
        raise AssertionError("enumerated before checking the arguments")

    monkeypatch.setattr(estimate, "exact_moments", no_enumeration)
    monkeypatch.setattr(estimate, "statistic_histogram", no_enumeration)
    graph, mask = masked_k4_instance()
    with pytest.raises(ValueError, match=name):
        exact_mle(ET, graph, mask, **{name: value})


# exact_mle on n = 6 graphs with edges and triangles, pinned bit for bit:
# (dyad bits, unobserved dyads or None) -> the returned theta as float.hex,
# "NonexistentMle", or ("OptimizationError", last_iterate, gradient_norm).
EXACT_MLE_PINS = [
    (("011101101010110", None), ("0x1.f6e222010aee0p+0", "-0x1.1b7ed2763cb2ap+0")),
    (("101110001010010", (0, 3, 5, 6, 9)), ("0x1.54eec18084a85p-1", "-0x1.28aa2e10d145bp-1")),
    (("110110100000010", None), "NonexistentMle"),
    (("011011011111111", (4, 8, 9, 10, 13)), ("0x1.dd30818909aa4p+0", "-0x1.3064ff717b4cfp-1")),
    (("011001001101110", None), ("0x1.4c06533dd72a4p-3", "-0x1.9ca64d3a71aedp-6")),
    (("011110011111111", None), ("0x1.979576696af66p-4", "0x1.0e287d2d1dbfap-1")),
    (("010111110100111", (2, 3, 7, 8, 11)), "NonexistentMle"),
    (("110000000011000", (2, 3, 4, 8, 11)), ("-0x1.79e64659525c4p-1", "-0x1.b654b9f1acd21p-2")),
    (("001111111010010", (0, 1, 5, 11, 14)), ("0x1.22d8c5f5d3b03p+1", "-0x1.6c397b51f0469p-2")),
    (("000010000001001", None), "NonexistentMle"),
    (("001000000011001", (1, 2, 7, 13, 14)),
     ("OptimizationError", ("-0x1.4789369945af3p+0", "-0x1.861d97c9ce79ep+2"),
      "0x1.19b6eab2e09e4p-12")),
    (("000001100100110", (9, 10, 11, 13, 14)),
     ("OptimizationError", ("-0x1.79309201e99afp-1", "-0x1.1366d416e0e12p-1"),
      "0x1.0be533c5b9380p-9")),
]


@pytest.mark.parametrize("case, expected", EXACT_MLE_PINS)
def test_exact_mle_is_pinned(case, expected):
    bits, unobserved = case
    graph = Graph(n=6, edges=np.array([bit == "1" for bit in bits]))
    mask = None
    if unobserved is not None:
        observed = np.ones(15, dtype=bool)
        observed[list(unobserved)] = False
        mask = ObservationMask.from_graph(graph, observed)
    if expected == "NonexistentMle":
        with pytest.raises(NonexistentMle):
            exact_mle(ET, graph, mask)
    elif expected[0] == "OptimizationError":
        with pytest.raises(OptimizationError) as info:
            exact_mle(ET, graph, mask)
        assert _hex(info.value.last_iterate) == expected[1]
        assert float(info.value.gradient_norm).hex() == expected[2]
    else:
        assert _hex(exact_mle(ET, graph, mask)) == expected


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


# Traces of the masked K4 instance under _k4_cfg on chain-drawn samples
# (the chain_sampler fixture), pinned bit for bit as float.hex: per
# iteration (theta_0, theta_1, multiplier), then the final theta.  Every
# pinned trace converged.  Seed 6 draws a rank-deficient target; seed
# 47's last step shrinks its test rows onto a Boundary row.
K4_TRACES = {
    0: ([("0x0.0p+0", "0x0.0p+0", "0x1.5df984dc5abbdp-1"),
         ("-0x1.a30b074b3944dp-1", "0x1.32eb7b53cf12cp+0", "0x1.5745d1745d174p+0")],
        ("-0x1.a30b074b3944dp-1", "0x1.32eb7b53cf12cp+0")),
    1: ([("0x0.0p+0", "0x0.0p+0", "0x1.2a9272a9272a9p+0")],
        ("0x0.0p+0", "0x0.0p+0")),
    2: ([("0x0.0p+0", "0x0.0p+0", "0x1.ffffffffffffep-1"),
         ("-0x1.54aab43ad3735p-1", "0x1.ee9f1c876b434p-1", "0x1.4234f72c234f7p+0")],
        ("-0x1.54aab43ad3735p-1", "0x1.ee9f1c876b434p-1")),
    3: ([("0x0.0p+0", "0x0.0p+0", "0x1.77585ebf5114fp-1"),
         ("-0x1.7883f2198b680p-1", "0x1.7b143c68db740p+0", "0x1.0000000000001p+0"),
         ("-0x1.8579f64f0d6f4p-1", "0x1.3cb047780ae39p+0", "0x1.cc415c9882b94p+0")],
        ("-0x1.8579f64f0d6f4p-1", "0x1.3cb047780ae39p+0")),
    4: ([("0x0.0p+0", "0x0.0p+0", "0x1.58dc9f56a21fep-1"),
         ("-0x1.d817f7904b03fp-1", "0x1.9958a8776e34cp+0", "0x1.0000000000000p+0"),
         ("0x1.45452f2daafc0p-6", "0x1.7439996663619p-1", "0x1.0000000000000p+0"),
         ("-0x1.99f7e6ecdbcb3p+0", "0x1.8539fa067ce96p+0", "0x1.ffffffffffffep-1"),
         ("-0x1.394ef8256a994p+0", "0x1.5279cc32d2df6p+0", "0x1.1ec4ec4ec4ec5p+0")],
        ("-0x1.394ef8256a994p+0", "0x1.5279cc32d2df6p+0")),
    5: ([("0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p+0"),
         ("-0x1.540d883833adbp-1", "0x1.061ea046dece1p+0", "0x1.0000000000000p+0"),
         ("-0x1.5a33bbf4b79aap-3", "0x1.7043f265fa3e7p-1", "0x1.9ead7cd391fbep+0")],
        ("-0x1.5a33bbf4b79aap-3", "0x1.7043f265fa3e7p-1")),
    7: ([("0x0.0p+0", "0x0.0p+0", "0x1.32bfb7d2e3ce7p+0")],
        ("0x0.0p+0", "0x0.0p+0")),
    8: ([("0x0.0p+0", "0x0.0p+0", "0x1.0000000000001p+0"),
         ("-0x1.338c6be51d433p+0", "0x1.415985d989467p+0", "0x1.1745d1745d175p+0"),
         ("-0x1.15d7f7af451aap+0", "0x1.4f1dd512f62edp+0", "0x1.ffffffffffffep-1"),
         ("-0x1.79bc880faf91ap-1", "0x1.0ed6e060cc7eap+0", "0x1.5812c9fb4d811p+0")],
        ("-0x1.79bc880faf91ap-1", "0x1.0ed6e060cc7eap+0")),
    9: ([("0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p+0"),
         ("-0x1.3bf2e14c126acp-1", "0x1.0c106b7dd23bap+0", "0x1.5555555555555p+0")],
        ("-0x1.3bf2e14c126acp-1", "0x1.0c106b7dd23bap+0")),
    47: ([("0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p+0"),
          ("-0x1.5f5485c12e4cdp-1", "0x1.8599d0160b8e7p+0", "0x1.0000000000002p+0"),
          ("-0x1.1f518110358c4p-1", "0x1.23b765ec35f1dp+0", "0x1.4b00000000001p+0")],
         ("-0x1.1f518110358c4p-1", "0x1.23b765ec35f1dp+0")),
}
# Traces on exact draws, as the estimator samples the K4 spaces.
K4_EXACT_TRACES = {
    0: ([("0x0.0p+0", "0x0.0p+0", "0x1.6a956a956a957p-1"),
         ("-0x1.8d404cb2b8c78p-1", "0x1.410274884b599p+0", "0x1.ea2576a25769fp+0")],
        ("-0x1.8d404cb2b8c78p-1", "0x1.410274884b599p+0")),
    1: ([("0x0.0p+0", "0x0.0p+0", "0x1.319cc67319cc6p+0")],
        ("0x0.0p+0", "0x0.0p+0")),
    2: ([("0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p+0"),
         ("0x1.919e578ac7941p-2", "-0x1.7a25d42085121p-11", "0x1.62d67075590f0p-1"),
         ("-0x1.e8e4dacd4ef60p-1", "0x1.3313f8319e15ap+0", "0x1.0000000000000p+0"),
         ("-0x1.07bcd5208c958p-3", "0x1.3407eccca298bp-1", "0x1.5494dd0a2657fp+0")],
        ("-0x1.07bcd5208c958p-3", "0x1.3407eccca298bp-1")),
}

# Master seeds whose inner step, with an absolute gradient test below what
# the sampled value resolves, once ran to its iteration limit.
K4_FORMERLY_STALLED = (47, 66, 85, 90, 93, 137, 145, 193)


def _hex(values) -> tuple[str, ...]:
    return tuple(float(v).hex() for v in values)


@pytest.mark.parametrize("seed", [*range(10), 47])
def test_iterate_k4_trace_is_pinned(chain_sampler, seed):
    graph, mask = masked_k4_instance()
    if seed == 6:
        with pytest.raises(ValueError, match="rank-deficient"):
            iterate_until_contained(ET, graph, mask, np.zeros(2), _k4_cfg(seed))
        return
    trace = iterate_until_contained(ET, graph, mask, np.zeros(2), _k4_cfg(seed))
    iterations, final = K4_TRACES[seed]
    got = [_hex([*record.theta, record.multiplier]) for record in trace.iterations]
    assert got == iterations
    assert trace.converged
    assert _hex(trace.final_theta) == final


@pytest.mark.parametrize("seed", sorted(K4_EXACT_TRACES))
def test_iterate_k4_trace_is_pinned_on_exact_draws(seed):
    graph, mask = masked_k4_instance()
    trace = iterate_until_contained(ET, graph, mask, np.zeros(2), _k4_cfg(seed))
    iterations, final = K4_EXACT_TRACES[seed]
    assert [_hex([*record.theta, record.multiplier]) for record in trace.iterations] == iterations
    assert trace.converged
    assert _hex(trace.final_theta) == final


def test_formerly_stalled_inner_ascents_converge(chain_sampler, monkeypatch):
    # Seed 47's last step shrinks its test rows onto a Boundary row, where
    # the sampled value is level to rounding near the maximizer.  The
    # ascent must still reach the gradient tolerance, in a few Newton steps.
    graph, mask = masked_k4_instance()
    steps = []
    original_step = estimate.rescaled_step

    def recording_step(*args):
        steps.append(args)
        return original_step(*args)

    monkeypatch.setattr(estimate, "rescaled_step", recording_step)
    for seed in K4_FORMERLY_STALLED:
        steps.clear()
        trace = iterate_until_contained(ET, graph, mask, np.zeros(2), _k4_cfg(seed))
        assert trace.converged, seed
        if seed == 47:
            last = steps[-1]

    calls = []
    original_moments = numerics.tilted_moments

    def counting_moments(*args):
        calls.append(None)
        return original_moments(*args)

    monkeypatch.setattr(numerics, "tilted_moments", counting_moments)
    theta, g_y, g_z, scale, cfg = last
    dtheta = original_step(*last) - theta
    monkeypatch.undo()
    gradient = loglik_ratio_grad(dtheta, g_y, g_z, cfg.safety_factor * scale)
    assert np.abs(gradient).max() <= 1e-8
    # Every evaluation runs numerics.tilted_moments once per sample.
    assert len(calls) % 2 == 0
    assert 0 < len(calls) // 2 < 50


def _seed_7_step_inputs():
    """Master seed 7's first step: (target rows, test rows, multiplier, cfg)."""
    _, mask = masked_k4_instance()
    cfg = _k4_cfg(7)
    sy = mcmc_sample(ET, np.zeros(2), 5, cfg.r_target,
                     seed=SeedSequence(cfg.seed, spawn_key=(0, 0)))
    sz = mcmc_sample(ET, np.zeros(2), 5, cfg.s_test, mask=mask,
                     seed=SeedSequence(cfg.seed, spawn_key=(0, 1)))
    target = make_target_set(sy.rows)
    scale = min_scale(target, make_test_set(sz.rows)).min_scale
    return target.points, sz.rows - target.centroid, scale, cfg


def test_step_evaluations_run_on_distinct_rows(monkeypatch):
    # The step reduces each sample to its distinct rows once; every
    # evaluation then weighs those rows by their counts, which sum to the
    # sample sizes r and s.
    g_y, g_z, scale, cfg = _seed_7_step_inputs()
    expected = rescaled_step(np.zeros(2), g_y, g_z, scale, cfg)
    calls = []
    original = numerics.tilted_moments

    def recording(rows, weights, theta):
        calls.append((rows.copy(), weights.copy()))
        return original(rows, weights, theta)

    monkeypatch.setattr(numerics, "tilted_moments", recording)
    theta = rescaled_step(np.zeros(2), g_y, g_z, scale, cfg)
    assert theta.tobytes() == expected.tobytes()

    shrunk = cfg.safety_factor * scale * g_z
    assert len(calls) > 2 and len(calls) % 2 == 0
    for (z_rows, z_counts), (y_rows, y_counts) in zip(calls[::2], calls[1::2]):
        for rows, counts, sample in ((z_rows, z_counts, shrunk), (y_rows, y_counts, g_y)):
            assert len(np.unique(rows, axis=0)) == len(rows) < len(sample)
            assert counts.sum() == len(sample)
            assert np.array_equal(np.unique(rows, axis=0), np.unique(sample, axis=0))
            for row, count in zip(rows, counts):
                assert count == np.all(sample == row, axis=1).sum()


def _raw_log_mean_exp_ratio(dt, g_y, g_z):
    """The ratio's value, gradient and Hessian over every raw row with
    unit weights, written independently of the package."""
    def log_mean_exp(rows):
        x = rows @ dt
        top = x.max()
        w = np.exp(x - top)
        cov = np.cov(rows, rowvar=False, aweights=w, bias=True)
        return top + np.log(w.mean()), np.average(rows, axis=0, weights=w), cov

    lk_z, mean_z, cov_z = log_mean_exp(g_z)
    lk_y, mean_y, cov_y = log_mean_exp(g_y)
    return lk_z - lk_y, mean_z - mean_y, cov_z - cov_y


def test_step_histogram_evaluation_matches_the_public_ratio(monkeypatch):
    # The step's evaluation on sample histograms computes the sampled
    # ratio that log-mean-exp over the raw rows defines.
    g_y, g_z, scale, cfg = _seed_7_step_inputs()
    effective = cfg.safety_factor * scale
    captured = []
    original = estimate._ascend

    def capturing(evaluate, *args, **kwargs):
        captured.append(evaluate)
        return original(evaluate, *args, **kwargs)

    monkeypatch.setattr(estimate, "_ascend", capturing)
    theta = rescaled_step(np.zeros(2), g_y, g_z, scale, cfg)
    (evaluate,) = captured
    # Away from the step's maximizer, where the gradient vanishes, so
    # that every compared entry is far from zero.
    for dt in (0.5 * theta, np.array([0.3, -0.7]), np.array([-2.0, 1.5])):
        got = evaluate(dt)
        want = _raw_log_mean_exp_ratio(dt, g_y, effective * g_z)
        for got_part, want_part in zip(got, want):
            assert got_part == pytest.approx(want_part, rel=1e-12, abs=0.0)


def test_step_reads_stat_matrix_samples_as_their_rows():
    # StatMatrix samples are accepted as the public ratio functions
    # accept them, with the answer of their rows bit for bit.
    g_y, g_z, scale, cfg = _seed_7_step_inputs()
    expected = rescaled_step(np.zeros(2), g_y, g_z, scale, cfg)
    theta = rescaled_step(np.zeros(2), StatMatrix(rows=g_y), StatMatrix(rows=g_z), scale, cfg)
    assert theta.tobytes() == expected.tobytes()


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


# Outer iterations of the masked K4 instance under _k4_cfg; seed 6 draws
# a rank-deficient target.  A record holds theta and the multiplier only:
# the loop computes no variance condition (target covariance above test
# covariance), since nothing read one.
OUTER_ITERATIONS = {0: 2, 1: 1, 2: 2, 3: 3, 4: 5, 5: 3, 7: 1, 8: 4, 9: 2}


def _record_fields(trace):
    return {tuple(f.name for f in dataclasses.fields(r)) for r in trace.iterations}


@pytest.mark.parametrize("seed", range(10))
def test_iterate_variance_condition_per_iteration(chain_sampler, seed):
    graph, mask = masked_k4_instance()
    if seed not in OUTER_ITERATIONS:
        with pytest.raises(ValueError, match="rank-deficient"):
            iterate_until_contained(ET, graph, mask, np.zeros(2), _k4_cfg(seed))
        return
    trace = iterate_until_contained(ET, graph, mask, np.zeros(2), _k4_cfg(seed))
    assert len(trace.iterations) == OUTER_ITERATIONS[seed]
    assert _record_fields(trace) == {("theta", "multiplier")}


def test_iterate_variance_condition_unknown_for_one_test_draw():
    # One test draw gives no test covariance; the loop records the one
    # iteration it runs all the same.
    graph, mask = masked_k4_instance()
    cfg = EstimatorConfig(r_target=75, s_test=1, safety_factor=0.7,
                          max_outer_iterations=3, seed=0)
    trace = iterate_until_contained(ET, graph, mask, np.zeros(2), cfg)
    assert len(trace.iterations) == 1
    assert _record_fields(trace) == {("theta", "multiplier")}


def test_trace_records_are_slotted():
    # No per-instance dict; copies, pickles and field lists still work.
    graph, mask = masked_k4_instance()
    trace = iterate_until_contained(ET, graph, mask, np.zeros(2), _k4_cfg(0))
    for obj in (trace, *trace.iterations):
        assert not hasattr(obj, "__dict__")
    for clone in (copy.deepcopy(trace), pickle.loads(pickle.dumps(trace))):
        assert clone.multipliers == trace.multipliers
        assert clone.final_theta.tobytes() == trace.final_theta.tobytes()
    assert [f.name for f in dataclasses.fields(trace)] == ["iterations", "final_theta",
                                                         "converged"]


def test_trace_iterates_are_read_only_and_held_once():
    # Seed 0 converges: its final theta is its last record's array.
    graph, mask = masked_k4_instance()
    theta0 = np.zeros(2)
    trace = iterate_until_contained(ET, graph, mask, theta0, _k4_cfg(0))
    assert trace.converged
    assert trace.final_theta is trace.iterations[-1].theta
    for theta in (trace.final_theta, *(record.theta for record in trace.iterations)):
        assert not theta.flags.writeable
    theta0[0] = 5.0
    assert trace.iterations[0].theta.tolist() == [0.0, 0.0]


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


@pytest.mark.parametrize("field, value", [
    ("r_target", 75.5),
    ("r_target", True),
    ("s_test", 2.0),
    ("max_outer_iterations", 2.5),
    ("mcmc_interval", 2.5),
    ("mcmc_interval", 0),
    ("mcmc_interval", False),
])
def test_estimator_config_counts_are_positive_integers(field, value):
    # A float, a bool or a count below one would otherwise fail only deep
    # in the sampler, or at its first draw.
    with pytest.raises(ValueError, match=field):
        EstimatorConfig(**{field: value})


@pytest.mark.parametrize("seed", [-1, 2.5, True, "3", None])
def test_estimator_config_seed_is_a_non_negative_integer(seed):
    # Each of these used to be accepted and fail only at the first draw.
    with pytest.raises(ValueError, match="seed must be an integer of at least 0"):
        EstimatorConfig(seed=seed)


def test_estimator_config_accepts_numpy_integer_seeds():
    assert EstimatorConfig(seed=np.uint64(7)).seed == 7
    assert EstimatorConfig(seed=0).seed == 0


def test_estimator_config_accepts_numpy_integer_counts():
    cfg = EstimatorConfig(r_target=np.int64(75), mcmc_interval=np.int32(3))
    assert (cfg.r_target, cfg.mcmc_interval) == (75, 3)
    assert EstimatorConfig(mcmc_interval=None).mcmc_interval is None


def test_stop_threshold_must_be_a_number_above_one():
    with pytest.raises(ValueError, match="stop threshold must exceed 1"):
        EstimatorConfig(stop_threshold=float("nan"))
    # Infinity is valid: the loop never stops early.
    assert EstimatorConfig(stop_threshold=float("inf")).stop_threshold == math.inf
