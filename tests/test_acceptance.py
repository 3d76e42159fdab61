"""End-to-end acceptance checks, one per headline behavior.

Each test exercises a complete user-visible claim at its stated
tolerance and wall-clock budget and writes a single PASS/FAIL line to
the terminal (bypassing capture) so a full run reads as a checklist.
Budgets are asserted, not aspirational: a slow solve fails the test.
"""

import math
import sys
import time

import numpy as np
import pytest
from numpy.random import SeedSequence, default_rng

from hullmle.batch import make_test_set, min_scale, prune_curve
from hullmle.estimate import (
    EstimatorConfig,
    demonstrate_unbounded,
    exact_mle,
    iterate_until_contained,
    loglik_ratio_grad,
    loglik_ratio_hat,
)
from hullmle.expfam import Graph, ObservationMask, StatDef, mcmc_sample, statistics
from hullmle.hull import (
    HullStatus,
    SolverConfig,
    make_target_set,
    query,
    query_dual,
    query_original_lp,
    separating_direction,
)

from conftest import MASKED_K4_MLE, masked_k4_instance, random_target
from oracles import oracle_2d, oracle_membership_small, transform_invariance_check

EDGES = StatDef.from_names(["edges"])
ET = StatDef.from_names(["edges", "triangles"])


@pytest.fixture
def announce(capsys):
    # capsys.disabled() suspends fd-level capture too, so the checklist
    # line reaches the terminal on a plain pytest run.
    def _announce(number: int, ok: bool, detail: str) -> None:
        flag = "PASS" if ok else "FAIL"
        with capsys.disabled():
            sys.stderr.write(f"[{flag}] acceptance {number:02d}: {detail}\n")
            sys.stderr.flush()

    return _announce


def test_criterion_01_closed_form_triangle_family(announce):
    # Triangle {(-1,0), (a,1), (b,-1)} queried along the first axis has
    # gamma (a+b)/2 and minimizer (-2/(a+b), (a-b)/(a+b)).
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(20):
        a, b = rng.uniform(1e-3, 3.0, size=2)
        target = make_target_set(
            np.array([[-1.0, 0.0], [a, 1.0], [b, -1.0]]), centroid=np.zeros(2)
        )
        v = query(target, np.array([1.0, 0.0]))
        gamma = (a + b) / 2.0
        z_star = np.array([-2.0 / (a + b), (a - b) / (a + b)])
        worst = max(
            worst,
            abs(v.gamma - gamma) / gamma,
            float(np.max(np.abs(v.minimizer - z_star) / (1.0 + np.abs(z_star)))),
        )
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-9 and elapsed < 1.0
    announce(1, ok, f"20 closed-form triangles, worst rel err {worst:.2e} ({elapsed:.2f}s)")
    assert worst <= 1e-9
    assert elapsed < 1.0


def test_criterion_02_boxed_probe_needs_two_applications(announce):
    started = time.perf_counter()
    target = make_target_set(
        np.array([[-1.0, 0.0], [2.0, 1.0], [1.0, -1.0]]), centroid=np.zeros(2)
    )
    p = np.array([3.0, 2.0])
    gamma = query(target, p).gamma

    res = query_original_lp(target, p)
    t1 = -res.z0 / float(p @ res.z)
    res2 = query_original_lp(target, t1 * p)
    t2 = -res2.z0 / float((t1 * p) @ res2.z)
    elapsed = time.perf_counter() - started

    suboptimal = t1 > gamma + 1e-6
    reaches = abs(t1 * t2 - gamma) <= 1e-7 * gamma
    single = abs(gamma - 1.0 / 3.0) <= 1e-9
    ok = suboptimal and reaches and single and elapsed < 1.0
    announce(
        2, ok,
        f"boxed probe stops at t1={t1:.3f} > gamma={gamma:.4f}; "
        f"second application lands within 1e-7; free form is one solve ({elapsed:.2f}s)",
    )
    assert suboptimal and reaches and single
    assert elapsed < 1.0


def test_criterion_03_cube_corner_band(announce):
    started = time.perf_counter()
    gammas = []
    worst_solve = 0.0
    for seed in range(10):
        rng = default_rng(SeedSequence(seed, spawn_key=(0,)))
        points = rng.random((100_000, 20))
        tick = time.perf_counter()
        target = make_target_set(points)
        v = query(target, np.ones(20))
        worst_solve = max(worst_solve, time.perf_counter() - tick)
        gammas.append(v.gamma)
    mean = float(np.mean(gammas))
    elapsed = time.perf_counter() - started
    all_below = all(g < 1.0 for g in gammas)
    in_band = 0.43 <= mean <= 0.53
    ok = all_below and in_band and worst_solve < 60.0
    announce(
        3, ok,
        f"10 corner queries at n=100000 d=20: all gamma<1, mean {mean:.4f} in "
        f"[0.43, 0.53], worst solve {worst_solve:.1f}s ({elapsed:.1f}s total)",
    )
    assert all_below and in_band
    assert worst_solve < 60.0


def test_criterion_04_primal_dual_agreement(announce):
    started = time.perf_counter()
    rng = np.random.default_rng(104)
    checked = 0
    worst_gap = 0.0
    weak_ok = True
    while checked < 200:
        d = int(rng.integers(2, 5))
        r = int(rng.integers(d + 2, 13))
        target = random_target(rng, r, d, centered=False)
        p = target.centroid + rng.standard_normal(d) * rng.uniform(0.3, 2.0)
        v = query(target, p)
        if v.status is HullStatus.DEGENERATE or not math.isfinite(v.gamma):
            continue
        rep = query_dual(target, p)
        if rep.max_objective is None:
            continue
        primal_value = -1.0 / v.gamma
        gap = abs(rep.max_objective - primal_value) / (1.0 + abs(primal_value))
        worst_gap = max(worst_gap, gap)

        # weak duality: any feasible direction scores at least the dual bound
        m_matrix = target.points
        centered = p - target.centroid
        for _ in range(2):
            u = rng.standard_normal(d)
            denom = max(1.0, float(np.max(-(m_matrix @ u))))
            z_feasible = u / denom
            if float(centered @ z_feasible) < rep.max_objective - 1e-9:
                weak_ok = False
        checked += 1
    elapsed = time.perf_counter() - started
    ok = worst_gap <= 1e-7 and weak_ok and elapsed < 30.0
    announce(
        4, ok,
        f"200 instances: primal/dual worst relative gap {worst_gap:.2e}, "
        f"weak duality held at sampled feasible points ({elapsed:.1f}s)",
    )
    assert worst_gap <= 1e-7
    assert weak_ok
    assert elapsed < 30.0


def test_criterion_05_oracle_equivalence(announce):
    started = time.perf_counter()
    rng = np.random.default_rng(105)
    config = SolverConfig()
    disagreements = 0
    checked = 0
    while checked < 500:
        d = int(rng.integers(1, 4))
        r = int(rng.integers(d + 1, 13))
        # mean centering keeps the reference inside the hull, the premise
        # of reading the scaling factor as a membership decision
        target = random_target(rng, r, d, centered=False)
        p = target.centroid + rng.standard_normal(d) * rng.uniform(0.2, 2.0)
        v = query(target, p, config=config)
        if v.status is HullStatus.DEGENERATE:
            continue
        ours = v.gamma >= 1.0 - config.boundary_tol
        if ours != oracle_membership_small(target, p):
            disagreements += 1
        checked += 1

    worst_2d = 0.0
    checked_2d = 0
    while checked_2d < 300:
        pts = rng.standard_normal((int(rng.integers(4, 25)), 2))
        target = make_target_set(pts)
        p = target.centroid + rng.standard_normal(2)
        v = query(target, p)
        if v.status is HullStatus.DEGENERATE or math.isinf(v.gamma):
            continue
        o = oracle_2d(target, p)
        worst_2d = max(worst_2d, abs(v.gamma - o.gamma) / (1.0 + abs(v.gamma)))
        checked_2d += 1
    elapsed = time.perf_counter() - started
    ok = disagreements == 0 and worst_2d <= 1e-7 and elapsed < 60.0
    announce(
        5, ok,
        f"500 membership decisions, {disagreements} disagreements; 300 planar "
        f"gammas, worst rel err {worst_2d:.2e} ({elapsed:.1f}s)",
    )
    assert disagreements == 0
    assert worst_2d <= 1e-7
    assert elapsed < 60.0


def test_criterion_06_transform_invariance(announce):
    started = time.perf_counter()
    rng = np.random.default_rng(106)
    failures = 0
    for _ in range(100):
        d = int(rng.integers(2, 5))
        target = random_target(rng, int(rng.integers(d + 2, 20)), d)
        p = rng.standard_normal(d)
        transform = rng.standard_normal((d, d))
        while np.linalg.cond(transform) > 1e4:
            transform = rng.standard_normal((d, d))
        if not transform_invariance_check(target, p, transform):
            failures += 1
    elapsed = time.perf_counter() - started
    ok = failures == 0 and elapsed < 10.0
    announce(
        6, ok,
        f"100 random full-rank transforms: {failures} status/gamma mismatches "
        f"({elapsed:.1f}s)",
    )
    assert failures == 0
    assert elapsed < 10.0


def test_criterion_07_pruning_keeps_the_answer(announce):
    started = time.perf_counter()
    rng = default_rng(SeedSequence(42, spawn_key=(0,)))
    points = rng.random((100_000, 20))
    corners = rng.integers(0, 2, size=(5, 20)).astype(float)
    target = make_target_set(points)
    tests = make_test_set(corners)
    curve = dict(prune_curve(target, tests, [0.25, 0.5, 0.75, 1.0]))
    full = curve[1.0]
    half = curve[0.5]
    rel = abs(half - full) / full
    fractions = sorted(curve)
    monotone = all(
        curve[a] <= curve[b] + 1e-9 for a, b in zip(fractions, fractions[1:])
    )
    elapsed = time.perf_counter() - started
    ok = rel <= 0.05 and monotone and elapsed < 600.0
    announce(
        7, ok,
        f"keep-50% min scale {half:.4f} vs full {full:.4f} ({100*rel:.2f}% off), "
        f"curve monotone in kept fraction ({elapsed:.1f}s)",
    )
    assert rel <= 0.05
    assert monotone
    assert elapsed < 600.0


def test_criterion_08_ratio_estimate_diverges_when_uncontained(announce):
    started = time.perf_counter()
    graph, mask = masked_k4_instance()
    theta = np.zeros(2)
    sample_y = mcmc_sample(ET, theta, graph.n, 75, seed=SeedSequence(0, spawn_key=(0,)))
    sample_z = mcmc_sample(ET, theta, graph.n, 25, mask=mask,
                           seed=SeedSequence(0, spawn_key=(1,)))
    target = make_target_set(sample_y.rows)
    report = min_scale(target, make_test_set(sample_z.rows))
    verdict = query(target, sample_z.rows[report.argmin])
    direction = separating_direction(verdict)
    alphas = [1.0, 2.0, 4.0, 8.0, 16.0]
    values = demonstrate_unbounded(
        target.points, sample_z.rows - target.centroid, direction, alphas
    )
    elapsed = time.perf_counter() - started
    increasing = all(b > a for a, b in zip(values, values[1:]))
    ok = report.min_scale < 1.0 and increasing and elapsed < 5.0
    announce(
        8, ok,
        f"min scale {report.min_scale:.3f} < 1; ratio estimate rises "
        f"{values[0]:.2f} -> {values[-1]:.2f} along the separating ray ({elapsed:.2f}s)",
    )
    assert report.min_scale < 1.0
    assert increasing
    assert elapsed < 5.0


def test_criterion_09_ratio_gradient_matches_finite_differences(announce):
    started = time.perf_counter()
    rng = np.random.default_rng(109)
    g_y = rng.standard_normal((40, 3))
    g_z = rng.standard_normal((25, 3)) + np.array([0.4, -0.2, 0.1])
    h = 1e-6
    worst = 0.0
    for k in range(20):
        dtheta = rng.standard_normal(3) * 0.5
        scale = 1.0 if k % 2 == 0 else 0.8
        grad = loglik_ratio_grad(dtheta, g_y, g_z, scale)
        for i in range(3):
            shift = np.zeros(3)
            shift[i] = h
            fd = (
                loglik_ratio_hat(dtheta + shift, g_y, g_z, scale)
                - loglik_ratio_hat(dtheta - shift, g_y, g_z, scale)
            ) / (2.0 * h)
            worst = max(worst, abs(grad[i] - fd) / (1.0 + abs(grad[i])))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-5 and elapsed < 5.0
    announce(
        9, ok,
        f"gradient vs central differences at 20 points, worst rel err "
        f"{worst:.2e} ({elapsed:.2f}s)",
    )
    assert worst <= 1e-5
    assert elapsed < 5.0


def test_criterion_10_masked_estimation_recovers_the_mle(announce):
    started = time.perf_counter()
    graph, mask = masked_k4_instance()
    mle = exact_mle(ET, graph, mask=mask)
    assert mle == pytest.approx(MASKED_K4_MLE, abs=1e-6)

    initials, finals, traces = [], [], []
    converged = 0
    for seed in range(10):
        cfg = EstimatorConfig(
            r_target=75, s_test=25, safety_factor=0.7,
            max_outer_iterations=10, seed=seed,
        )
        try:
            trace = iterate_until_contained(ET, graph, mask, np.zeros(2), cfg)
        except ValueError:
            # a noisy small-sample iteration can land where the sampled
            # target statistics collapse in rank; counts as non-converged
            continue
        if trace.converged:
            converged += 1
            initials.append(trace.multipliers[0])
            finals.append(trace.final_theta)
            traces.append(trace)

    finals = np.array(finals)
    spread = finals.std(axis=0, ddof=1)
    per_run = bool((np.abs(finals - mle) <= 3.0 * spread).all())
    pooled = bool((np.abs(finals.mean(axis=0) - mle) <= 3.0 * spread).all())
    pattern_start = any(m < 1.0 for m in initials)
    pattern_end = all(t.multipliers[-1] >= 1.11 for t in traces)
    grows = all(
        t.multipliers[-1] > t.multipliers[0]
        for t in traces if len(t.multipliers) > 1
    )
    elapsed = time.perf_counter() - started
    ok = (
        converged >= 8 and pattern_start and pattern_end and grows
        and per_run and pooled and elapsed < 300.0
    )
    announce(
        10, ok,
        f"{converged}/10 runs converged within 10 iterations; containment "
        f"multiplier starts below 1 and ends above 1.11; all finals within "
        f"3 combined SEs of the exact MLE ({elapsed:.1f}s)",
    )
    assert converged >= 8
    assert pattern_start and pattern_end and grows
    assert per_run and pooled
    assert elapsed < 300.0


def test_criterion_11_exact_normalizer_and_mle_closed_forms(announce):
    started = time.perf_counter()
    from hullmle.expfam import exact_log_kappa, exact_moments

    count_ok = abs(exact_log_kappa(ET, np.zeros(2), 3) - math.log(8.0)) <= 1e-12

    worst_kappa = 0.0
    for n in (3, 4, 5):
        m = n * (n - 1) // 2
        for t in (-1.5, -0.3, 0.0, 0.7, 2.0):
            value = exact_log_kappa(EDGES, np.array([t]), n)
            expected = m * math.log1p(math.exp(t))
            worst_kappa = max(worst_kappa, abs(value - expected) / (1.0 + abs(expected)))

    graph = Graph.from_pairs(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
    theta = exact_mle(EDGES, graph, gradient_tol=1e-12)
    mle_err = abs(theta[0] - math.log(2.0))

    et_graph = Graph.from_pairs(4, [(0, 1), (1, 2), (2, 3), (0, 2)])
    theta_et = exact_mle(ET, et_graph)
    _, mean, _ = exact_moments(ET, theta_et, 4)
    moment_gap = float(np.max(np.abs(mean - statistics(et_graph, ET))))

    elapsed = time.perf_counter() - started
    ok = (
        count_ok and worst_kappa <= 1e-10 and mle_err <= 1e-10
        and moment_gap <= 1e-6 and elapsed < 30.0
    )
    announce(
        11, ok,
        f"normalizer count log 8 exact; Bernoulli normalizer/MLE closed forms "
        f"within {max(worst_kappa, mle_err):.2e}; moment gap {moment_gap:.2e} "
        f"({elapsed:.1f}s)",
    )
    assert count_ok
    assert worst_kappa <= 1e-10
    assert mle_err <= 1e-10
    assert moment_gap <= 1e-6
    assert elapsed < 30.0
