"""The benchmark's workloads: inputs drawn from the seed, one op, and checks.

Each workload is a closed loop of one caller: the next op starts when
the previous one returns.  ``inputs`` builds what every op shares and
``op_arg`` what op ``i`` alone needs, both from the workload seed and
both outside the op's timer.  ``op`` calls the public ``hullmle`` names,
looked up at call time so the tracer's wrappers are seen, and ``check``
turns wrong answers into failed ops.  Checks and their reference
computations never run inside a timed section.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import hullmle

# Outcomes an answer may have besides a return value.  NonexistentMle is
# a valid answer.  The library's two documented ways of saying it did not
# converge, and an op stopped at the harness's time limit, leave the
# question unanswered; they are counted per kind and reported, while a
# wrong answer or any other error makes a failed op.
NONEXISTENT = "nonexistent"
FAILED_RANK = "failed.rank"
FAILED_OPTIMIZATION = "failed.optimization"
TIMED_OUT = "timed-out"
UNANSWERED = (FAILED_RANK, FAILED_OPTIMIZATION, TIMED_OUT)

# Warm-up inputs are the same for every seed, so set-up does the same
# work in every run.
WARM_UP_SEED = 0


@dataclass
class Op:
    """One op's input, and what it returned, the outcome it raised, or the
    unexpected error that makes it a failed op."""

    arg: object
    seconds: float = 0.0
    result: object = None
    outcome: str | None = None
    error: str | None = None

    def answers(self) -> list:
        """Per-answer results: estimator workloads answer several times per op."""
        if self.error:
            return []
        if self.outcome is not None:
            return [self.outcome]
        return self.result if isinstance(self.result, list) else [self.result]


class OpTimedOut(Exception):
    """Raised inside an op that runs past the harness's time limit."""


def classify(exc: Exception) -> str | None:
    """The outcome an error stands for, or None for an error that fails the op.

    OptimizationError is raised by both estimators when their ascent
    stops short; the rank-deficient ValueError by
    ``iterate_until_contained`` when a sampled target set loses rank.
    """
    if isinstance(exc, OpTimedOut):
        return TIMED_OUT
    if isinstance(exc, hullmle.NonexistentMle):
        return NONEXISTENT
    if isinstance(exc, hullmle.OptimizationError):
        return FAILED_OPTIMIZATION
    if isinstance(exc, ValueError) and "rank-deficient" in str(exc):
        return FAILED_RANK
    return None


def answered(ops: list[Op]) -> list[tuple[int, Op]]:
    """(index, op) of every op whose answer a check can judge,
    NonexistentMle included."""
    return [(k, op) for k, op in enumerate(ops)
            if not op.error and op.outcome not in UNANSWERED]


def _master(seed: int, i: int) -> int:
    """Master seed number i, drawn from the workload seed."""
    return int(np.random.SeedSequence(seed, spawn_key=(1, i)).generate_state(1)[0])


def _estimates(stats, graph, mask, runs) -> list:
    """``iterate_until_contained`` once per (theta0, config); a documented
    non-convergence error is kept as its kind, any other propagates."""
    answers = []
    for theta0, cfg in runs:
        try:
            answers.append(hullmle.iterate_until_contained(stats, graph, mask, theta0, cfg))
        except (hullmle.OptimizationError, ValueError) as exc:
            kind = classify(exc)
            if kind is None:
                raise
            answers.append(kind)
    return answers


def _multiplier_check(ops: list[Op]) -> tuple[list[int], list[str]]:
    """Converged traces end with a multiplier of at least 1.11."""
    failed, notes = [], []
    for k, op in answered(ops):
        for trace in op.result:
            if isinstance(trace, str) or not trace.converged:
                continue
            if not trace.multipliers[-1] >= 1.11:
                failed.append(k)
                notes.append(f"op {k}: converged with final multiplier {trace.multipliers[-1]}")
                break
    return failed, notes


class CubeCorner:
    """Corner queries on 100k x 20 uniform cube clouds, one cloud per op.

    An op builds the target set, queries the all-ones corner, prunes to
    the outer quarter by Mahalanobis depth and queries the corner again
    on the kept set.  It is the only workload where one LP has very many
    rows.  make_target_set plus the first query is the span that
    ``hullmle benchmark`` and ``scripts/cube_benchmark.py`` time.
    """

    name = "cube-corner"
    n_points, dim, keep, warm_points = 100_000, 20, 0.25, 2_000
    nominal_op_s = 9.0

    def cloud(self, seed: int, i: int) -> np.ndarray:
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0, i)))
        return rng.random((self.n_points, self.dim))

    def inputs(self, seed: int) -> dict:
        rng = np.random.default_rng(np.random.SeedSequence(WARM_UP_SEED, spawn_key=(3,)))
        return {"seed": seed, "warm": rng.random((self.warm_points, self.dim)),
                "corner": np.ones(self.dim), "cloud": None}

    def sizes(self, inputs: dict) -> dict:
        return {"cloud_shape": [self.n_points, self.dim],
                "cloud_bytes": self.n_points * self.dim * 8,
                "warm_up_shape": list(inputs["warm"].shape)}

    def op_arg(self, seed: int, inputs: dict, i: int):
        # Only the current cloud is kept, so memory does not grow with
        # the number of ops; the check draws each cloud again.
        inputs["cloud"] = self.cloud(seed, i)
        return i

    def _run(self, cloud, corner):
        target = hullmle.make_target_set(cloud)
        full = hullmle.query(target, corner)
        kept = hullmle.mahalanobis_prune(target, self.keep)
        return full, hullmle.query(kept, corner)

    def warm_up(self, inputs: dict) -> None:
        self._run(inputs["warm"], inputs["corner"])

    def op(self, inputs: dict, i: int):
        return self._run(inputs["cloud"], inputs["corner"])

    def check(self, inputs: dict, ops: list[Op]) -> tuple[list[int], list[str]]:
        """Full gamma against scipy HiGHS, Exterior status, pruned <= full."""
        references = {}
        failed, notes = [], []
        for k, op in answered(ops):
            if op.arg not in references:
                target = hullmle.make_target_set(self.cloud(inputs["seed"], op.arg))
                references[op.arg] = _highs_gamma(target, inputs["corner"])
            reference = references[op.arg]
            full, pruned = op.result
            problems = []
            if full.status is not hullmle.HullStatus.EXTERIOR:
                problems.append(f"status {full.status.value}")
            if not abs(full.gamma - reference) <= 1e-6 * reference:
                problems.append(f"gamma {full.gamma!r} vs HiGHS {reference!r}")
            if not pruned.gamma <= full.gamma + 1e-7 * (1.0 + full.gamma):
                problems.append(f"pruned gamma {pruned.gamma!r} exceeds {full.gamma!r}")
            if problems:
                failed.append(k)
                notes.append(f"op {k}: " + "; ".join(problems))
        return failed, notes


def _highs_gamma(target, point) -> float:
    """Scaling factor from an independent HiGHS solve of the membership LP
    min p'z s.t. M z >= -1, built from the public TargetSet.points."""
    from scipy.optimize import linprog

    p = np.asarray(point, dtype=float) - target.centroid
    m, d = target.points.shape
    res = linprog(p, A_ub=-target.points, b_ub=np.ones(m),
                  bounds=[(None, None)] * d, method="highs-ds")
    if res.status != 0:
        raise RuntimeError(f"HiGHS reference failed: {res.message}")
    return -1.0 / res.fun


class EstimateK4:
    """Sweeps of ``iterate_until_contained`` on the masked K4 instance.

    n = 5, the complete graph on vertices 1..4 observed and the dyads
    (0,1), (0,2) unobserved; edges and triangles; theta0 = 0.  One op is
    a sweep over ten master seeds with the settings of acceptance check
    10 and scripts/estimator_demo.py.  A single estimate takes one to
    five outer iterations, so single-estimate times cluster by iteration
    count and their median jumps between clusters; a ten-seed sweep
    does not.  Every estimate solves dozens of tiny LPs (75 rows by 2
    columns), so per-LP fixed cost dominates.
    """

    name = "estimate-k4"
    mle = np.array([-0.29842454, 0.81826213])
    sweep = 10
    nominal_op_s = 0.6

    def __init__(self):
        self.stats = hullmle.StatDef.from_names(["edges", "triangles"])

    def inputs(self, seed: int) -> dict:
        graph = hullmle.Graph.from_pairs(5, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
        observed = np.ones(10, dtype=bool)
        observed[[0, 1]] = False
        return {"graph": graph, "mask": hullmle.ObservationMask.from_graph(graph, observed)}

    def sizes(self, inputs: dict) -> dict:
        return {"n": 5, "free_dyads": inputs["mask"].n_free, "r_target": 75, "s_test": 25,
                "estimates_per_op": self.sweep}

    def op_arg(self, seed: int, inputs: dict, i: int):
        return [_master(seed, self.sweep * i + j) for j in range(self.sweep)]

    def op(self, inputs: dict, masters: list[int]):
        return _estimates(self.stats, inputs["graph"], inputs["mask"], [
            (np.zeros(2), hullmle.EstimatorConfig(r_target=75, s_test=25, safety_factor=0.7,
                                                  max_outer_iterations=10, seed=master))
            for master in masters])

    def warm_up(self, inputs: dict) -> None:
        # Master seed 1 of the warm-up seed converges in three outer
        # iterations, so it passes through sampling, hull test and step.
        self.op(inputs, [_master(WARM_UP_SEED, 1)])

    def check(self, inputs: dict, ops: list[Op]) -> tuple[list[int], list[str]]:
        """Converged traces end at or above 1.11, and the run's pooled
        converged estimates lie within acceptance 10's band around the
        exact MLE: |mean - MLE| <= 3 standard deviations per coordinate.

        The band is pooled over the run, not per sweep: an estimate whose
        first multiplier already reaches 1.11 stops at theta0 = 0, so a
        sweep with two such estimates has no spread at all."""
        failed, notes = _multiplier_check(ops)
        converged = {k: [t.final_theta for t in op.result
                         if not isinstance(t, str) and t.converged]
                     for k, op in answered(ops)}
        finals = np.array([theta for thetas in converged.values() for theta in thetas])
        if len(finals) >= 2:
            band = 3.0 * finals.std(axis=0, ddof=1)
            offset = np.abs(finals.mean(axis=0) - self.mle)
            if not (offset <= band).all():
                failed.extend(k for k, thetas in converged.items() if thetas)
                notes.append(f"pooled estimate off the exact MLE by {offset} (band {band})")
        return failed, notes


class EstimateN30:
    """The estimator at ROADMAP scale: one n = 30 graph per run.

    Edge probability 0.15, each dyad unobserved with probability 0.1.
    Edges, two-stars and triangles give the 500 x 3 target and 100-point
    test sets of the CLI-default EstimatorConfig.  Op i runs master seed
    i from the two starts users get: theta0 = 0 (the CLI default) and
    (logit of the observed density, 0, 0).
    """

    name = "estimate-n30"
    n, edge_p, missing_p = 30, 0.15, 0.1
    nominal_op_s = 8.0

    def __init__(self):
        self.stats = hullmle.StatDef.from_names(["edges", "two-stars", "triangles"])

    def inputs(self, seed: int) -> dict:
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
        m = self.n * (self.n - 1) // 2
        graph = hullmle.Graph(n=self.n, edges=rng.random(m) < self.edge_p)
        observed = rng.random(m) >= self.missing_p
        density = float(graph.edges[observed].mean())
        return {"graph": graph, "mask": hullmle.ObservationMask.from_graph(graph, observed),
                "starts": [np.zeros(3),
                           np.array([math.log(density / (1.0 - density)), 0.0, 0.0])]}

    def sizes(self, inputs: dict) -> dict:
        return {"n": self.n, "free_dyads": inputs["mask"].n_free,
                "edges": int(inputs["graph"].edges.sum()), "r_target": 500, "s_test": 100,
                "estimates_per_op": 2}

    def op_arg(self, seed: int, inputs: dict, i: int):
        return _master(seed, i)

    def op(self, inputs: dict, master: int):
        cfg = hullmle.EstimatorConfig(seed=master)
        return _estimates(self.stats, inputs["graph"], inputs["mask"],
                          [(theta0, cfg) for theta0 in inputs["starts"]])

    def warm_up(self, inputs: dict) -> None:
        # A short chain and a small hull batch load the code paths
        # without paying for a 2-second estimator iteration.
        sample = hullmle.mcmc_sample(self.stats, inputs["starts"][1], self.n, 50,
                                     seed=WARM_UP_SEED)
        target = hullmle.make_target_set(sample.rows)
        if target.rank == self.stats.dim:
            hullmle.min_scale(target, hullmle.make_test_set(sample.rows[:5]))

    def check(self, inputs: dict, ops: list[Op]) -> tuple[list[int], list[str]]:
        return _multiplier_check(ops)


class ExactMle:
    """``exact_mle`` on n = 6 graphs with edges and triangles.

    Op i draws its own graph (edge probability 0.5) from the seed; even
    ops are fully observed, odd ops leave 5 dyads unobserved.
    NonexistentMle is a valid answer.  Nearly all the time is exact
    enumeration over the 2^15 graphs.
    """

    name = "exact-mle"
    n, missing = 6, 5
    nominal_op_s = 0.15

    def __init__(self):
        self.stats = hullmle.StatDef.from_names(["edges", "triangles"])

    def inputs(self, seed: int) -> dict:
        return {"warm": self.op_arg(WARM_UP_SEED, None, 1)}

    def sizes(self, inputs: dict) -> dict:
        return {"n": self.n, "dyads": 15, "unobserved_on_odd_ops": self.missing,
                "graphs_per_unconstrained_enumeration": 2**15}

    def op_arg(self, seed: int, inputs: dict, i: int):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(2, i)))
        m = self.n * (self.n - 1) // 2
        graph = hullmle.Graph(n=self.n, edges=rng.random(m) < 0.5)
        if i % 2 == 0:
            return graph, None
        observed = np.ones(m, dtype=bool)
        observed[rng.choice(m, self.missing, replace=False)] = False
        return graph, hullmle.ObservationMask.from_graph(graph, observed)

    def op(self, inputs: dict, arg):
        graph, mask = arg
        return hullmle.exact_mle(self.stats, graph, mask)

    def warm_up(self, inputs: dict) -> None:
        try:
            self.op(inputs, inputs["warm"])
        except (hullmle.NonexistentMle, hullmle.OptimizationError):
            pass

    def check(self, inputs: dict, ops: list[Op]) -> tuple[list[int], list[str]]:
        """Moment-equation residual at the returned theta, from an
        enumeration of the benchmark's own; a fully observed
        NonexistentMle must have its statistic off the attainable hull's
        interior.  Under missing data, NonexistentMle is detected by
        divergence and has no cheap certificate, so it is not checked."""
        dyads, table = _edge_triangle_table(self.n)
        interior = None
        failed, notes = [], []
        for k, op in answered(ops):
            graph, mask = op.arg
            g_obs = table[int(graph.edges @ (1 << np.arange(graph.edges.size)))]
            if op.outcome == NONEXISTENT:
                if mask is None:
                    if interior is None:
                        from scipy.spatial import ConvexHull

                        eq = ConvexHull(np.unique(table, axis=0)).equations
                        interior = lambda x: (eq[:, :-1] @ x + eq[:, -1]).max() < -1e-9
                    if interior(g_obs):
                        failed.append(k)
                        notes.append(f"op {k}: NonexistentMle at interior statistic {g_obs}")
                continue
            x = table @ op.result
            weights = np.exp(x - x.max())
            mean_full = weights @ table / weights.sum()
            if mask is None:
                residual = mean_full - g_obs
            else:
                seen = mask.observed_dyads
                agree = (dyads[:, seen] == mask.observed_values[seen]).all(axis=1)
                residual = weights[agree] @ table[agree] / weights[agree].sum() - mean_full
            if not np.abs(residual).max() <= 1e-6:
                failed.append(k)
                notes.append(f"op {k}: moment residual {residual} at theta {op.result}")
        return failed, notes


def _edge_triangle_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Every graph on n vertices as dyad bits, row index = bit code, and
    its (edges, triangles)."""
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    index = {pair: k for k, pair in enumerate(pairs)}
    dyads = ((np.arange(1 << len(pairs))[:, None] >> np.arange(len(pairs))) & 1).astype(bool)
    triples = np.array([[index[a, b], index[a, c], index[b, c]]
                        for a in range(n) for b in range(a + 1, n) for c in range(b + 1, n)])
    triangles = dyads[:, triples].all(axis=2).sum(axis=1)
    return dyads, np.column_stack([dyads.sum(axis=1), triangles]).astype(float)


WORKLOADS = {w.name: w for w in (CubeCorner, EstimateK4, EstimateN30, ExactMle)}
