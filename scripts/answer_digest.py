"""SHA-256 digests of the estimators' answers, to compare two source trees.

Six answer sets are hashed, each with its outcome counts:

* iterate_until_contained on the masked K4 instance (the complete graph
  on vertices 1..4 plus an isolated vertex 0 whose dyads to 1 and 2 are
  unobserved; edges and triangles; r_target 75, s_test 25, safety
  factor 0.7, at most 10 outer iterations, theta0 = 0) for master seeds
  0 .. k4-seeds - 1.  Each trace contributes every iterate and
  multiplier and the final theta; a rank-deficient target or an
  OptimizationError contributes its message, with the last iterate and
  gradient norm of the latter.
* exact_mle with edges and triangles on the n = 6 graphs of the
  exact-mle benchmark workload: op i draws its graph from
  SeedSequence(seed, spawn_key=(2, i)) with edge probability 0.5, and
  odd ops leave 5 dyads unobserved.  An answer contributes theta; a
  NonexistentMle or OptimizationError its message (and the latter's
  last iterate and gradient norm).
* hull.query on three kinds of target, one per route an LP can take,
  each drawn hull-draws times from SeedSequence(hull-seed, spawn_key=
  (kind, draw)).  A 500 x 3 standard normal target is solved by row
  generation in rounds small enough for the float kernel; 250 x 3 and
  1000 x 10 standard normal targets are solved in one LP over every
  row, on the general simplex.  Each is queried at 16 standard normal
  points scaled by factors from 0.5 to 4, so verdicts fall on both
  sides of the boundary.  A 2500 x 20 uniform cube cloud is queried at
  the all-ones corner, by row generation on the general simplex.  A
  verdict contributes its status, gamma and minimizer.
* batch.min_scale in the shape of the min-scale command: MIN_SCALE_DRAWS
  500 x 3 standard normal targets, each against 100 test points drawn
  from SeedSequence(MIN_SCALE_SEED, spawn_key=(draw,)): 99 standard
  normal points halved, which fall inside, and, last, the target's
  farthest row from the centroid moved 0.05% further out, whose factor
  1 / 1.0005 reads Exterior at the default band and Boundary at 1e-3.  Each target is measured at the
  default SolverConfig and at boundary_tol 1e-3.  A report contributes
  min_scale, argmin, the argmin verdict's status and minimizer, and
  every per-point scale.
* The sampled likelihood ratio on RATIO_DRAWS draws of two inputs: K4
  samples at theta = 0 (75 unconstrained and 25 masked rows, many
  repeated, the samples seeded by SeedSequence(RATIO_SEED, spawn_key=
  (0, draw, 0 or 1))), and 200 x 3 against 50 x 3 standard normal rows
  (no repeats), both samples centered by the target mean.  The normal
  rows, dtheta and scales come from SeedSequence(RATIO_SEED, spawn_key=
  (kind, draw)).  A draw contributes loglik_ratio_hat, _grad and _hess
  at RATIO_STEPS standard normal dtheta (halved) and scales from 0.5 to
  1, the target rows passed as a StatMatrix, and demonstrate_unbounded
  along the first column, with the test rows shifted one unit past every
  target row.
* The statistic histograms (edges, 2-stars, triangles) of four spaces:
  every graph on 6 vertices, the masked K4 instance, and a random graph
  on 30 vertices with 10 free dyads and one on 100 with 5.  Each of the
  last two has edge probability 0.3 and its free dyads among 8 of its
  vertices, drawn from SeedSequence(SPACES_SEED, spawn_key=(n, k)).  A
  space contributes its distinct rows and their graph counts.  Two
  mcmc_sample runs on the 30-vertex space (SPACES_DRAWS rows, at two
  thetas; 10 free dyads are drawn exactly) contribute their rows.

Every float is hashed as float.hex, so equal digests mean answers equal
bit for bit.  The answers depend on the BLAS kernel numpy runs, so
compare digests of two trees on one machine, never against a stored
value.

A second line per section hashes only each answer's outcome kind (for
K4 also the outer-iteration count of a trace), so a change that moves
the last bits of answers can show that it left every outcome alone.

    PYTHONPATH=src python scripts/answer_digest.py --k4-seeds 1000 --exact-ops 600 \
        --hull-draws 20
"""

import argparse
import hashlib
from collections import Counter

import numpy as np

from hullmle import (
    EstimatorConfig,
    Graph,
    NonexistentMle,
    ObservationMask,
    OptimizationError,
    StatDef,
    StatMatrix,
    demonstrate_unbounded,
    dyad_pairs,
    exact_mle,
    SolverConfig,
    iterate_until_contained,
    loglik_ratio_grad,
    loglik_ratio_hat,
    loglik_ratio_hess,
    make_target_set,
    make_test_set,
    mcmc_sample,
    min_scale,
    query,
    statistic_histogram,
)

EDGES_TRIANGLES = StatDef.from_names(["edges", "triangles"])


def _hex(values) -> str:
    return ",".join(float(v).hex() for v in np.ravel(values))


def _failure(exc: Exception) -> str:
    text = f"{type(exc).__name__}: {exc}"
    if isinstance(exc, OptimizationError):
        text += f" at {_hex(exc.last_iterate)} gradient {_hex(exc.gradient_norm)}"
    return text


def masked_k4():
    """The masked K4 instance: its graph and observation mask."""
    graph = Graph.from_pairs(5, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    observed = np.ones(10, dtype=bool)
    observed[[0, 1]] = False
    return graph, ObservationMask.from_graph(graph, observed)


def k4_answers(seeds: int):
    """(line, outcome, kind line) per master seed of the masked K4 estimator."""
    graph, mask = masked_k4()
    for seed in range(seeds):
        cfg = EstimatorConfig(r_target=75, s_test=25, safety_factor=0.7,
                              max_outer_iterations=10, seed=seed)
        try:
            trace = iterate_until_contained(EDGES_TRIANGLES, graph, mask, np.zeros(2), cfg)
        except ValueError as exc:
            if "rank-deficient" not in str(exc):
                raise
            yield f"{seed} {_failure(exc)}", "rank", f"{seed} rank"
            continue
        except OptimizationError as exc:
            yield f"{seed} {_failure(exc)}", "optimization", f"{seed} optimization"
            continue
        records = " ".join(f"{_hex(r.theta)}/{_hex(r.multiplier)}" for r in trace.iterations)
        outcome = "converged" if trace.converged else "not-converged"
        yield (f"{seed} {outcome} {records} -> {_hex(trace.final_theta)}", outcome,
               f"{seed} {outcome} {len(trace.iterations)}")


def exact_answers(seed: int, ops: int):
    """(line, outcome, kind line) per op of exact_mle on the exact-mle
    workload's graphs."""
    n, m = 6, 15
    for i in range(ops):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(2, i)))
        graph = Graph(n=n, edges=rng.random(m) < 0.5)
        mask = None
        if i % 2:
            observed = np.ones(m, dtype=bool)
            observed[rng.choice(m, 5, replace=False)] = False
            mask = ObservationMask.from_graph(graph, observed)
        try:
            theta = exact_mle(EDGES_TRIANGLES, graph, mask)
        except NonexistentMle as exc:
            yield f"{i} {_failure(exc)}", "nonexistent", f"{i} nonexistent"
            continue
        except OptimizationError as exc:
            yield f"{i} {_failure(exc)}", "optimization", f"{i} optimization"
            continue
        yield f"{i} answered {_hex(theta)}", "answered", f"{i} answered"


# (rows, columns, test points) per hull target kind; the cube cloud,
# kind 3, is queried at its corner only.
HULL_TARGETS = ((500, 3, 16), (250, 3, 16), (1000, 10, 16), (2500, 20, 0))


def hull_answers(seed: int, draws: int):
    """(line, outcome, kind line) per hull.query on the HULL_TARGETS kinds."""
    for kind, (rows, cols, points) in enumerate(HULL_TARGETS):
        for draw in range(draws):
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(kind, draw)))
            if points:
                target = make_target_set(rng.standard_normal((rows, cols)))
                scales = np.geomspace(0.5, 4.0, points)[:, None]
                tests = rng.standard_normal((points, cols)) * scales
            else:
                target = make_target_set(rng.random((rows, cols)))
                tests = np.ones((1, cols))
            for j, point in enumerate(tests):
                verdict = query(target, point)
                minimizer = "none" if verdict.minimizer is None else _hex(verdict.minimizer)
                status = verdict.status.value
                yield (f"{kind} {draw} {j} {status} {_hex(verdict.gamma)} {minimizer}",
                       status, f"{kind} {draw} {j} {status}")


MIN_SCALE_SEED = 0
MIN_SCALE_DRAWS = 4
MIN_SCALE_BANDS = (("default", SolverConfig()), ("1e-3", SolverConfig(boundary_tol=1e-3)))


def min_scale_answers():
    """(line, outcome, kind line) per min_scale report, per target and band."""
    for draw in range(MIN_SCALE_DRAWS):
        rng = np.random.default_rng(np.random.SeedSequence(MIN_SCALE_SEED, spawn_key=(draw,)))
        target = make_target_set(rng.standard_normal((500, 3)))
        farthest = target.points[np.argmax(np.sum(target.points ** 2, axis=1))]
        points = np.vstack([0.5 * rng.standard_normal((99, 3)),
                            target.centroid + 1.0005 * farthest])
        for band, config in MIN_SCALE_BANDS:
            report = min_scale(target, make_test_set(points), config)
            verdict = report.argmin_verdict
            status = verdict.status.value
            minimizer = "none" if verdict.minimizer is None else _hex(verdict.minimizer)
            yield (f"{draw} {band} {_hex(report.min_scale)} {report.argmin} {status} "
                   f"{minimizer} / {_hex(report.per_point_scales)}", status,
                   f"{draw} {band} {report.argmin} {status}")


RATIO_SEED = 0
RATIO_DRAWS = 10
RATIO_STEPS = 5
RATIO_ALPHAS = (0.25, 0.5, 1.0, 2.0, 4.0)


def _ratio_inputs(kind: int, draw: int):
    """(target rows, test rows, rng for dtheta and scales) of one draw."""
    rng = np.random.default_rng(np.random.SeedSequence(RATIO_SEED, spawn_key=(kind, draw)))
    if kind == 0:
        graph, mask = masked_k4()
        theta = np.zeros(EDGES_TRIANGLES.dim)
        seed_y, seed_z = (np.random.SeedSequence(RATIO_SEED, spawn_key=(kind, draw, side))
                          for side in (0, 1))
        ys = mcmc_sample(EDGES_TRIANGLES, theta, graph.n, 75, seed=seed_y).rows
        zs = mcmc_sample(EDGES_TRIANGLES, theta, graph.n, 25, mask=mask, seed=seed_z).rows
    else:
        ys = rng.standard_normal((200, 3))
        zs = rng.standard_normal((50, 3))
    centroid = ys.mean(axis=0)
    return ys - centroid, zs - centroid, rng


def ratio_answers():
    """(line, outcome, kind line) per draw of the sampled likelihood ratio."""
    for kind, name in enumerate(("k4", "normal")):
        for draw in range(RATIO_DRAWS):
            ys, zs, rng = _ratio_inputs(kind, draw)
            parts = []
            for _ in range(RATIO_STEPS):
                dtheta = 0.5 * rng.standard_normal(ys.shape[1])
                scale = float(rng.uniform(0.5, 1.0))
                parts.extend(_hex(ratio(dtheta, StatMatrix(rows=ys), zs, scale))
                             for ratio in (loglik_ratio_hat, loglik_ratio_grad,
                                           loglik_ratio_hess))
            shifted = zs.copy()
            shifted[:, 0] += ys[:, 0].max() - zs[:, 0].min() + 1.0
            direction = np.eye(ys.shape[1])[0]
            values = demonstrate_unbounded(ys, shifted, direction, RATIO_ALPHAS)
            increasing = all(b > a for a, b in zip(values, values[1:]))
            outcome = "increasing" if increasing else "not-increasing"
            yield (f"{name} {draw} {' '.join(parts)} / {_hex(values)}", outcome,
                   f"{name} {draw} {outcome}")


SPACES_SEED = 0
SPACES_DRAWS = 200
SPACES_STATS = StatDef.from_names(["edges", "two-stars", "triangles"])
SPACES_THETAS = ((-0.8, 0.05, 0.4), (0.3, -0.2, 0.6))


def _random_space(n: int, k: int):
    """A random graph on n vertices with k free dyads among 8 of its vertices."""
    rng = np.random.default_rng(np.random.SeedSequence(SPACES_SEED, spawn_key=(n, k)))
    m = n * (n - 1) // 2
    graph = Graph(n=n, edges=rng.random(m) < 0.3)
    members = np.zeros(n, dtype=bool)
    members[rng.choice(n, 8, replace=False)] = True
    pairs = dyad_pairs(n)
    inside = np.flatnonzero(members[pairs[:, 0]] & members[pairs[:, 1]])
    observed = np.ones(m, dtype=bool)
    observed[rng.choice(inside, k, replace=False)] = False
    return ObservationMask.from_graph(graph, observed)


def space_answers():
    """(line, outcome, kind line) per space histogram and per sample."""
    spaces = [("n6-free", 6, None), ("k4-masked", 5, masked_k4()[1]),
              ("n30-free10", 30, _random_space(30, 10)),
              ("n100-free5", 100, _random_space(100, 5))]
    for name, n, mask in spaces:
        rows, counts = statistic_histogram(SPACES_STATS, n, mask)
        yield (f"{name} {_hex(rows)} / {_hex(counts)}", "histogram",
               f"{name} histogram {rows.shape[0]}")
    _, n, mask = spaces[2]
    for j, theta in enumerate(SPACES_THETAS):
        seed = np.random.SeedSequence(SPACES_SEED, spawn_key=(n, mask.n_free, j))
        sample = mcmc_sample(SPACES_STATS, np.array(theta), n, SPACES_DRAWS, mask=mask, seed=seed)
        yield f"sample {j} {_hex(sample.rows)}", "sample", f"sample {j}"


def digest(answers) -> tuple[str, str, Counter]:
    """SHA-256 of the answer lines and of the kind lines, and the outcome counts."""
    sha, kinds, counts = hashlib.sha256(), hashlib.sha256(), Counter()
    for line, outcome, kind_line in answers:
        sha.update(line.encode() + b"\n")
        kinds.update(kind_line.encode() + b"\n")
        counts[outcome] += 1
    return sha.hexdigest(), kinds.hexdigest(), counts


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--k4-seeds", type=int, default=1000,
                    help="hash master seeds 0 .. K4_SEEDS - 1 (default 1000)")
    ap.add_argument("--exact-ops", type=int, default=600,
                    help="hash exact-mle ops 0 .. EXACT_OPS - 1 (default 600)")
    ap.add_argument("--exact-seed", type=int, default=101,
                    help="exact-mle workload seed (default 101)")
    ap.add_argument("--hull-draws", type=int, default=20,
                    help="hash HULL_DRAWS targets of each hull kind (default 20)")
    ap.add_argument("--hull-seed", type=int, default=0,
                    help="hull target seed (default 0)")
    args = ap.parse_args()

    for label, answers in (
        (f"k4 seeds 0-{args.k4_seeds - 1}", k4_answers(args.k4_seeds)),
        (f"exact-mle seed {args.exact_seed} ops 0-{args.exact_ops - 1}",
         exact_answers(args.exact_seed, args.exact_ops)),
        (f"hull seed {args.hull_seed} draws 0-{args.hull_draws - 1}",
         hull_answers(args.hull_seed, args.hull_draws)),
        (f"min_scale seed {MIN_SCALE_SEED} draws 0-{MIN_SCALE_DRAWS - 1}",
         min_scale_answers()),
        (f"ratio seed {RATIO_SEED} draws 0-{RATIO_DRAWS - 1}", ratio_answers()),
        (f"spaces seed {SPACES_SEED}", space_answers()),
    ):
        sha, kinds, counts = digest(answers)
        tally = "  ".join(f"{kind} {count}" for kind, count in sorted(counts.items()))
        print(f"{label}: sha256 {sha}  {tally}", flush=True)
        coarse = "kinds and iteration counts" if label.startswith("k4") else "kinds"
        print(f"{label}: {coarse} sha256 {kinds}", flush=True)


if __name__ == "__main__":
    main()
