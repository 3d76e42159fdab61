"""SHA-256 digests of the estimators' answers, to compare two source trees.

Three answer sets are hashed, each with its outcome counts:

* iterate_until_contained on the masked K4 instance (the complete graph
  on vertices 1..4 plus an isolated vertex 0 whose dyads to 1 and 2 are
  unobserved; edges and triangles; r_target 75, s_test 25, safety
  factor 0.7, at most 10 outer iterations, theta0 = 0) for master seeds
  0 .. k4-seeds - 1.  Each trace contributes every iterate, multiplier
  and variance flag and the final theta; a rank-deficient target or an
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

Every float is hashed as float.hex, so equal digests mean answers equal
bit for bit.  The answers depend on the BLAS kernel numpy runs, so
compare digests of two trees on one machine, never against a stored
value.

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
    exact_mle,
    iterate_until_contained,
    make_target_set,
    query,
)

EDGES_TRIANGLES = StatDef.from_names(["edges", "triangles"])


def _hex(values) -> str:
    return ",".join(float(v).hex() for v in np.ravel(values))


def _failure(exc: Exception) -> str:
    text = f"{type(exc).__name__}: {exc}"
    if isinstance(exc, OptimizationError):
        text += f" at {_hex(exc.last_iterate)} gradient {_hex(exc.gradient_norm)}"
    return text


def k4_answers(seeds: int):
    """(line, outcome) per master seed of the masked K4 estimator."""
    graph = Graph.from_pairs(5, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    observed = np.ones(10, dtype=bool)
    observed[[0, 1]] = False
    mask = ObservationMask.from_graph(graph, observed)
    for seed in range(seeds):
        cfg = EstimatorConfig(r_target=75, s_test=25, safety_factor=0.7,
                              max_outer_iterations=10, seed=seed)
        try:
            trace = iterate_until_contained(EDGES_TRIANGLES, graph, mask, np.zeros(2), cfg)
        except ValueError as exc:
            if "rank-deficient" not in str(exc):
                raise
            yield f"{seed} {_failure(exc)}", "rank"
            continue
        except OptimizationError as exc:
            yield f"{seed} {_failure(exc)}", "optimization"
            continue
        records = " ".join(
            f"{_hex(r.theta)}/{_hex(r.multiplier)}/{r.variance_condition_ok}"
            for r in trace.iterations)
        outcome = "converged" if trace.converged else "not-converged"
        yield f"{seed} {outcome} {records} -> {_hex(trace.final_theta)}", outcome


def exact_answers(seed: int, ops: int):
    """(line, outcome) per op of exact_mle on the exact-mle workload's graphs."""
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
            yield f"{i} {_failure(exc)}", "nonexistent"
            continue
        except OptimizationError as exc:
            yield f"{i} {_failure(exc)}", "optimization"
            continue
        yield f"{i} answered {_hex(theta)}", "answered"


# (rows, columns, test points) per hull target kind; the cube cloud,
# kind 3, is queried at its corner only.
HULL_TARGETS = ((500, 3, 16), (250, 3, 16), (1000, 10, 16), (2500, 20, 0))


def hull_answers(seed: int, draws: int):
    """(line, outcome) per hull.query on the HULL_TARGETS kinds."""
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
                       status)


def digest(answers) -> tuple[str, Counter]:
    sha, counts = hashlib.sha256(), Counter()
    for line, outcome in answers:
        sha.update(line.encode() + b"\n")
        counts[outcome] += 1
    return sha.hexdigest(), counts


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
    ):
        sha, counts = digest(answers)
        tally = "  ".join(f"{kind} {count}" for kind, count in sorted(counts.items()))
        print(f"{label}: sha256 {sha}  {tally}", flush=True)


if __name__ == "__main__":
    main()
