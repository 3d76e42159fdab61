"""Monte Carlo likelihood stepping on a partially observed five-vertex graph.

The observed data is a complete graph on vertices 1..4 with vertex 0
unattached; the dyads (0,1) and (0,2) were never observed.  The model
tracks edge and triangle counts.  At this size the missing-data
likelihood is available exactly by enumeration, so the Monte Carlo
traces can be checked against the exact maximizer.

Modest sample sizes keep the first containment multiplier below one,
which is what makes the rescaled stepping visible in the trace.  The
price is Monte Carlo noise: single-run estimates scatter around the
exact maximizer, and an occasional run steps somewhere the sampled
target statistics collapse in rank, or where the step's likelihood
ascent fails.  The sweep reports each such seed and counts the outcome
kinds.  Its summary is deterministic: the outcome kinds, a histogram of
outer iterations over the runs that returned a trace, and the median
and 90th-percentile Euclidean distance of the converged estimates to
the exact maximizer; the sweep's time comes last, on a line of its own.
"""

import argparse
import time
from collections import Counter

import numpy as np

from hullmle import (
    EstimatorConfig,
    Graph,
    ObservationMask,
    OptimizationError,
    StatDef,
    exact_mle,
    iterate_until_contained,
    statistics,
)


def build_instance():
    graph = Graph.from_pairs(5, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    observed = np.ones(10, dtype=bool)
    observed[[0, 1]] = False  # dyads (0,1) and (0,2) in canonical order
    mask = ObservationMask(observed_dyads=observed, observed_values=graph.edges & observed)
    return graph, mask


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--r-target", type=int, default=75)
    ap.add_argument("--s-test", type=int, default=25)
    ap.add_argument("--safety-factor", type=float, default=0.7)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--sweep", type=int, default=10, help="number of master seeds")
    args = ap.parse_args()

    graph, mask = build_instance()
    stats = StatDef.from_names(["edges", "triangles"])
    g_obs = statistics(graph, stats)
    print(f"observed statistics (edges, triangles): ({g_obs[0]:.0f}, {g_obs[1]:.0f})")

    exact = exact_mle(stats, graph, mask=mask)
    print(f"exact maximizer by enumeration: ({exact[0]:.8f}, {exact[1]:.8f})")

    def config(seed):
        return EstimatorConfig(
            r_target=args.r_target,
            s_test=args.s_test,
            safety_factor=args.safety_factor,
            max_outer_iterations=10,
            seed=seed,
        )

    trace = iterate_until_contained(stats, graph, mask, np.zeros(2), config(args.seed))
    print(f"\ntrace for seed {args.seed}:")
    print(f"{'iter':>4}  {'theta[edges]':>12}  {'theta[triangles]':>16}  {'multiplier':>10}")
    for i, rec in enumerate(trace.iterations, start=1):
        print(
            f"{i:>4}  {rec.theta[0]:>12.6f}  {rec.theta[1]:>16.6f}  "
            f"{rec.multiplier:>10.4f}"
        )
    print(f"final theta: ({trace.final_theta[0]:.6f}, {trace.final_theta[1]:.6f})")
    print(f"converged: {trace.converged}  ({len(trace.iterations)} outer iterations)")

    print(f"\nsweep over {args.sweep} master seeds:")
    finals = []
    outcomes = Counter()
    iterations = Counter()
    tick = time.perf_counter()
    for seed in range(args.sweep):
        try:
            t = iterate_until_contained(stats, graph, mask, np.zeros(2), config(seed))
        except ValueError as err:
            if "rank-deficient" not in str(err):
                raise
            print(f"  seed {seed}: rank failure ({err})")
            outcomes["rank failure"] += 1
            continue
        except OptimizationError as err:
            print(f"  seed {seed}: optimization failure ({err})")
            outcomes["optimization failure"] += 1
            continue
        mark = "converged" if t.converged else "not converged"
        print(
            f"  seed {seed}: theta=({t.final_theta[0]:+.4f}, {t.final_theta[1]:+.4f})  "
            f"{len(t.iterations)} iters, {mark}"
        )
        outcomes[mark] += 1
        iterations[len(t.iterations)] += 1
        if t.converged:
            finals.append(t.final_theta)
    elapsed = time.perf_counter() - tick

    finals = np.array(finals)
    print(f"\nconverged runs: {len(finals)}/{args.sweep}")
    print("outcomes: " + ", ".join(f"{kind} {n}" for kind, n in sorted(outcomes.items())))
    print("outer iterations: " + ", ".join(f"{k}: {n}" for k, n in sorted(iterations.items())))
    if len(finals) >= 1:
        distances = np.linalg.norm(finals - exact, axis=1)
        print(f"distance to the exact maximizer: median {np.median(distances):.4f}, "
              f"q90 {np.quantile(distances, 0.9):.4f}")
        mean = finals.mean(axis=0)
        print(f"mean final theta:  ({mean[0]:+.4f}, {mean[1]:+.4f})")
    if len(finals) >= 2:
        sd = finals.std(axis=0, ddof=1)
        print(f"cross-run std dev: ({sd[0]:.4f}, {sd[1]:.4f})")
    print(f"exact maximizer:   ({exact[0]:+.4f}, {exact[1]:+.4f})")
    print(f"sweep time: {elapsed:.2f}s")


if __name__ == "__main__":
    main()
