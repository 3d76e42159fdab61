"""Speed versus accuracy of Mahalanobis pruning on a large cube cloud.

Keeps successively smaller outer fractions of the target set, then
re-solves the minimum scaling factor of random binary corners against
each kept hull.  Pruned targets keep the full-cloud centroid, so the
reported scales stay comparable across fractions.
"""

import argparse
import time

import numpy as np

from hullmle import mahalanobis_prune, make_target_set, make_test_set, min_scale


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n-points", type=int, default=100_000)
    ap.add_argument("--dim", type=int, default=20)
    ap.add_argument("--n-tests", type=int, default=5)
    ap.add_argument(
        "--fractions", type=float, nargs="+", default=[0.25, 0.5, 0.75, 1.0]
    )
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args()

    rng = np.random.default_rng(np.random.SeedSequence(args.seed, spawn_key=(0,)))
    points = rng.random((args.n_points, args.dim))
    corners = rng.integers(0, 2, size=(args.n_tests, args.dim)).astype(float)
    target = make_target_set(points)
    tests = make_test_set(corners)

    print(
        f"prune trade-off: {args.n_points} points in {args.dim}d, "
        f"{args.n_tests} corner tests"
    )
    rows = []
    for fraction in sorted(args.fractions):
        kept = mahalanobis_prune(target, fraction)
        tick = time.perf_counter()
        report = min_scale(kept, tests)
        elapsed = time.perf_counter() - tick
        rows.append((fraction, kept.n_points, report.min_scale, elapsed))
        print(
            f"  keep {fraction:4.2f}  ({kept.n_points:6d} points)  "
            f"minScale={report.min_scale:.6f}  {elapsed:.3f}s"
        )

    full = rows[-1][2]
    print(f"\n{'fraction':>8}  {'kept':>7}  {'minScale':>10}  {'rel change':>10}  {'seconds':>8}")
    for fraction, kept_n, scale, elapsed in rows:
        rel = abs(scale - full) / abs(full)
        print(f"{fraction:>8.2f}  {kept_n:>7d}  {scale:>10.6f}  {rel:>10.2e}  {elapsed:>8.3f}")


if __name__ == "__main__":
    main()
