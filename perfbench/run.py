"""Layered benchmark of hullmle: closed-loop workloads, end-to-end metrics
from an untraced run and per-layer metrics from a traced run.

    python3 perfbench/run.py --workload estimate-k4 --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports hullmle from ``src/`` and
exits with code 2, printing no result, when those sources are missing.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines
before it print every metric with its unit, the tail percentile and
sample count, and how the ops ended.  A record of the run (environment,
input sizes, op times, check notes) and, for a traced run, its spans
are written to ``perfbench/out/``.  See perfbench/README.md.
"""

import argparse
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hullmle" / "__init__.py").is_file():
        print(f"run.py: no hullmle sources under {SRC}; run it from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import hullmle

    if Path(hullmle.__file__).resolve().parent != SRC / "hullmle":
        print(f"run.py: imported hullmle from {hullmle.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import harness

    if args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(harness.WORKLOADS)}")
    return harness.run(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
