"""Command line front end for hull queries, scaling curves and estimation.

Every command writes one structured document to standard output and
diagnostics to standard error.  Documents are JSON-shaped with two
extensions: floats carry 17 significant digits so they re-parse to the
exact in-memory value, and infinities render as the bare token ``inf``.
``parse_document`` reads the format back.

Exit codes: hull queries map their verdict to 0 (Interior), 1
(Exterior), 2 (Boundary), 3 (Degenerate); other commands exit 0 on
success.  64 is a usage error, 65 a data or parse error, 70 an
internal failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np
from numpy.random import SeedSequence

from . import __version__
from .batch import make_test_set, min_scale, prune_curve
from .estimate import EstimatorConfig, OptimizationError, iterate_until_contained
from .expfam import (
    Graph,
    ObservationMask,
    StatDef,
    demonstrate_unbounded,
    dyad_pairs,
    mcmc_sample,
)
from .hull import HullStatus, make_target_set, query, separating_direction
from .lp import SolverConfig

EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_INTERNAL = 70

_STATUS_EXIT = {
    HullStatus.INTERIOR: 0,
    HullStatus.EXTERIOR: 1,
    HullStatus.BOUNDARY: 2,
    HullStatus.DEGENERATE: 3,
}

_DEFAULT_FRACTIONS = "1.0,0.9,0.8,0.7,0.6,0.5,0.4,0.3,0.2,0.1"


class CliError(Exception):
    """Failure with a designated exit code and a message for stderr."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# document rendering

def _render(value, pieces: list) -> None:
    if isinstance(value, dict):
        pieces.append("{")
        for k, (key, val) in enumerate(value.items()):
            if k:
                pieces.append(", ")
            pieces.append(json.dumps(str(key)))
            pieces.append(": ")
            _render(val, pieces)
        pieces.append("}")
    elif isinstance(value, (list, tuple)):
        pieces.append("[")
        for k, val in enumerate(value):
            if k:
                pieces.append(", ")
            _render(val, pieces)
        pieces.append("]")
    elif isinstance(value, bool) or value is None:
        pieces.append(json.dumps(value))
    elif isinstance(value, (int, np.integer)):
        pieces.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        x = float(value)
        if math.isinf(x):
            pieces.append("-inf" if x < 0 else "inf")
        else:
            pieces.append(format(x, ".17g"))
    elif isinstance(value, str):
        pieces.append(json.dumps(value))
    elif isinstance(value, np.ndarray):
        _render(value.tolist(), pieces)
    else:
        raise TypeError(f"cannot render {type(value).__name__}")


def render_document(doc: dict) -> str:
    pieces: list = []
    _render(doc, pieces)
    return "".join(pieces)


def parse_document(text: str):
    """Parse a rendered document, accepting the bare ``inf`` token."""
    out = []
    i = 0
    n = len(text)
    in_string = False
    while i < n:
        c = text[i]
        if in_string:
            out.append(c)
            if c == "\\" and i + 1 < n:
                out.append(text[i + 1])
                i += 2
                continue
            if c == '"':
                in_string = False
            i += 1
            continue
        if c == '"':
            in_string = True
            out.append(c)
            i += 1
            continue
        if text.startswith("inf", i):
            out.append("Infinity")
            i += 3
            continue
        out.append(c)
        i += 1
    return json.loads("".join(out))


# ---------------------------------------------------------------------------
# input files

def _data_lines(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.readlines()
    except OSError as exc:
        raise CliError(EXIT_DATA, f"{path}: {exc.strerror or exc}")
    for number, line in enumerate(raw, 1):
        stripped = line.strip()
        if stripped:
            yield number, stripped


def read_csv_matrix(path: str) -> np.ndarray:
    """Headerless CSV, one point per row."""
    rows = []
    width = None
    for number, line in _data_lines(path):
        fields = [f.strip() for f in line.split(",")]
        try:
            row = [float(f) for f in fields]
        except ValueError:
            raise CliError(EXIT_DATA, f"{path}: line {number}: not a decimal row: {line!r}")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise CliError(
                EXIT_DATA,
                f"{path}: line {number}: expected {width} fields, found {len(row)}",
            )
        rows.append(row)
    if not rows:
        raise CliError(EXIT_DATA, f"{path}: no data rows")
    return np.array(rows, dtype=float)


def read_point(path: str) -> np.ndarray:
    matrix = read_csv_matrix(path)
    if matrix.shape[0] != 1:
        raise CliError(EXIT_DATA, f"{path}: expected a single row, found {matrix.shape[0]}")
    return matrix[0]


def read_graph(path: str) -> Graph:
    """Edge list: first line the vertex count, then 1-based 'i j' pairs."""
    lines = list(_data_lines(path))
    if not lines:
        raise CliError(EXIT_DATA, f"{path}: empty graph file")
    number, header = lines[0]
    try:
        n = int(header)
    except ValueError:
        raise CliError(EXIT_DATA, f"{path}: line {number}: vertex count expected, found {header!r}")
    if n < 1:
        raise CliError(EXIT_DATA, f"{path}: line {number}: vertex count must be positive")
    pairs = []
    seen = set()
    for number, line in lines[1:]:
        fields = line.split()
        if len(fields) != 2:
            raise CliError(EXIT_DATA, f"{path}: line {number}: expected 'i j', found {line!r}")
        try:
            i, j = int(fields[0]), int(fields[1])
        except ValueError:
            raise CliError(EXIT_DATA, f"{path}: line {number}: vertex ids must be integers")
        if i == j or not (1 <= i <= n) or not (1 <= j <= n):
            raise CliError(EXIT_DATA, f"{path}: line {number}: bad edge ({i}, {j}) for n={n}")
        key = (min(i, j) - 1, max(i, j) - 1)
        if key in seen:
            raise CliError(EXIT_DATA, f"{path}: line {number}: duplicate edge ({i}, {j})")
        seen.add(key)
        pairs.append(key)
    return Graph.from_pairs(n, pairs)


def read_mask(path: str, graph: Graph) -> ObservationMask:
    """Dyad list of observed pairs: 1-based 'i j v' with v in {0, 1}."""
    pairs = dyad_pairs(graph.n)
    index = {(int(a), int(b)): k for k, (a, b) in enumerate(pairs)}
    observed = np.zeros(len(pairs), dtype=bool)
    values = np.zeros(len(pairs), dtype=bool)
    for number, line in _data_lines(path):
        fields = line.split()
        if len(fields) != 3:
            raise CliError(EXIT_DATA, f"{path}: line {number}: expected 'i j v', found {line!r}")
        try:
            i, j, v = int(fields[0]), int(fields[1]), int(fields[2])
        except ValueError:
            raise CliError(EXIT_DATA, f"{path}: line {number}: fields must be integers")
        if v not in (0, 1):
            raise CliError(EXIT_DATA, f"{path}: line {number}: value must be 0 or 1")
        key = (min(i, j) - 1, max(i, j) - 1)
        if key not in index:
            raise CliError(EXIT_DATA, f"{path}: line {number}: bad dyad ({i}, {j}) for n={graph.n}")
        k = index[key]
        if observed[k]:
            raise CliError(EXIT_DATA, f"{path}: line {number}: duplicate dyad ({i}, {j})")
        observed[k] = True
        values[k] = bool(v)
        if bool(graph.edges[k]) != bool(v):
            raise CliError(
                EXIT_DATA,
                f"{path}: line {number}: value {v} disagrees with the graph file on dyad ({i}, {j})",
            )
    return ObservationMask(observed_dyads=observed, observed_values=values)


# ---------------------------------------------------------------------------
# shared plumbing

def _usage_checked(build, **kwargs):
    """build(**kwargs), with a ValueError from the library's own flag
    checks reported as a usage error."""
    try:
        return build(**kwargs)
    except ValueError as exc:
        raise CliError(EXIT_USAGE, str(exc))


def _solver_config(args) -> SolverConfig:
    return _usage_checked(
        SolverConfig,
        feas_tol=args.feas_tol,
        pivot_tol=args.pivot_tol,
        boundary_tol=args.boundary_tol,
    )


def _keep_fraction(f: float) -> float:
    if not 0.0 < f <= 1.0:
        raise CliError(EXIT_USAGE, f"keep fraction must be in (0, 1], got {f}")
    return f


def _target_from_file(path: str, centroid_mode: str):
    points = read_csv_matrix(path)
    if centroid_mode == "origin":
        return make_target_set(points, centroid=np.zeros(points.shape[1]))
    return make_target_set(points)


def _target_and_tests(args):
    """Target set and test set of min-scale and prune-curve."""
    target = _target_from_file(args.target, args.centroid)
    tests = make_test_set(read_csv_matrix(args.tests))
    if tests.dim != target.dim:
        raise CliError(
            EXIT_DATA,
            f"test points have {tests.dim} coordinates, target points have {target.dim}",
        )
    return target, tests


def _floats(text: str, what: str) -> list[float]:
    """Comma list of floats; empty tokens are skipped."""
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise CliError(EXIT_USAGE, f"bad {what}: {text!r}")


def _manifest(command: str, args, seed, started: float) -> dict:
    skip = {"func", "command"}
    parameters = {
        key: vars(args)[key] for key in sorted(vars(args)) if key not in skip
    }
    return {
        "command": command,
        "parameters": parameters,
        "seed": seed,
        "duration": time.perf_counter() - started,
        "version": __version__,
    }


def _emit(doc: dict) -> None:
    sys.stdout.write(render_document(doc) + "\n")


def _verdict_result(verdict) -> dict:
    result = {
        "status": verdict.status.value,
        "gamma": verdict.gamma,
        "boundaryPoint": None if verdict.boundary_point is None else verdict.boundary_point,
        "hyperplane": None,
    }
    if verdict.hyperplane is not None:
        offset, normal = verdict.hyperplane
        result["hyperplane"] = {"offset": offset, "normal": normal}
    return result


# ---------------------------------------------------------------------------
# commands

def cmd_hull_test(args) -> int:
    started = time.perf_counter()
    config = _solver_config(args)
    target = _target_from_file(args.target, args.centroid)
    point = read_point(args.point)
    if point.size != target.dim:
        raise CliError(
            EXIT_DATA,
            f"point has {point.size} coordinates, target points have {target.dim}",
        )
    verdict = query(target, point, config=config)
    doc = {
        "manifest": _manifest("hull-test", args, None, started),
        "result": _verdict_result(verdict),
    }
    _emit(doc)
    return _STATUS_EXIT[verdict.status]


def cmd_min_scale(args) -> int:
    started = time.perf_counter()
    config = _solver_config(args)
    target, tests = _target_and_tests(args)
    report = min_scale(target, tests, config=config)
    doc = {
        "manifest": _manifest("min-scale", args, None, started),
        "result": {
            "minScale": report.min_scale,
            "argmin": report.argmin,
            "perPointScales": list(report.per_point_scales),
            "anyDegenerate": report.any_degenerate,
            "targetPointsUsed": target.n_points,
        },
    }
    _emit(doc)
    return _STATUS_EXIT[report.argmin_verdict.status]


def cmd_prune_curve(args) -> int:
    started = time.perf_counter()
    config = _solver_config(args)
    fractions = [_keep_fraction(f) for f in _floats(args.fractions, "fraction list")]
    if not fractions:
        raise CliError(EXIT_USAGE, "no fractions given")
    target, tests = _target_and_tests(args)
    curve = prune_curve(target, tests, fractions, config=config)
    doc = {
        "manifest": _manifest("prune-curve", args, None, started),
        "result": {
            "curve": [{"fraction": f, "minScale": s} for f, s in curve],
        },
    }
    _emit(doc)
    return 0


def _stat_def(spec: str) -> StatDef:
    names = [tok.strip() for tok in spec.split(",") if tok.strip()]
    try:
        return StatDef.from_names(names)
    except ValueError as exc:
        raise CliError(EXIT_USAGE, f"bad --stats: {exc}")


def _model_inputs(args, theta_text: str | None, theta_flag: str):
    """Statistics, graph, mask and parameter of estimate and demo-unbounded;
    the parameter defaults to zero."""
    stats = _stat_def(args.stats)
    graph = read_graph(args.graph)
    mask = read_mask(args.mask, graph) if args.mask else ObservationMask.all_observed(graph)
    if theta_text is None:
        return stats, graph, mask, np.zeros(stats.dim)
    theta = np.array(_floats(theta_text, theta_flag))
    if theta.size != stats.dim:
        raise CliError(EXIT_USAGE, f"{theta_flag} needs {stats.dim} components")
    return stats, graph, mask, theta


def cmd_estimate(args) -> int:
    started = time.perf_counter()
    cfg = _usage_checked(
        EstimatorConfig,
        r_target=args.r_target,
        s_test=args.s_test,
        safety_factor=args.safety_factor,
        stop_threshold=args.stop_threshold,
        max_outer_iterations=args.max_iterations,
        mcmc_interval=args.interval,
        seed=args.seed,
        solver=_solver_config(args),
    )
    stats, graph, mask, theta0 = _model_inputs(args, args.theta0, "--theta0")
    try:
        trace = iterate_until_contained(stats, graph, mask, theta0, cfg)
    except ValueError as exc:
        raise CliError(EXIT_DATA, str(exc))
    except OptimizationError as exc:
        raise CliError(EXIT_INTERNAL, f"step optimization failed: {exc}")
    doc = {
        "manifest": _manifest("estimate", args, args.seed, started),
        "result": {
            "trace": [
                {
                    "iteration": k + 1,
                    "theta": record.theta,
                    "multiplier": record.multiplier,
                }
                for k, record in enumerate(trace.iterations)
            ],
            "finalTheta": trace.final_theta,
            "converged": trace.converged,
        },
    }
    _emit(doc)
    return 0


def cmd_demo_unbounded(args) -> int:
    started = time.perf_counter()
    config = _solver_config(args)
    stats, graph, mask, theta = _model_inputs(args, args.theta, "--theta")
    alphas = _floats(args.alphas, "--alphas")

    sample_y = mcmc_sample(
        stats, theta, graph.n, args.r_target,
        interval=args.interval, seed=SeedSequence(args.seed, spawn_key=(0,)),
    )
    sample_z = mcmc_sample(
        stats, theta, graph.n, args.s_test,
        interval=args.interval, mask=mask, seed=SeedSequence(args.seed, spawn_key=(1,)),
    )
    try:
        target = make_target_set(sample_y.rows)
    except ValueError as exc:
        raise CliError(EXIT_DATA, f"target sample unusable: {exc}")
    report = min_scale(target, make_test_set(sample_z.rows), config=config)
    if report.min_scale >= 1.0:
        raise CliError(
            EXIT_DATA,
            f"constrained sample is contained (min scale {report.min_scale:.6g}); "
            "nothing unbounded to demonstrate",
        )
    verdict = report.argmin_verdict
    if verdict.status is not HullStatus.EXTERIOR:
        raise CliError(
            EXIT_DATA,
            f"worst test point is {verdict.status.value}, not strictly exterior",
        )
    direction = separating_direction(verdict)
    values = demonstrate_unbounded(
        target.points, sample_z.rows - target.centroid, direction, alphas
    )
    doc = {
        "manifest": _manifest("demo-unbounded", args, args.seed, started),
        "result": {
            "minScale": report.min_scale,
            "direction": direction,
            "alphas": alphas,
            "logRatioEstimates": values,
            "strictlyIncreasing": bool(
                all(b > a for a, b in zip(values, values[1:]))
            ),
        },
    }
    _emit(doc)
    return 0


# ---------------------------------------------------------------------------
# parser

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _add_solver_flags(parser) -> None:
    group = parser.add_argument_group("solver tolerances")
    group.add_argument("--feas-tol", type=float, default=1e-7,
                       help="feasibility tolerance (default 1e-7)")
    group.add_argument("--pivot-tol", type=float, default=1e-9,
                       help="pivot threshold (default 1e-9)")
    group.add_argument("--boundary-tol", type=float, default=1e-7,
                       help="relative boundary classification tolerance (default 1e-7)")


def _add_centroid_flag(parser) -> None:
    parser.add_argument(
        "--centroid", choices=("origin", "mean"), default="origin",
        help="treat input rows as already centered (origin, default) or "
             "center them at their mean",
    )


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer of at least 1, got {text!r}")
    return value


def _add_sampler_flags(parser) -> None:
    parser.add_argument("--stats", default="edges,triangles",
                        help="comma list of graph statistics (default edges,triangles)")
    parser.add_argument("--r-target", type=_positive_int, default=500,
                        help="unconstrained sample size (default 500)")
    parser.add_argument("--s-test", type=_positive_int, default=100,
                        help="constrained sample size (default 100)")
    parser.add_argument("--interval", type=_positive_int, default=None,
                        help="steps between recorded graphs (default 10 per free dyad)")
    parser.add_argument("--seed", type=int, default=0, help="master seed (default 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hullmle", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("hull-test", help="classify one point against a sampled hull")
    p.add_argument("target", help="CSV of target points, one per row")
    p.add_argument("point", help="CSV with the single point to classify")
    _add_centroid_flag(p)
    _add_solver_flags(p)
    p.set_defaults(func=cmd_hull_test)

    p = sub.add_parser("min-scale", help="least boundary scaling over a test set")
    p.add_argument("target", help="CSV of target points")
    p.add_argument("tests", help="CSV of test points")
    _add_centroid_flag(p)
    _add_solver_flags(p)
    p.set_defaults(func=cmd_min_scale)

    p = sub.add_parser("prune-curve", help="min scale as the target is pruned")
    p.add_argument("target", help="CSV of target points")
    p.add_argument("tests", help="CSV of test points")
    p.add_argument("--fractions", default=_DEFAULT_FRACTIONS,
                   help=f"comma list of keep fractions (default {_DEFAULT_FRACTIONS})")
    _add_centroid_flag(p)
    _add_solver_flags(p)
    p.set_defaults(func=cmd_prune_curve)

    p = sub.add_parser("estimate", help="containment-driven parameter stepping")
    p.add_argument("graph", help="edge list: vertex count line, then 1-based 'i j' lines")
    p.add_argument("mask", nargs="?", default=None,
                   help="observed dyads as 1-based 'i j v' lines (default: all observed)")
    p.add_argument("--theta0", default=None, help="comma list starting parameter (default 0)")
    p.add_argument("--safety-factor", type=float, default=0.9,
                   help="shrink applied to the containment multiplier (default 0.9)")
    p.add_argument("--stop-threshold", type=float, default=1.11,
                   help="multiplier that ends iteration (default 1.11)")
    p.add_argument("--max-iterations", type=_positive_int, default=20,
                   help="outer iteration cap (default 20)")
    _add_sampler_flags(p)
    _add_solver_flags(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("demo-unbounded",
                       help="show the likelihood-ratio estimate diverging along a separating ray")
    p.add_argument("graph", help="edge list file")
    p.add_argument("mask", nargs="?", default=None,
                   help="observed dyads file (default: all observed)")
    p.add_argument("--theta", default=None, help="sampling parameter (default 0)")
    p.add_argument("--alphas", default="1,2,4,8,16",
                   help="comma list of ray multiples (default 1,2,4,8,16)")
    _add_sampler_flags(p)
    _add_solver_flags(p)
    p.set_defaults(func=cmd_demo_unbounded)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except CliError as exc:
        sys.stderr.write(f"hullmle {args.command}: {exc}\n")
        return exc.code
    except ValueError as exc:
        sys.stderr.write(f"hullmle {args.command}: {exc}\n")
        return EXIT_DATA
    except MemoryError:
        sys.stderr.write(f"hullmle {args.command}: out of memory\n")
        return EXIT_INTERNAL
    except Exception as exc:  # pragma: no cover - defensive
        sys.stderr.write(f"hullmle {args.command}: internal error: {exc!r}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
