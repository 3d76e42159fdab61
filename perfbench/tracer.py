"""Spans around calls into hullmle's layers, installed from outside.

The tracer replaces each wrapped name, in the module where callers look
it up, with a wrapper that records a span: name, start, end, parent
span and op id.  Spans stay in memory and are written out when the run
ends; a layer's self time is its span time minus its child spans.
Counts come only from arguments and return values, never from private
names; MCMC steps and enumeration sizes are computed from arguments.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from collections import defaultdict
from time import perf_counter


def _lp_counts(args, result, exc):
    problem = args["problem"]
    counts = {"rows": problem.n_rows, "cols": problem.n_cols}
    if exc is None:
        counts["pivots"] = result.iterations
    return counts


def _verdict(args, result, exc):
    return {"verdict": result.status.value} if exc is None else {}


def _min_scale_counts(args, result, exc):
    return {"points": args["tests"].n_points}


def _mcmc_counts(args, result, exc):
    """Toggle steps computed from the arguments: 10 burn-in intervals plus
    one interval per recorded draw, interval defaulting to 10 per free dyad."""
    n, mask = args["n"], args["mask"]
    free = n * (n - 1) // 2 if mask is None else mask.n_free
    interval = args["interval"] if args["interval"] is not None else 10 * free
    steps = (10 + args["count"]) * interval if free else 0
    return {"steps_computed": steps, "unconstrained": mask is None}


def _enum_counts(args, result, exc):
    n, mask = args["n"], args["mask"]
    free = n * (n - 1) // 2 if mask is None else mask.n_free
    return {"graphs_computed": 1 << free}


def _iterate_counts(args, result, exc):
    if exc is None:
        return {"converged": result.converged, "iterations": len(result.iterations)}
    return {"raised": type(exc).__name__, "message": str(exc)}


# Every traced run prints all of these, whatever the workload; a layer a
# workload never calls reads 0 there.  name: (unit, better)
PER_LAYER = {
    "lp.solve.calls": ("count", "lower"),
    "lp.solve.s": ("s", "lower"),
    "lp.solve.s_per_call": ("s", "lower"),
    "lp.pivots": ("count", "lower"),
    "lp.pivots_per_solve": ("count", "lower"),
    "lp.s_per_pivot": ("s", "lower"),
    "lp.rows_per_solve": ("count", "lower"),
    "lp.matrix_bytes_per_solve": ("B", "lower"),
    "lp.errors": ("count", "lower"),
    "hull.query.calls": ("count", "lower"),
    "hull.query.s": ("s", "lower"),
    "hull.query.self_s": ("s", "lower"),
    "hull.make_target_set.s": ("s", "lower"),
    "hull.verdicts.interior": ("count", "higher"),
    "hull.verdicts.exterior": ("count", "higher"),
    "hull.verdicts.boundary": ("count", "lower"),
    "hull.verdicts.degenerate": ("count", "lower"),
    "numerics.center.s": ("s", "lower"),
    "numerics.rank.s": ("s", "lower"),
    "numerics.covariance.calls": ("count", "lower"),
    "numerics.covariance.s": ("s", "lower"),
    "batch.mahalanobis_prune.s": ("s", "lower"),
    "batch.mahalanobis_prune.self_s": ("s", "lower"),
    "batch.min_scale.calls": ("count", "lower"),
    "batch.min_scale.points": ("count", "lower"),
    "batch.min_scale.s": ("s", "lower"),
    "batch.min_scale.self_s": ("s", "lower"),
    "batch.min_scale.rerun_calls": ("count", "higher"),
    "batch.min_scale.serial_s": ("s", "lower"),
    "batch.min_scale.threaded_s": ("s", "lower"),
    "batch.min_scale.threaded_ratio": ("ratio", "lower"),
    "batch.min_scale.threads": ("count", "higher"),
    "expfam.mcmc_sample.calls": ("count", "lower"),
    "expfam.mcmc_sample.s": ("s", "lower"),
    "expfam.mcmc.steps": ("count", "lower"),
    "expfam.mcmc.steps_per_s": ("1/s", "higher"),
    "expfam.exact_moments.calls": ("count", "lower"),
    "expfam.exact_moments.s": ("s", "lower"),
    "expfam.enum.graphs": ("count", "lower"),
    "expfam.enum.graphs_per_s": ("1/s", "higher"),
    "expfam.loglik_ratio.calls": ("count", "lower"),
    "expfam.loglik_ratio.s": ("s", "lower"),
    "estimate.exact_mle.s": ("s", "lower"),
    "estimate.exact_mle.self_s": ("s", "lower"),
    "estimate.exact_mle.nonexistent": ("count", "lower"),
    "estimate.exact_mle.failed.optimization": ("count", "lower"),
    "estimate.rescaled_step.calls": ("count", "lower"),
    "estimate.step_s": ("s", "lower"),
    "estimate.iterate.s": ("s", "lower"),
    "estimate.iterate.self_s": ("s", "lower"),
    "estimate.outer_iters": ("count", "lower"),
    "estimate.sample_s": ("s", "lower"),
    "estimate.hull_s": ("s", "lower"),
    "estimate.converged": ("count", "higher"),
    "estimate.failed.max_iterations": ("count", "lower"),
    "estimate.failed.rank": ("count", "lower"),
    "estimate.failed.optimization": ("count", "lower"),
    "trace.ops": ("count", "higher"),
    "trace.overhead_frac": ("ratio", "lower"),
}


# (module, attribute, span name, counter).  Each name is wrapped where
# its callers look it up, so one layer may be reached under several.
TARGETS = (
    ("hullmle.hull", "solve", "lp.solve", _lp_counts),
    ("hullmle", "query", "hull.query", _verdict),
    ("hullmle.batch", "query", "hull.query", _verdict),
    ("hullmle.estimate", "query", "hull.query", _verdict),
    ("hullmle", "make_target_set", "hull.make_target_set", None),
    ("hullmle.estimate", "make_target_set", "hull.make_target_set", None),
    ("hullmle.numerics", "center", "numerics.center", None),
    ("hullmle.numerics", "rank", "numerics.rank", None),
    ("hullmle.numerics", "covariance", "numerics.covariance", None),
    ("hullmle", "mahalanobis_prune", "batch.mahalanobis_prune", None),
    ("hullmle.estimate", "min_scale", "batch.min_scale", _min_scale_counts),
    ("hullmle.estimate", "mcmc_sample", "expfam.mcmc_sample", _mcmc_counts),
    ("hullmle.estimate", "exact_moments", "expfam.exact_moments", _enum_counts),
    ("hullmle.estimate", "loglik_ratio_hat", "expfam.loglik_ratio", None),
    ("hullmle.estimate", "loglik_ratio_grad", "expfam.loglik_ratio", None),
    ("hullmle.estimate", "rescaled_step", "estimate.rescaled_step", None),
    ("hullmle", "iterate_until_contained", "estimate.iterate", _iterate_counts),
    ("hullmle", "exact_mle", "estimate.exact_mle", None),
)


class Tracer:
    """Records spans while installed; single-threaded callers only.

    ``op`` is the id stamped on new spans.  ``min_scale_args`` keeps the
    (target, tests, config) of every traced min_scale call so the same
    pairs can be timed again with threads after tracing ends.
    """

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op, counts]
        self.op: int | None = None
        self.min_scale_args: list[tuple] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        """Wrap every target; a missing one fails loudly, never reads as zero."""
        for module_name, attr, name, counter in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if not callable(original):
                self.uninstall()
                raise RuntimeError(f"trace target {module_name}.{attr} is missing")
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, counter))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, name, fn, counter):
        signature = inspect.signature(fn)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            result = exc = None
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as error:
                exc = error
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
                if counter is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span[5] = counter(bound.arguments, result, exc)
                    if name == "batch.min_scale":
                        a = bound.arguments
                        self.min_scale_args.append((a["target"], a["tests"], a["config"]))
                elif exc is not None:
                    span[5] = {"raised": type(exc).__name__}

        return wrapper

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op, counts in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "counts": counts}) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals: calls, seconds and self seconds per span name,
        plus the counts and rates the benchmark reports."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _, start, end, parent, _, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        calls = defaultdict(int)
        total = defaultdict(float)
        own = defaultdict(float)
        for k, (name, start, end, _, _, _) in enumerate(spans):
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - child[k]

        def within(k, name):
            parent = spans[k][3]
            while parent >= 0:
                if spans[parent][0] == name:
                    return True
                parent = spans[parent][3]
            return False

        def tally(name, key):
            return sum((s[5] or {}).get(key, 0) for s in spans if s[0] == name)

        def under_iterate(*names):
            return sum(s[2] - s[1] for k, s in enumerate(spans)
                       if s[0] in names and within(k, "estimate.iterate"))

        def raised(name, error):
            return sum((s[5] or {}).get("raised") == error for s in spans if s[0] == name)

        def ratio(a, b):
            return a / b if b else 0.0

        solves = [s[5] for s in spans if s[0] == "lp.solve"]
        pivots = sum(c.get("pivots", 0) for c in solves)
        verdicts = [(s[5] or {}).get("verdict") for s in spans if s[0] == "hull.query"]
        iterates = [s[5] for s in spans if s[0] == "estimate.iterate"]
        steps = tally("expfam.mcmc_sample", "steps_computed")
        graphs = tally("expfam.exact_moments", "graphs_computed")

        m = {
            "lp.solve.calls": calls["lp.solve"],
            "lp.solve.s": total["lp.solve"],
            "lp.solve.s_per_call": ratio(total["lp.solve"], calls["lp.solve"]),
            "lp.pivots": pivots,
            "lp.pivots_per_solve": ratio(pivots, len(solves)),
            "lp.s_per_pivot": ratio(total["lp.solve"], pivots),
            "lp.rows_per_solve": ratio(sum(c["rows"] for c in solves), len(solves)),
            "lp.matrix_bytes_per_solve": ratio(
                sum(8 * c["rows"] * c["cols"] for c in solves), len(solves)),
            "lp.errors": sum("pivots" not in c for c in solves),
            "hull.query.calls": calls["hull.query"],
            "hull.query.s": total["hull.query"],
            "hull.query.self_s": own["hull.query"],
            "hull.make_target_set.s": total["hull.make_target_set"],
            "numerics.center.s": total["numerics.center"],
            "numerics.rank.s": total["numerics.rank"],
            "numerics.covariance.calls": calls["numerics.covariance"],
            "numerics.covariance.s": total["numerics.covariance"],
            "batch.mahalanobis_prune.s": total["batch.mahalanobis_prune"],
            "batch.mahalanobis_prune.self_s": own["batch.mahalanobis_prune"],
            "batch.min_scale.calls": calls["batch.min_scale"],
            "batch.min_scale.points": tally("batch.min_scale", "points"),
            "batch.min_scale.s": total["batch.min_scale"],
            "batch.min_scale.self_s": own["batch.min_scale"],
            "expfam.mcmc_sample.calls": calls["expfam.mcmc_sample"],
            "expfam.mcmc_sample.s": total["expfam.mcmc_sample"],
            "expfam.mcmc.steps": steps,
            "expfam.mcmc.steps_per_s": ratio(steps, total["expfam.mcmc_sample"]),
            "expfam.exact_moments.calls": calls["expfam.exact_moments"],
            "expfam.exact_moments.s": total["expfam.exact_moments"],
            "expfam.enum.graphs": graphs,
            "expfam.enum.graphs_per_s": ratio(graphs, total["expfam.exact_moments"]),
            "expfam.loglik_ratio.calls": calls["expfam.loglik_ratio"],
            "expfam.loglik_ratio.s": total["expfam.loglik_ratio"],
            "estimate.exact_mle.s": total["estimate.exact_mle"],
            "estimate.exact_mle.self_s": own["estimate.exact_mle"],
            "estimate.exact_mle.nonexistent": raised("estimate.exact_mle", "NonexistentMle"),
            "estimate.exact_mle.failed.optimization": raised("estimate.exact_mle",
                                                             "OptimizationError"),
            "estimate.rescaled_step.calls": calls["estimate.rescaled_step"],
            "estimate.step_s": total["estimate.rescaled_step"],
            "estimate.iterate.s": total["estimate.iterate"],
            "estimate.iterate.self_s": own["estimate.iterate"],
            # One unconstrained sample opens every outer iteration, also
            # in runs that raise before returning a trace.
            "estimate.outer_iters": sum(
                1 for k, s in enumerate(spans) if s[0] == "expfam.mcmc_sample"
                and s[5]["unconstrained"] and within(k, "estimate.iterate")),
            "estimate.sample_s": under_iterate("expfam.mcmc_sample"),
            "estimate.hull_s": under_iterate("hull.make_target_set", "batch.min_scale"),
            "estimate.converged": sum(bool(c.get("converged")) for c in iterates),
            "estimate.failed.max_iterations": sum(c.get("converged") is False for c in iterates),
            "estimate.failed.rank": sum("rank-deficient" in c.get("message", "")
                                        and c.get("raised") == "ValueError" for c in iterates),
            "estimate.failed.optimization": raised("estimate.iterate", "OptimizationError"),
        }
        for status in ("interior", "exterior", "boundary", "degenerate"):
            m[f"hull.verdicts.{status}"] = sum(v == status.capitalize() for v in verdicts)
        return m
