import ast
import importlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hullmle"


def private_imports(path):
    """(line, module, name) of every private name imported from the
    package; dunders such as __version__ are public."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "hullmle":
            continue
        for alias in node.names:
            name = alias.name
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                found.append((node.lineno, "." * node.level + module, name))
    return found


# The test oracles stay independent of the solver, so they too import
# only public names.
ORACLES = Path(__file__).resolve().parent / "oracles.py"


@pytest.mark.parametrize("path", [*sorted(PACKAGE.glob("*.py")), ORACLES],
                         ids=lambda p: p.name)
def test_no_private_cross_module_imports(path):
    assert private_imports(path) == []


def test_guard_sees_private_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from __future__ import annotations\nfrom . import __version__\n"
                     "from .expfam import _space\nfrom hullmle.lp import solve, _Simplex\n")
    assert [name for _, _, name in private_imports(probe)] == ["_space", "_Simplex"]


MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if not p.stem.startswith("_"))


@pytest.mark.parametrize("module", ["hullmle", *(f"hullmle.{m}" for m in MODULES)])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


# The package's public surface, spelled out so that adding or dropping a
# name shows in the diff of this test.
PUBLIC = [
    "ConstraintSense", "DualReport", "EstimatorConfig", "EstimatorTrace", "Graph",
    "HullStatus", "HullVerdict", "IterationRecord", "LinearProgram", "LpSolution",
    "LpStatus", "MembershipProgram", "NonexistentMle", "ObjectiveSense", "ObservationMask",
    "OptimizationError", "OriginalLpResult", "ScaleReport", "SolverConfig", "StatDef",
    "StatMatrix", "StatTerm", "TargetSet", "TestSet", "__version__",
    "demonstrate_unbounded", "dyad_pairs", "enumerate_statistics", "exact_log_kappa",
    "exact_loglik", "exact_mle", "exact_moments", "iterate_until_contained",
    "loglik_ratio_grad", "loglik_ratio_hat", "loglik_ratio_hess", "mahalanobis_prune",
    "make_target_set", "make_test_set", "mcmc_sample", "min_scale", "prune_curve",
    "query", "query_dual", "query_original_lp", "rescaled_step", "separating_direction",
    "solve", "statistic_histogram", "statistics",
]


def test_public_surface_is_pinned():
    assert sorted(importlib.import_module("hullmle").__all__) == PUBLIC


def test_star_import_succeeds():
    namespace = {}
    exec("from hullmle import *", namespace)
    assert "query" in namespace


TRACER = PACKAGE.parents[1] / "perfbench" / "tracer.py"


def test_every_trace_target_resolves():
    # The benchmark's tracer wraps these names where callers look them up
    # and stops at install if one is gone.  Its source is read, not imported,
    # so no bytecode is written beside it.
    namespace = {"__name__": "tracer"}
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), namespace)
    targets = namespace["TARGETS"]
    missing = [f"{module}.{attr}" for module, attr, *_ in targets
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert targets and missing == []
