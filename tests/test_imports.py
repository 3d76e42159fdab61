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


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
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
