"""Smoke runs of the scripts under scripts/: each exits 0 and prints no
warning and no NaN, so a script that breaks on an edge case or still
calls a removed API fails here."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

RUNS = {
    "estimator-sweep-1": ["estimator_demo.py", "--sweep", "1"],
    "estimator-sweep-0": ["estimator_demo.py", "--sweep", "0"],
    "prune-tradeoff": ["prune_tradeoff.py", "--n-points", "2000", "--dim", "3",
                       "--n-tests", "3", "--fractions", "0.5", "1.0"],
}


@pytest.mark.parametrize("argv", RUNS.values(), ids=RUNS.keys())
def test_script_runs_cleanly(argv):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        capture_output=True, text=True, env=env, timeout=120,
    )
    output = done.stdout + done.stderr
    assert done.returncode == 0, output
    assert "Warning" not in output
    assert not re.search(r"\bnan\b", output, re.IGNORECASE), output
