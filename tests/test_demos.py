"""Each demo runs to completion in a fresh interpreter, with nothing on stderr."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs_cleanly(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""


def test_identity_demo_reports_the_plain_sides():
    # R13's exact copy and the toy case fail where the plain sides differ,
    # whatever denominator the exact check clears
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    demo = ROOT / "demos" / "03_identity_suite.py"
    done = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60
    )
    assert done.stdout.splitlines()[-2:] == [
        "exact-mode copy of R13: FAIL -- q^1: -2 != 4",
        "deliberately false case: q^1: -1 != 0",
    ]
