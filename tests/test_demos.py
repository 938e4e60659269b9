"""Smoke test: every demo script runs to completion on small arguments."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# Small arguments keep each run well under a second.
DEMOS = {
    "decoy_rate_anatomy.py": ["--points", "20"],
    "rate_envelopes.py": ["--q-max", "2", "--n-max", "2", "--points", "1"],
    "structure_function_check.py": [],
    "transmissivity_vs_distance.py": ["--points", "2"],
    "turbulent_crosstalk_matrix.py": ["--q-max", "2", "--n-grid", "1"],
    "vacuum_mode_ladder.py": ["--q-max", "2"],
}


def test_every_demo_is_listed():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMOS)


@pytest.mark.parametrize("script", sorted(DEMOS))
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script), *DEMOS[script]],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
