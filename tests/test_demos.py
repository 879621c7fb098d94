"""Smoke test: every demo runs to completion in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*_*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          env=env, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    assert "MISMATCH" not in proc.stdout


def test_demos_found():
    # an empty glob would parametrize test_demo_runs into nothing
    assert [p.name[:2] for p in DEMOS] == ["01", "02", "03", "04", "05"]
