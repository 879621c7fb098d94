"""Smoke test: the quick demos run to completion in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
QUICK_DEMOS = sorted((ROOT / "demos").glob("0[1-3]_*.py"))


@pytest.mark.parametrize("demo", QUICK_DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          env=env, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    assert "MISMATCH" not in proc.stdout


def test_quick_demos_found():
    assert [p.name[:2] for p in QUICK_DEMOS] == ["01", "02", "03"]
