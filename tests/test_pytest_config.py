"""The test configuration turns warnings into errors; it must still let a
failing property test be reported like any other failure."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE = '''\
import warnings

from hypothesis import given, strategies as st


@given(st.integers())
def test_property_fails(x):
    assert x < 0


def test_own_deprecation_warning_fails():
    warnings.warn("deprecated here", DeprecationWarning)


def test_passes():
    pass
'''


def test_failing_hypothesis_test_is_reported_not_fatal(tmp_path):
    (tmp_path / "test_probe.py").write_text(PROBE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300, check=False)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr, proc.stdout[-2000:]
    assert proc.returncode == 1, proc.stdout[-2000:]
    assert "2 failed, 1 passed" in proc.stdout
