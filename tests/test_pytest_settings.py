"""The suite's pytest settings (``[tool.pytest.ini_options]`` in
``pyproject.toml``) let every test run and be reported."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_a_failing_property_test_lets_later_tests_run(tmp_path):
    # Every warning is an error, and hypothesis's failure report raises a
    # DeprecationWarning from mypy_extensions inside pytest's report
    # hook: unless ignored, that ends the session at the failing test.
    (tmp_path / "test_probe.py").write_text(PROBE)
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q",
         "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120).stdout
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
