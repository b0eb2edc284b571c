"""The repo's pytest configuration, run on throwaway tests in a subprocess."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

THROWAWAY = '''
import warnings

from hypothesis import given, strategies as st


@given(st.floats())
def test_failing_property(x):
    assert x != x


def test_other_deprecation_still_fails():
    warnings.warn("some other name is deprecated", DeprecationWarning)
'''


def test_failing_property_test_fails_without_internal_error(tmp_path):
    # hypothesis's failure report imports a library that warns of a deprecated
    # name; pytest must report the failure and go on, while any other
    # DeprecationWarning still fails its test
    (tmp_path / "test_throwaway.py").write_text(THROWAWAY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), str(tmp_path / "test_throwaway.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "2 failed" in out, out
