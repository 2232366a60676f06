"""The suite's pytest settings: warnings are errors, yet one failing
hypothesis test does not stop the run."""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def run_pytest(tmp_path, source: str) -> str:
    """Output of pytest, under this repository's settings, on one test file."""
    (tmp_path / "test_case.py").write_text(textwrap.dedent(source))
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(tmp_path / "test_case.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    return result.stdout + result.stderr


def test_failing_hypothesis_test_does_not_abort_the_run(tmp_path):
    # On a failure, hypothesis imports libcst for its patch hints, and that
    # import warns; as an error it would stop pytest with INTERNALERROR.
    output = run_pytest(tmp_path, """
        from hypothesis import given, settings
        from hypothesis import strategies as st


        @settings(database=None, derandomize=True, max_examples=5, deadline=None)
        @given(st.integers())
        def test_fails(n):
            assert n != n


        def test_passes():
            pass
    """)
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in output


def test_other_warnings_stay_errors(tmp_path):
    output = run_pytest(tmp_path, """
        import warnings


        def test_warns():
            warnings.warn("deprecated", DeprecationWarning)
    """)
    assert "1 failed" in output
