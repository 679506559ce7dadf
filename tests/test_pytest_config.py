"""The suite's pytest settings let a failing test fail alone.

pyproject.toml turns every DeprecationWarning into an error. When a
hypothesis test fails, hypothesis's pytest plugin imports libcst if it is
installed, and libcst can raise mypy_extensions' TypedDict deprecation; as an
error, that stopped the whole session with INTERNALERROR (exit 3), so the
tests after the failing one never ran. Where libcst is not installed, the
plugin takes its ImportError path, and this test passes there too.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_AND_PASSING = """
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
"""


def test_a_failing_hypothesis_test_fails_alone(tmp_path) -> None:
    (tmp_path / "test_sample.py").write_text(FAILING_AND_PASSING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_sample.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = run.stdout + run.stderr
    assert "INTERNALERROR" not in output, output
    assert run.returncode == 1, output
    assert "1 failed, 1 passed" in output, output
