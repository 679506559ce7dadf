"""The suite's pytest settings let a failing test fail alone.

pyproject.toml turns every DeprecationWarning into an error. When a
hypothesis test fails, hypothesis's pytest plugin imports libcst if it is
installed, and libcst can raise mypy_extensions' TypedDict deprecation; as an
error, that stopped the whole session with INTERNALERROR (exit 3), so the
tests after the failing one never ran. Where libcst is not installed, the
plugin takes its ImportError path, and this test passes there too.

The versions of the test tools are listed twice, in pyproject.toml's `test`
extra and in the CI workflow's install line; the suite is verified on those
versions, so the two lists must name the same ones. Likewise CI runs the
oldest Python that pyproject.toml declares.
"""

import re
import subprocess
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"

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


def test_the_test_extra_pins_the_versions_ci_installs() -> None:
    extra = tomllib.loads(PYPROJECT.read_text())["project"]["optional-dependencies"]["test"]
    [install] = [line for line in WORKFLOW.read_text().splitlines() if "pip install" in line]
    tools = {requirement.partition("==")[0] for requirement in extra}
    installed = [word for word in install.split() if word.partition("==")[0] in tools]
    assert sorted(extra) == sorted(installed), (extra, install)


def test_ci_runs_the_declared_minimum_python() -> None:
    declared = tomllib.loads(PYPROJECT.read_text())["project"]["requires-python"]
    [version] = re.findall(r'python-version:\s*"([^"]+)"', WORKFLOW.read_text())
    assert declared == f">={version}", (declared, version)
