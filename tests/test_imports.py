"""The package imports only the standard library and numpy; the tests add their own tools.

CI installs numpy, pytest and hypothesis alone. A stray import of another
package that happens to be installed where the suite runs would pass there
and fail only in CI, so this scans the source instead.
"""

import ast
import sys
from pathlib import Path

import pytest

import haarfrontier

PACKAGE = Path(haarfrontier.__file__).parent
TESTS = Path(__file__).parent
STDLIB = frozenset(sys.stdlib_module_names)
ALLOWED_IN_SRC = STDLIB | {"numpy"}
ALLOWED_IN_TESTS = ALLOWED_IN_SRC | {"pytest", "hypothesis", "haarfrontier", "crosschecks"}


def _top_level_imports(source: str) -> set:
    """The top-level names of every absolute import, at any depth; relative imports are skipped."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def test_the_scan_finds_nested_and_dotted_imports_but_not_relative_ones() -> None:
    source = "import numpy as np\nfrom . import kernels\nfrom .frontiers import x\n"
    source += "def f():\n    import scipy.stats\n    from mpmath import mp\n"
    assert _top_level_imports(source) == {"numpy", "scipy", "mpmath"}
    assert not {"scipy", "mpmath"} <= ALLOWED_IN_TESTS


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_the_package_imports_only_the_standard_library_and_numpy(path) -> None:
    assert _top_level_imports(path.read_text()) - ALLOWED_IN_SRC == set()


@pytest.mark.parametrize("path", sorted(TESTS.glob("*.py")), ids=lambda p: p.name)
def test_the_tests_import_only_the_standard_library_and_their_tools(path) -> None:
    assert _top_level_imports(path.read_text()) - ALLOWED_IN_TESTS == set()
