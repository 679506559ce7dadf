"""The numeric modules add floats in a plain running sum, never with the builtin sum.

From Python 3.12 on, sum() over floats is compensated, so it gives other
bits than a running sum, or than sum() on 3.11. CI runs 3.11 alone and
cannot see that, so this scans the source instead. `report.summarize`'s
integer count of failures is outside the scanned set.
"""

import ast
from pathlib import Path

import pytest

import haarfrontier

NUMERIC = ("frontiers", "oracles", "kernels", "estimators", "process", "haar", "stepfun")


def _builtin_sum_lines(source: str) -> list:
    """The lines that name the builtin sum: a call, or sum handed on as a function."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Name) and node.id == "sum" and isinstance(node.ctx, ast.Load)
    ]


def test_the_scan_finds_a_call_and_a_reference_but_not_a_method() -> None:
    assert _builtin_sum_lines("total = sum(values)\n") == [1]
    assert _builtin_sum_lines("x = 1\ntotals = map(sum, rows)\n") == [2]
    assert _builtin_sum_lines("total = np.sum(values) + values.sum()\nfsum = math.fsum(values)\n") == []


@pytest.mark.parametrize("module", NUMERIC)
def test_a_numeric_module_does_not_use_the_builtin_sum(module) -> None:
    path = Path(haarfrontier.__file__).parent / f"{module}.py"
    assert _builtin_sum_lines(path.read_text()) == [], f"{path.name} uses the builtin sum"
