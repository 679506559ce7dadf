"""The README's library quick tour runs as printed, and its CLI section lists the config keys."""

import contextlib
import io
import math
import re
from pathlib import Path

from haarfrontier.cli import _CONFIG_KEYS

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_tour() -> str:
    text = README.read_text()
    match = re.search(r"^## Library quick tour\n.*?^```python\n(.*?)^```", text, re.M | re.S)
    assert match, "README.md has no ```python block under 'Library quick tour'"
    return match.group(1)


def test_readme_lists_exactly_the_config_keys() -> None:
    match = re.search(r"The config keys are\s+(.*?)\.\s", README.read_text(), re.S)
    assert match, "README.md lists no config keys"
    assert re.findall(r"`([^`]+)`", match.group(1)) == list(_CONFIG_KEYS)


def test_readme_quick_tour_prints_three_finite_numbers() -> None:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_quick_tour(), str(README), "exec"), {})
    numbers = [float(word) for word in out.getvalue().split()]
    assert len(numbers) == 3 and all(math.isfinite(v) for v in numbers), out.getvalue()
