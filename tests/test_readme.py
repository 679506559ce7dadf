"""The README's library quick tour runs as printed, and its CLI section lists the config
keys and the manifest keys and gives command lines that the parser takes."""

import contextlib
import io
import json
import math
import re
import shlex
from pathlib import Path

from haarfrontier.cli import _CONFIG_KEYS, _build_parser, main

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_tour() -> str:
    text = README.read_text()
    match = re.search(r"^## Library quick tour\n.*?^```python\n(.*?)^```", text, re.M | re.S)
    assert match, "README.md has no ```python block under 'Library quick tour'"
    return match.group(1)


def test_readme_command_lines_parse() -> None:
    # parsed only, never run: an example that names a removed flag fails here
    match = re.search(r"^## CLI\n.*?^```sh\n(.*?)^```", README.read_text(), re.M | re.S)
    assert match, "README.md has no ```sh block under 'CLI'"
    lines = match.group(1).splitlines()
    assert lines and all(line.startswith("haarfrontier ") for line in lines), lines
    for line in lines:
        args = _build_parser().parse_args(shlex.split(line)[1:])
        assert args.command == line.split()[1]


def test_readme_lists_exactly_the_config_keys() -> None:
    match = re.search(r"The config keys are\s+(.*?)\.\s", README.read_text(), re.S)
    assert match, "README.md lists no config keys"
    assert re.findall(r"`([^`]+)`", match.group(1)) == list(_CONFIG_KEYS)


def test_readme_lists_exactly_the_manifest_keys(tmp_path) -> None:
    match = re.search(r"The\s+manifest\s+keys\s+are\s+(.*?)\.\s", README.read_text(), re.S)
    assert match, "README.md lists no manifest keys"
    argv = ["experiment", "zn-moments", "--schedule", "500:2:1", "--replicates", "4"]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "zn-moments_manifest.json").read_text())
    assert re.findall(r"`([^`]+)`", match.group(1)) == list(manifest)


def test_readme_quick_tour_prints_three_finite_numbers() -> None:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_quick_tour(), str(README), "exec"), {})
    numbers = [float(word) for word in out.getvalue().split()]
    assert len(numbers) == 3 and all(math.isfinite(v) for v in numbers), out.getvalue()
