"""The eight presets' report CSVs at --replicates 40 --workers 1, and one sample file, pinned.

Each preset is rerun through `cli.main` and compared with tests/golden/<preset>.csv:
the header and every non-float column exactly, every float column to a
relative 1e-12 (numpy's SIMD exp, log and pow may differ in the last bit
between CPUs). To regenerate after an intended change, for each preset p:

    PYTHONPATH=src python -m haarfrontier experiment p --replicates 40 --workers 1 --out OUT
    cp OUT/p.csv tests/golden/p.csv

The file path, CLI `simulate` then `estimate`, is pinned on an affine
frontier, which needs only a multiply and an add and so draws the same
points on any CPU: sample-affine.csv byte for byte, and estimate-affine.json
with its floats to a relative 1e-12. To regenerate:

    PYTHONPATH=src python -m haarfrontier simulate --frontier affine:a=1.0,b=0.5 --n 2000 --seed 20110330 --out OUT
    PYTHONPATH=src python -m haarfrontier estimate OUT/sample.csv --hprime 3 --dn 2 --out OUT
    cp OUT/sample.csv tests/golden/sample-affine.csv
    cp OUT/estimate.json tests/golden/estimate-affine.json
"""

import csv
import json
import math
from dataclasses import fields
from pathlib import Path

import pytest

from haarfrontier.cli import main
from haarfrontier.experiments import PRESETS
from haarfrontier.report import CSV_COLUMNS, ReportRow

GOLDEN = Path(__file__).parent / "golden"

# CSV columns in order, True where the field is a float
FLOAT_COLUMNS = [f.type in ("float", "Optional[float]") for f in fields(ReportRow)]


def _read(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.mark.parametrize("preset", PRESETS)
def test_preset_report_matches_golden(preset, tmp_path) -> None:
    assert main(["experiment", preset, "--replicates", "40", "--workers", "1", "--out", str(tmp_path)]) == 0
    got, want = _read(tmp_path / f"{preset}.csv"), _read(GOLDEN / f"{preset}.csv")
    assert got[0] == want[0] == CSV_COLUMNS
    assert len(got) == len(want)
    for line, (got_row, want_row) in enumerate(zip(got[1:], want[1:]), start=2):
        for column, is_float, g, w in zip(CSV_COLUMNS, FLOAT_COLUMNS, got_row, want_row):
            same = g == w or (is_float and g and w and math.isclose(float(g), float(w), rel_tol=1e-12))
            assert same, f"{preset}.csv line {line}, {column}: {g!r} != golden {w!r}"


def test_simulate_then_estimate_matches_golden(tmp_path) -> None:
    sample = tmp_path / "sample.csv"
    simulate = ["simulate", "--frontier", "affine:a=1.0,b=0.5", "--n", "2000", "--seed", "20110330"]
    assert main([*simulate, "--out", str(tmp_path)]) == 0
    assert sample.read_bytes() == (GOLDEN / "sample-affine.csv").read_bytes()
    assert main(["estimate", str(sample), "--hprime", "3", "--dn", "2", "--out", str(tmp_path)]) == 0
    got = json.loads((tmp_path / "estimate.json").read_text())
    want = json.loads((GOLDEN / "estimate-affine.json").read_text())
    assert got.keys() == want.keys()
    for key, w in want.items():
        g = got[key]
        if isinstance(w, list):
            assert len(g) == len(w) and all(math.isclose(a, b, rel_tol=1e-12) for a, b in zip(g, w)), key
        elif isinstance(w, float):
            assert math.isclose(g, w, rel_tol=1e-12), key
        else:
            assert type(g) is type(w) and g == w, key
