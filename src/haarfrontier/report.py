"""Report rows, CSV emission, and run manifests.

Every row carries its oracle comparator, a Monte Carlo standard error, and
the declared tolerance alongside the pass verdict, so the CSV contains no
bare numbers. Floats are written with shortest round-trip formatting, which
makes re-runs byte-comparable.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, fields
from typing import Optional


@dataclass(frozen=True)
class ReportRow:
    experiment: str
    frontier: str
    n: int
    c: float
    h_n: int
    d_n: int
    k_n: int
    x: Optional[float]
    statistic: str
    estimate: float
    std_err: float
    comparator: float
    tolerance: float
    passed: bool


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


# (field, CSV column) in column order; the one rename is passed -> pass
_COLUMNS = tuple((f.name, "pass" if f.name == "passed" else f.name) for f in fields(ReportRow))
CSV_COLUMNS = [column for _, column in _COLUMNS]


def write_report_csv(rows, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([_fmt(getattr(row, name)) for name, _ in _COLUMNS])


def config_hash(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def write_manifest(path, payload: dict) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def summarize(rows) -> dict:
    return {
        "rows": len(rows),
        "failures": sum(1 for r in rows if not r.passed),
        "statistics": sorted({r.statistic for r in rows}),
    }
