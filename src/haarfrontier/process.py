"""Poisson point clouds under a frontier and per-cell extreme statistics.

The observed process is the superposition of n unit-rate-c Poisson
processes restricted to the region under the frontier, i.e. a single
Poisson process with intensity n*c on that region. Sampling is by
rejection from the bounding box [0,1] x [0,M]; the acceptance rate is
bounded below by m/M > 0. A PointSample keeps its points sorted by x,
whatever order they are given in, so cell statistics are a single pass at
any resolution.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .frontiers import FrontierSpec

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class PartitionConfig:
    """Resolution quadruple: k_n = d_n * 2^h_prime cells grouped into 2^h_prime blocks."""

    n: int
    h_prime: int
    d_n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        if self.h_prime < 0:
            raise ValueError("h_prime must be nonnegative")
        if self.d_n < 1:
            raise ValueError("d_n must be a positive integer")

    @property
    def h_n(self) -> int:
        return 2**self.h_prime - 1

    @property
    def k_n(self) -> int:
        return self.d_n * (self.h_n + 1)

    def cell_bounds(self, r: int) -> tuple:
        """Bounds of cell r (1-based)."""
        if not 1 <= r <= self.k_n:
            raise ValueError("cell index out of range")
        return ((r - 1) / self.k_n, r / self.k_n)


# the first line of a sample file: (key, PointSample attribute, parser of its text)
_SAMPLE_HEADER = (
    ("n", "n", int),
    ("c", "c", float),
    ("seed", "seed", int),
    ("frontier", "frontier_label", str),
)


@dataclass(frozen=True, eq=False)
class PointSample:
    xs: np.ndarray
    ys: np.ndarray
    n: int
    c: float
    seed: int
    frontier_label: str

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        ys = np.asarray(self.ys, dtype=float)
        if xs.shape != ys.shape or xs.ndim != 1:
            raise ValueError("xs and ys must be 1-d arrays of equal length")
        # NaN fails every comparison, so this also rejects non-finite values
        if len(xs) and not (
            0.0 <= xs.min() and xs.max() <= 1.0 and 0.0 <= ys.min() and ys.max() < np.inf
        ):
            raise ValueError("sample values must be finite, with x in [0, 1] and y >= 0")
        order = np.argsort(xs)
        xs, ys = xs[order], ys[order]
        xs.flags.writeable = False
        ys.flags.writeable = False
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    def __len__(self) -> int:
        return len(self.xs)

    def to_csv(self, path) -> None:
        meta = {key: getattr(self, attr) for key, attr, _ in _SAMPLE_HEADER}
        lines = [
            ",".join(f"{k}={v!r}" if isinstance(v, float) else f"{k}={v}" for k, v in meta.items()),
            "x,y",
        ]
        lines.extend(f"{float(x)!r},{float(y)!r}" for x, y in zip(self.xs, self.ys))
        with open(path, "w", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")

    @classmethod
    def from_csv(cls, path) -> "PointSample":
        keys = [key for key, _, _ in _SAMPLE_HEADER]
        with open(path) as fh:
            header = fh.readline().strip()
            # the frontier label has commas of its own, so it comes last
            items = [item.partition("=") for item in header.split(",", len(keys) - 1)]
            if [key for key, _, _ in items] != keys:
                raise ValueError(f"malformed sample header {header!r}; expected keys {keys}")
            meta = {
                attr: parse(text) for (_, attr, parse), (_, _, text) in zip(_SAMPLE_HEADER, items)
            }
            if fh.readline().strip() != "x,y":
                raise ValueError("malformed sample file: expected 'x,y' column header")
            with warnings.catch_warnings():
                # an empty data section is a sample of 0 points, not a warning
                warnings.simplefilter("ignore", UserWarning)
                try:
                    rows = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
                except ValueError as err:
                    raise ValueError(f"malformed sample row: {err}; expected x,y") from None
        if len(rows) and rows.shape[1] != 2:
            raise ValueError(f"malformed sample row: {rows.shape[1]} fields; expected x,y")
        xs, ys = rows.reshape(-1, 2).T
        return cls(xs=xs, ys=ys, **meta)


def simulate(f: FrontierSpec, n: int, c: float, seed: int) -> PointSample:
    """Draw one realization of the superposed process restricted to the frontier region.

    Deterministic in seed (counter-based generator keyed by it); the number
    of points is Poisson with mean n*c times the area under f and, given the
    count, points are i.i.d. uniform under the frontier.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if c <= 0.0:
        raise ValueError("intensity rate c must be positive")
    total_area = f.integral(0.0, 1.0)
    if f.M / total_area > 1e6:
        raise ValueError(
            f"rejection sampling would be pathological: M/mean(f) = {f.M / total_area:.3g} > 1e6"
        )
    rng = np.random.Generator(np.random.Philox(key=int(seed) & _MASK64))
    count = int(rng.poisson(n * c * total_area))
    accept_rate = total_area / f.M
    xs_parts, ys_parts = [], []
    have = 0
    while have < count:
        batch = int((count - have) / accept_rate * 1.2) + 16
        cand_x = rng.random(batch)
        cand_y = rng.random(batch) * f.M
        keep = cand_y <= f(cand_x)
        take_x = cand_x[keep]
        take_y = cand_y[keep]
        if have + len(take_x) > count:
            take_x = take_x[: count - have]
            take_y = take_y[: count - have]
        xs_parts.append(take_x)
        ys_parts.append(take_y)
        have += len(take_x)
    xs = np.concatenate(xs_parts) if xs_parts else np.empty(0)
    ys = np.concatenate(ys_parts) if ys_parts else np.empty(0)
    return PointSample(xs=xs, ys=ys, n=n, c=float(c), seed=int(seed), frontier_label=f.label)


@dataclass(frozen=True, eq=False)
class CellStats:
    """Per-cell record: point count, extreme y values, and oracle cell geometry.

    x_star is the largest y among points in the cell and z_star the smallest,
    both 0 when the cell is empty. cell_areas holds the exact area of the
    frontier region over each cell; f_min and f_max enclose the frontier there.
    """

    counts: np.ndarray
    x_star: np.ndarray
    z_star: np.ndarray
    cell_areas: np.ndarray
    f_min: np.ndarray
    f_max: np.ndarray
    cfg: PartitionConfig

    def __post_init__(self):
        k = self.cfg.k_n
        for name in (field.name for field in fields(self) if field.name != "cfg"):
            arr = np.asarray(getattr(self, name))
            if arr.shape != (k,):
                raise ValueError(f"{name} must have one entry per cell")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        occ = self.counts > 0
        if np.any(self.z_star[occ] < 0) or np.any(self.z_star[occ] > self.x_star[occ]):
            raise ValueError("cell minima must satisfy 0 <= z_star <= x_star")
        slack = 1e-9 * max(1.0, float(np.max(self.f_max, initial=1.0)))
        if np.any(self.x_star[occ] > self.f_max[occ] + slack):
            raise ValueError("cell maxima escape the frontier enclosure")
        scaled = self.cfg.k_n * self.cell_areas
        if np.any(scaled < self.f_min - 1e-8) or np.any(scaled > self.f_max + 1e-8):
            raise ValueError("cell areas inconsistent with frontier bounds")


@functools.lru_cache(maxsize=2)
def _cell_geometry(f: FrontierSpec, k_n: int) -> tuple:
    lam = np.empty(k_n)
    f_min = np.empty(k_n)
    f_max = np.empty(k_n)
    for r in range(k_n):
        lo, hi = r / k_n, (r + 1) / k_n
        lam[r] = f.integral(lo, hi)
        f_min[r], f_max[r] = f.range_on(lo, hi)
    lam.flags.writeable = False
    f_min.flags.writeable = False
    f_max.flags.writeable = False
    return lam, f_min, f_max


def cell_stats(sample: PointSample, cfg: PartitionConfig, f: FrontierSpec) -> CellStats:
    """Count/max/min of y per cell, plus oracle cell geometry from the frontier."""
    if sample.n != cfg.n:
        raise ValueError("sample and partition disagree on n")
    k = cfg.k_n
    cell_areas, f_min, f_max = _cell_geometry(f, k)
    xs, ys = sample.xs, sample.ys
    total = len(xs)
    edges = np.arange(1, k) / k
    cuts = np.searchsorted(xs, edges, side="left")
    offsets = np.concatenate(([0], cuts, [total]))
    counts = np.diff(offsets)
    x_star = np.zeros(k)
    z_star = np.zeros(k)
    if total:
        # sentinel keeps every reduceat start index valid; empty segments
        # (start == end) yield garbage that the occupancy mask discards
        starts = offsets[:-1]
        maxs = np.maximum.reduceat(np.append(ys, -np.inf), starts)
        mins = np.minimum.reduceat(np.append(ys, np.inf), starts)
        occupied = counts > 0
        x_star[occupied] = maxs[occupied]
        z_star[occupied] = mins[occupied]
    return CellStats(counts, x_star, z_star, cell_areas, f_min, f_max, cfg)
