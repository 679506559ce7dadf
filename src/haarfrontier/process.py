"""Poisson point clouds under a frontier and per-cell extreme statistics.

The observed process is the superposition of n unit-rate-c Poisson
processes restricted to the region under the frontier, i.e. a single
Poisson process with intensity n*c on that region. Sampling is by
rejection from the bounding box [0,1] x [0,M]; the acceptance rate is
bounded below by m/M > 0. A PointSample keeps its points in the order
given: every cell statistic is an order-free reduction (count, max, min)
over the cells `uniform_cell_index` assigns, so no estimate depends on row
order, and only the CSV file is written in x order. A sample is checked
once, when it is built; `simulate` hands it the arrays it drew, without a
copy, and `cell_stats` bins its checked x without checking them again.
"""

from __future__ import annotations

import functools
import numbers
import threading
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .frontiers import FrontierSpec
from .stepfun import _cell_index

_SEED_LIMIT = 1 << 64


def _require_integer(name: str, value) -> int:
    """value as a Python int; bool and floats raise, though bool is an Integral too.

    A float would make k_n a float or write "n=1000.0" to a sample file, and
    a numpy integer would carry its width into h_n and k_n.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer")
    return int(value)


def _require_seed(value) -> int:
    """value as a Python int in [0, 2^64), the keys of the generator: recorded seed = key."""
    seed = _require_integer("seed", value)
    if not 0 <= seed < _SEED_LIMIT:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    return seed


@dataclass(frozen=True)
class PartitionConfig:
    """Resolution quadruple: k_n = d_n * 2^h_prime cells grouped into 2^h_prime blocks."""

    n: int
    h_prime: int
    d_n: int

    def __post_init__(self):
        for name in ("n", "h_prime", "d_n"):
            object.__setattr__(self, name, _require_integer(name, getattr(self, name)))
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
        # copies, so freezing them leaves the caller's arrays writeable
        self._check_and_freeze(np.array(self.xs, dtype=float), np.array(self.ys, dtype=float))

    @classmethod
    def _owning(cls, xs: np.ndarray, ys: np.ndarray, **meta) -> "PointSample":
        """A sample of float arrays no one else holds: checked and frozen like any other, not copied."""
        sample = object.__new__(cls)
        for name, value in meta.items():
            object.__setattr__(sample, name, value)
        sample._check_and_freeze(xs, ys)
        return sample

    def _check_and_freeze(self, xs: np.ndarray, ys: np.ndarray) -> None:
        object.__setattr__(self, "n", _require_integer("n", self.n))
        object.__setattr__(self, "seed", _require_seed(self.seed))
        if xs.shape != ys.shape or xs.ndim != 1:
            raise ValueError("xs and ys must be 1-d arrays of equal length")
        # NaN fails every comparison, so this also rejects non-finite values
        if len(xs) and not (
            0.0 <= xs.min() and xs.max() <= 1.0 and 0.0 <= ys.min() and ys.max() < np.inf
        ):
            raise ValueError("sample values must be finite, with x in [0, 1] and y >= 0")
        xs.flags.writeable = False
        ys.flags.writeable = False
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    def __len__(self) -> int:
        return len(self.xs)

    def to_csv(self, path) -> None:
        meta = {key: getattr(self, attr) for key, attr, _ in _SAMPLE_HEADER}
        header = ",".join(f"{k}={v!r}" if isinstance(v, float) else f"{k}={v}" for k, v in meta.items())
        # rows in x order, whatever order the sample holds them in; streamed,
        # so a large sample never has all its lines in memory at once
        order = np.argsort(self.xs)
        with open(path, "w", newline="\n") as fh:
            fh.write(f"{header}\nx,y\n")
            fh.writelines(f"{float(x)!r},{float(y)!r}\n" for x, y in zip(self.xs[order], self.ys[order]))

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


_THREAD = threading.local()


def _generator(seed: int) -> np.random.Generator:
    """This thread's Philox generator, re-keyed to draw what Philox(key=seed) draws.

    Philox(key=seed) has key [seed, 0], counter 0 and an empty output
    buffer; setting that state on a generator this thread already has
    skips the fresh SeedSequence (OS entropy) each new Philox builds.
    """
    rng = getattr(_THREAD, "rng", None)
    if rng is None:
        rng = _THREAD.rng = np.random.Generator(np.random.Philox(key=0))
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, np.uint64), "key": np.array([seed, 0], np.uint64)},
        "buffer": np.zeros(4, np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


def simulate(f: FrontierSpec, n: int, c: float, seed: int) -> PointSample:
    """Draw one realization of the superposed process restricted to the frontier region.

    Deterministic in seed, an integer in [0, 2^64): the stream is that of
    a counter-based Philox generator keyed by it, and the calling thread's
    generator is re-keyed for each call. The number of points is Poisson
    with mean n*c times the area under f and, given the count, points are
    i.i.d. uniform under the frontier. The sample is checked once and owns
    the drawn arrays, read-only, without a copy.
    """
    seed = _require_seed(seed)
    if _require_integer("n", n) < 1:
        raise ValueError("n must be a positive integer")
    if c <= 0.0:
        raise ValueError("intensity rate c must be positive")
    total_area = f.integral(0.0, 1.0)
    if f.M / total_area > 1e6:
        raise ValueError(
            f"rejection sampling would be pathological: M/mean(f) = {f.M / total_area:.3g} > 1e6"
        )
    rng = _generator(seed)
    count = int(rng.poisson(n * c * total_area))
    accept_rate = total_area / f.M
    xs_parts, ys_parts = [], []
    have = 0
    while have < count:
        need = count - have
        batch = int(need / accept_rate * 1.2) + 16
        cand_x = rng.random(batch)
        cand_y = rng.random(batch)
        cand_y *= f.M
        keep = cand_y <= f(cand_x)
        if keep[:need].all():
            # the first `need` candidates are the ones a gather would take
            take_x, take_y = cand_x[:need], cand_y[:need]
        else:
            take_x, take_y = cand_x[keep][:need], cand_y[keep][:need]
        xs_parts.append(take_x)
        ys_parts.append(take_y)
        have += len(take_x)
    # one batch is the usual case, and its arrays need no concatenate
    if len(xs_parts) == 1:
        xs, ys = xs_parts[0], ys_parts[0]
    else:
        xs = np.concatenate(xs_parts) if xs_parts else np.empty(0)
        ys = np.concatenate(ys_parts) if ys_parts else np.empty(0)
    return PointSample._owning(xs, ys, n=n, c=float(c), seed=seed, frontier_label=f.label)


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
    edges = np.arange(k_n + 1) / k_n
    geometry = (f.integral(edges[:-1], edges[1:]), *f.range_on(edges[:-1], edges[1:]))
    for arr in geometry:
        arr.flags.writeable = False
    return geometry


def cell_stats(sample: PointSample, cfg: PartitionConfig, f: FrontierSpec) -> CellStats:
    """Count/max/min of y per cell, plus oracle cell geometry from the frontier."""
    if sample.n != cfg.n:
        raise ValueError("sample and partition disagree on n")
    k = cfg.k_n
    cell_areas, f_min, f_max = _cell_geometry(f, k)
    # the sample's read-only xs were checked to lie in [0, 1] when it was built
    idx = _cell_index(sample.xs, k)
    counts = np.bincount(idx, minlength=k)
    x_star = np.full(k, -np.inf)
    z_star = np.full(k, np.inf)
    np.maximum.at(x_star, idx, sample.ys)
    np.minimum.at(z_star, idx, sample.ys)
    empty = counts == 0
    x_star[empty] = 0.0
    z_star[empty] = 0.0
    return CellStats(counts, x_star, z_star, cell_areas, f_min, f_max, cfg)
