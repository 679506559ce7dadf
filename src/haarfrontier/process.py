"""Poisson point clouds under a frontier and per-cell extreme statistics.

The observed process is the superposition of n unit-rate-c Poisson
processes restricted to the region under the frontier, i.e. a single
Poisson process with intensity n*c on that region. Sampling is by
rejection from the bounding box [0,1] x [0,M]; the acceptance rate is
bounded below by m/M > 0. A rejection batch of B candidates that starts at
word s of the Philox stream takes u[s + j] as candidate j's x and
M * u[s + B + j] as its y, and the next batch starts at s + 2B; `simulate`
seeks the stream to draw only the prefix of a batch it can use, so every
sample is the one whole batches give.

A PointSample keeps its points in the order given: every cell statistic
is an order-free reduction (count, max, min) over the cells
`uniform_cell_index` assigns, so no estimate depends on row order, and
only the CSV file is written in x order. A sample is checked once, when
it is built; `simulate` hands it the arrays it drew, without a copy, and
`cell_stats` bins its checked x without checking them again.

Each invariant of a CellStats record is established once, where it arises:
the cell geometry (areas within the frontier's range) when `_cell_geometry`
fills its cache, the sample when it is built, and the maxima against the
frontier enclosure on each replicate, the one check that depends on the
data. Binning a checked sample gives one entry per cell and 0 <= z_star <=
x_star by construction. A kernel task's evaluation points are checked when
the task is built (see `kernels.ReplicateTask`).
"""

from __future__ import annotations

import functools
import math
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
    if type(value) is int:  # the common case; the ABC check below costs about 1 us
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer")
    return int(value)


def _require_seed(value) -> int:
    """value as a Python int in [0, 2^64), the keys of the generator: recorded seed = key."""
    seed = _require_integer("seed", value)
    if not 0 <= seed < _SEED_LIMIT:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    return seed


def _require_rate(value) -> float:
    """value as a finite positive float, the intensity rate c; NaN fails the comparison too."""
    # a float is the common case; the ABC check costs about 1 us
    if type(value) is not float and (isinstance(value, bool) or not isinstance(value, numbers.Real)):
        raise ValueError("intensity rate c must be a real number")
    rate = float(value)
    if not 0.0 < rate < math.inf:
        raise ValueError(f"intensity rate c must be finite and positive, got {rate!r}")
    return rate


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
        object.__setattr__(self, "c", _require_rate(self.c))
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

# A batch whose unused tail is shorter than this many candidates is drawn
# whole. Skipping a tail costs a state read and a seek, about 12-15 us on a
# 2-vCPU x86-64 host with numpy 2.4.6, and saves about 20-25 ns per skipped
# candidate (two doubles, f(x) and a compare); on the constant frontier the
# two broke even at a tail of 600-800 candidates.
_SEEK_MIN_TAIL = 1024


def _thread_generator() -> np.random.Generator:
    """This thread's Philox generator; `_seek` keys and positions it before each use."""
    rng = getattr(_THREAD, "rng", None)
    if rng is None:
        rng = _THREAD.rng = np.random.Generator(np.random.Philox(key=0))
    return rng


def _seek(rng: np.random.Generator, seed: int, position: int) -> None:
    """Put rng at 64-bit word `position` of the stream of Philox(key=seed).

    Philox(key=seed) has key [seed, 0], counter 0 and an empty output
    buffer; each refill first increments the counter and then yields the
    four words of its block, so word q is word q % 4 of the block at
    counter q // 4 + 1. The state is set absolutely, so the move may go
    backwards, and no fresh SeedSequence (OS entropy) is read.
    """
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {
            "counter": np.array([position // 4, 0, 0, 0], np.uint64),
            "key": np.array([seed, 0], np.uint64),
        },
        "buffer": np.zeros(4, np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    if position % 4:
        rng.bit_generator.random_raw(position % 4)


def _position(rng: np.random.Generator) -> int:
    """The stream word rng draws next: the inverse of `_seek` for streams under 2^66 words."""
    state = rng.bit_generator.state
    return 4 * int(state["state"]["counter"][0]) + state["buffer_pos"] - 4


def _usable_prefix(need: int, accept_rate: float) -> int:
    """Candidates that hold `need` acceptances but with probability about 3e-5.

    The prefix's acceptances are binomial; this is their mean need/accept
    plus four standard deviations, plus 16 for small counts.
    """
    spread = 4.0 * math.sqrt(need * max(0.0, 1.0 - accept_rate))
    return int((need + spread) / accept_rate) + 16


def _accepted(f: FrontierSpec, cand_x: np.ndarray, cand_y: np.ndarray, need: int) -> tuple:
    """The first `need` candidates under the frontier, in draw order; all of them if fewer."""
    keep = cand_y <= f(cand_x)
    if keep[:need].all():
        # the first `need` candidates are the ones a gather would take
        return cand_x[:need], cand_y[:need]
    return cand_x[keep][:need], cand_y[keep][:need]


def simulate(f: FrontierSpec, n: int, c: float, seed: int) -> PointSample:
    """Draw one realization of the superposed process restricted to the frontier region.

    Deterministic in seed, an integer in [0, 2^64): the stream is that of
    a counter-based Philox generator keyed by it, and the calling thread's
    generator is re-keyed for each call. The number of points is Poisson
    with mean n*c times the area under f and, given the count, points are
    i.i.d. uniform under the frontier, drawn by rejection from [0,1] x [0,M].

    Stream layout: a candidate batch of size B that starts at stream word s
    takes u[s + j] as candidate j's x and M * u[s + B + j] as its y, keeps
    the first accepted candidates, and the next batch starts at s + 2B.
    Only the usable prefix of a batch is drawn: the generator draws the
    x-prefix, seeks to s + B for the matching y-prefix, and draws the rest
    of the batch only if the prefix accepts too few. A batch whose unused
    tail is short is drawn whole. Either way the sample is the one the
    whole batch gives. It is checked once and owns the drawn arrays,
    read-only, without a copy.
    """
    seed = _require_seed(seed)
    if _require_integer("n", n) < 1:
        raise ValueError("n must be a positive integer")
    c = _require_rate(c)
    total_area = f.integral(0.0, 1.0)
    if f.M / total_area > 1e6:
        raise ValueError(
            f"rejection sampling would be pathological: M/mean(f) = {f.M / total_area:.3g} > 1e6"
        )
    rng = _thread_generator()
    _seek(rng, seed, 0)
    count = int(rng.poisson(n * c * total_area))
    accept_rate = total_area / f.M
    xs_parts, ys_parts = [], []
    have = 0
    # the generator stands at the start of the next batch at the top of each pass
    while have < count:
        need = count - have
        batch = int(need / accept_rate * 1.2) + 16
        prefix = _usable_prefix(need, accept_rate)
        seeking = batch - prefix >= _SEEK_MIN_TAIL
        if seeking:
            # the prefix, then the rest of the batch only if the prefix accepts too few
            start = _position(rng)
            pieces = ((0, prefix), (prefix, batch))
        else:
            pieces = ((0, batch),)  # drawn whole: a seek would cost more than the tail saves
        for i, (lo, hi) in enumerate(pieces):
            if have == count:
                break
            if i:
                _seek(rng, seed, start + lo)
            cand_x = rng.random(hi - lo)
            if seeking:
                _seek(rng, seed, start + batch + lo)
            cand_y = rng.random(hi - lo)
            cand_y *= f.M
            take_x, take_y = _accepted(f, cand_x, cand_y, count - have)
            xs_parts.append(take_x)
            ys_parts.append(take_y)
            have += len(take_x)
    # one batch is the usual case, and its arrays need no concatenate
    if len(xs_parts) == 1:
        xs, ys = xs_parts[0], ys_parts[0]
    else:
        xs = np.concatenate(xs_parts) if xs_parts else np.empty(0)
        ys = np.concatenate(ys_parts) if ys_parts else np.empty(0)
    return PointSample._owning(xs, ys, n=n, c=c, seed=seed, frontier_label=f.label)


_ESCAPE = "cell maxima escape the frontier enclosure"


def _enclosure_slack(f_max: np.ndarray) -> float:
    """How far above f_max a cell maximum may lie, for rounding: 1e-9 * max(1, max f_max)."""
    return 1e-9 * max(1.0, float(np.max(f_max, initial=1.0)))


def _check_cell_areas(k_n: int, cell_areas, f_min, f_max) -> None:
    scaled = k_n * cell_areas
    if np.any(scaled < f_min - 1e-8) or np.any(scaled > f_max + 1e-8):
        raise ValueError("cell areas inconsistent with frontier bounds")


@dataclass(frozen=True, eq=False)
class CellStats:
    """Per-cell record: point count, extreme y values, and oracle cell geometry.

    x_star is the largest y among points in the cell and z_star the smallest,
    both 0 when the cell is empty. cell_areas holds the exact area of the
    frontier region over each cell; f_min and f_max enclose the frontier there.
    The public constructor checks every invariant; `cell_stats` builds its
    records through `_binned`, which checks only what binning leaves open.
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
        slack = _enclosure_slack(self.f_max)
        if np.any(self.x_star[occ] > self.f_max[occ] + slack):
            raise ValueError(_ESCAPE)
        _check_cell_areas(k, self.cell_areas, self.f_min, self.f_max)

    @classmethod
    def _binned(cls, counts, x_star, z_star, geometry, cfg) -> "CellStats":
        """A record of fresh binned arrays over the cached geometry of cfg's partition.

        Binning a checked sample gives one entry per cell and 0 <= z_star <=
        x_star, and the cached geometry was checked when it was filled, so
        only the maxima are checked here, against f_max plus the cached
        slack; an empty cell holds 0, which lies below it.
        """
        cell_areas, f_min, f_max, slack = geometry
        if np.any(x_star > f_max + slack):
            raise ValueError(_ESCAPE)
        for arr in (counts, x_star, z_star):
            arr.flags.writeable = False
        stats = object.__new__(cls)
        record = dict(counts=counts, x_star=x_star, z_star=z_star,
                      cell_areas=cell_areas, f_min=f_min, f_max=f_max, cfg=cfg)
        for name, value in record.items():
            object.__setattr__(stats, name, value)
        return stats


@functools.lru_cache(maxsize=2)
def _cell_geometry(f: FrontierSpec, k_n: int) -> tuple:
    """(cell_areas, f_min, f_max, enclosure slack) of the k_n-cell partition; arrays read-only.

    Checked when the cache is filled; a geometry that fails raises and is
    not cached, so every call with it raises.
    """
    edges = np.arange(k_n + 1) / k_n
    cell_areas = f.integral(edges[:-1], edges[1:])
    f_min, f_max = f.range_on(edges[:-1], edges[1:])
    _check_cell_areas(k_n, cell_areas, f_min, f_max)
    for arr in (cell_areas, f_min, f_max):
        arr.flags.writeable = False
    return cell_areas, f_min, f_max, _enclosure_slack(f_max)


def cell_stats(sample: PointSample, cfg: PartitionConfig, f: FrontierSpec) -> CellStats:
    """Count/max/min of y per cell, plus oracle cell geometry from the frontier."""
    if sample.n != cfg.n:
        raise ValueError("sample and partition disagree on n")
    k = cfg.k_n
    geometry = _cell_geometry(f, k)
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
    return CellStats._binned(counts, x_star, z_star, geometry, cfg)
