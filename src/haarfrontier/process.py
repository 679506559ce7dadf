"""Poisson point clouds under a frontier and per-cell extreme statistics.

The observed process is the superposition of n unit-rate-c Poisson
processes restricted to the region under the frontier, i.e. a single
Poisson process with intensity n*c on that region. Sampling is by
rejection from the bounding box [0,1] x [0,M]; the acceptance rate is
bounded below by m/M > 0, and on a flat frontier (m = M) every candidate
is kept without evaluating f. A rejection batch of B candidates that
starts at word s of the Philox stream takes u[s + j] as candidate j's x
and M * u[s + B + j] as its y, and the next batch starts at s + 2B. Each
thread draws the stream with two cursors, one at the x half and one at the
y half of the batch, in fixed-size chunks no longer than the usable rest
of the batch, so every sample is the one whole batches give.

`simulate` checks its arguments and draws the point count; the points are
drawn when the sample is first used. Its xs and ys are filled on their
first use, and until then the binning draws its points straight into the
thread's chunk buffers. `_cell_tables` bins consecutive samples into a
table of one row each: small samples are packed whole into the buffers,
each drawn at the offset where the last one ended, and one pass bins all
that the buffers hold; a sample whose draw takes more than one chunk
streams on alone into its row. A table has at most
max(1, _TABLE_CELLS // k_n) rows, so binning any number of replicates
holds O(chunk + max(k_n, _TABLE_CELLS)) values whatever n is, and
`cell_stats(simulate(...))` is the table of one row.

A PointSample keeps its points in the order given: every cell statistic
is an order-free reduction (count, max, min) over the cells
`uniform_cell_index` assigns, so no estimate depends on row order, and
only the CSV file is written in x order. A sample is checked once: when
it is built, or for a sample from `simulate` when its arrays are filled,
without a copy; the binning bins checked x without checking them again,
and checks the points it draws into the buffers once per pass.

A CellStats record is built only by the binning, and each of its
invariants is established once, where it arises: the cell geometry (areas
within the frontier's range) when `_cell_geometry` fills its cache, the
sample when it is built or filled (or the buffers when they are binned),
and the maxima against the frontier enclosure once per table, the one
check that depends on the data. Binning a checked sample gives one entry
per cell and 0 <= z_star <= x_star by construction. A kernel task's
evaluation points are checked when the task is built (see
`kernels.ReplicateTask`).
"""

from __future__ import annotations

import functools
import math
import numbers
import os
import stat
import threading
import warnings
from dataclasses import dataclass
from typing import NamedTuple

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
        """Bounds of cell r (1-based), an integer in [1, k_n]."""
        r = _require_integer("cell index", r)
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


# Rows per block that to_csv formats in one string operation: the file is
# written in O(block) memory beside the argsort order. On a 2-vCPU host with
# Python 3.11.7 and numpy 2.4.6, 10^5 sine rows took 166, 154, 150 and 166 ms
# (medians of 15 interleaved runs) at 2^8, 2^10, 2^12 and 2^14 rows a block.
_CSV_BLOCK = 1 << 12

# the suffixes by which np.loadtxt, given a file name, opens the file decompressing
_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


def _check_label(value) -> None:
    """Raise unless value is a frontier label that the sample header's one line gives back unchanged."""
    if not isinstance(value, str):
        raise ValueError(f"frontier_label must be a str, got {type(value).__name__}")
    if "\n" in value or "\r" in value or value != value.strip():
        raise ValueError(
            f"frontier_label must be one line without surrounding whitespace, got {value!r}"
        )


def _rows_source(fh) -> tuple:
    """What np.loadtxt reads the rows of the open sample file fh from, and the lines it skips.

    Given a name, loadtxt reads the file in C chunks; given a handle, it
    iterates the lines in Python, at about 1.2 times the cost. So a regular
    file is read again by its name, a relative one prefixed with "./" so
    that numpy cannot take it for a URL. A name with a compression suffix,
    which numpy would decompress, and anything but a regular file are read
    through fh: a pipe cannot be reopened, and its rows that the header read
    buffered would be lost.
    """
    name = fh.name
    if (
        isinstance(name, str)
        and not name.endswith(_COMPRESSED_SUFFIXES)
        and stat.S_ISREG(os.fstat(fh.fileno()).st_mode)
    ):
        return (name if os.path.isabs(name) else os.path.join(os.curdir, name)), 2
    return fh, 0


def _check_values(xs: np.ndarray, ys: np.ndarray) -> None:
    """Raise unless every point is finite, with x in [0, 1] and y >= 0: the check of a sample."""
    # NaN fails every comparison, so this also rejects non-finite values
    if len(xs) and not (
        0.0 <= xs.min() and xs.max() <= 1.0 and 0.0 <= ys.min() and ys.max() < np.inf
    ):
        raise ValueError("sample values must be finite, with x in [0, 1] and y >= 0")


@dataclass(frozen=True, eq=False)
class PointSample:
    """The points (xs[i], ys[i]) of one realization and the parameters that drew it.

    A sample from `simulate` is drawn on demand: its xs and ys are filled,
    and checked, on their first use, and until then the binning draws its
    points straight into the stream's buffers. Any other sample is checked
    when it is built.
    """

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
    def _drawn(cls, draw: "_Draw", **meta) -> "PointSample":
        """The sample of draw's points, with checked meta; xs and ys are left for first use."""
        sample = object.__new__(cls)
        vars(sample).update(meta, _draw=draw)
        return sample

    def __getattr__(self, name):
        # reached only for attributes never set: a drawn sample's xs and ys before first use
        draw = vars(self).get("_draw")
        if draw is None or name not in ("xs", "ys"):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        xs, ys = np.empty(draw.count), np.empty(draw.count)
        have = 0
        for x, y in draw.chunks():
            xs[have : have + len(x)] = x
            ys[have : have + len(y)] = y
            have += len(x)
        # arrays no one else holds: checked and frozen like any other, not copied
        self._check_and_freeze(xs, ys)
        return vars(self)[name]

    def _check_and_freeze(self, xs: np.ndarray, ys: np.ndarray) -> None:
        object.__setattr__(self, "n", _require_integer("n", self.n))
        object.__setattr__(self, "c", _require_rate(self.c))
        object.__setattr__(self, "seed", _require_seed(self.seed))
        _check_label(self.frontier_label)
        if xs.shape != ys.shape or xs.ndim != 1:
            raise ValueError("xs and ys must be 1-d arrays of equal length")
        _check_values(xs, ys)
        xs.flags.writeable = False
        ys.flags.writeable = False
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    def __len__(self) -> int:
        draw = vars(self).get("_draw")
        return len(self.xs) if draw is None else draw.count

    def to_csv(self, path) -> None:
        """Write the sample to path: a header line of its parameters, "x,y", then one row a point.

        The rows are in x order, whatever order the sample holds them in,
        each value as its shortest repr, so `from_csv` reads back the same
        floats. The rows are gathered, formatted and written a block of
        `_CSV_BLOCK` at a time, so the file costs O(block) memory beside the
        order.
        """
        meta = {key: getattr(self, attr) for key, attr, _ in _SAMPLE_HEADER}
        header = ",".join(f"{k}={v!r}" if isinstance(v, float) else f"{k}={v}" for k, v in meta.items())
        xs, ys = self.xs, self.ys
        order = np.argsort(xs)
        with open(path, "w", newline="\n") as fh:
            fh.write(f"{header}\nx,y\n")
            for start in range(0, len(order), _CSV_BLOCK):
                block = order[start : start + _CSV_BLOCK]
                # %r of a Python float is float.__repr__, the shortest text that reads back exactly
                rows = np.column_stack((xs[block], ys[block])).ravel().tolist()
                fh.write("%r,%r\n" * len(block) % tuple(rows))

    @classmethod
    def from_csv(cls, path) -> "PointSample":
        """The sample that `to_csv` wrote to path.

        The header is checked through one handle. The rows are then read by
        one np.loadtxt call: a regular file by its name, anything else, a
        pipe say, through the same handle (see `_rows_source`).
        """
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
                source, skip = _rows_source(fh)
                try:
                    rows = np.loadtxt(source, delimiter=",", comments=None, ndmin=2, skiprows=skip)
                except ValueError as err:
                    raise ValueError(f"malformed sample row: {err}; expected x,y") from None
        if len(rows) and rows.shape[1] != 2:
            raise ValueError(f"malformed sample row: {rows.shape[1]} fields; expected x,y")
        xs, ys = rows.reshape(-1, 2).T
        return cls(xs=xs, ys=ys, **meta)


_THREAD = threading.local()

# Candidates drawn per chunk. A replicate holds two chunks of candidates and
# one of cell indices, about 0.75 MB, whatever its point count. On a 2-vCPU
# x86-64 host with numpy 2.4.6, a replicate of about 5e4 points took 1.69,
# 1.58, 1.52 and 1.50 ms at chunks of 2^13 to 2^16, against 2.5 ms when each
# batch was drawn as one array; past 2^15 the memory doubles for about 1%.
_CHUNK = 1 << 15


class _Stream:
    """One thread's candidate stream: x and y Philox cursors and the chunk buffers they fill.

    `counted` is the draw whose count the x-cursor drew last, while the
    cursor still stands at that draw's first batch; `idx` holds the cell
    indices of the points a binning pass covers.
    """

    __slots__ = ("x_rng", "y_rng", "x", "y", "idx", "counted")

    def __init__(self):
        self.x_rng = np.random.Generator(np.random.Philox(key=0))
        self.y_rng = np.random.Generator(np.random.Philox(key=0))
        self.x = np.empty(_CHUNK)
        self.y = np.empty(_CHUNK)
        self.idx = np.empty(_CHUNK, np.intp)
        self.counted = None


def _thread_stream() -> _Stream:
    """This thread's stream, reused from call to call; `_seek` keys and positions its cursors."""
    stream = getattr(_THREAD, "stream", None)
    if stream is None:
        stream = _THREAD.stream = _Stream()
    return stream


def _seek(rng: np.random.Generator, seed: int, position: int) -> None:
    """Put rng at 64-bit word `position` of the stream of Philox(key=seed).

    Philox(key=seed) has key [seed, 0], counter 0 and an empty output
    buffer; each refill first increments the counter and then yields the
    four words of its block, so word q is word q % 4 of the block at
    counter q // 4 + 1. The state is set absolutely, so the move may go
    backwards, and no fresh SeedSequence (OS entropy) is read. The setter
    reads the words one by one, so plain lists of ints make it about three
    times faster than numpy arrays would.
    """
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": [position // 4, 0, 0, 0], "key": [seed, 0]},
        "buffer": [0, 0, 0, 0],
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


def _batch_size(need: int, accept_rate: float) -> int:
    """Candidates in a rejection batch that starts with `need` points still to draw."""
    return int(need / accept_rate * 1.2) + 16


def _accepted(f: FrontierSpec, cand_x: np.ndarray, cand_y: np.ndarray, need: int) -> int:
    """Keep the first `need` candidates under the frontier, in draw order, at the front.

    Returns how many are kept, all of them if fewer; cand_x and cand_y are
    compacted in place, so the kept points are their first entries.
    """
    if f.m == f.M:  # a flat frontier is M everywhere, and every y = M*u, u < 1, lies under it
        return min(need, len(cand_x))
    keep = cand_y <= f(cand_x)
    if keep[:need].all():
        # the first `need` candidates are the ones a gather would take
        return min(need, len(cand_x))
    # one index gathers both coordinates, about twice as fast as two boolean masks
    kept = np.flatnonzero(keep)[:need]
    cand_x[: len(kept)] = cand_x.take(kept)
    cand_y[: len(kept)] = cand_y.take(kept)
    return len(kept)


class _Draw(NamedTuple):
    """The rejection draw of one realization, from its counted points on.

    The batches start at stream word `start`, where the count's draw left
    the x-cursor; accept_rate is the area under f over M.
    """

    f: FrontierSpec
    seed: int
    count: int
    start: int
    accept_rate: float

    def prefix(self, room: int) -> int:
        """Candidates in the first chunk that `chunks` draws where the buffers have `room`."""
        if not self.count:
            return 0
        need, accept_rate = self.count, self.accept_rate
        return min(room, _batch_size(need, accept_rate), _usable_prefix(need, accept_rate))

    def chunks(self, at: int = 0):
        """The accepted points in draw order, `count` in all, as (x, y) chunks.

        Each chunk is a view of the thread's buffers, valid until the next
        chunk is drawn: the first at offset `at`, within the room left
        there, and each later one at offset 0. Where the chunks split the
        candidates changes no point: every call gives the same points, on
        any thread.
        """
        f, seed, count, start, accept_rate = self
        stream = _thread_stream()
        if stream.counted is not self:
            _seek(stream.x_rng, seed, start)
        stream.counted = None
        have = 0
        while have < count:
            batch = _batch_size(count - have, accept_rate)
            _seek(stream.y_rng, seed, start + batch)
            drawn = 0
            while drawn < batch and have < count:
                m = min(len(stream.x) - at, batch - drawn, _usable_prefix(count - have, accept_rate))
                cand_x = stream.x_rng.random(out=stream.x[at : at + m])
                cand_y = stream.y_rng.random(out=stream.y[at : at + m])
                cand_y *= f.M
                kept = _accepted(f, cand_x, cand_y, count - have)
                drawn += m
                have += kept
                at = 0
                yield cand_x[:kept], cand_y[:kept]
            start += 2 * batch
            if have < count:
                _seek(stream.x_rng, seed, start)


def simulate(f: FrontierSpec, n: int, c: float, seed: int) -> PointSample:
    """Draw one realization of the superposed process restricted to the frontier region.

    Deterministic in seed, an integer in [0, 2^64): the stream is that of
    a counter-based Philox generator keyed by it, and the calling thread's
    cursors are re-keyed for each call. The number of points is Poisson
    with mean n*c times the area under f and, given the count, points are
    i.i.d. uniform under the frontier, drawn by rejection from [0,1] x [0,M].

    Stream layout: a candidate batch of size B that starts at stream word s
    takes u[s + j] as candidate j's x and M * u[s + B + j] as its y, keeps
    the first accepted candidates, and the next batch starts at s + 2B.
    The x-cursor draws the count from word 0 and then stands at s; the
    y-cursor is sought to s + B. Both draw the batch chunk by chunk, and
    no chunk is longer than the usable prefix of what is still needed, so
    little of a batch past its last kept point is drawn. The sample is the
    one whole batches give.

    The arguments are checked and the count is drawn here; the points are
    drawn when the sample is first used (see `PointSample`), and its
    arrays, once filled, are read-only.
    """
    seed, n, c = _require_seed(seed), _require_integer("n", n), _require_rate(c)
    if n < 1:
        raise ValueError("n must be a positive integer")
    total_area = f._mass
    if f.M / total_area > 1e6:
        raise ValueError(
            f"rejection sampling would be pathological: M/mean(f) = {f.M / total_area:.3g} > 1e6"
        )
    stream = _thread_stream()
    stream.counted = None  # the x-cursor moves on, even if the count fails
    _seek(stream.x_rng, seed, 0)
    mean = n * c * total_area
    try:
        count = int(stream.x_rng.poisson(mean))
    except ValueError:
        # numpy draws Poisson counts only up to about 9.2e18
        raise ValueError(
            f"the mean point count n*c*integral(f) = {mean:.6g} is too large to draw"
        ) from None
    draw = stream.counted = _Draw(f, seed, count, _position(stream.x_rng), total_area / f.M)
    return PointSample._drawn(draw, n=n, c=c, seed=seed, frontier_label=f.label)


@dataclass(frozen=True, eq=False)
class CellStats:
    """Per-cell record of a binned sample: point count, extreme y values, and oracle cell geometry.

    x_star is the largest y among points in the cell and z_star the smallest,
    both 0 when the cell is empty. cell_areas holds the exact area of the
    frontier region over each cell, and f_max the frontier's maximum there.
    Every array is read-only. A record is built only by `cell_stats`, with
    arrays of shape (k_n,), or as a table by `_cell_tables`, whose counts,
    x_star and z_star have one row per sample; CellStats(...) raises
    TypeError.
    """

    counts: np.ndarray
    x_star: np.ndarray
    z_star: np.ndarray
    cell_areas: np.ndarray
    f_max: np.ndarray
    cfg: PartitionConfig

    def __init__(self, *args, **kwargs):
        raise TypeError("a CellStats record is built only by cell_stats")


@functools.lru_cache(maxsize=1)
def _cell_geometry(f: FrontierSpec, k_n: int) -> tuple:
    """(cell_areas, f_max, enclosure slack) of the k_n-cell partition; arrays read-only.

    The slack, 1e-9 * max(1, max f_max), is how far above f_max a cell
    maximum may lie, for rounding. Checked when the cache is filled: each
    k_n * area lies within the frontier's range over its cell, up to 1e-8.
    A geometry that fails raises and is not cached, so every call with it
    raises.
    """
    edges = np.arange(k_n + 1) / k_n
    cell_areas = f.integral(edges[:-1], edges[1:])
    f_min, f_max = f.range_on(edges[:-1], edges[1:])
    scaled = k_n * cell_areas
    if np.any(scaled < f_min - 1e-8) or np.any(scaled > f_max + 1e-8):
        raise ValueError("cell areas inconsistent with frontier bounds")
    cell_areas.flags.writeable = False
    f_max.flags.writeable = False
    return cell_areas, f_max, 1e-9 * max(1.0, float(np.max(f_max, initial=1.0)))


def cell_stats(sample: PointSample, cfg: PartitionConfig, f: FrontierSpec) -> CellStats:
    """Count/max/min of y per cell, plus oracle cell geometry from the frontier.

    The one-row case of `_cell_tables`: a sample from `simulate` that was
    not used before is binned straight from its stream, and the record
    takes O(chunk + k_n) memory whatever the point count. Each reduction is
    order-free and exact, so the record is the same however the points are
    split into chunks, and whether or not the sample's arrays were filled.
    """
    if sample.n != cfg.n:
        raise ValueError("sample and partition disagree on n")
    table = next(_cell_tables([sample], 1, cfg, f))
    return _record(table.counts[0], table.x_star[0], table.z_star[0], table.cell_areas,
                   table.f_max, cfg)


def _record(counts, x_star, z_star, cell_areas, f_max, cfg) -> CellStats:
    stats = object.__new__(CellStats)
    vars(stats).update(counts=counts, x_star=x_star, z_star=z_star,
                       cell_areas=cell_areas, f_max=f_max, cfg=cfg)
    return stats


# Cells in one table of `_cell_tables`: a table holds at most
# max(1, _TABLE_CELLS // k_n) replicates, so its three arrays take at most
# 384 KB beside the stream's chunk buffers (or one row, when k_n is larger),
# whatever the replicate count. On a 2-vCPU x86-64 host with numpy 2.4.6,
# 500 replicates of weibull's partition (k_n = 512) took 52.8 ms at 2^14
# cells and 60.7 ms at 2^16 (medians of 16 alternating runs); variance's
# (k_n = 256) took 49.9 and 50.3 ms.
_TABLE_CELLS = 1 << 14


def _cell_tables(samples, count: int, cfg: PartitionConfig, f: FrontierSpec):
    """The cell records of `count` samples of cfg.n, in order, as tables of one row a sample.

    Each table is a CellStats whose counts, x_star and z_star have shape
    (rows, k_n), at most max(1, _TABLE_CELLS // k_n) rows. A sample from
    `simulate` whose arrays are unfilled is drawn straight into the
    thread's chunk buffers, after the points already waiting there, if the
    first chunk of its draw fits; otherwise the waiting points are binned
    first. One binning pass over the buffers then serves every sample they
    hold: one value check, a cell index offset by row * k_n, one bincount,
    one maximum.at and one minimum.at. A sample whose draw takes more than
    one chunk streams on alone into its row, and a sample whose arrays are
    filled (checked already) is binned from them, chunk by chunk. Empty
    cells are set to 0 and the maxima checked against f_max plus the
    geometry's slack once per table; every array is read-only.
    """
    k = cfg.k_n
    cell_areas, f_max, slack = _cell_geometry(f, k)
    stream = _thread_stream()
    room = len(stream.x)
    per_table = max(1, _TABLE_CELLS // k)
    samples = iter(samples)
    for first in range(0, count, per_table):
        rows = min(per_table, count - first)
        counts = np.zeros((rows, k), np.intp)
        x_star = np.full((rows, k), -np.inf)
        z_star = np.full((rows, k), np.inf)
        cells = (counts.reshape(-1), x_star.reshape(-1), z_star.reshape(-1))
        runs = []  # (row, end) of each sample's run of the points waiting in the buffers
        for row in range(rows):
            sample = next(samples)
            if "xs" in vars(sample):  # checked when its arrays were filled
                xs, ys = sample.xs, sample.ys
                for i in range(0, len(xs), room):
                    x = xs[i : i + room]
                    _bin(cells, k, stream.idx, x, ys[i : i + room], [(row, len(x))])
                continue
            draw = sample._draw
            fill = runs[-1][1] if runs else 0
            if draw.prefix(room) > room - fill:
                _bin_buffers(cells, k, stream, runs)
                fill = 0
            have = 0
            for x, _ in draw.chunks(at=fill):
                fill += len(x)
                have += len(x)
                runs.append((row, fill))
                if have < draw.count:  # the next chunk is drawn at offset 0
                    _bin_buffers(cells, k, stream, runs)
                    fill = 0
        _bin_buffers(cells, k, stream, runs)
        empty = counts == 0
        x_star[empty] = 0.0
        z_star[empty] = 0.0
        # an empty cell holds 0, which lies below f_max plus the slack
        if (x_star > f_max + slack).any():
            raise ValueError("cell maxima escape the frontier enclosure")
        for arr in (counts, x_star, z_star):
            arr.flags.writeable = False
        yield _record(counts, x_star, z_star, cell_areas, f_max, cfg)


def _bin_buffers(cells: tuple, k: int, stream: _Stream, runs: list) -> None:
    """Bin the points waiting in the stream's buffers, checked as a sample is, and clear `runs`."""
    if runs:
        fill = runs[-1][1]
        x, y = stream.x[:fill], stream.y[:fill]
        _check_values(x, y)
        _bin(cells, k, stream.idx, x, y, runs)
        runs.clear()


def _bin(cells: tuple, k: int, idx_buf: np.ndarray, x: np.ndarray, y: np.ndarray, runs: list) -> None:
    """Bin the checked points (x, y) into the flat table `cells` (counts, maxima, minima).

    `runs` gives, in order, the row and the end of each run of points that
    belongs to one row; rows only grow along the points.
    """
    if not len(x):
        return
    low = runs[0][0]
    idx = _cell_index(x, k, out=idx_buf[: len(x)])
    start = 0
    for row, end in runs:
        if row != low:
            idx[start:end] += (row - low) * k
        start = end
    span = slice(low * k, (runs[-1][0] + 1) * k)
    counts, x_star, z_star = (arr[span] for arr in cells)
    counts += np.bincount(idx, minlength=len(counts))
    np.maximum.at(x_star, idx, y)
    np.minimum.at(z_star, idx, y)
