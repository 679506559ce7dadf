import dataclasses
import itertools
import math
import os
import sys
import threading
import tracemalloc
import types
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from haarfrontier import process
from haarfrontier.frontiers import FrontierSpec, parse_frontier
from haarfrontier.process import (
    CellStats,
    PartitionConfig,
    PointSample,
    _cell_geometry,
    _position,
    _seek,
    cell_stats,
    simulate,
)

from crosschecks import (
    SHIPPED_LABELS,
    cell_centers,
    cell_geometry_loop,
    check_cell_record,
    frontier,
    sample_from_csv_through_handle,
    sample_to_csv_per_row,
    simulate_fresh_philox,
    sorted_run_cell_extremes,
)

# 99.9th percentile of chi-squared with 15 degrees of freedom
_CHI2_15_999 = 37.6973


def test_partition_config_fields() -> None:
    pc = PartitionConfig(n=4096, h_prime=4, d_n=16)
    assert pc.h_n == 15
    assert pc.k_n == 256
    centers = cell_centers(pc)
    assert centers[0] == pytest.approx(1.0 / 512.0)
    assert centers[-1] == pytest.approx(511.0 / 512.0)
    assert pc.cell_bounds(1) == (0.0, 1.0 / 256.0)
    assert pc.cell_bounds(256) == (255.0 / 256.0, 1.0)


def test_partition_config_validation() -> None:
    with pytest.raises(ValueError):
        PartitionConfig(n=0, h_prime=1, d_n=1)
    with pytest.raises(ValueError):
        PartitionConfig(n=10, h_prime=-1, d_n=1)
    with pytest.raises(ValueError):
        PartitionConfig(n=10, h_prime=1, d_n=0)
    with pytest.raises(ValueError):
        PartitionConfig(n=10, h_prime=1, d_n=2).cell_bounds(5)


@pytest.mark.parametrize("r", [1.5, 1.0, True], ids=["1.5", "1.0", "True"])
def test_cell_bounds_takes_an_integer_index(r) -> None:
    # 1.5 used to give (0.125, 0.375), which is no cell, and True cell 1
    with pytest.raises(ValueError, match="cell index must be an integer"):
        PartitionConfig(n=10, h_prime=1, d_n=2).cell_bounds(r)


def test_cell_bounds_accepts_numpy_integers() -> None:
    pc = PartitionConfig(n=10, h_prime=1, d_n=2)
    assert pc.cell_bounds(np.int64(2)) == pc.cell_bounds(2) == (0.25, 0.5)


@pytest.mark.parametrize(
    "fields",
    [
        {"n": 10, "h_prime": 2.5, "d_n": 1},
        {"n": 10, "h_prime": 2.0, "d_n": 1},
        {"n": 10, "h_prime": 2, "d_n": 2.0},
        {"n": 10.0, "h_prime": 2, "d_n": 1},
        {"n": True, "h_prime": 2, "d_n": 1},
        {"n": 10, "h_prime": False, "d_n": 1},
    ],
    ids=["h_prime-2.5", "h_prime-2.0", "d_n-2.0", "n-10.0", "n-True", "h_prime-False"],
)
def test_partition_config_requires_integer_fields(fields) -> None:
    with pytest.raises(ValueError, match="must be an integer"):
        PartitionConfig(**fields)


def test_partition_config_accepts_numpy_integers() -> None:
    pc = PartitionConfig(n=np.int64(10), h_prime=np.uint8(3), d_n=np.uint8(200))
    assert pc == PartitionConfig(n=10, h_prime=3, d_n=200)
    assert type(pc.k_n) is int and pc.k_n == 1600  # not 1600 mod 256, as uint8 arithmetic gives


def test_simulate_reproducible_and_contained(tmp_path) -> None:
    f = parse_frontier("sine:a=1.0,b=0.25")
    a = simulate(f, 500, 1.0, 12345)
    b = simulate(f, 500, 1.0, 12345)
    assert np.array_equal(a.xs, b.xs) and np.array_equal(a.ys, b.ys)
    c = simulate(f, 500, 1.0, 12346)
    assert not np.array_equal(a.xs, c.xs)
    assert np.all((a.xs >= 0.0) & (a.xs <= 1.0))
    assert np.all((a.ys >= 0.0) & (a.ys <= f(a.xs)))
    # the sample keeps its draw order; to_csv writes rows in x order
    path = tmp_path / "sample.csv"
    a.to_csv(path)
    rows = np.loadtxt(path, delimiter=",", skiprows=2)
    assert np.all(np.diff(rows[:, 0]) >= 0.0)
    assert sorted(map(tuple, rows)) == sorted(zip(a.xs, a.ys))


@pytest.mark.parametrize(
    "n, message",
    [
        (1e3, "n must be an integer"),
        (1000.0, "n must be an integer"),
        (True, "n must be an integer"),
        (0, "n must be a positive integer"),
    ],
    ids=["1e3", "1000.0", "True", "0"],
)
def test_simulate_requires_integer_n(n, message) -> None:
    # a float n used to reach the file as "n=1000.0", which from_csv cannot read
    with pytest.raises(ValueError, match=message):
        simulate(parse_frontier("constant:a=1.0"), n, 1.0, 1)


@pytest.mark.parametrize("seed", [3.7, 3.0, True], ids=["3.7", "3.0", "True"])
def test_simulate_requires_integer_seed(seed) -> None:
    # a float seed used to be truncated: 3.7 drew and recorded seed 3
    with pytest.raises(ValueError, match="seed must be an integer"):
        simulate(parse_frontier("constant:a=1.0"), 100, 1.0, seed)


@pytest.mark.parametrize(
    "c, message",
    [
        (math.nan, "must be finite and positive, got nan"),
        (math.inf, "must be finite and positive, got inf"),
        (-math.inf, "must be finite and positive"),
        (0.0, "must be finite and positive"),
        (-1.0, "must be finite and positive"),
        (True, "must be a real number"),
        ("1.0", "must be a real number"),
    ],
    ids=["nan", "inf", "-inf", "0", "-1", "True", "str"],
)
def test_rate_must_be_finite_and_positive(c, message) -> None:
    # NaN used to pass `c <= 0.0` and fail inside numpy's Poisson draw
    f = parse_frontier("constant:a=1.0")
    with pytest.raises(ValueError, match=f"intensity rate c {message}"):
        simulate(f, 100, c, 1)
    with pytest.raises(ValueError, match=f"intensity rate c {message}"):
        PointSample(np.array([0.5]), np.array([0.5]), n=1, c=c, seed=0, frontier_label=f.label)


def test_rate_is_stored_as_a_float(tmp_path) -> None:
    f = parse_frontier("constant:a=1.0")
    assert simulate(f, 100, 2, 1).c == 2.0
    t = PointSample(np.array([0.5]), np.array([0.5]), n=1, c=np.float32(2), seed=0, frontier_label=f.label)
    assert type(t.c) is float and t.c == 2.0
    path = tmp_path / "sample.csv"
    t.to_csv(path)
    assert path.read_text().startswith("n=1,c=2.0,seed=0,")


@pytest.mark.parametrize("seed", [-1, 2**64], ids=["-1", "2^64"])
def test_seed_must_be_a_generator_key(seed) -> None:
    # -1 used to key the generator as 2^64 - 1 while recording seed=-1
    f = parse_frontier("constant:a=1.0")
    with pytest.raises(ValueError, match="seed must lie in \\[0, 2\\*\\*64\\)"):
        simulate(f, 100, 1.0, seed)
    with pytest.raises(ValueError, match="seed must lie in \\[0, 2\\*\\*64\\)"):
        PointSample(np.array([0.5]), np.array([0.5]), n=1, c=1.0, seed=seed, frontier_label=f.label)


@pytest.mark.parametrize("seed", [0, 2**64 - 1], ids=["0", "2^64-1"])
def test_seed_range_ends_are_keys(seed) -> None:
    f = parse_frontier("constant:a=1.0")
    s = simulate(f, 100, 1.0, seed)
    assert s.seed == seed
    t = PointSample(s.xs, s.ys, n=100, c=1.0, seed=np.uint64(seed), frontier_label=f.label)
    assert t.seed == seed


# (label, n, seed, candidate batches the rejection loop draws): the shipped
# families at the ends of the seed range, and a frontier with acceptance
# rate about 0.02 whose seed 2 runs out of candidates in the first batch
FRESH_PHILOX_CASES = [
    *((label, 2000, seed, 1) for label in SHIPPED_LABELS for seed in (0, 5, 2**64 - 1)),
    ("two_level:lo=0.01,hi=1.0,split=0.99", 500, 2, 2),
]


@pytest.mark.parametrize("label, n, seed, batches", FRESH_PHILOX_CASES)
def test_simulate_matches_fresh_philox_reference(label, n, seed, batches) -> None:
    f = frontier(label)
    want, drawn = simulate_fresh_philox(f, n, 1.0, seed)
    assert drawn == batches
    for _ in range(2):  # the re-keyed generator starts afresh each call
        got = simulate(f, n, 1.0, seed)
        assert got.xs.tobytes() == want.xs.tobytes() and got.ys.tobytes() == want.ys.tobytes()
    assert (got.n, got.c, got.seed, got.frontier_label) == (n, 1.0, seed, f.label)


# flat frontiers, whose declared bounds meet, in each form a shipped family gives one
FLAT_LABELS = (
    "constant:a=1.3",
    "two_level:lo=0.9,hi=0.9,split=0.4",
    "sine:a=1.0,b=0.0",
    "affine:a=1.0,b=0.0",
)


@pytest.mark.parametrize("chunks", [1, 2, 3])
@pytest.mark.parametrize("label", FLAT_LABELS)
def test_flat_frontier_draw_matches_the_reference_that_evaluates_f(label, chunks) -> None:
    # the draw keeps every candidate without evaluating f; the reference
    # evaluates f on each batch and keeps those on or under it
    f = parse_frontier(label)
    assert f.m == f.M
    n = int((chunks - 0.5) * process._CHUNK / f.integral(0.0, 1.0))
    want, drawn = simulate_fresh_philox(f, n, 1.0, 29)
    got = simulate(f, n, 1.0, 29)
    assert drawn == 1 and -(-len(got) // process._CHUNK) == chunks
    assert got.xs.tobytes() == want.xs.tobytes() and got.ys.tobytes() == want.ys.tobytes()
    cfg = PartitionConfig(n=n, h_prime=5, d_n=3)
    streamed, filled = cell_stats(simulate(f, n, 1.0, 29), cfg, f), cell_stats(got, cfg, f)
    for name in ("counts", "x_star", "z_star"):
        a, b = getattr(streamed, name), getattr(filled, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert int(streamed.counts.sum()) == len(got)


def _small_chunks(mp, size) -> None:
    """Draw and bin in chunks of `size` from here on, on fresh thread streams of that size."""
    mp.setattr(process, "_CHUNK", size)
    mp.setattr(process, "_THREAD", threading.local())


def _record_seeks(monkeypatch) -> list:
    """The stream positions `simulate` seeks its cursors to, in order, from here on."""
    seeks = []

    def recording_seek(rng, seed, position):
        seeks.append(position)
        _seek(rng, seed, position)

    monkeypatch.setattr(process, "_seek", recording_seek)
    return seeks


def _first_batch(f, n, seed) -> tuple:
    """(s, B): the stream word where the first rejection batch starts, and its size."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    area = f.integral(0.0, 1.0)
    count = int(rng.poisson(n * area))
    return _position(rng), int(count / (area / f.M) * 1.2) + 16


# (label, n): each shipped family at an n where the usable prefix of one
# batch is shorter than the batch, and longer than a chunk for the constant
PREFIX_CASES = [("constant:a=1.3", 50_000), *((label, 10_000) for label in SHIPPED_LABELS[1:])]


@pytest.mark.parametrize("seed", [0, 2**64 - 1], ids=["0", "2^64-1"])
@pytest.mark.parametrize("label, n", PREFIX_CASES)
def test_prefix_draw_matches_fresh_philox_reference(monkeypatch, label, n, seed) -> None:
    f = frontier(label)
    want, drawn = simulate_fresh_philox(f, n, 1.0, seed)
    assert drawn == 1
    start, batch = _first_batch(f, n, seed)
    seeks = _record_seeks(monkeypatch)
    got = simulate(f, n, 1.0, seed)
    assert seeks == [0]  # the count is drawn, the points are left for first use
    got.xs
    # the x-cursor left at s by the count, and the y-cursor sought to s + B: one batch held enough
    assert seeks == [0, start + batch]
    # both cursors stopped at the same candidate, short of the end of the batch
    stream = process._thread_stream()
    used = _position(stream.x_rng) - start
    assert _position(stream.y_rng) == start + batch + used
    assert used < batch
    assert got.xs.tobytes() == want.xs.tobytes() and got.ys.tobytes() == want.ys.tobytes()


@pytest.mark.parametrize(
    "label, n, seed, batches",
    [
        ("constant:a=1.3", 2000, 5, 1),
        ("affine:a=1.0,b=0.5", 2000, 0, 1),
        ("sine:a=1.0,b=-0.25", 500, 2**64 - 1, 1),
        ("two_level:lo=1.2,hi=0.8,split=0.3", 2000, 7, 1),
        FRESH_PHILOX_CASES[-1],
    ],
)
def test_prefix_shortfall_draws_the_rest_of_the_batch(monkeypatch, label, n, seed, batches) -> None:
    # a prefix of about half the points still needed always falls short, so
    # each batch is drawn in many chunks, to its end when it runs out
    monkeypatch.setattr(process, "_usable_prefix", lambda need, accept_rate: need // 2 + 1)
    f = frontier(label)
    want, drawn = simulate_fresh_philox(f, n, 1.0, seed)
    assert drawn == batches
    seeks = _record_seeks(monkeypatch)
    got = simulate(f, n, 1.0, seed)
    assert got.xs.tobytes() == want.xs.tobytes() and got.ys.tobytes() == want.ys.tobytes()
    # x keyed at word 0, y sought to each batch's y half, x to each later batch's start
    assert len(seeks) == 2 * batches


@pytest.mark.parametrize("label, n, seed, batches", FRESH_PHILOX_CASES)
def test_small_chunks_match_fresh_philox_reference(monkeypatch, label, n, seed, batches) -> None:
    _small_chunks(monkeypatch, 7)
    f = frontier(label)
    want, _ = simulate_fresh_philox(f, n, 1.0, seed)
    got = simulate(f, n, 1.0, seed)
    assert got.xs.tobytes() == want.xs.tobytes() and got.ys.tobytes() == want.ys.tobytes()


_MULTI_BATCH = FRESH_PHILOX_CASES[-1]


def _filled(sample: PointSample) -> PointSample:
    """The sample, its arrays filled: `cell_stats` then bins them, not the stream."""
    sample.xs
    return sample


@settings(max_examples=60, deadline=None)
@given(
    label=st.sampled_from([*SHIPPED_LABELS, _MULTI_BATCH[0]]),
    n=st.integers(1, 3000),
    h_prime=st.integers(0, 6),
    d_n=st.sampled_from([1, 3]),
    seed=st.integers(0, 2**64 - 1),
    chunk=st.sampled_from([7, process._CHUNK]),
    interleaved=st.booleans(),
)
# seed 0 draws no point at all; the low-acceptance frontier runs out of its first batch
@example(label="constant:a=1.3", n=1, h_prime=2, d_n=1, seed=0, chunk=7, interleaved=False)
@example(
    label=_MULTI_BATCH[0], n=_MULTI_BATCH[1], h_prime=3, d_n=3, seed=_MULTI_BATCH[2], chunk=7,
    interleaved=True,
)
def test_stats_binned_from_the_stream_match_the_filled_sample(
    label, n, h_prime, d_n, seed, chunk, interleaved
) -> None:
    f = frontier(label)
    cfg = PartitionConfig(n=n, h_prime=h_prime, d_n=d_n)
    with pytest.MonkeyPatch.context() as mp:
        _small_chunks(mp, chunk)
        sample = simulate(f, n, 1.0, seed)
        if interleaved:
            # another draw moves the cursors away from where the count left them
            _filled(simulate(f, n, 1.0, seed ^ 1))
        got = cell_stats(sample, cfg, f)
        want = cell_stats(_filled(simulate(f, n, 1.0, seed)), cfg, f)
    for name in ("counts", "x_star", "z_star"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert not a.flags.writeable
    for name in ("cell_areas", "f_max"):
        assert getattr(got, name) is getattr(want, name)  # the cached geometry
    assert got.cfg == cfg
    check_cell_record(got, f)


# (c, seed) of each sample of a table at n = 64: about 64 points, none, about
# 38,400 (more than a chunk of 2^15, so its draw streams on alone between the
# small ones), 32 and 128
TABLE_SAMPLES = ((1.0, 1), (1e-4, 2), (600.0, 3), (0.5, 4), (2.0, 5))


@pytest.mark.parametrize("filled", ["none", "alternate", "all"])
@pytest.mark.parametrize("rows", [1, 2, None], ids=["rows-1", "rows-2", "rows-cap"])
@pytest.mark.parametrize("chunk", [64, process._CHUNK])
@pytest.mark.parametrize("label", ["constant:a=1.0", "affine:a=1.0,b=0.5", "sine:a=1.0,b=0.25"])
def test_each_table_row_is_its_sample_binned_on_its_own(label, chunk, rows, filled) -> None:
    # samples packed into the stream's buffers, streamed alone, or read from
    # their filled arrays all bin to the rows of the sorted-run reference
    f = parse_frontier(label)
    cfg = PartitionConfig(n=64, h_prime=3, d_n=3)
    want = [_filled(simulate(f, cfg.n, c, seed)) for c, seed in TABLE_SAMPLES]
    assert [len(s) for s in want][1] == 0 and len(want[2]) > process._CHUNK
    with pytest.MonkeyPatch.context() as mp:
        _small_chunks(mp, chunk)
        if rows is not None:
            mp.setattr(process, "_TABLE_CELLS", rows * cfg.k_n)
        samples = [simulate(f, cfg.n, c, seed) for c, seed in TABLE_SAMPLES]
        for i, sample in enumerate(samples):
            if filled == "all" or (filled == "alternate" and i % 2):
                _filled(sample)
        seeks = _record_seeks(mp)
        tables = list(process._cell_tables(iter(samples), len(samples), cfg, f))
    # a filled sample is binned from its arrays, without drawing it again
    assert (seeks == []) == (filled == "all")
    assert [len(t.counts) for t in tables] == ([rows] * 5 if rows == 1 else [2, 2, 1] if rows else [5])
    geometry = _cell_geometry(f, cfg.k_n)
    for table in tables:
        assert table.cfg is cfg and (table.cell_areas, table.f_max) == geometry[:2]
        for name in ("counts", "x_star", "z_star"):
            arr = getattr(table, name)
            assert arr.shape[1:] == (cfg.k_n,) and not arr.flags.writeable
    got = [(t.counts[r], t.x_star[r], t.z_star[r]) for t in tables for r in range(len(t.counts))]
    for sample, row in zip(want, got):
        for a, b in zip(row, sorted_run_cell_extremes(sample.xs, sample.ys, cfg.k_n)):
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", [2000, 50_000], ids=["packed", "streamed"])
def test_each_binning_pass_checks_the_points_drawn_into_the_buffers(monkeypatch, n) -> None:
    # a point below the frontier's box fails the sample check before it is binned
    accepted = process._accepted

    def one_bad_point(f, cand_x, cand_y, need):
        kept = accepted(f, cand_x, cand_y, need)
        cand_y[kept - 1 : kept] = -1.0
        return kept

    monkeypatch.setattr(process, "_accepted", one_bad_point)
    f = parse_frontier("constant:a=1.0")
    cfg = PartitionConfig(n=n, h_prime=3, d_n=1)
    samples = (simulate(f, n, 1.0, seed) for seed in range(3))
    with pytest.raises(ValueError, match="sample values must be finite, with x in"):
        list(process._cell_tables(samples, 3, cfg, f))
    with pytest.raises(ValueError, match="sample values must be finite, with x in"):
        cell_stats(simulate(f, n, 1.0, 7), cfg, f)


def test_cell_stats_is_the_one_row_table() -> None:
    f = parse_frontier("sine:a=1.0,b=0.25")
    cfg = PartitionConfig(n=3000, h_prime=4, d_n=3)
    stats = cell_stats(simulate(f, cfg.n, 1.0, 8), cfg, f)
    (table,) = process._cell_tables([simulate(f, cfg.n, 1.0, 8)], 1, cfg, f)
    for name in ("counts", "x_star", "z_star"):
        assert getattr(stats, name).tobytes() == getattr(table, name).tobytes()
        assert getattr(table, name).shape == (1, cfg.k_n)
    check_cell_record(stats, f)


def test_drawn_sample_fills_the_same_points_wherever_it_is_first_used() -> None:
    f = parse_frontier("sine:a=1.0,b=0.25")
    want, _ = simulate_fresh_philox(f, 2000, 1.0, 11)
    here, there = simulate(f, 2000, 1.0, 11), simulate(f, 2000, 1.0, 11)
    assert len(here) == len(want)  # the count is known before the points are drawn
    simulate(f, 300, 1.0, 12).xs
    filled = []
    worker = threading.Thread(target=lambda: filled.append(there.ys.tobytes()))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    assert here.xs.tobytes() == want.xs.tobytes() and here.ys.tobytes() == want.ys.tobytes()
    assert filled == [want.ys.tobytes()]
    assert not here.xs.flags.writeable and not there.ys.flags.writeable
    with pytest.raises(AttributeError, match="no attribute 'zs'"):
        here.zs


def test_drawn_sample_survives_a_draw_that_fails_after_moving_the_cursor() -> None:
    f = parse_frontier("constant:a=1.0")
    want, _ = simulate_fresh_philox(f, 500, 1.0, 4)
    sample = simulate(f, 500, 1.0, 4)
    with pytest.raises(ValueError, match="too large to draw"):
        simulate(f, 10, 1e300, 5)
    assert sample.xs.tobytes() == want.xs.tobytes()


def test_replicate_memory_does_not_grow_with_n() -> None:
    # numpy reports its buffers to tracemalloc; a sample of about 10^6
    # points holds 16 MB, and a replicate holds a few chunks and k_n cells
    f = parse_frontier("constant:a=1.0")
    n = 10**6
    cfg = PartitionConfig(n=n, h_prime=4, d_n=1)

    def peak_bytes(replicate) -> int:
        tracemalloc.start()
        try:
            replicate()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak_bytes(lambda: cell_stats(simulate(f, n, 1.0, 3), cfg, f)) < 4 * 2**20
    assert peak_bytes(lambda: cell_stats(_filled(simulate(f, n, 1.0, 3)), cfg, f)) > 15 * 10**6


def test_seek_matches_one_contiguous_draw() -> None:
    seed = 2**64 - 3
    stream = np.random.Philox(key=seed).random_raw(80)
    rng = np.random.Generator(np.random.Philox(key=0))
    # forwards through every residue mod 4, then backwards through each again
    for q in (0, 1, 2, 3, 4, 9, 14, 23, 60, 41, 30, 7, 5, 0):
        _seek(rng, seed, q)
        assert _position(rng) == q
        assert np.array_equal(rng.bit_generator.random_raw(12), stream[q : q + 12])
        _seek(rng, seed, q)
        # random() makes one double of each word, from its top 53 bits
        assert np.array_equal(rng.random(12), (stream[q : q + 12] >> np.uint64(11)) * 2.0**-53)
        assert _position(rng) == q + 12


def test_seek_resumes_the_stream_after_a_poisson_draw() -> None:
    rng = np.random.Generator(np.random.Philox(key=0))
    residues = set()
    # small means draw one uniform per step, large ones two per PTRS trial
    for lam in (3.0, 5e4):
        for seed in range(12):
            ref = np.random.Generator(np.random.Philox(key=seed))
            ref.poisson(lam)
            start = _position(ref)
            residues.add(start % 4)
            want = ref.random(30)
            for skip in (0, 7, 2, 0):  # forwards, then back
                _seek(rng, seed, start + skip)
                assert rng.random(30 - skip).tobytes() == want[skip:].tobytes()
    assert residues == {0, 1, 2, 3}


def _threads_match_serial(replicate) -> None:
    """replicate(seed) -> bytes gives the same in four concurrent threads as serially."""
    # more threads than cores, switching often: a generator or buffer shared
    # between threads would hand one thread's draws to another
    seeds = {t: range(100 * t, 100 * t + 30) for t in range(4)}
    serial = {t: [replicate(s) for s in seeds[t]] for t in seeds}
    threaded = {t: [] for t in seeds}
    start = threading.Barrier(len(seeds))

    def draw(t):
        start.wait()
        threaded[t].extend(replicate(s) for s in seeds[t])

    workers = [threading.Thread(target=draw, args=(t,)) for t in seeds]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert threaded == serial


def test_simulate_in_concurrent_threads_matches_serial() -> None:
    f = parse_frontier("sine:a=1.0,b=0.25")
    _threads_match_serial(lambda s: simulate(f, 500, 1.0, s).xs.tobytes())


def test_replicate_stats_in_concurrent_threads_match_serial(monkeypatch) -> None:
    # small chunks, so each replicate switches threads between its chunks
    _small_chunks(monkeypatch, 64)
    f = parse_frontier("sine:a=1.0,b=0.25")
    cfg = PartitionConfig(n=500, h_prime=3, d_n=3)

    def replicate(seed):
        stats = cell_stats(simulate(f, 500, 1.0, seed), cfg, f)
        return stats.counts.tobytes() + stats.x_star.tobytes() + stats.z_star.tobytes()

    _threads_match_serial(replicate)


@pytest.mark.parametrize("label", SHIPPED_LABELS)
def test_simulated_sample_is_read_only_and_bins_like_a_copy(label) -> None:
    f = frontier(label)
    s = simulate(f, 3000, 1.0, 17)
    assert not s.xs.flags.writeable and not s.ys.flags.writeable
    with pytest.raises(ValueError):
        s.xs[0] = 0.5
    copy = PointSample(s.xs, s.ys, n=s.n, c=s.c, seed=s.seed, frontier_label=s.frontier_label)
    assert not np.shares_memory(copy.xs, s.xs)
    for cfg in (PartitionConfig(n=3000, h_prime=3, d_n=3), PartitionConfig(n=3000, h_prime=5, d_n=1)):
        got, want = cell_stats(s, cfg, f), cell_stats(copy, cfg, f)
        for name in ("counts", "x_star", "z_star"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


@pytest.mark.parametrize("n", [1e3, 1000.0, True], ids=["1e3", "1000.0", "True"])
def test_point_sample_requires_integer_n(n) -> None:
    with pytest.raises(ValueError, match="n must be an integer"):
        PointSample(np.array([0.5]), np.array([0.5]), n=n, c=1.0, seed=0, frontier_label="constant:a=1.0")


def test_point_sample_stores_numpy_integers_as_int(tmp_path) -> None:
    f = parse_frontier("constant:a=1.0")
    s = simulate(f, np.int64(1000), 1.0, 1)
    assert type(s.n) is int and s.n == 1000
    t = PointSample(s.xs, s.ys, n=np.uint16(1000), c=1.0, seed=np.uint64(1), frontier_label=f.label)
    assert type(t.n) is int and type(t.seed) is int
    path = tmp_path / "sample.csv"
    t.to_csv(path)
    assert path.read_text().splitlines()[0] == "n=1000,c=1.0,seed=1,frontier=constant:a=1.0"
    assert PointSample.from_csv(path).n == 1000


def test_simulate_vanishing_intensity_gives_empty_sample() -> None:
    s = simulate(parse_frontier("constant:a=1.0"), 1, 1e-12, 7)
    assert len(s) == 0


def test_simulate_count_is_poisson_with_mean_nc_area() -> None:
    # mean over R seeds within 3*sqrt(mean/R), by the Poisson mean-variance identity
    f = parse_frontier("constant:a=1.0")
    reps = 10_000
    counts = np.array([len(simulate(f, 100, 1.0, 50_000 + i)) for i in range(reps)])
    assert abs(counts.mean() - 100.0) <= 3.0 * math.sqrt(100.0 / reps)


def test_simulate_y_marginal_uniform_for_flat_frontier() -> None:
    s = simulate(parse_frontier("constant:a=1.0"), 100, 1.0, 424242)
    ys = np.sort(s.ys)
    n = len(ys)
    grid = np.arange(1, n + 1) / n
    ks = max(np.max(grid - ys), np.max(ys - (grid - 1.0 / n)))
    assert ks < 1.63 / math.sqrt(n)  # 1% Kolmogorov band


def test_conditional_uniformity_chi_squared() -> None:
    # aggregate ~1e4 points for a flat frontier; 4x4 spatial grid
    f = parse_frontier("constant:a=1.0")
    obs = np.zeros((4, 4))
    total = 0
    i = 0
    while total < 10_000:
        s = simulate(f, 1000, 1.0, 90_000 + i)
        xi = np.minimum((s.xs * 4).astype(int), 3)
        yi = np.minimum((s.ys * 4).astype(int), 3)
        np.add.at(obs, (xi, yi), 1)
        total += len(s)
        i += 1
    expected = total / 16.0
    stat = float(np.sum((obs - expected) ** 2 / expected))
    assert stat < _CHI2_15_999


def test_simulate_rejects_pathological_rejection_rate() -> None:
    spike = FrontierSpec(
        f=lambda x: np.where(np.abs(np.asarray(x, dtype=float) - 0.5) < 5e-10, 200.0, 1e-4),
        m=1e-4,
        M=200.0,
        alpha=1.0,
        lip=math.inf,
        label="spike",
        # the closed forms of the floor: the spike carries ~1e-7 mass
        exact_integral=lambda lo, hi: 1e-4 * (hi - lo),
        exact_integral_sq=lambda lo, hi: 1e-8 * (hi - lo),
        exact_range=lambda lo, hi: (1e-4, 200.0),
        exact_area_above=lambda lo, hi, u: max(1e-4 - u, 0.0) * (hi - lo),
    )
    with pytest.raises(ValueError, match="pathological"):
        simulate(spike, 10, 1.0, 0)


def test_point_sample_csv_round_trip(tmp_path) -> None:
    f = parse_frontier("sine:a=1.0,b=0.25")
    s = simulate(f, 300, 1.5, 987654321)
    path = tmp_path / "sample.csv"
    s.to_csv(path)
    back = PointSample.from_csv(path)
    assert back.n == s.n and back.c == s.c and back.seed == s.seed
    assert back.frontier_label == s.frontier_label
    # the file holds the rows in x order; the sample, in draw order
    order = np.argsort(s.xs)
    assert np.array_equal(back.xs, s.xs[order])
    assert np.array_equal(back.ys, s.ys[order])
    # idempotent re-serialization
    path2 = tmp_path / "again.csv"
    back.to_csv(path2)
    assert path.read_bytes() == path2.read_bytes()


def test_point_sample_csv_reads_shortest_repr_floats_exactly(tmp_path) -> None:
    xs = np.array([0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 0.1, 1.0 - 2.0**-53, 1.0])
    ys = np.array([1e-300, 3.0, 0.30000000000000004, 5e-324, 1.7976931348623157e308, 0.0, 7.0])
    path = tmp_path / "sample.csv"
    PointSample(xs, ys, n=7, c=1.0, seed=0, frontier_label="constant:a=1.0").to_csv(path)
    # reference: one float() per field, as the reader did before it was vectorised
    rows = [line.split(",") for line in path.read_text().splitlines()[2:]]
    expected = np.array([[float(field) for field in row] for row in rows])
    back = PointSample.from_csv(path)
    got = np.column_stack([back.xs, back.ys])
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


def test_point_sample_csv_empty_data_and_one_field_rows(tmp_path) -> None:
    path = tmp_path / "sample.csv"
    header = "n=4,c=1.0,seed=0,frontier=constant:a=1.0\nx,y\n"
    path.write_text(header + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert len(PointSample.from_csv(path)) == 0
    # every row one field short is as malformed as one row a field too long
    path.write_text(header + "0.1\n0.2\n")
    with pytest.raises(ValueError, match="malformed sample row"):
        PointSample.from_csv(path)


def test_point_sample_row_order_does_not_matter(tmp_path) -> None:
    f = parse_frontier("sine:a=1.0,b=0.25")
    s = simulate(f, 2000, 1.0, 2468)
    xs, ys = (arr[np.random.default_rng(0).permutation(len(s))] for arr in (s.xs, s.ys))
    given = xs.copy(), ys.copy()
    shuffled = PointSample(xs, ys, n=s.n, c=s.c, seed=s.seed, frontier_label=s.frontier_label)
    for cfg in (PartitionConfig(n=2000, h_prime=3, d_n=3), PartitionConfig(n=2000, h_prime=6, d_n=1)):
        a, b = cell_stats(s, cfg, f), cell_stats(shuffled, cfg, f)
        for name in ("counts", "x_star", "z_star"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
    s.to_csv(tmp_path / "drawn.csv")
    shuffled.to_csv(tmp_path / "shuffled.csv")
    assert (tmp_path / "drawn.csv").read_bytes() == (tmp_path / "shuffled.csv").read_bytes()
    # the caller's arrays are neither reordered nor frozen
    assert np.array_equal(xs, given[0]) and np.array_equal(ys, given[1])
    assert xs.flags.writeable and ys.flags.writeable
    assert not shuffled.xs.flags.writeable and not shuffled.ys.flags.writeable


_BLOCK = process._CSV_BLOCK


def _edge_sample(rows: int) -> PointSample:
    """A sample of `rows` points, every 7th of them an edge pair.

    The pairs are x in {0, -0, 5e-324, 1e-5, 1e-4, 1} by y in {0, 1e-300,
    1e16, 1e300}, so edge values, repr's switch to exponent form and ties
    in x fall in every block.
    """
    edge_x, edge_y = np.array(
        list(itertools.product([0.0, -0.0, 5e-324, 1e-5, 1e-4, 1.0], [0.0, 1e-300, 1e16, 1e300]))
    ).T
    rng = np.random.default_rng(rows)
    xs, ys = rng.random(rows), rng.random(rows) * 3.0
    xs[::7] = np.resize(edge_x, len(xs[::7]))
    ys[::7] = np.resize(edge_y, len(ys[::7]))
    return PointSample(xs, ys, n=rows + 1, c=0.5, seed=rows, frontier_label="constant:a=1e300")


def _assert_same_sample(got: PointSample, want: PointSample) -> None:
    assert (got.n, got.c, got.seed, got.frontier_label) == (want.n, want.c, want.seed, want.frontier_label)
    assert got.xs.tobytes() == want.xs.tobytes() and got.ys.tobytes() == want.ys.tobytes()


@pytest.mark.parametrize(
    "make",
    [lambda label=label: simulate(frontier(label), 5000, 1.0, 2024) for label in SHIPPED_LABELS]
    + [lambda rows=rows: _edge_sample(rows) for rows in (0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7)],
    ids=list(SHIPPED_LABELS) + ["0-rows", "1-row", "block-1", "block", "block+1", "3block+7"],
)
def test_csv_round_trip_is_the_per_row_writer_and_handle_reader_byte_for_byte(tmp_path, make) -> None:
    sample = make()
    path, reference = tmp_path / "sample.csv", tmp_path / "reference.csv"
    sample.to_csv(path)
    sample_to_csv_per_row(sample, reference)
    assert path.read_bytes() == reference.read_bytes()
    _assert_same_sample(PointSample.from_csv(path), sample_from_csv_through_handle(path))


@pytest.mark.parametrize(
    "rows",
    [
        "",
        "0.5,0.25\r\n1e-5,1E+2\r\n",
        "0.5,0.25\n\n\n0.25,0.5\n",
        " 0.5 , 0.25 \n-0,+1\n",
        "0.5,0.25",
        "0.1,0.2\n" * (2 * _BLOCK) + "0.30000000000000004,5e-324\n",
    ],
    ids=["empty", "crlf", "blank-lines", "spaces-and-signs", "no-final-newline", "many-rows"],
)
def test_from_csv_reads_hand_written_rows_as_the_handle_reader(tmp_path, rows) -> None:
    path = tmp_path / "sample.csv"
    path.write_bytes(b"n=4,c=1.0,seed=0,frontier=constant:a=1.0\nx,y\n" + rows.encode())
    _assert_same_sample(PointSample.from_csv(path), sample_from_csv_through_handle(path))


@pytest.mark.parametrize(
    "rows",
    ["0.1,0.2,0.3\n", "0.1\n", "0.1,abc\n", "nan,0.5\n", "0.5,0.25\n" * (2 * _BLOCK) + "0.1,abc\n"],
    ids=["3-fields", "1-field", "non-number", "nan", "non-number-after-many-rows"],
)
def test_from_csv_raises_the_handle_readers_messages(tmp_path, rows) -> None:
    path = tmp_path / "sample.csv"
    path.write_text("n=4,c=1.0,seed=0,frontier=constant:a=1.0\nx,y\n0.5,0.25\n" + rows)
    with pytest.raises(ValueError) as want:
        sample_from_csv_through_handle(path)
    with pytest.raises(ValueError) as got:
        PointSample.from_csv(path)
    assert str(got.value) == str(want.value)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="named pipes are POSIX")
def test_from_csv_reads_every_row_from_a_named_pipe(tmp_path) -> None:
    # the header read buffers rows past it; a reader that reopened the pipe
    # by name would lose them, or wait for a writer that never comes
    sample = _edge_sample(3 * _BLOCK + 7)
    sample.to_csv(tmp_path / "sample.csv")
    data = (tmp_path / "sample.csv").read_bytes()
    fifo = tmp_path / "pipe.csv"
    os.mkfifo(fifo)
    result = {}

    def write():
        try:
            with open(fifo, "wb") as fh:
                fh.write(data)
        except BrokenPipeError:
            pass  # the reader failed; its own thread reports it

    def read():
        try:
            result["sample"] = PointSample.from_csv(fifo)
        except Exception as err:  # reported by the assertion below
            result["error"] = err

    threads = [threading.Thread(target=write, daemon=True), threading.Thread(target=read, daemon=True)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30.0)
    hung = [t for t in threads if t.is_alive()]
    if hung:
        # release a reader still waiting on the pipe, so its thread ends
        os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
    assert not hung and "error" not in result, result.get("error")
    _assert_same_sample(result["sample"], sample_from_csv_through_handle(tmp_path / "sample.csv"))


@pytest.mark.parametrize(
    "name",
    [
        "sample.csv.gz",
        "sample.csv.xz",
        pytest.param(
            "http://localhost:1/sample.csv",
            marks=pytest.mark.skipif(os.name != "posix", reason="a POSIX path with a colon and '//'"),
        ),
    ],
    ids=["gz-suffix", "xz-suffix", "url-like"],
)
def test_from_csv_reads_a_plain_file_whatever_its_name(tmp_path, monkeypatch, name) -> None:
    # np.loadtxt, given a name, decompresses by suffix and fetches a URL
    monkeypatch.chdir(tmp_path)
    os.makedirs(os.path.dirname(name) or ".", exist_ok=True)
    sample = _edge_sample(50)
    sample.to_csv(name)
    _assert_same_sample(PointSample.from_csv(name), sample_from_csv_through_handle(name))
    _assert_same_sample(PointSample.from_csv(os.fsencode(name)), sample_from_csv_through_handle(name))


def test_to_csv_holds_the_order_and_one_block_at_a_time(tmp_path) -> None:
    # numpy reports its buffers to tracemalloc; the x-ordered copies of the
    # per-row writer hold 16 bytes a row, and all lines joined about 140
    # (3.0 and 17.9 MiB here, against 1.6 MiB and a bound of 2.0 MiB)
    rows = 1 << 17
    rng = np.random.default_rng(18)
    sample = PointSample(rng.random(rows), rng.random(rows), n=rows, c=1.0, seed=0, frontier_label="constant:a=1.0")
    tracemalloc.start()
    try:
        sample.to_csv(tmp_path / "sample.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * rows + 2**20


@pytest.mark.parametrize(
    "label, message",
    [
        (5, "must be a str, got int"),
        ("constant:a=1.0\nx", "must be one line"),
        ("constant:a=1.0\rx", "must be one line"),
        (" constant:a=1.0 ", "must be one line without surrounding whitespace"),
        ("constant:a=1.0\t", "must be one line without surrounding whitespace"),
    ],
    ids=["not-a-str", "newline", "carriage-return", "surrounding-spaces", "trailing-tab"],
)
def test_point_sample_rejects_a_label_the_header_cannot_give_back(tmp_path, label, message) -> None:
    # each used to be written, and read back changed (5 as "5", spaces stripped) or not at all
    with pytest.raises(ValueError, match=f"frontier_label {message}"):
        PointSample(np.array([0.5]), np.array([0.5]), n=1, c=1.0, seed=0, frontier_label=label)
    spec = dataclasses.replace(parse_frontier("constant:a=1.0"), label=label)
    path = tmp_path / "sample.csv"
    with pytest.raises(ValueError, match=f"frontier_label {message}"):
        simulate(spec, 10, 1.0, 0).to_csv(path)
    assert not path.exists()


@pytest.mark.parametrize(
    "x, y",
    [(math.nan, 0.5), (0.5, math.nan), (0.5, math.inf), (1.5, 0.8), (-0.1, 0.8), (0.5, -0.2)],
    ids=["nan-x", "nan-y", "inf-y", "x-above-1", "x-below-0", "negative-y"],
)
def test_point_sample_rejects_invalid_values(x, y) -> None:
    with pytest.raises(ValueError, match="must be finite"):
        PointSample(
            np.array([0.2, x]), np.array([0.1, y]), n=2, c=1.0, seed=0,
            frontier_label="constant:a=1.0",
        )


def test_point_sample_rejects_coordinates_of_unequal_length() -> None:
    with pytest.raises(ValueError, match="xs and ys must be 1-d arrays of equal length"):
        PointSample(
            np.array([0.2, 0.4]), np.array([0.1]), n=2, c=1.0, seed=0,
            frontier_label="constant:a=1.0",
        )


def test_cell_stats_direct_examples() -> None:
    f = parse_frontier("constant:a=1.0")
    sample = PointSample(
        xs=np.array([0.1, 0.1]),
        ys=np.array([0.3, 0.7]),
        n=4,
        c=1.0,
        seed=0,
        frontier_label=f.label,
    )
    cfg = PartitionConfig(n=4, h_prime=1, d_n=1)
    stats = cell_stats(sample, cfg, f)
    assert list(stats.counts) == [2, 0]
    assert stats.x_star[0] == 0.7 and stats.z_star[0] == 0.3
    assert stats.x_star[1] == 0.0 and stats.z_star[1] == 0.0


def test_cell_stats_empty_sample() -> None:
    f = parse_frontier("constant:a=1.0")
    sample = PointSample(np.empty(0), np.empty(0), n=8, c=1.0, seed=0, frontier_label=f.label)
    cfg = PartitionConfig(n=8, h_prime=2, d_n=2)
    drawn = simulate(f, 8, 1e-12, 7)  # no point drawn, and none binned from the stream
    assert len(drawn) == 0
    for stats in (cell_stats(sample, cfg, f), cell_stats(drawn, cfg, f)):
        assert stats.counts.dtype == np.intp and stats.counts.shape == (cfg.k_n,)
        assert np.all(stats.counts == 0) and not stats.counts.flags.writeable
        assert np.all(stats.x_star == 0.0) and np.all(stats.z_star == 0.0)


def test_cell_stats_oracle_fields_flat_frontier() -> None:
    f = parse_frontier("constant:a=1.0")
    cfg = PartitionConfig(n=16, h_prime=2, d_n=1)  # k_n = 4
    sample = simulate(f, 16, 1.0, 3)
    stats = cell_stats(sample, cfg, f)
    np.testing.assert_allclose(stats.cell_areas, 0.25, atol=1e-14)
    np.testing.assert_allclose(stats.f_max, 1.0, atol=1e-14)


def test_a_cell_record_is_built_only_by_cell_stats() -> None:
    f = parse_frontier("constant:a=1.0")
    cfg = PartitionConfig(n=16, h_prime=2, d_n=1)
    stats = cell_stats(simulate(f, 16, 1.0, 1), cfg, f)
    record = {field.name: getattr(stats, field.name) for field in dataclasses.fields(CellStats)}
    assert list(record) == ["counts", "x_star", "z_star", "cell_areas", "f_max", "cfg"]
    assert "__post_init__" not in vars(CellStats)
    for args, kwargs in (((), record), (tuple(record.values()), {}), ((), {})):
        with pytest.raises(TypeError, match="built only by cell_stats"):
            CellStats(*args, **kwargs)
    with pytest.raises(TypeError, match="built only by cell_stats"):
        dataclasses.replace(stats, x_star=stats.x_star)


def _record_with(stats, **changes):
    """The fields of record `stats` in a namespace, with changes: what `cell_stats` cannot build."""
    values = {field.name: getattr(stats, field.name) for field in dataclasses.fields(stats)}
    for name, value in changes.items():
        value = np.array(value)
        value.flags.writeable = False
        values[name] = value
    return types.SimpleNamespace(**values)


def _two_cell_record():
    """Under the flat frontier at height 1: one point in cell 1 and two in cell 2."""
    f = parse_frontier("constant:a=1.0")
    sample = PointSample(
        xs=np.array([0.2, 0.7, 0.8]), ys=np.array([0.5, 0.9, 0.2]),
        n=4, c=1.0, seed=0, frontier_label=f.label,
    )
    return cell_stats(sample, PartitionConfig(n=4, h_prime=1, d_n=1), f), f


@pytest.mark.parametrize(
    "changes, message",
    [
        ({}, None),
        ({"z_star": [0.6, 0.2]}, "z_star <= x_star"),
        ({"z_star": [0.5, -0.1]}, "z_star <= x_star"),
        ({"cell_areas": [0.5, 0.6]}, "cell areas inconsistent"),
        ({"x_star": [0.5, 1.1]}, "escape the frontier enclosure"),
        ({"f_max": [1.0, 1.2]}, "f_max is not the frontier's maximum"),
    ],
    ids=["valid", "z-above-x", "negative-z", "area-mismatch", "escape", "wrong-f-max"],
)
def test_the_reference_check_rejects_each_fault_of_a_record(changes, message) -> None:
    stats, f = _two_cell_record()
    record = _record_with(stats, **changes)
    if message is None:
        check_cell_record(record, f)
    else:
        with pytest.raises(ValueError, match=message):
            check_cell_record(record, f)


@pytest.mark.parametrize("name", ["counts", "x_star", "z_star", "cell_areas", "f_max"])
def test_the_reference_check_rejects_a_wrong_length_or_a_writeable_array(name) -> None:
    stats, f = _two_cell_record()
    value = getattr(stats, name)
    with pytest.raises(ValueError, match=f"{name} must have one entry per cell"):
        check_cell_record(_record_with(stats, **{name: np.append(value, value[-1])}), f)
    record = _record_with(stats)
    setattr(record, name, value.copy())
    with pytest.raises(ValueError, match=f"{name} must be read-only"):
        check_cell_record(record, f)


@pytest.mark.parametrize("label", SHIPPED_LABELS)
@pytest.mark.parametrize("n, h_prime, d_n", [(200, 6, 4), (20, 3, 3)])  # k_n = 256, then 24
def test_cell_stats_records_pass_the_reference_check(label, n, h_prime, d_n) -> None:
    f = frontier(label)
    cfg = PartitionConfig(n=n, h_prime=h_prime, d_n=d_n)
    stats = cell_stats(simulate(f, n, 1.0, 11), cfg, f)
    assert 0 < int(np.count_nonzero(stats.counts == 0)) < cfg.k_n  # some cells empty, some not
    assert stats.cfg == cfg
    check_cell_record(stats, f)


@pytest.mark.parametrize("excess, escapes", [(5e-10, False), (2e-9, True), (0.5, True)])
def test_cell_stats_checks_maxima_with_the_reference_enclosure_slack(excess, escapes) -> None:
    # the enclosure has a rounding slack of 1e-9 * max(1, max f_max) above f_max
    f = parse_frontier("constant:a=1.0")
    cfg = PartitionConfig(n=2, h_prime=1, d_n=1)
    sample = PointSample(
        xs=np.array([0.2, 0.7]), ys=np.array([0.5, 1.0 + excess]),
        n=2, c=1.0, seed=0, frontier_label=f.label,
    )
    if escapes:
        with pytest.raises(ValueError, match="escape the frontier enclosure"):
            cell_stats(sample, cfg, f)
        stats, _ = _two_cell_record()
        with pytest.raises(ValueError, match="escape the frontier enclosure"):
            check_cell_record(_record_with(stats, x_star=[0.5, 1.0 + excess]), f)
    else:
        stats = cell_stats(sample, cfg, f)
        assert stats.x_star[1] == 1.0 + excess
        check_cell_record(stats, f)


def test_cell_stats_rejects_inconsistent_geometry_on_every_call() -> None:
    # a declared integral of 1.5 per unit length under a frontier at height 1
    f = dataclasses.replace(
        parse_frontier("constant:a=1.0"), exact_integral=lambda lo, hi: 1.5 * (hi - lo), label="wrong-area"
    )
    cfg = PartitionConfig(n=16, h_prime=2, d_n=1)
    sample = simulate(parse_frontier("constant:a=1.0"), 16, 1.0, 4)
    hits = _cell_geometry.cache_info().hits
    for _ in range(3):
        with pytest.raises(ValueError, match="cell areas inconsistent"):
            cell_stats(sample, cfg, f)
    assert _cell_geometry.cache_info().hits == hits  # the failure was never cached


def test_cell_stats_shares_the_cached_read_only_geometry() -> None:
    f = parse_frontier("constant:a=1.0")
    cfg = PartitionConfig(n=16, h_prime=2, d_n=1)
    a = cell_stats(simulate(f, 16, 1.0, 1), cfg, f)
    b = cell_stats(simulate(f, 16, 1.0, 2), cfg, f)
    for name in ("cell_areas", "f_max"):
        assert getattr(a, name) is getattr(b, name)
        assert not getattr(a, name).flags.writeable


def test_cell_stats_requires_matching_n() -> None:
    f = parse_frontier("constant:a=1.0")
    sample = simulate(f, 16, 1.0, 3)
    with pytest.raises(ValueError):
        cell_stats(sample, PartitionConfig(n=17, h_prime=2, d_n=1), f)


def test_cell_stats_boundary_point_goes_to_last_cell() -> None:
    f = parse_frontier("constant:a=1.0")
    sample = PointSample(
        xs=np.array([0.5, 1.0]),
        ys=np.array([0.2, 0.9]),
        n=2,
        c=1.0,
        seed=0,
        frontier_label=f.label,
    )
    cfg = PartitionConfig(n=2, h_prime=1, d_n=1)
    stats = cell_stats(sample, cfg, f)
    assert list(stats.counts) == [0, 2]  # x = 0.5 is left-closed into cell 2

    assert stats.x_star[1] == 0.9


def test_cell_stats_matches_bruteforce_binning() -> None:
    f = parse_frontier("sine:a=1.0,b=0.25")
    cfg = PartitionConfig(n=400, h_prime=3, d_n=3)  # k_n = 24
    sample = simulate(f, 400, 1.0, 77)
    stats = cell_stats(sample, cfg, f)
    k = cfg.k_n
    for r in range(k):
        lo, hi = cfg.cell_bounds(r + 1)
        if r + 1 < k:
            mask = (sample.xs >= lo) & (sample.xs < hi)
        else:
            mask = (sample.xs >= lo) & (sample.xs <= hi)
        assert stats.counts[r] == mask.sum()
        if mask.any():
            assert stats.x_star[r] == sample.ys[mask].max()
            assert stats.z_star[r] == sample.ys[mask].min()


@pytest.mark.parametrize("h_prime, d_n", [(0, 1), (3, 3), (4, 16), (10, 3), (12, 3)])
def test_cell_stats_matches_sorted_run_reference(h_prime, d_n) -> None:
    f = parse_frontier("sine:a=1.0,b=0.25")
    cfg = PartitionConfig(n=20_000, h_prime=h_prime, d_n=d_n)
    sample = simulate(f, cfg.n, 1.0, 1357)
    # points on and next to every edge, where a rounded x * k_n is off by one
    edges = np.arange(cfg.k_n + 1) / cfg.k_n
    xs = np.concatenate((sample.xs, edges, np.nextafter(edges[1:], 0.0), np.nextafter(edges[:-1], 1.0)))
    ys = np.concatenate((sample.ys, np.full(3 * cfg.k_n + 1, 0.5)))
    edge_sample = PointSample(xs, ys, n=cfg.n, c=1.0, seed=0, frontier_label=f.label)
    for s in (sample, edge_sample):
        stats = cell_stats(s, cfg, f)
        want = sorted_run_cell_extremes(s.xs, s.ys, cfg.k_n)
        for got, expected in zip((stats.counts, stats.x_star, stats.z_star), want):
            assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "label, k_n",
    [(label, k_n) for label in SHIPPED_LABELS for k_n in (1, 3 * 64, 4096, 65536)]
    + [("custom-cos", k_n) for k_n in (1, 3, 16)],
)
def test_cell_geometry_matches_per_cell_loop(label, k_n) -> None:
    f = frontier(label)
    cell_areas, f_max, slack = _cell_geometry(f, k_n)
    lam, _, loop_max = cell_geometry_loop(f, k_n)
    for got, want in ((cell_areas, lam), (f_max, loop_max)):
        assert got.shape == (k_n,) and not got.flags.writeable
        assert np.array_equal(got, want)
    assert slack == 1e-9 * max(1.0, float(loop_max.max()))
