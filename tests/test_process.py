import math
import warnings

import numpy as np
import pytest

from haarfrontier.frontiers import FrontierSpec, constant_frontier, sine_frontier
from haarfrontier.process import CellStats, PartitionConfig, PointSample, cell_stats, simulate

from crosschecks import cell_centers

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


def test_simulate_reproducible_and_contained() -> None:
    f = sine_frontier(1.0, 0.25)
    a = simulate(f, 500, 1.0, 12345)
    b = simulate(f, 500, 1.0, 12345)
    assert np.array_equal(a.xs, b.xs) and np.array_equal(a.ys, b.ys)
    c = simulate(f, 500, 1.0, 12346)
    assert not np.array_equal(a.xs, c.xs)
    assert np.all((a.xs >= 0.0) & (a.xs <= 1.0))
    assert np.all((a.ys >= 0.0) & (a.ys <= f(a.xs)))
    assert np.all(np.diff(a.xs) >= 0.0)


def test_simulate_vanishing_intensity_gives_empty_sample() -> None:
    s = simulate(constant_frontier(1.0), 1, 1e-12, 7)
    assert len(s) == 0


def test_simulate_count_is_poisson_with_mean_nc_area() -> None:
    # mean over R seeds within 3*sqrt(mean/R), by the Poisson mean-variance identity
    f = constant_frontier(1.0)
    reps = 10_000
    counts = np.array([len(simulate(f, 100, 1.0, 50_000 + i)) for i in range(reps)])
    assert abs(counts.mean() - 100.0) <= 3.0 * math.sqrt(100.0 / reps)


def test_simulate_y_marginal_uniform_for_flat_frontier() -> None:
    s = simulate(constant_frontier(1.0), 100, 1.0, 424242)
    ys = np.sort(s.ys)
    n = len(ys)
    grid = np.arange(1, n + 1) / n
    ks = max(np.max(grid - ys), np.max(ys - (grid - 1.0 / n)))
    assert ks < 1.63 / math.sqrt(n)  # 1% Kolmogorov band


def test_conditional_uniformity_chi_squared() -> None:
    # aggregate ~1e4 points for a flat frontier; 4x4 spatial grid
    f = constant_frontier(1.0)
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
        exact_integral=lambda lo, hi: 1e-4 * (hi - lo),  # spike carries ~1e-7 mass
    )
    with pytest.raises(ValueError, match="pathological"):
        simulate(spike, 10, 1.0, 0)


def test_point_sample_csv_round_trip(tmp_path) -> None:
    f = sine_frontier(1.0, 0.25)
    s = simulate(f, 300, 1.5, 987654321)
    path = tmp_path / "sample.csv"
    s.to_csv(path)
    back = PointSample.from_csv(path)
    assert back.n == s.n and back.c == s.c and back.seed == s.seed
    assert back.frontier_label == s.frontier_label
    assert np.array_equal(back.xs, s.xs)
    assert np.array_equal(back.ys, s.ys)
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


def test_point_sample_sorts_rows_by_x() -> None:
    xs = np.array([0.6, 0.1, 0.9, 0.3])
    ys = np.array([0.8, 0.5, 0.3, 0.2])
    sample = PointSample(xs, ys, n=4, c=1.0, seed=0, frontier_label="constant:a=1.0")
    np.testing.assert_array_equal(sample.xs, [0.1, 0.3, 0.6, 0.9])
    np.testing.assert_array_equal(sample.ys, [0.5, 0.2, 0.8, 0.3])
    assert xs[0] == 0.6  # the caller's arrays are left as they were


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


def test_cell_stats_direct_examples() -> None:
    f = constant_frontier(1.0)
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
    f = constant_frontier(1.0)
    sample = PointSample(np.empty(0), np.empty(0), n=8, c=1.0, seed=0, frontier_label=f.label)
    cfg = PartitionConfig(n=8, h_prime=2, d_n=2)
    stats = cell_stats(sample, cfg, f)
    assert np.all(stats.counts == 0)
    assert np.all(stats.x_star == 0.0) and np.all(stats.z_star == 0.0)


def test_cell_stats_oracle_fields_flat_frontier() -> None:
    f = constant_frontier(1.0)
    cfg = PartitionConfig(n=16, h_prime=2, d_n=1)  # k_n = 4
    sample = simulate(f, 16, 1.0, 3)
    stats = cell_stats(sample, cfg, f)
    np.testing.assert_allclose(stats.cell_areas, 0.25, atol=1e-14)
    np.testing.assert_allclose(stats.f_min, 1.0, atol=1e-14)
    np.testing.assert_allclose(stats.f_max, 1.0, atol=1e-14)


def _cell_record(**changes) -> dict:
    """A valid two-cell CellStats record under the flat frontier at height 1, then changes."""
    record = dict(
        counts=np.array([1, 2]),
        x_star=np.array([0.5, 0.9]),
        z_star=np.array([0.5, 0.2]),
        cell_areas=np.array([0.5, 0.5]),
        f_min=np.ones(2),
        f_max=np.ones(2),
        cfg=PartitionConfig(n=4, h_prime=1, d_n=1),
    )
    record.update(changes)
    return record


def test_cell_stats_rejects_inconsistent_records() -> None:
    CellStats(**_cell_record())
    with pytest.raises(ValueError, match="z_star <= x_star"):
        CellStats(**_cell_record(z_star=np.array([0.6, 0.2])))
    with pytest.raises(ValueError, match="cell areas inconsistent"):
        CellStats(**_cell_record(cell_areas=np.array([0.5, 0.6])))
    with pytest.raises(ValueError, match="escape the frontier enclosure"):
        CellStats(**_cell_record(x_star=np.array([0.5, 1.1])))


@pytest.mark.parametrize("name", ["counts", "x_star", "z_star", "cell_areas", "f_min", "f_max"])
def test_cell_stats_checks_every_array_field(name) -> None:
    record = _cell_record()
    record[name] = np.append(record[name], record[name][-1])
    with pytest.raises(ValueError, match=f"{name} must have one entry per cell"):
        CellStats(**record)


def test_cell_stats_shares_the_cached_read_only_geometry() -> None:
    f = constant_frontier(1.0)
    cfg = PartitionConfig(n=16, h_prime=2, d_n=1)
    a = cell_stats(simulate(f, 16, 1.0, 1), cfg, f)
    b = cell_stats(simulate(f, 16, 1.0, 2), cfg, f)
    for name in ("cell_areas", "f_min", "f_max"):
        assert getattr(a, name) is getattr(b, name)
        assert not getattr(a, name).flags.writeable


def test_cell_stats_requires_matching_n() -> None:
    f = constant_frontier(1.0)
    sample = simulate(f, 16, 1.0, 3)
    with pytest.raises(ValueError):
        cell_stats(sample, PartitionConfig(n=17, h_prime=2, d_n=1), f)


def test_cell_stats_boundary_point_goes_to_last_cell() -> None:
    f = constant_frontier(1.0)
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
    f = sine_frontier(1.0, 0.25)
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
