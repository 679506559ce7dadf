import dataclasses
import math
import warnings

import numpy as np
import pytest

from haarfrontier import oracles
from haarfrontier.frontiers import parse_frontier
from haarfrontier.oracles import (
    LimitLaw,
    cell_cdf,
    cell_max_mean,
    cell_max_variance,
    ks_statistic,
)
from haarfrontier.process import PartitionConfig, cell_stats, simulate

from crosschecks import (
    SHIPPED_LABELS,
    cell_cdf_per_node,
    cell_max_moments_per_node,
    cell_max_variance_two_pass,
    frontier,
    std_normal_loop,
)


def test_limit_cdf_examples() -> None:
    assert LimitLaw("weibull_evd")(0.0) == 1.0
    assert LimitLaw("weibull_evd")(1.5) == 1.0
    assert LimitLaw("weibull_evd")(-1.0) == pytest.approx(math.exp(-1.0))
    assert LimitLaw("gumbel")(0.0) == pytest.approx(math.exp(-1.0))
    assert LimitLaw("std_normal")(0.0) == 0.5


def test_std_normal_accuracy() -> None:
    # reference values from standard normal tables
    assert LimitLaw("std_normal")(1.96) == pytest.approx(0.9750021048517795, abs=1e-12)
    assert LimitLaw("std_normal")(-3.0) == pytest.approx(0.0013498980316300933, abs=1e-14)


def test_limit_cdf_monotone_with_limits() -> None:
    u = np.linspace(-30.0, 30.0, 2001)
    for kind in ("weibull_evd", "gumbel", "std_normal"):
        vals = LimitLaw(kind)(u)
        assert np.all(np.diff(vals) >= 0.0)
        assert vals[0] < 1e-9 or kind == "weibull_evd"
        assert vals[-1] > 1.0 - 1e-9
    with pytest.raises(ValueError):
        LimitLaw("cauchy")(0.0)


def test_a_limit_law_is_called_as_its_cdf() -> None:
    u = np.linspace(-3.0, 3.0, 13)
    for kind in ("weibull_evd", "gumbel", "std_normal"):
        law = LimitLaw(kind)
        assert law.kind == kind
        np.testing.assert_array_equal(law(u), [law(v) for v in u.tolist()])
        assert type(law(0.5)) is float and type(law(np.float64(0.5))) is float
    with pytest.raises(ValueError, match="unknown limit law"):
        LimitLaw("cauchy")


def test_the_benchmark_alias_limit_law_is_the_limit_law() -> None:
    # oracles.limit_law is not public; the benchmark calls it under this name
    for kind in ("weibull_evd", "gumbel", "std_normal"):
        assert oracles.limit_law(kind) == LimitLaw(kind)
    with pytest.raises(ValueError, match="unknown limit law"):
        oracles.limit_law("cauchy")


@pytest.mark.parametrize(
    "f",
    [parse_frontier(label) for label in ("constant:a=1.0", "affine:a=1.0,b=0.5", "sine:a=1.0,b=0.25")],
    ids=["constant", "affine", "sine"],
)
def test_cell_cdf_below_zero_nan_and_shapes(f) -> None:
    cfg = PartitionConfig(n=100, h_prime=2, d_n=2)
    assert cell_cdf(f, cfg, 3, 1.0, -0.5) == 0.0
    assert math.isnan(cell_cdf(f, cfg, 3, 1.0, math.nan))
    assert type(cell_cdf(f, cfg, 3, 1.0, 0.5)) is float
    got = cell_cdf(f, cfg, 3, 1.0, np.array([-1.0, 0.0, math.nan, 0.9]))
    assert isinstance(got, np.ndarray) and got.shape == (4,)
    assert got[0] == 0.0 and math.isnan(got[2]) and 0.0 < got[1] <= got[3] <= 1.0
    grid = np.array([[-1.0, 0.0, math.nan], [0.9, 0.5, 0.7]])
    got = cell_cdf(f, cfg, 3, 1.0, grid)
    assert isinstance(got, np.ndarray) and got.shape == (2, 3)
    np.testing.assert_array_equal(got.ravel(), cell_cdf(f, cfg, 3, 1.0, grid.ravel()))
    assert cell_cdf(f, cfg, 3, 1.0, np.array(0.5)) == cell_cdf(f, cfg, 3, 1.0, 0.5)
    assert cell_cdf(f, cfg, 3, 1.0, np.empty((0, 2))).shape == (0, 2)


@pytest.mark.parametrize("c", [math.nan, 0.0, -1.0, math.inf], ids=["nan", "0", "-1", "inf"])
@pytest.mark.parametrize(
    "oracle",
    [lambda f, cfg, c: cell_cdf(f, cfg, 3, c, 0.5), lambda f, cfg, c: cell_max_mean(f, cfg, 3, c),
     lambda f, cfg, c: cell_max_variance(f, cfg, 3, c)],
    ids=["cell_cdf", "cell_max_mean", "cell_max_variance"],
)
def test_cell_oracles_reject_a_rate_that_is_not_finite_and_positive(oracle, c) -> None:
    # NaN used to come back as a NaN probability, and -1 ran the quadrature
    # to its cap before it raised
    with pytest.raises(ValueError, match="intensity rate c must be finite and positive"):
        oracle(parse_frontier("constant:a=1.0"), PartitionConfig(n=100, h_prime=2, d_n=2), c)


def test_cell_cdf_flat_frontier_closed_form() -> None:
    f = parse_frontier("constant:a=1.0")
    cfg = PartitionConfig(n=100, h_prime=0, d_n=10)  # k_n = 10
    assert cell_cdf(f, cfg, 5, 1.0, 1.0) == 1.0
    assert cell_cdf(f, cfg, 5, 1.0, 0.9) == pytest.approx(math.exp(-1.0), abs=1e-12)
    u = np.linspace(0.0, 1.0, 101)
    want = np.exp((100.0 / 10.0) * (u - 1.0))
    np.testing.assert_allclose(cell_cdf(f, cfg, 5, 1.0, u), want, atol=1e-12)
    assert cell_cdf(f, cfg, 5, 1.0, -0.01) == 0.0


@pytest.mark.parametrize("r", [1.5, True], ids=["1.5", "True"])
@pytest.mark.parametrize(
    "oracle",
    [
        lambda f, cfg, r: cell_cdf(f, cfg, r, 1.0, 1.0),
        lambda f, cfg, r: cell_max_mean(f, cfg, r, 1.0),
        lambda f, cfg, r: cell_max_variance(f, cfg, r, 1.0),
    ],
    ids=["cell_cdf", "cell_max_mean", "cell_max_variance"],
)
def test_oracles_take_an_integer_cell_index(oracle, r) -> None:
    # r = 1.5 used to integrate over (0.125, 0.375), which is no cell: cell_cdf read 2.68e-14
    cfg = PartitionConfig(n=1000, h_prime=1, d_n=2)
    with pytest.raises(ValueError, match="cell index must be an integer"):
        oracle(parse_frontier("affine:a=1.0,b=0.5"), cfg, r)


def test_cell_cdf_monotone_and_bounded() -> None:
    f = parse_frontier("sine:a=1.0,b=0.25")
    cfg = PartitionConfig(n=200, h_prime=2, d_n=2)
    u = np.linspace(-0.1, 1.3, 300)
    vals = cell_cdf(f, cfg, 3, 1.0, u)
    assert np.all(np.diff(vals) >= -1e-12)
    assert vals[0] == 0.0
    assert vals[-1] == 1.0


def test_cell_cdf_matches_simulation_affine_cell() -> None:
    f = parse_frontier("affine:a=1.0,b=0.5")
    cfg = PartitionConfig(n=50, h_prime=2, d_n=1)  # k_n = 4
    r = 3
    reps = 20_000
    maxima = np.empty(reps)
    for i in range(reps):
        stats = cell_stats(simulate(f, 50, 1.0, 700_000 + i), cfg, f)
        maxima[i] = stats.x_star[r - 1]
    lo_f, hi_f = f.range_on(*cfg.cell_bounds(r))
    for u in np.linspace(lo_f, hi_f, 5)[1:-1]:
        p_hat = float(np.mean(maxima <= u))
        p_true = cell_cdf(f, cfg, r, 1.0, float(u))
        se = math.sqrt(p_true * (1.0 - p_true) / reps)
        assert abs(p_hat - p_true) <= 3.0 * se


def test_cell_cdf_ks_band_curved_frontier() -> None:
    # empirical law of a cell maximum vs the oracle CDF, quadrature route
    f = parse_frontier("sine:a=1.0,b=0.25")
    cfg = PartitionConfig(n=80, h_prime=2, d_n=1)
    r = 2
    reps = 2000
    maxima = np.empty(reps)
    for i in range(reps):
        stats = cell_stats(simulate(f, 80, 1.0, 810_000 + i), cfg, f)
        maxima[i] = stats.x_star[r - 1]
    ks = ks_statistic(maxima, lambda u: cell_cdf(f, cfg, r, 1.0, u))
    assert ks < 1.63 / math.sqrt(reps)  # 1% Kolmogorov band


def test_cell_max_mean_flat_closed_form() -> None:
    f = parse_frontier("constant:a=1.0")
    cfg = PartitionConfig(n=100, h_prime=0, d_n=10)
    want = 1.0 - (1.0 - math.exp(-10.0)) / 10.0
    assert cell_max_mean(f, cfg, 5, 1.0) == pytest.approx(want, abs=1e-10)


def test_cell_max_mean_tends_to_sup() -> None:
    f = parse_frontier("constant:a=1.0")
    cfg = PartitionConfig(n=1_000_000, h_prime=0, d_n=10)
    assert cell_max_mean(f, cfg, 5, 1.0) == pytest.approx(1.0, abs=1e-4)


def test_cell_max_variance_flat_asymptote() -> None:
    f = parse_frontier("constant:a=1.0")
    cfg = PartitionConfig(n=10_000, h_prime=0, d_n=64)
    var = cell_max_variance(f, cfg, 5, 1.0)
    assert var == pytest.approx(64.0**2 / 1e8, rel=0.01)


@pytest.mark.parametrize("a", [1.0, 1.3])
@pytest.mark.parametrize("n, k_n", [(10_000, 16), (32_000, 16), (2_000, 512), (100, 10)])
def test_cell_max_variance_flat_closed_form(a, n, k_n) -> None:
    # the gap W = a - max has P(W > t) = exp(-lam t) on [0, a), lam = n c / k_n
    f = parse_frontier(f"constant:a={a!r}")
    cfg = PartitionConfig(n=n, h_prime=0, d_n=k_n)
    lam = n / k_n
    tail = math.exp(-lam * a)
    want = 2.0 * (1.0 / lam**2 - tail * (a / lam + 1.0 / lam**2)) - ((1.0 - tail) / lam) ** 2
    # the adaptive-Simpson error is about 1.2e-6 at n = 1e4, k_n = 16 and 2.1e-6 at n = 32,000
    assert cell_max_variance(f, cfg, 5, 1.0) == pytest.approx(want, rel=5e-6)


@pytest.mark.parametrize("label", SHIPPED_LABELS)
@pytest.mark.parametrize("n, h_prime, d_n", [(10_000, 4, 1), (2000, 3, 2), (100, 0, 10)])
def test_cell_max_variance_is_the_two_pass_form_bit_for_bit(label, n, h_prime, d_n) -> None:
    f = parse_frontier(label)
    cfg = PartitionConfig(n=n, h_prime=h_prime, d_n=d_n)
    for r in range(1, cfg.k_n + 1):
        got = cell_max_variance(f, cfg, r, 1.0)
        assert got.hex() == cell_max_variance_two_pass(f, cfg, r, 1.0).hex(), r


@pytest.mark.parametrize("label", SHIPPED_LABELS)
def test_cell_max_variance_computes_the_area_once_per_level(label) -> None:
    shipped = parse_frontier(label)
    cfg = PartitionConfig(n=10_000, h_prime=4, d_n=1)
    levels = []

    def counted(lo, hi, u):
        levels.append(u)
        return shipped.exact_area_above(lo, hi, u)

    f = dataclasses.replace(shipped, exact_area_above=counted)
    cell_max_variance_two_pass(f, cfg, 3, 1.0)
    two_pass = list(levels)
    levels.clear()
    cell_max_variance(f, cfg, 3, 1.0)
    # one call per level that the two passes meet, and no other
    assert sorted(levels) == sorted(set(two_pass))
    assert len(levels) < len(two_pass)


def _hex(values):
    return [float(v).hex() for v in np.ravel(values)]


@pytest.mark.parametrize("label", SHIPPED_LABELS)
@pytest.mark.parametrize("n, h_prime, d_n", [(10_000, 4, 1), (1000, 0, 3), (50_000, 2, 2)])
def test_oracles_are_the_per_node_reference_bit_for_bit(label, n, h_prime, d_n) -> None:
    # the reference calls f.area_above at every node and Simpson's rule through a helper
    f = parse_frontier(label)
    cfg = PartitionConfig(n=n, h_prime=h_prime, d_n=d_n)
    for r in range(1, cfg.k_n + 1):
        mean, var = cell_max_moments_per_node(f, cfg, r, 1.0)
        assert cell_max_mean(f, cfg, r, 1.0).hex() == mean.hex(), r
        assert cell_max_variance(f, cfg, r, 1.0).hex() == var.hex(), r
        low, top = f.range_on(*cfg.cell_bounds(r))
        inside = top - cfg.k_n / n * np.linspace(8.0, 0.0, 17)
        levels = np.array([-1.0, 0.0, math.nan, low, 0.5 * (low + top), *inside, top + 0.1])
        want = cell_cdf_per_node(f, cfg, r, 1.0, levels)
        assert _hex(cell_cdf(f, cfg, r, 1.0, levels)) == _hex(want), r
        assert [cell_cdf(f, cfg, r, 1.0, v).hex() for v in levels.tolist()] == _hex(want), r


@pytest.mark.parametrize("label", SHIPPED_LABELS + ("custom-cos", "affine:a=2.0,b=0.0"))
def test_nan_level_is_nan_through_the_exact_area(label) -> None:
    f = frontier(label)
    assert math.isnan(f.area_above(0.25, 0.5, math.nan))
    assert math.isnan(cell_cdf(f, PartitionConfig(n=100, h_prime=2, d_n=2), 3, 1.0, math.nan))


def test_mean_gap_rate_across_frontier_family() -> None:
    # max_r |E(max) - (cell min of f - k/(nc))| = O(k^-alpha): fit the constant
    # at the smallest k, verify at two doublings
    for f in map(parse_frontier, ("constant:a=1.0", "affine:a=1.0,b=0.5", "sine:a=1.0,b=0.25")):
        errs = {}
        for h_prime in (3, 4, 5):
            k = 2**h_prime
            n = 64 * k
            cfg = PartitionConfig(n=n, h_prime=h_prime, d_n=1)
            worst = 0.0
            for r in range(1, k + 1):
                cell_min, _ = f.range_on(*cfg.cell_bounds(r))
                a_nr = cell_min - k / n
                worst = max(worst, abs(cell_max_mean(f, cfg, r, 1.0) - a_nr))
            errs[k] = worst
        # 1e-9 absorbs the quadrature noise floor (binding for the flat
        # frontier, whose true gap is exactly zero at these scales)
        c_fit = errs[8] * 8.0**f.alpha
        for k in (16, 32):
            assert errs[k] <= 1.3 * c_fit * k ** (-f.alpha) + 1e-9


def test_variance_asymptote_under_slow_n_growth() -> None:
    # n = o(k^(1+alpha)) schedule: variance ratio to (k/(nc))^2 approaches 1
    f = parse_frontier("affine:a=1.0,b=0.5")
    ratios = []
    for n, h_prime, d_n in ((2000, 6, 1), (8000, 5, 5), (32000, 4, 25)):
        cfg = PartitionConfig(n=n, h_prime=h_prime, d_n=d_n)
        k = cfg.k_n
        r = k // 2
        var = cell_max_variance(f, cfg, r, 1.0)
        ratios.append(var * n * n / (k * k))
    assert abs(ratios[-1] - 1.0) <= 0.1
    assert abs(ratios[-1] - 1.0) <= abs(ratios[0] - 1.0)


def test_ks_statistic_stratified_quantiles() -> None:
    n = 50
    samples = (2.0 * np.arange(1, n + 1) - 1.0) / (2.0 * n)
    ks = ks_statistic(samples, lambda u: np.asarray(u))  # uniform CDF
    assert ks == pytest.approx(1.0 / (2.0 * n), abs=1e-15)


def test_ks_statistic_single_median_point() -> None:
    assert ks_statistic([0.3], lambda u: np.full(np.shape(u), 0.5)) == pytest.approx(0.5)


def test_ks_statistic_total_mismatch() -> None:
    ks = ks_statistic(np.full(100, -50.0), LimitLaw("gumbel"))
    assert ks > 1.0 - 1e-9


def test_ks_statistic_rejects_a_cdf_of_another_shape() -> None:
    # uniform reference; the largest gap sits just after the top sample
    got = ks_statistic([0.25, 0.5, 0.75], lambda u: np.clip(u, 0.0, 1.0))
    assert got == pytest.approx(0.25, abs=1e-12)
    # the CDF is called once, on all the samples, and never again per value:
    # one that takes only scalars fails on the array, and a result of another
    # shape than the samples raises
    with pytest.raises(TypeError):
        ks_statistic([0.25, 0.5, 0.75], lambda u: float(np.clip(u, 0.0, 1.0)))
    for cdf in (lambda u: 0.5, lambda u: np.asarray(u)[:-1]):
        with pytest.raises(ValueError, match="the CDF gave shape"):
            ks_statistic([0.25, 0.5, 0.75], cdf)
    with pytest.raises(ValueError, match="the CDF gave shape"):
        ks_statistic([[0.25, 0.5], [0.75, 1.0]], lambda u: np.reshape(u, (2, 2)))


@pytest.mark.parametrize(
    "u",
    [
        np.float64(0.3),
        np.linspace(-9.0, 9.0, 24).reshape(4, 6),
        np.array([-np.inf, -40.0, -1e-300, -0.0, 0.0, 1e-300, 40.0, np.inf]),
        np.array([np.nan, 1.0, np.nan]),
        np.random.default_rng(5).standard_normal(5000),
    ],
    ids=["0-d", "2-d", "inf-and-tails", "nan", "normals"],
)
def test_std_normal_matches_the_per_value_reference(u) -> None:
    got = LimitLaw("std_normal")(u)
    want = std_normal_loop(u)
    if np.ndim(u) == 0:
        assert type(got) is float
    assert np.shape(got) == np.shape(u)
    assert np.asarray(got, dtype=float).tobytes() == want.tobytes()


def test_ks_statistic_rejects_no_samples() -> None:
    with pytest.raises(ValueError, match="need at least one sample"):
        ks_statistic([], LimitLaw("gumbel"))


def test_ks_statistic_rejects_nan_samples() -> None:
    for samples in ([0.1, np.nan], [np.nan], [[0.2, 0.4], [np.nan, 0.1]]):
        with pytest.raises(ValueError, match="NaN"):
            ks_statistic(samples, LimitLaw("gumbel"))


def test_ks_statistic_takes_shaped_samples_flat() -> None:
    samples = np.random.default_rng(3).gumbel(size=(6, 5))
    for kind in ("gumbel", "std_normal"):
        law = LimitLaw(kind)
        assert ks_statistic(samples, law) == ks_statistic(samples.ravel(), law)
    assert ks_statistic([[0.3]], lambda u: np.full(np.shape(u), 0.5)) == pytest.approx(0.5)


def test_ks_statistic_takes_infinite_samples() -> None:
    # every law's CDF is 0 at -inf and 1 at +inf: the empirical CDF is 1/3
    # above -inf and 2/3 above 0, so the distance is at least 1/3
    for kind in ("weibull_evd", "gumbel", "std_normal"):
        law = LimitLaw(kind)
        want = max(1.0 / 3.0, 2.0 / 3.0 - law(0.0), law(0.0) - 1.0 / 3.0)
        assert ks_statistic([-np.inf, 0.0, np.inf], law) == pytest.approx(want, abs=1e-15)
    assert ks_statistic([np.inf, np.inf], LimitLaw("gumbel")) == 1.0


def test_gumbel_cdf_far_below_its_support_is_zero_without_overflow() -> None:
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert LimitLaw("gumbel")(-1000.0) == 0.0
        assert LimitLaw("gumbel")(-np.inf) == 0.0
        assert math.isnan(LimitLaw("gumbel")(np.nan))
        got = LimitLaw("gumbel")(np.array([-1000.0, -710.0, -700.0, -np.inf, np.nan, 0.0]))
        assert got[:4].tolist() == [0.0] * 4 and math.isnan(got[4])
        assert got[5] == math.exp(-1.0)
        # one outlier far below the rest: its empirical step is the whole KS gap
        sample = np.append(np.random.default_rng(8).gumbel(size=99), -800.0)
        assert ks_statistic(sample, LimitLaw("gumbel")) >= 0.01
