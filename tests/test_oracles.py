import math

import numpy as np
import pytest

from haarfrontier.frontiers import affine_frontier, constant_frontier, sine_frontier
from haarfrontier.oracles import (
    LimitLaw,
    cell_cdf,
    cell_max_mean,
    cell_max_variance,
    ks_statistic,
    limit_cdf,
    limit_law,
)
from haarfrontier.process import PartitionConfig, cell_stats, simulate


def test_limit_cdf_examples() -> None:
    assert limit_cdf("weibull_evd", 0.0) == 1.0
    assert limit_cdf("weibull_evd", 1.5) == 1.0
    assert limit_cdf("weibull_evd", -1.0) == pytest.approx(math.exp(-1.0))
    assert limit_cdf("gumbel", 0.0) == pytest.approx(math.exp(-1.0))
    assert limit_cdf("std_normal", 0.0) == 0.5


def test_std_normal_accuracy() -> None:
    # reference values from standard normal tables
    assert limit_cdf("std_normal", 1.96) == pytest.approx(0.9750021048517795, abs=1e-12)
    assert limit_cdf("std_normal", -3.0) == pytest.approx(0.0013498980316300933, abs=1e-14)


def test_limit_cdf_monotone_with_limits() -> None:
    u = np.linspace(-30.0, 30.0, 2001)
    for kind in ("weibull_evd", "gumbel", "std_normal"):
        vals = limit_cdf(kind, u)
        assert np.all(np.diff(vals) >= 0.0)
        assert vals[0] < 1e-9 or kind == "weibull_evd"
        assert vals[-1] > 1.0 - 1e-9
    with pytest.raises(ValueError):
        limit_cdf("cauchy", 0.0)
    with pytest.raises(ValueError):
        limit_law("cauchy")


def test_a_limit_law_is_called_as_its_cdf() -> None:
    u = np.linspace(-3.0, 3.0, 13)
    for kind in ("weibull_evd", "gumbel", "std_normal"):
        law = limit_law(kind)
        assert law == LimitLaw(kind) and law.kind == kind
        np.testing.assert_array_equal(law(u), limit_cdf(kind, u))
        assert law(0.5) == limit_cdf(kind, 0.5) and type(law(0.5)) is float
    with pytest.raises(ValueError, match="unknown limit law"):
        LimitLaw("cauchy")


@pytest.mark.parametrize(
    "f", [constant_frontier(1.0), affine_frontier(1.0, 0.5), sine_frontier(1.0, 0.25)],
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


def test_cell_cdf_flat_frontier_closed_form() -> None:
    f = constant_frontier(1.0)
    cfg = PartitionConfig(n=100, h_prime=0, d_n=10)  # k_n = 10
    assert cell_cdf(f, cfg, 5, 1.0, 1.0) == 1.0
    assert cell_cdf(f, cfg, 5, 1.0, 0.9) == pytest.approx(math.exp(-1.0), abs=1e-12)
    u = np.linspace(0.0, 1.0, 101)
    want = np.exp((100.0 / 10.0) * (u - 1.0))
    np.testing.assert_allclose(cell_cdf(f, cfg, 5, 1.0, u), want, atol=1e-12)
    assert cell_cdf(f, cfg, 5, 1.0, -0.01) == 0.0


def test_cell_cdf_monotone_and_bounded() -> None:
    f = sine_frontier(1.0, 0.25)
    cfg = PartitionConfig(n=200, h_prime=2, d_n=2)
    u = np.linspace(-0.1, 1.3, 300)
    vals = cell_cdf(f, cfg, 3, 1.0, u)
    assert np.all(np.diff(vals) >= -1e-12)
    assert vals[0] == 0.0
    assert vals[-1] == 1.0


def test_cell_cdf_matches_simulation_affine_cell() -> None:
    f = affine_frontier(1.0, 0.5)
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
    f = sine_frontier(1.0, 0.25)
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
    f = constant_frontier(1.0)
    cfg = PartitionConfig(n=100, h_prime=0, d_n=10)
    want = 1.0 - (1.0 - math.exp(-10.0)) / 10.0
    assert cell_max_mean(f, cfg, 5, 1.0) == pytest.approx(want, abs=1e-10)


def test_cell_max_mean_tends_to_sup() -> None:
    f = constant_frontier(1.0)
    cfg = PartitionConfig(n=1_000_000, h_prime=0, d_n=10)
    assert cell_max_mean(f, cfg, 5, 1.0) == pytest.approx(1.0, abs=1e-4)


def test_cell_max_variance_flat_asymptote() -> None:
    f = constant_frontier(1.0)
    cfg = PartitionConfig(n=10_000, h_prime=0, d_n=64)
    var = cell_max_variance(f, cfg, 5, 1.0)
    assert var == pytest.approx(64.0**2 / 1e8, rel=0.01)


@pytest.mark.parametrize("a", [1.0, 1.3])
@pytest.mark.parametrize("n, k_n", [(10_000, 16), (32_000, 16), (2_000, 512), (100, 10)])
def test_cell_max_variance_flat_closed_form(a, n, k_n) -> None:
    # the gap W = a - max has P(W > t) = exp(-lam t) on [0, a), lam = n c / k_n
    f = constant_frontier(a)
    cfg = PartitionConfig(n=n, h_prime=0, d_n=k_n)
    lam = n / k_n
    tail = math.exp(-lam * a)
    want = 2.0 * (1.0 / lam**2 - tail * (a / lam + 1.0 / lam**2)) - ((1.0 - tail) / lam) ** 2
    # the adaptive-Simpson error is about 1.2e-6 at n = 1e4, k_n = 16 and 2.1e-6 at n = 32,000
    assert cell_max_variance(f, cfg, 5, 1.0) == pytest.approx(want, rel=5e-6)


def test_mean_gap_rate_across_frontier_family() -> None:
    # max_r |E(max) - (cell min of f - k/(nc))| = O(k^-alpha): fit the constant
    # at the smallest k, verify at two doublings
    for f in (constant_frontier(1.0), affine_frontier(1.0, 0.5), sine_frontier(1.0, 0.25)):
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
    f = affine_frontier(1.0, 0.5)
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
    ks = ks_statistic(np.full(100, -50.0), limit_law("gumbel"))
    assert ks > 1.0 - 1e-9


def test_ks_statistic_accepts_scalar_cdf() -> None:
    # uniform reference; the largest gap sits just after the top sample
    got = ks_statistic([0.25, 0.5, 0.75], lambda u: float(np.clip(u, 0.0, 1.0)))
    assert got == pytest.approx(0.25, abs=1e-12)
