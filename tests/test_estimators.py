import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haarfrontier.estimators import (
    EstimateBundle,
    coefficient_estimates,
    corrected_estimate,
    haar_ev_estimate,
    minima_mean,
)
from haarfrontier.frontiers import parse_frontier
from haarfrontier.haar import haar_eval, truncated_expansion
from haarfrontier.process import CellStats, PartitionConfig, PointSample, cell_stats, simulate
from haarfrontier.stepfun import uniform_cell_index

from crosschecks import (
    block_means_by_mean,
    coefficient_estimates_riemann,
    geffroy_estimate,
    haar_ev_estimate_at,
    haar_step,
    minima_mean_by_mean,
    oracle_corrected_estimate,
    step_inner,
    step_sup_norm,
)


FLAT = parse_frontier("constant:a=2.0")


def synthetic_stats(cfg: PartitionConfig, maxima, minima=None) -> CellStats:
    """The record of prescribed extremes under the flat frontier at height 2.

    Each cell whose maximum is positive holds two points at its centre, one
    at the maximum and one at the minimum (the maximum again by default);
    every other cell is empty.
    """
    maxima = np.asarray(maxima, dtype=float)
    minima = maxima if minima is None else np.asarray(minima, dtype=float)
    cells = np.flatnonzero(maxima > 0)
    xs = np.repeat((cells + 0.5) / cfg.k_n, 2)
    ys = np.column_stack((maxima[cells], minima[cells])).ravel()
    sample = PointSample(xs, ys, n=cfg.n, c=1.0, seed=0, frontier_label=FLAT.label)
    return cell_stats(sample, cfg, FLAT)


def test_synthetic_stats_hold_the_prescribed_extremes() -> None:
    cfg = PartitionConfig(n=10, h_prime=1, d_n=2)
    maxima, minima = np.array([0.8, 0.0, 1.9, 0.4]), np.array([0.1, 0.3, 1.9, 0.0])
    stats = synthetic_stats(cfg, maxima, minima)
    assert stats.counts.tolist() == [2, 0, 2, 2]
    assert stats.x_star.tolist() == maxima.tolist()
    assert stats.z_star.tolist() == [0.1, 0.0, 1.9, 0.0]
    assert synthetic_stats(cfg, maxima).z_star.tolist() == maxima.tolist()


def test_blockwise_mean_example() -> None:
    cfg = PartitionConfig(n=10, h_prime=1, d_n=2)  # k_n = 4, two blocks
    est = haar_ev_estimate(synthetic_stats(cfg, [0.8, 1.0, 0.6, 0.4]), cfg)
    np.testing.assert_allclose(est.values, [0.9, 0.5])


def test_all_empty_gives_zero_estimate() -> None:
    cfg = PartitionConfig(n=10, h_prime=2, d_n=2)
    stats = synthetic_stats(cfg, np.zeros(8))
    assert step_sup_norm(haar_ev_estimate(stats, cfg)) == 0.0
    bundle = corrected_estimate(stats, cfg)
    assert bundle.z_n == 0.0
    assert step_sup_norm(bundle.f_tilde) == 0.0


def test_kernel_form_agrees_with_block_form() -> None:
    f = parse_frontier("affine:a=1.0,b=0.5")
    cfg = PartitionConfig(n=300, h_prime=2, d_n=4)
    stats = cell_stats(simulate(f, 300, 1.0, 5), cfg, f)
    est = haar_ev_estimate(stats, cfg)
    rng = np.random.Generator(np.random.Philox(key=9))
    xs = rng.random(1000)
    np.testing.assert_allclose(haar_ev_estimate_at(stats, cfg, xs), est(xs), atol=1e-12)


def _estimate_from_rows(points, cfg) -> np.ndarray:
    f = parse_frontier("constant:a=1.0")
    xs = np.array([p[0] for p in points], dtype=float)
    ys = np.array([p[1] for p in points], dtype=float)
    sample = PointSample(xs, ys, n=cfg.n, c=1.0, seed=0, frontier_label=f.label)
    return haar_ev_estimate(cell_stats(sample, cfg, f), cfg).values


def test_estimate_does_not_depend_on_row_order() -> None:
    points = [(0.1, 0.5), (0.3, 0.2), (0.6, 0.8), (0.9, 0.3)]
    cfg = PartitionConfig(n=4, h_prime=1, d_n=1)
    np.testing.assert_array_equal(_estimate_from_rows(points, cfg), [0.5, 0.8])
    shuffled = [points[i] for i in (2, 0, 3, 1)]
    np.testing.assert_array_equal(_estimate_from_rows(shuffled, cfg), [0.5, 0.8])


def test_geffroy_is_the_d1_case() -> None:
    f = parse_frontier("constant:a=1.0")
    for seed in range(100):
        cfg = PartitionConfig(n=50, h_prime=3, d_n=1)
        stats = cell_stats(simulate(f, 50, 1.0, 1000 + seed), cfg, f)
        g = geffroy_estimate(stats, cfg)
        h = haar_ev_estimate(stats, cfg)
        assert np.array_equal(g.values, h.values)
        assert np.array_equal(g.values, stats.x_star)


def test_geffroy_rejects_grouped_cells() -> None:
    cfg = PartitionConfig(n=10, h_prime=1, d_n=2)
    stats = synthetic_stats(cfg, [0.5, 0.9, 0.7, 0.1])
    with pytest.raises(ValueError):
        geffroy_estimate(stats, cfg)


@pytest.mark.parametrize("estimate", [haar_ev_estimate, coefficient_estimates, corrected_estimate])
def test_estimates_reject_stats_of_another_partition(estimate) -> None:
    # same k_n, so only the partition check tells the two apart
    stats = synthetic_stats(PartitionConfig(n=10, h_prime=1, d_n=2), [0.5, 0.9, 0.7, 0.1])
    with pytest.raises(ValueError, match="not produced under this partition"):
        estimate(stats, PartitionConfig(n=10, h_prime=2, d_n=1))


def test_coefficient_estimates_two_cells() -> None:
    cfg = PartitionConfig(n=10, h_prime=1, d_n=1)  # k_n = 2
    u, v = 0.8, 0.3
    coeffs = coefficient_estimates(synthetic_stats(cfg, [u, v]), cfg)
    assert coeffs[0] == pytest.approx((u + v) / 2)
    assert coeffs[1] == pytest.approx((u - v) / 2)


def test_constant_maxima_give_single_coefficient() -> None:
    cfg = PartitionConfig(n=10, h_prime=2, d_n=3)
    coeffs = coefficient_estimates(synthetic_stats(cfg, np.full(12, 0.6)), cfg)
    assert coeffs[0] == pytest.approx(0.6)
    np.testing.assert_allclose(coeffs[1:], 0.0, atol=1e-15)


def test_coefficient_reconstruction_identity() -> None:
    f = parse_frontier("affine:a=1.0,b=0.5")
    cfg = PartitionConfig(n=500, h_prime=3, d_n=4)
    stats = cell_stats(simulate(f, 500, 1.0, 21), cfg, f)
    est = haar_ev_estimate(stats, cfg)
    coeffs = coefficient_estimates(stats, cfg)
    rng = np.random.Generator(np.random.Philox(key=23))
    for x in rng.random(1000):
        series = sum(coeffs[i] * haar_eval(i, x) for i in range(len(coeffs)))
        assert abs(series - est(x)) <= 1e-12


@pytest.mark.parametrize(
    "f",
    [parse_frontier("sine:a=1.0,b=0.25"), parse_frontier("two_level:lo=0.8,hi=1.2,split=0.5")],
    ids=["sine", "two_level"],
)
@pytest.mark.parametrize("h_prime,d_n", [(0, 1), (0, 5), (1, 1), (2, 3), (5, 4), (10, 1)])
def test_coefficient_pyramid_matches_riemann_sum(f, h_prime, d_n) -> None:
    cfg = PartitionConfig(n=2000, h_prime=h_prime, d_n=d_n)
    stats = cell_stats(simulate(f, cfg.n, 1.0, 31 + h_prime + d_n), cfg, f)
    fast = coefficient_estimates(stats, cfg)
    slow = coefficient_estimates_riemann(stats, cfg)
    assert fast.shape == slow.shape == (cfg.h_n + 1,)
    assert np.max(np.abs(fast - slow)) <= 1e-12


@pytest.mark.parametrize(
    "f",
    [
        parse_frontier(label)
        for label in ("affine:a=1.0,b=0.5", "sine:a=1.0,b=0.25", "two_level:lo=0.8,hi=1.2,split=0.5")
    ],
    ids=["affine", "sine", "two_level"],
)
@pytest.mark.parametrize("h_prime,d_n", [(0, 2), (3, 1), (6, 3)])
def test_coefficients_of_block_means_are_haar_coefficients(f, h_prime, d_n) -> None:
    cfg = PartitionConfig(n=100, h_prime=h_prime, d_n=d_n)
    # every cell of a block holds the block mean of f, so the block means are the projection
    maxima = np.repeat(truncated_expansion(f, cfg.h_n).values, d_n)
    coeffs = coefficient_estimates(synthetic_stats(cfg, maxima), cfg)
    # an independent reference: the inner product of the projection with each Haar step
    projection = truncated_expansion(f, cfg.h_n)
    exact = [step_inner(projection, haar_step(i)) for i in range(cfg.h_n + 1)]
    np.testing.assert_allclose(coeffs, exact, rtol=0, atol=1e-12)


def test_minima_mean_examples() -> None:
    cfg = PartitionConfig(n=10, h_prime=1, d_n=1)
    assert minima_mean(synthetic_stats(cfg, [0.0, 0.0])) == 0.0
    assert minima_mean(synthetic_stats(cfg, [0.5, 0.9], [0.1, 0.3])) == pytest.approx(0.2)


def test_corrected_estimate_example() -> None:
    cfg = PartitionConfig(n=10, h_prime=1, d_n=1)
    bundle = corrected_estimate(synthetic_stats(cfg, [0.8, 1.0], [0.1, 0.3]), cfg)
    np.testing.assert_allclose(bundle.f_hat.values, [0.8, 1.0])
    assert bundle.z_n == pytest.approx(0.2)
    np.testing.assert_allclose(bundle.f_tilde.values, [1.0, 1.2])


def test_shift_identities_are_exact() -> None:
    f = parse_frontier("constant:a=1.0")
    cfg = PartitionConfig(n=200, h_prime=2, d_n=2)
    stats = cell_stats(simulate(f, 200, 1.0, 77), cfg, f)
    bundle = corrected_estimate(stats, cfg)
    rng = np.random.Generator(np.random.Philox(key=31))
    xs = rng.random(1000)
    np.testing.assert_array_equal(bundle.f_tilde(xs), bundle.f_hat(xs) + bundle.z_n)
    checked = oracle_corrected_estimate(stats, cfg, 1.0)
    shift = cfg.k_n / (cfg.n * 1.0)
    np.testing.assert_array_equal(checked(xs), bundle.f_hat(xs) + shift)


@pytest.mark.parametrize("c", [math.nan, math.inf, 0.0, -1.0], ids=["nan", "inf", "0", "-1"])
def test_oracle_corrected_requires_a_finite_positive_rate(c) -> None:
    f = parse_frontier("constant:a=1.0")
    cfg = PartitionConfig(n=200, h_prime=2, d_n=2)
    stats = cell_stats(simulate(f, 200, 1.0, 77), cfg, f)
    with pytest.raises(ValueError, match="intensity rate c must be finite and positive"):
        oracle_corrected_estimate(stats, cfg, c)


def test_oracle_corrected_reduces_bias_flat_frontier() -> None:
    f = parse_frontier("constant:a=1.0")
    cfg = PartitionConfig(n=2000, h_prime=3, d_n=4)
    raw_at, fixed_at = [], []
    for seed in range(400):
        stats = cell_stats(simulate(f, 2000, 1.0, 40_000 + seed), cfg, f)
        raw_at.append(haar_ev_estimate(stats, cfg)(0.5))
        fixed_at.append(oracle_corrected_estimate(stats, cfg, 1.0)(0.5))
    assert abs(np.mean(fixed_at) - 1.0) < abs(np.mean(raw_at) - 1.0)


def test_reduced_form_identity() -> None:
    f = parse_frontier("affine:a=1.0,b=0.5")
    cfg = PartitionConfig(n=400, h_prime=2, d_n=3)
    stats = cell_stats(simulate(f, 400, 1.0, 99), cfg, f)
    est = haar_ev_estimate(stats, cfg)
    proj = truncated_expansion(f, cfg.h_n)
    y = stats.x_star / cfg.k_n - stats.cell_areas  # scaled maxima against exact cell areas
    rng = np.random.Generator(np.random.Philox(key=41))
    for x in rng.random(50):
        block = int(uniform_cell_index(x, cfg.h_n + 1))
        cells = slice(block * cfg.d_n, (block + 1) * cfg.d_n)
        rhs = (cfg.h_n + 1) * float(np.sum(y[cells]))
        assert est(x) - proj(x) == pytest.approx(rhs, abs=1e-9)


def test_estimate_requires_matching_partition() -> None:
    f = parse_frontier("constant:a=1.0")
    cfg = PartitionConfig(n=100, h_prime=2, d_n=1)
    stats = cell_stats(simulate(f, 100, 1.0, 1), cfg, f)
    other = PartitionConfig(n=100, h_prime=1, d_n=2)
    with pytest.raises(ValueError):
        haar_ev_estimate(stats, other)


def test_bundle_json_round_trip() -> None:
    f = parse_frontier("constant:a=1.0")
    cfg = PartitionConfig(n=150, h_prime=2, d_n=2)
    stats = cell_stats(simulate(f, 150, 1.0, 8), cfg, f)
    bundle = corrected_estimate(stats, cfg)
    back = EstimateBundle.from_json(bundle.to_json())
    assert back.cfg == bundle.cfg
    assert back.z_n == bundle.z_n
    np.testing.assert_array_equal(back.f_hat.values, bundle.f_hat.values)
    np.testing.assert_array_equal(back.coefficients, bundle.coefficients)
    np.testing.assert_array_equal(back.f_tilde.values, bundle.f_tilde.values)


OFF_PARTITION = "unknown key, or h_n or k_n off"
NOT_THE_TRANSFORM = "coefficients that are not the Haar transform of f_hat_values"


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("k_n", 99, OFF_PARTITION),
        ("h_n", 7, OFF_PARTITION),
        ("extra", 1, OFF_PARTITION),
        # equal to the integers written, but not integers
        ("h_prime", 2.0, "h_prime must be an integer"),
        ("d_n", 2.0, "d_n must be an integer"),
        ("n", True, "n must be an integer"),
        # a whole dyadic grid, but not the partition's h_n + 1 blocks
        ("f_hat_values", [1.0] * 8, "need h_n \\+ 1 entries"),
        ("coefficients", [1.0, 0.0], "need h_n \\+ 1 entries"),
    ],
    ids=[
        "k_n", "h_n", "extra-key", "h_prime-float", "d_n-float", "n-bool",
        "f_hat-8-blocks", "2-coefficients",
    ],
)
def test_bundle_json_rejects_what_it_would_not_write(key, value, message) -> None:
    cfg = PartitionConfig(n=150, h_prime=2, d_n=2)
    f = parse_frontier("constant:a=1.0")
    stats = cell_stats(simulate(f, 150, 1.0, 8), cfg, f)
    payload = json.loads(corrected_estimate(stats, cfg).to_json())
    payload[key] = value
    with pytest.raises(ValueError, match=message):
        EstimateBundle.from_json(json.dumps(payload))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1.0),
            st.floats(min_value=0.0, max_value=1.0),
        ),
        min_size=0,
        max_size=20,
    ),
    st.tuples(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    ),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=1, max_value=3),
)
def test_adding_a_point_never_lowers_the_estimate(points, extra, h_prime, d_n) -> None:
    f = parse_frontier("constant:a=1.0")
    cfg = PartitionConfig(n=5, h_prime=h_prime, d_n=d_n)

    def build(pts):
        pts = sorted(pts)
        xs = np.array([p[0] for p in pts])
        ys = np.array([p[1] for p in pts])
        sample = PointSample(xs, ys, n=5, c=1.0, seed=0, frontier_label=f.label)
        return haar_ev_estimate(cell_stats(sample, cfg, f), cfg)

    before = build(points)
    after = build(points + [extra])
    assert np.all(after.values >= before.values - 1e-15)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1.0),
            st.floats(min_value=0.0, max_value=1.0),
        ),
        min_size=0,
        max_size=20,
    ),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=1, max_value=3),
    st.data(),
)
def test_estimate_is_invariant_under_row_permutation(points, h_prime, d_n, data) -> None:
    cfg = PartitionConfig(n=5, h_prime=h_prime, d_n=d_n)
    shuffled = data.draw(st.permutations(points))
    np.testing.assert_array_equal(
        _estimate_from_rows(shuffled, cfg), _estimate_from_rows(points, cfg)
    )


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=10),
    st.sampled_from([1, 2, 3, 64]),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_block_means_and_minima_mean_are_those_of_ndarray_mean(h_prime, d_n, empty_frac, seed) -> None:
    # maxima over several binades, so the sums round; a share of the cells is empty
    cfg = PartitionConfig(n=10, h_prime=h_prime, d_n=d_n)
    rng = np.random.default_rng(seed)
    k = cfg.k_n
    maxima = 2.0 * rng.random(k) * np.exp2(-rng.integers(0, 30, k))
    maxima[rng.random(k) < empty_frac] = 0.0
    stats = synthetic_stats(cfg, maxima, maxima * rng.random(k))
    assert haar_ev_estimate(stats, cfg).values.tobytes() == block_means_by_mean(stats, cfg).tobytes()
    z_n = minima_mean(stats)
    assert type(z_n) is float and z_n.hex() == minima_mean_by_mean(stats).hex()



def test_bundle_json_rejects_coefficients_that_are_not_the_transform_of_its_values() -> None:
    cfg = PartitionConfig(n=150, h_prime=2, d_n=2)
    f = parse_frontier("constant:a=1.0")
    stats = cell_stats(simulate(f, 150, 1.0, 8), cfg, f)
    payload = json.loads(corrected_estimate(stats, cfg).to_json())
    for i in range(cfg.h_n + 1):
        bad = json.loads(json.dumps(payload))
        bad["coefficients"][i] += 0.5
        with pytest.raises(ValueError, match=NOT_THE_TRANSFORM):
            EstimateBundle.from_json(json.dumps(bad))
    # the values alone moved: the written coefficients are no longer their transform
    bad = json.loads(json.dumps(payload))
    bad["f_hat_values"][0] += 0.5
    with pytest.raises(ValueError, match=NOT_THE_TRANSFORM):
        EstimateBundle.from_json(json.dumps(bad))


@pytest.mark.parametrize(
    "key, value",
    [("coefficients", 5), ("z_n", [1]), ("z_n", None), ("f_hat_values", {"a": 1.0})],
    ids=["coefficients-number", "z_n-list", "z_n-null", "f_hat-object"],
)
def test_bundle_json_rejects_a_value_of_the_wrong_type_as_a_bad_file(key, value) -> None:
    cfg = PartitionConfig(n=150, h_prime=2, d_n=2)
    f = parse_frontier("constant:a=1.0")
    stats = cell_stats(simulate(f, 150, 1.0, 8), cfg, f)
    payload = json.loads(corrected_estimate(stats, cfg).to_json())
    payload[key] = value
    with pytest.raises(ValueError, match="a value of the wrong type"):
        EstimateBundle.from_json(json.dumps(payload))


ESTIMATE_KEYS = ("n", "h_prime", "d_n", "h_n", "k_n", "z_n", "coefficients", "f_hat_values")


@pytest.mark.parametrize("key", ESTIMATE_KEYS)
def test_bundle_json_rejects_a_missing_key_as_a_bad_file(key) -> None:
    cfg = PartitionConfig(n=150, h_prime=2, d_n=2)
    f = parse_frontier("constant:a=1.0")
    stats = cell_stats(simulate(f, 150, 1.0, 8), cfg, f)
    payload = json.loads(corrected_estimate(stats, cfg).to_json())
    assert tuple(payload) == ESTIMATE_KEYS
    del payload[key]
    with pytest.raises(ValueError, match="a missing or unknown key"):
        EstimateBundle.from_json(json.dumps(payload))


@pytest.mark.parametrize("text", ["[1, 2]", "1", '"estimate"', "null"])
def test_bundle_json_rejects_a_file_that_is_not_an_object(text) -> None:
    with pytest.raises(ValueError, match="a missing or unknown key"):
        EstimateBundle.from_json(text)
