import dataclasses
import math

import numpy as np
import pytest

from haarfrontier.frontiers import (
    FrontierSpec,
    affine_frontier,
    constant_frontier,
    parse_frontier,
    sine_frontier,
    two_level_frontier,
)
from haarfrontier.quadrature import adaptive_simpson

from crosschecks import SHIPPED_LABELS, frontier, sine_area_above_three_periods


def test_area_examples() -> None:
    assert constant_frontier(1.0).integral(0.0, 1.0) == pytest.approx(1.0, abs=1e-14)
    assert affine_frontier(0.5, 1.0).integral(0.0, 1.0) == pytest.approx(1.0, abs=1e-14)
    assert sine_frontier(1.0, 0.25).integral(0.0, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_exact_integrals_match_quadrature() -> None:
    for f in (affine_frontier(1.0, 0.5), sine_frontier(1.2, 0.3), two_level_frontier()):
        for lo, hi in ((0.0, 1.0), (0.1, 0.35), (0.4, 0.9)):
            quad = adaptive_simpson(lambda t: float(f(t)), lo, hi)
            assert f.integral(lo, hi) == pytest.approx(quad, abs=1e-8)
            quad_sq = adaptive_simpson(lambda t: float(f(t)) ** 2, lo, hi)
            assert f.integral_sq(lo, hi) == pytest.approx(quad_sq, abs=1e-8)


def test_exact_ranges() -> None:
    f = affine_frontier(1.0, -0.5)
    assert f.range_on(0.2, 0.6) == (pytest.approx(0.7), pytest.approx(0.9))
    s = sine_frontier(1.0, 0.25)
    mn, mx = s.range_on(0.2, 0.8)  # straddles both critical points
    assert mx == pytest.approx(1.25)
    assert mn == pytest.approx(0.75)
    neg = sine_frontier(1.0, -0.25)  # the trough at 1/4 and the crest at 3/4
    assert neg.range_on(0.2, 0.3) == (0.75, pytest.approx(1.0 - 0.25 * math.sin(0.4 * math.pi)))
    assert neg.range_on(0.7, 0.8) == (pytest.approx(1.0 + 0.25 * math.sin(0.4 * math.pi)), 1.25)
    t = two_level_frontier(0.8, 1.2, 0.5)
    assert t.range_on(0.0, 0.25) == (0.8, 0.8)
    assert t.range_on(0.25, 0.75) == (0.8, 1.2)
    assert t.range_on(0.75, 1.0) == (1.2, 1.2)
    # cells are half-open at the split: one ending there sees lo only, one starting there hi only
    assert t.range_on(0.25, 0.5) == (0.8, 0.8)
    assert t.range_on(0.5, 0.75) == (1.2, 1.2)


def test_range_enclosure_without_exact_capability() -> None:
    f = FrontierSpec(
        f=lambda x: 1.0 + 0.25 * np.cos(3.0 * np.asarray(x, dtype=float)),
        m=0.7,
        M=1.25,
        alpha=1.0,
        lip=0.75,
        label="custom-cos",
    )
    mn, mx = f.range_on(0.0, 1.0)
    assert mx == pytest.approx(1.25, abs=1e-7)
    assert mn == pytest.approx(1.0 + 0.25 * math.cos(3.0), abs=1e-7)


def test_area_above_matches_quadrature() -> None:
    f = affine_frontier(1.0, 0.5)
    for lo, hi in ((0.0, 0.5), (0.25, 0.3)):
        for u in (0.9, 1.05, 1.2, 1.6):
            quad = adaptive_simpson(lambda t: max(float(f(t)) - u, 0.0), lo, hi)
            assert f.area_above(lo, hi, u) == pytest.approx(quad, abs=1e-9)
    s = sine_frontier(1.0, 0.25)
    got = s.area_above(0.2, 0.3, 1.2)  # interior bump near the crest
    quad = sum(
        adaptive_simpson(lambda t: max(float(s(t)) - 1.2, 0.0), a, b)
        for a, b in ((0.2, 0.25), (0.25, 0.3))
    )
    assert got == pytest.approx(quad, abs=1e-9)


@pytest.mark.parametrize("b", [0.25, -0.25, 0.7])
def test_generic_area_above_matches_sine_closed_form(b) -> None:
    exact = sine_frontier(1.0, b)
    w = 2.0 * math.pi
    generic = FrontierSpec(  # no exact capabilities: quadrature and Lipschitz enclosure
        f=lambda x: 1.0 + b * np.sin(w * np.asarray(x, dtype=float)),
        m=exact.m,
        M=exact.M,
        alpha=1.0,
        lip=w * abs(b),
        label="generic-sine",
    )
    crest = 0.25 if b > 0.0 else 0.75
    bump = exact.area_above(crest - 0.05, crest + 0.05, exact.M - 0.01)
    assert bump > 1e-5
    for lo, hi, u in (
        (crest - 0.05, crest + 0.05, exact.M - 0.01),  # interior bump at the crest
        (0.1, 0.6, exact.m),  # u <= m: the whole strip above u
        (0.1, 0.6, exact.m - 0.1),
        (0.1, 0.6, exact.M),  # u >= M: nothing above u
        (0.1, 0.6, exact.M + 0.1),
    ):
        want = exact.area_above(lo, hi, u)
        assert generic.area_above(lo, hi, u) == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("a", [1.0, 1.3])
@pytest.mark.parametrize("b", [0.25, -0.25, 0.7, -0.7, 0.0])
def test_sine_area_above_is_the_three_period_scan_bit_for_bit(a, b) -> None:
    f = sine_frontier(a, b)
    levels = [
        -0.5, 0.0,  # at or below 0
        *np.linspace(f.m, f.M, 23)[1:-1].tolist(),  # inside (m, M)
        f.m, f.M, f.M + 0.25,  # the ends of the range, and above it
        math.nan,
    ]
    cells = [(i / k, (i + 1) / k) for k in (16, 64) for i in range(k)]
    # [0, 1] itself, and cells that touch 0 or 1, where the wrapped periods meet
    ends = [(0.0, 1.0), (0.0, 1e-3), (0.0, 0.6), (0.4, 1.0), (1.0 - 1e-3, 1.0), (0.3, 0.3)]
    for lo, hi in cells + ends:
        for u in levels:
            got = f.exact_area_above(lo, hi, u)
            want = sine_area_above_three_periods(a, b, lo, hi, u)
            # equal with the sign of zero, or both NaN
            assert got.hex() == want.hex(), (lo, hi, u, got, want)


def test_bounds_are_enforced() -> None:
    with pytest.raises(ValueError):
        FrontierSpec(f=lambda x: np.asarray(x, dtype=float), m=0.0, M=1.0, alpha=1.0, lip=1.0, label="bad")
    with pytest.raises(ValueError):
        constant_frontier(-1.0)


def test_lipschitz_spot_check_catches_lies() -> None:
    with pytest.raises(ValueError):
        FrontierSpec(
            f=lambda x: 1.0 + 0.5 * np.sin(40.0 * np.asarray(x, dtype=float)),
            m=0.5,
            M=1.5,
            alpha=1.0,
            lip=0.1,  # true constant is 20
            label="liar",
        )


def test_declared_bounds_spot_check() -> None:
    with pytest.raises(ValueError):
        FrontierSpec(
            f=lambda x: 1.0 + np.asarray(x, dtype=float),
            m=0.9,
            M=1.5,  # true sup is 2
            alpha=1.0,
            lip=1.0,
            label="escapes",
        )


def test_parse_frontier_round_trip() -> None:
    for label in (
        "constant:a=1.0",
        "affine:a=1.0,b=0.5",
        "sine:a=1.0,b=0.25",
        "two_level:lo=0.8,hi=1.2,split=0.5",
    ):
        f = parse_frontier(label)
        assert f.label == label
        again = parse_frontier(f.label)
        assert again.label == label


def test_parse_frontier_rejects_unknown() -> None:
    with pytest.raises(ValueError):
        parse_frontier("parabola:a=1")
    with pytest.raises(ValueError):
        parse_frontier("affine:a")
    with pytest.raises(ValueError, match="unexpected keyword"):
        parse_frontier("constant:b=1")


def test_two_level_requires_interior_split() -> None:
    with pytest.raises(ValueError):
        two_level_frontier(0.8, 1.2, 1.0)


@pytest.mark.parametrize("label", SHIPPED_LABELS + ("custom-cos", "user-integral"))
def test_integral_and_range_take_scalar_or_array_ends(label) -> None:
    if label == "user-integral":  # written for scalars, and elementwise as it stands
        f = dataclasses.replace(frontier("custom-cos"), exact_integral=lambda lo, hi: 1e-4 * (hi - lo))
    else:
        f = frontier(label)
    assert type(f.integral(0.1, 0.4)) is float
    assert type(f.integral_sq(0.1, 0.4)) is float
    mn, mx = f.range_on(0.1, 0.4)
    assert type(mn) is float and type(mx) is float
    # ends off the dyadic grid, where pow and the transcendentals round
    lo, hi = np.sort(np.random.default_rng(6).random((2, 40)), axis=0)
    integ, integ_sq, (mins, maxs) = f.integral(lo, hi), f.integral_sq(lo, hi), f.range_on(lo, hi)
    for got in (integ, integ_sq, mins, maxs):
        assert isinstance(got, np.ndarray) and got.shape == (40,) and got.dtype == float
    for j in range(40):
        assert f.integral(lo[j], hi[j]) == integ[j] and f.integral_sq(lo[j], hi[j]) == integ_sq[j]
        assert f.range_on(lo[j], hi[j]) == (mins[j], maxs[j])


@pytest.mark.parametrize("label", SHIPPED_LABELS + ("custom-cos",))
def test_call_gives_a_float_for_a_scalar_and_a_float_array_for_an_array(label) -> None:
    f = frontier(label)
    xs = np.concatenate(([0.0, 0.5, 1.0], np.random.default_rng(8).random(37)))
    values = f(xs)
    assert type(values) is np.ndarray and values.dtype == float and values.shape == (40,)
    for x, value in zip(xs, values):
        for point in (float(x), np.float64(x), np.array(x)):
            got = f(point)
            assert type(got) is float and got == pytest.approx(value, rel=1e-15, abs=0.0)
    # a 2-D float array keeps its shape; lists and other dtypes are converted first
    assert np.array_equal(f(xs.reshape(5, 8)), values.reshape(5, 8))
    assert np.array_equal(f(xs.tolist()), values)
    as_f32 = xs.astype(np.float32)
    assert np.array_equal(f(as_f32), f(as_f32.astype(float)))
