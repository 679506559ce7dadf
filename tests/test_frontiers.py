import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from haarfrontier.frontiers import (
    FrontierSpec,
    affine_frontier,
    constant_frontier,
    parse_frontier,
    sine_frontier,
    two_level_frontier,
)
from haarfrontier.quadrature import adaptive_simpson

from crosschecks import (
    SHIPPED_LABELS,
    affine_frontier_per_family,
    constant_frontier_per_family,
    frontier,
    sine_area_above_three_periods,
    two_level_frontier_per_family,
)

EXACT = ("exact_integral", "exact_integral_sq", "exact_range", "exact_area_above")


def _exact_of(spec) -> dict:
    """The four exact capabilities of a spec, as keyword arguments for another one."""
    return {name: getattr(spec, name) for name in EXACT}


def test_area_examples() -> None:
    assert constant_frontier(1.0).integral(0.0, 1.0) == pytest.approx(1.0, abs=1e-14)
    assert affine_frontier(0.5, 1.0).integral(0.0, 1.0) == pytest.approx(1.0, abs=1e-14)
    assert sine_frontier(1.0, 0.25).integral(0.0, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_exact_integrals_match_quadrature() -> None:
    shipped = (affine_frontier(1.0, 0.5), sine_frontier(1.2, 0.3), two_level_frontier())
    for f in shipped + (frontier("custom-cos"),):
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


def test_custom_cos_range_and_area_match_grid_and_quadrature() -> None:
    f = frontier("custom-cos")
    assert f.range_on(0.0, 1.0) == (1.0 + 0.25 * math.cos(3.0), 1.25)
    for lo, hi in ((0.0, 1.0), (0.1, 0.35), (0.4, 0.9)):
        grid = f(np.linspace(lo, hi, 1001))
        assert f.range_on(lo, hi) == (grid.min(), grid.max())
        for u in (0.5, f.m, 0.9, 1.0, 1.2, f.M, 1.3):
            quad = adaptive_simpson(lambda t: max(float(f(t)) - u, 0.0), lo, hi)
            assert f.area_above(lo, hi, u) == pytest.approx(quad, abs=1e-9)


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
def test_sine_area_above_matches_quadrature(b) -> None:
    f = sine_frontier(1.0, b)
    crest = 0.25 if b > 0.0 else 0.75
    bump = f.area_above(crest - 0.05, crest + 0.05, f.M - 0.01)
    assert bump > 1e-5
    for lo, hi, u in (
        (crest - 0.05, crest + 0.05, f.M - 0.01),  # interior bump at the crest
        (0.1, 0.6, f.m),  # u <= m: the whole strip above u
        (0.1, 0.6, f.m - 0.1),
        (0.1, 0.6, f.M),  # u >= M: nothing above u
        (0.1, 0.6, f.M + 0.1),
    ):
        # split at the crest, so no pass accepts a zero beside an interior bump
        cuts = sorted({lo, hi, min(max(crest, lo), hi)})
        quad = sum(
            adaptive_simpson(lambda t: max(float(f(t)) - u, 0.0), a, c) for a, c in zip(cuts, cuts[1:])
        )
        assert f.area_above(lo, hi, u) == pytest.approx(quad, abs=1e-9)


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


# each piecewise-linear family, as built now and by its own closures
PIECEWISE = {
    "constant": (constant_frontier, constant_frontier_per_family),
    "affine": (affine_frontier, affine_frontier_per_family),
    "two_level": (two_level_frontier, two_level_frontier_per_family),
}
# x*x and x**2 (libm's pow) round apart for these levels: every flat piece squares
# its level by multiplication, as the per-family closures do
POW_ROUNDS_APART = (0.1709516896240072, 0.570539394898132, 2.8272017747674254)


def _bits(value) -> tuple:
    """Shape and bits, the sign of zero included; any NaN matches any NaN."""
    arr = np.asarray(value, dtype=float)
    return arr.shape, [v.hex() for v in arr.ravel().tolist()]


def _build(make, args):
    try:
        return make(*args)
    except ValueError as exc:
        return str(exc)


@st.composite
def piecewise_cases(draw):
    """A piecewise-linear family's arguments, scalar intervals, a partition and levels."""
    family = draw(st.sampled_from(sorted(PIECEWISE)))
    level = st.floats(1e-6, 1e6) | st.sampled_from((1e-6, 1.0, 1e6) + POW_ROUNDS_APART)
    level |= st.sampled_from((math.nan, math.inf, 0.0, -1.0))  # rejected, with the same message
    if family == "constant":
        args = (draw(level),)
    elif family == "affine":  # b = r*a keeps a + b > 0; r = 0 and -0 give both zeros
        a = draw(level)
        ratio = st.floats(-0.999, 1e3) | st.sampled_from((0.0, -0.0, -0.5, 0.5, math.nan, math.inf, -1.5))
        args = (a, a * draw(ratio))
    else:
        edge = (1e-9, 2e-9, 1.0 - 1e-9, 1.0 - 2e-9, 0.5, 0.3, 0.0, 1.0, math.nan)
        args = (draw(level), draw(level), draw(st.floats(1e-9, 1.0 - 1e-9) | st.sampled_from(edge)))
    split = args[2] if family == "two_level" else 0.5
    # ends anywhere, at 0 or 1, on the split or one float either side of it
    near = (0.0, 1.0, split, math.nextafter(split, 0.0), math.nextafter(split, 1.0))
    end = st.floats(0.0, 1.0) | st.sampled_from(near)
    intervals = [tuple(sorted(draw(st.tuples(end, end)))) for _ in range(draw(st.integers(1, 12)))]
    intervals += [(x, x) for x in draw(st.lists(end, min_size=1, max_size=4))]  # lo = hi
    cells = draw(st.sampled_from((1, 2, 3, 7, 16, 64, 100, 4096)))
    levels = draw(st.lists(st.floats(-0.5, 2e6), max_size=8))
    return family, args, intervals, cells, levels


@settings(max_examples=200, deadline=None)
@given(piecewise_cases())
@example(("affine", (1.0, -0.5), [(0.3, 0.3), (0.0, 1.0)], 16, []))  # f^2 integral -0.0 on lo = hi
@example(("two_level", (0.8, 1.2, 1e-9), [(0.0, 1e-9), (1e-9, 1e-9), (0.0, 1.0)], 4096, [1.0]))
@example(("two_level", (1.2, 0.8, 1.0 - 1e-9), [(1.0 - 1e-9, 1.0), (0.5, 1.0 - 1e-9)], 3, [1.0]))
@example(("two_level", POW_ROUNDS_APART[:2] + (0.3,), [(0.0, 1.0)], 1, []))  # squared by v * v, not pow
@example(("constant", POW_ROUNDS_APART[:1], [(0.0, 1.0)], 1, []))
def test_piecewise_families_are_their_own_closures_bit_for_bit(case) -> None:
    family, args, intervals, cells, levels = case
    made, reference = (_build(make, args) for make in PIECEWISE[family])
    if isinstance(reference, str):  # a rejected frontier: the same message
        assert made == reference
        return
    assert (made.label, made.alpha) == (reference.label, reference.alpha)
    assert _bits([made.m, made.M, made.lip]) == _bits([reference.m, reference.M, reference.lip])
    # a uniform partition, the same cut at the split, and the scalar intervals as arrays
    uniform = np.arange(cells + 1) / cells
    at_split = np.union1d(uniform, args[2:] if family == "two_level" else ())
    lo, hi = np.array(intervals).T
    partitions = [(uniform[:-1], uniform[1:]), (at_split[:-1], at_split[1:]), (lo, hi)]
    points = np.concatenate([at_split, lo, hi])
    assert _bits(made.f(points)) == _bits(reference.f(points))
    for x in points[::7]:
        assert _bits(made.f(np.asarray(x))) == _bits(reference.f(np.asarray(x)))
    for a, b in intervals + partitions:
        for name in ("exact_integral", "exact_integral_sq"):
            assert _bits(getattr(made, name)(a, b)) == _bits(getattr(reference, name)(a, b)), (name, a, b)
        assert [_bits(v) for v in made.exact_range(a, b)] == [_bits(v) for v in reference.exact_range(a, b)]
    m, top = made.m, made.M
    levels = [*levels, -1.0, -0.0, 0.0, m, top, math.nextafter(m, 0.0), math.nextafter(top, 3e6), 2.0 * top]
    levels += [math.nan, 0.5 * (m + top), m + 0.25 * (top - m)]
    cells_at_split = list(zip(at_split[:-1].tolist(), at_split[1:].tolist()))
    for a, b in intervals + (cells_at_split if cells <= 100 else cells_at_split[:: cells // 64]):
        for u in levels:
            got, want = made.exact_area_above(a, b, u), reference.exact_area_above(a, b, u)
            assert float(got).hex() == float(want).hex(), (a, b, u, got, want)


def test_bounds_are_enforced() -> None:
    with pytest.raises(ValueError, match="0 < m <= M"):
        FrontierSpec(
            f=lambda x: np.asarray(x, dtype=float),
            m=0.0,
            M=1.0,
            alpha=1.0,
            lip=1.0,
            label="bad",
            **_exact_of(affine_frontier(1.0, 1.0)),
        )
    with pytest.raises(ValueError):
        constant_frontier(-1.0)


def test_lipschitz_spot_check_catches_lies() -> None:
    with pytest.raises(ValueError, match="violates its Lipschitz declaration"):
        FrontierSpec(
            f=lambda x: 1.0 + 0.5 * np.sin(40.0 * np.asarray(x, dtype=float)),
            m=0.5,
            M=1.5,
            alpha=1.0,
            lip=0.1,  # true constant is 20
            label="liar",
            **_exact_of(sine_frontier(1.0, 0.5)),
        )


def test_declared_bounds_spot_check() -> None:
    with pytest.raises(ValueError, match="escapes its declared bounds"):
        FrontierSpec(
            f=lambda x: 1.0 + np.asarray(x, dtype=float),
            m=0.9,
            M=1.5,  # true sup is 2
            alpha=1.0,
            lip=1.0,
            label="escapes",
            **_exact_of(affine_frontier(1.0, 1.0)),
        )


@pytest.mark.parametrize("name", EXACT)
def test_each_exact_capability_is_required(name) -> None:
    shipped = affine_frontier(1.0, 0.5)
    kwargs = {field.name: getattr(shipped, field.name) for field in dataclasses.fields(shipped)}
    del kwargs[name]
    with pytest.raises(ValueError, match=name):
        FrontierSpec(**kwargs)
    for bad in (None, 1.5, "integral"):
        with pytest.raises(ValueError, match=name):
            FrontierSpec(**kwargs, **{name: bad})
        with pytest.raises(ValueError, match=name):
            dataclasses.replace(shipped, **{name: bad})


@pytest.mark.parametrize(
    "label",
    [
        "affine:a=1.0,b=nan",
        "two_level:lo=0.8,hi=nan,split=0.5",
        "two_level:lo=nan,hi=1.2,split=0.5",
        "two_level:lo=0.8,hi=1.2,split=nan",
        "constant:a=nan",
        "sine:a=1.0,b=nan",
        "sine:a=nan,b=0.25",
        "affine:a=1.0,b=inf",
    ],
)
def test_parse_frontier_rejects_values_that_are_not_finite(label) -> None:
    with pytest.raises(ValueError):
        parse_frontier(label)


def test_spec_rejects_a_nan_value_or_a_nan_or_negative_lipschitz_constant() -> None:
    shipped = affine_frontier(1.0, 0.5)
    with pytest.raises(ValueError, match="not finite"):
        dataclasses.replace(shipped, f=lambda x: np.where(np.asarray(x) < 0.5, 1.0, math.nan))
    for lip in (math.nan, -1.0):
        with pytest.raises(ValueError, match="needs a Lipschitz constant >= 0"):
            dataclasses.replace(shipped, lip=lip)
    # an infinite constant declares no Lipschitz bound, as for the two-level family
    assert dataclasses.replace(shipped, lip=math.inf).lip == math.inf


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


def test_parse_frontier_rejects_a_repeated_parameter() -> None:
    for label in ("affine:a=1.0,a=2.0,b=0.5", "affine:a=1.0,b=0.5, a =2.0"):
        with pytest.raises(ValueError, match="parameter 'a' given twice"):
            parse_frontier(label)


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
