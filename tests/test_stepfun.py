import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haarfrontier.frontiers import parse_frontier
from haarfrontier.haar import haar_eval
from haarfrontier.stepfun import StepFunction, uniform_cell_index

from crosschecks import (
    BreakpointStep,
    dirichlet_kernel,
    error_metrics,
    searchsorted_cell_index,
    step_add,
    step_inner,
    step_integral,
    step_l2_norm_sq,
    step_scale,
    step_sub,
    step_sup_norm,
)


def test_construction_validation() -> None:
    for values in ([1.0, 2.0, 3.0], [], [[1.0, 2.0], [3.0, 4.0]], 1.0):
        with pytest.raises(ValueError, match="2\\^j equal blocks"):
            StepFunction(values)


def test_evaluation_conventions() -> None:
    s = StepFunction([2.0, 3.0])
    assert s(0.0) == 2.0
    assert s(0.5) == 3.0  # interior block edges are left-closed on the right block
    assert s(1.0) == 3.0  # x = 1 belongs to the last, right-closed block
    assert s(0.49999) == 2.0
    with pytest.raises(ValueError):
        s(1.5)
    with pytest.raises(ValueError):
        s(-0.1)


def test_uniform_and_integral() -> None:
    s = StepFunction([1.0, 2.0, 3.0, 4.0])
    assert step_integral(s) == pytest.approx(2.5)
    assert step_l2_norm_sq(s) == pytest.approx((1 + 4 + 9 + 16) / 4)
    assert step_sup_norm(s) == 4.0


def test_arithmetic_on_mismatched_grids() -> None:
    a = StepFunction([1.0, 2.0, 2.0, 2.0])
    b = StepFunction([10.0, 20.0])
    total = step_add(a, b)
    np.testing.assert_array_equal(total.values, [11.0, 12.0, 22.0, 22.0])
    assert total(0.1) == 11.0
    assert total(0.3) == 12.0
    assert total(0.7) == 22.0
    diff = step_sub(b, a)
    assert step_integral(diff) == pytest.approx(step_integral(b) - step_integral(a))


def test_scalar_operations() -> None:
    s = StepFunction([1.0, 3.0])
    assert (s + 0.5)(0.1) == 1.5
    assert step_scale(s, 2.0)(0.9) == 6.0
    assert step_integral(step_scale(s, -1.0)) == -step_integral(s)


def test_a_step_adds_only_a_scalar() -> None:
    a, b = StepFunction([1.0, 2.0]), StepFunction([3.0])
    np.testing.assert_array_equal((a + np.float64(0.5)).values, [1.5, 2.5])
    # step-by-step arithmetic is the tests' reference form, not the package's
    for bad in (b, [0.5, 0.5]):
        with pytest.raises(TypeError):
            a + bad
    with pytest.raises(TypeError):
        2.0 * a
    with pytest.raises(TypeError):
        -a


def test_inner_is_exact_on_refinement() -> None:
    a = StepFunction([2.0, 4.0, 4.0, 4.0])
    b = StepFunction([1.0, -1.0])
    # 2*1*0.25 + 4*1*0.25 + 4*(-1)*0.5
    assert step_inner(a, b) == pytest.approx(0.5 + 1.0 - 2.0)


@st.composite
def step_functions(draw):
    m = 2 ** draw(st.integers(min_value=0, max_value=6))
    values = draw(
        st.lists(
            st.floats(min_value=-10, max_value=10, allow_nan=False),
            min_size=m,
            max_size=m,
        )
    )
    return StepFunction(values)


@settings(max_examples=60, deadline=None)
@given(step_functions(), step_functions(), st.floats(min_value=0.0, max_value=1.0))
def test_binary_ops_agree_pointwise(a, b, x) -> None:
    assert step_add(a, b)(x) == a(x) + b(x)
    assert step_sub(a, b)(x) == a(x) - b(x)


@settings(max_examples=60, deadline=None)
@given(step_functions())
def test_l2_norm_matches_inner(s) -> None:
    assert step_l2_norm_sq(s) == pytest.approx(step_inner(s, s), rel=1e-12, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(step_functions(), step_functions(), st.lists(st.floats(0.0, 1.0), max_size=8))
def test_arithmetic_matches_breakpoint_reference(a, b, xs) -> None:
    ref_a, ref_b = BreakpointStep.of(a), BreakpointStep.of(b)
    m = max(len(a.values), len(b.values))
    # every block edge k / 2^j of the finer grid, then random points
    points = np.concatenate([np.arange(m + 1) / m, xs])
    for got, want in ((step_add(a, b), ref_a + ref_b), (step_sub(a, b), ref_a - ref_b)):
        np.testing.assert_array_equal(want.breakpoints, np.arange(m + 1) / m)
        np.testing.assert_array_equal(got.values, want.values)
        np.testing.assert_array_equal(got(points), want(points))
    for step, ref in ((a, ref_a), (b, ref_b)):
        np.testing.assert_array_equal(step(points), ref(points))
        assert all(step(float(x)) == ref(float(x)) for x in points)
    assert step_inner(a, b) == ref_a.inner(ref_b)


@pytest.mark.parametrize("n_cells", [*range(1, 201), 3 * 2**10, 12_288, 2**10, 2**14, 2**16])
def test_uniform_cell_index_matches_search_reference(n_cells) -> None:
    # every edge j / n_cells, both of its floating-point neighbours inside
    # [0, 1], and random x: where a rounded x * n_cells is off by one, and
    # where a power of two skips the edge comparisons
    edges = np.arange(n_cells + 1) / n_cells
    below, above = np.nextafter(edges[1:], -np.inf), np.nextafter(edges[:-1], np.inf)
    random = np.random.default_rng(n_cells).random(1000)
    xs = np.concatenate((edges, below, above, [0.0, 1.0], random))
    want = searchsorted_cell_index(xs, n_cells)
    got = uniform_cell_index(xs, n_cells)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert [int(uniform_cell_index(x, n_cells)) for x in xs.tolist()] == want.tolist()
    # the neighbours just outside [0, 1] still raise
    for x in (np.nextafter(0.0, -np.inf), np.nextafter(1.0, np.inf), np.nan):
        with pytest.raises(ValueError, match="x must lie in \\[0, 1\\]"):
            uniform_cell_index(x, n_cells)
        with pytest.raises(ValueError, match="x must lie in \\[0, 1\\]"):
            uniform_cell_index(np.append(xs, x), n_cells)


STEP = StepFunction([1.0, 2.0, 3.0, 4.0])

# every caller of the one point-to-cell rule, the package's and the reference
# forms' from crosschecks alike, fed one x
POINT_TO_CELL_CALLERS = {
    "uniform_cell_index": lambda x: uniform_cell_index(x, 4),
    "StepFunction": STEP,
    "haar_eval-0": lambda x: haar_eval(0, x),
    "haar_eval-1": lambda x: haar_eval(1, x),
    "dirichlet_kernel": lambda x: dirichlet_kernel(3, x, 0.9),
    "error_metrics": lambda x: error_metrics(STEP, parse_frontier("constant:a=1.0"), xs=(x,)),
}


@pytest.mark.parametrize(
    "x",
    [np.nan, np.inf, -np.inf, -0.1, 1.5, np.array([0.5, np.nan])],
    ids=["nan", "inf", "-inf", "-0.1", "1.5", "array-with-nan"],
)
@pytest.mark.parametrize(
    "call", POINT_TO_CELL_CALLERS.values(), ids=POINT_TO_CELL_CALLERS.keys()
)
def test_point_to_cell_rule_rejects_x_off_the_unit_interval(call, x) -> None:
    with pytest.raises(ValueError, match="x must lie in \\[0, 1\\]"):
        call(x)
