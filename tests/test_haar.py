import functools
import math

import numpy as np
import pytest

from haarfrontier.frontiers import parse_frontier
from haarfrontier.haar import haar_eval, haar_transform, truncated_expansion
from haarfrontier.stepfun import uniform_cell_index

from crosschecks import (
    SHIPPED_LABELS,
    dirichlet_kernel,
    dirichlet_kernel_sum,
    dyadic_index,
    haar_coefficient,
    haar_step,
    step_add,
    step_inner,
    step_scale,
)


def test_dyadic_index_examples() -> None:
    assert (dyadic_index(1).p, dyadic_index(1).q) == (0, 1)
    assert (dyadic_index(5).p, dyadic_index(5).q) == (1, 3)
    assert (dyadic_index(7).p, dyadic_index(7).q) == (3, 3)


def test_dyadic_index_exhaustive_oracle() -> None:
    # brute-force uniqueness check for the decomposition, i <= 1024
    for i in range(1, 1025):
        matches = [
            (p, q)
            for q in range(1, 12)
            for p in range(2 ** (q - 1))
            if 2 ** (q - 1) + p == i
        ]
        assert len(matches) == 1
        idx = dyadic_index(i)
        assert (idx.p, idx.q) == matches[0]


def test_dyadic_index_rejects_zero() -> None:
    with pytest.raises(ValueError):
        dyadic_index(0)


def test_haar_eval_examples() -> None:
    assert haar_eval(0, 0.3) == 1.0
    assert haar_eval(1, 0.25) == 1.0
    assert haar_eval(1, 0.75) == -1.0
    assert haar_eval(1, 1.0) == -1.0
    assert haar_eval(2, 0.9) == 0.0
    # unit L2 mass of e_2, by exact step integration
    assert step_inner(haar_step(2), haar_step(2)) == pytest.approx(1.0, abs=1e-14)


def test_haar_eval_rejects_outside_unit_interval() -> None:
    with pytest.raises(ValueError):
        haar_eval(1, 1.2)
    with pytest.raises(ValueError):
        haar_eval(0, -0.001)


def test_haar_step_matches_pointwise_eval() -> None:
    # bit for bit against the reference step, on every block edge and midpoint
    # of psi_1024's 2^11 blocks (x = 1 included) and on random points
    rng = np.random.Generator(np.random.Philox(key=3))
    xs = np.concatenate([np.arange(2**12 + 1) / 2**12, rng.random(200)])
    for i in range(2**10 + 1):
        assert np.array_equal(haar_eval(i, xs), haar_step(i)(xs)), i
        assert haar_eval(i, 1.0) == haar_step(i)(1.0), i


@pytest.mark.parametrize("i", [2.7, 2.0, True, -1], ids=["2.7", "2.0", "True", "-1"])
def test_haar_eval_takes_a_nonnegative_integer_index(i) -> None:
    # 2.7 used to read psi_2 and True psi_1
    with pytest.raises(ValueError, match="Haar index must be"):
        haar_eval(i, 0.3)


def test_haar_eval_accepts_numpy_integers() -> None:
    assert haar_eval(np.int64(2), 0.3) == haar_eval(2, 0.3) == -math.sqrt(2.0)


def test_orthonormality_small() -> None:
    for i in range(16):
        for j in range(16):
            want = 1.0 if i == j else 0.0
            assert abs(step_inner(haar_step(i), haar_step(j)) - want) <= 1e-13


def test_dirichlet_kernel_examples() -> None:
    assert dirichlet_kernel(1, 0.2, 0.3) == 2.0
    assert dirichlet_kernel(1, 0.2, 0.7) == 0.0
    # summed form is the oracle for the closed form
    assert dirichlet_kernel_sum(3, 0.6, 0.6) == pytest.approx(4.0, abs=1e-12)
    assert dirichlet_kernel(3, 0.6, 0.6) == 4.0


def test_dirichlet_kernel_rejects_bad_order() -> None:
    with pytest.raises(ValueError):
        dirichlet_kernel(2, 0.1, 0.2)  # h_n + 1 = 3 is not a power of two


def test_kernel_consistency_random_pairs() -> None:
    rng = np.random.Generator(np.random.Philox(key=11))
    for h_plus_1 in (2, 4, 8, 16):
        xs = rng.random(250)
        ys = rng.random(250)
        for x, y in zip(xs, ys):
            closed = dirichlet_kernel(h_plus_1 - 1, x, y)
            summed = dirichlet_kernel_sum(h_plus_1 - 1, x, y)
            assert abs(closed - summed) <= 1e-12


def test_truncated_expansion_constant() -> None:
    fn = truncated_expansion(parse_frontier("constant:a=0.7"), 3)
    np.testing.assert_allclose(fn.values, 0.7, atol=0)


@pytest.mark.parametrize(
    "h_n, message",
    [
        (3.0, "h_n must be an integer"),
        (True, "h_n must be an integer"),
        (2, "h_n \\+ 1 must be a power of two"),
    ],
    ids=["3.0", "True", "3-blocks"],
)
def test_truncated_expansion_takes_an_integer_order(h_n, message) -> None:
    # 3.0 used to raise TypeError from the power-of-two check, and True gave 2 blocks
    with pytest.raises(ValueError, match=message):
        truncated_expansion(parse_frontier("constant:a=0.7"), h_n)


def test_truncated_expansion_affine_exact_means() -> None:
    # f(x) = 1/2 + x; blockwise means are midpoint values of the affine map
    f = parse_frontier("affine:a=0.5,b=1.0")
    np.testing.assert_allclose(truncated_expansion(f, 1).values, [0.75, 1.25], atol=1e-14)
    np.testing.assert_allclose(
        truncated_expansion(f, 3).values, [0.625, 0.875, 1.125, 1.375], atol=1e-14
    )


def test_haar_coefficient_examples() -> None:
    const = parse_frontier("constant:a=0.7")
    assert haar_coefficient(const, 0) == pytest.approx(0.7, abs=1e-14)
    assert haar_coefficient(const, 1) == pytest.approx(0.0, abs=1e-14)
    # the slope-1 part contributes -1/4 to the first coefficient; the constant
    # shift contributes nothing for i >= 1
    assert haar_coefficient(parse_frontier("affine:a=0.5,b=1.0"), 1) == pytest.approx(-0.25, abs=1e-14)


@pytest.mark.parametrize("label", SHIPPED_LABELS)
def test_haar_coefficient_is_the_inner_product_with_the_projection(label) -> None:
    f = parse_frontier(label)
    projection = truncated_expansion(f, 2**8 - 1)
    for i in range(2**8):
        assert abs(haar_coefficient(f, i) - step_inner(projection, haar_step(i))) <= 1e-13, i


def test_haar_coefficient_rejects_a_negative_index() -> None:
    # (-1).bit_length() is 1, so without the check i = -1 would read the last coefficient
    with pytest.raises(ValueError, match="nonnegative"):
        haar_coefficient(parse_frontier("constant:a=1.0"), -1)


def test_haar_transform_examples() -> None:
    np.testing.assert_array_equal(haar_transform([0.8]), [0.8])
    np.testing.assert_allclose(haar_transform([0.8, 0.3]), [0.55, 0.25], atol=1e-15)
    with pytest.raises(ValueError, match="power-of-two"):
        haar_transform([1.0, 2.0, 3.0])


def test_reconstruction_identity() -> None:
    rng = np.random.Generator(np.random.Philox(key=17))
    xs = rng.random(200)
    for f in (parse_frontier("affine:a=1.0,b=0.5"), parse_frontier("sine:a=1.0,b=0.25")):
        for h_n in (1, 3, 7):
            fn = truncated_expansion(f, h_n)
            series = functools.reduce(
                step_add, (step_scale(haar_step(i), haar_coefficient(f, i)) for i in range(h_n + 1))
            )
            np.testing.assert_allclose(series(xs), fn(xs), atol=1e-9)


def test_projection_error_bound_on_grid() -> None:
    grid = np.arange(2**14 + 1) / 2**14
    for f in (parse_frontier("affine:a=1.0,b=0.5"), parse_frontier("sine:a=1.0,b=0.25")):
        fvals = f(grid)
        for h_n in (1, 3, 7, 15):
            fn = truncated_expansion(f, h_n)
            err = np.max(np.abs(fn(grid) - fvals))
            assert err <= f.lip * (h_n + 1) ** (-f.alpha) + 1e-12


def test_uniform_cell_index_edges() -> None:
    assert uniform_cell_index(0.0, 4) == 0
    assert uniform_cell_index(0.25, 4) == 1  # left-closed pieces
    assert uniform_cell_index(1.0, 4) == 3  # x = 1 goes to the last cell
    # non-dyadic cell counts share the same convention as step evaluation
    assert uniform_cell_index(0.3, 500) == 150
