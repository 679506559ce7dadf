import numpy as np
import pytest

from haarfrontier.frontiers import constant_frontier, parse_frontier
from haarfrontier.haar import truncated_expansion
from haarfrontier.kernels import ReplicateTask, block_moments, l2_error_sq, run_chunk, sup_error
from haarfrontier.stepfun import StepFunction

from crosschecks import SHIPPED_LABELS, block_integrals_loop, frontier, replicate_reference, sup_on_grid

# steps off 2^j equal blocks: the type cannot hold one, so the error layer never sees one
OFF_DYADIC = {
    "three-equal-blocks": (lambda: StepFunction([1.0, 1.0, 1.0]), ValueError, "2\\^j equal blocks"),
    # a step has no breakpoints field, so unequal blocks cannot even be stated
    "two-unequal-blocks": (
        lambda: StepFunction(np.array([0.0, 0.3, 1.0]), np.array([1.0, 1.0])),
        TypeError,
        None,
    ),
}


@pytest.mark.parametrize("build, error, match", OFF_DYADIC.values(), ids=OFF_DYADIC.keys())
def test_steps_off_dyadic_blocks_cannot_be_built(build, error, match) -> None:
    with pytest.raises(error, match=match):
        build()


def test_sup_error_is_exact_beyond_2_to_the_14_blocks() -> None:
    f = constant_frontier(1.0)
    assert sup_error(StepFunction(np.full(2**14, 0.75)), f) == 0.25
    # 2^15 blocks: finer than a 2^-14 grid could resolve
    values = np.ones(2**15)
    values[12345] = 0.375
    assert sup_error(StepFunction(values), f) == 0.625


# each family, affine and sine with both signs of the slope, and each jump's knot,
# which the grid needs to see both sides of the jump
SUP_KNOTS = {
    "constant:a=1.3": (),
    "affine:a=1.0,b=0.5": (),
    "affine:a=1.5,b=-0.5": (),
    "sine:a=1.0,b=0.25": (),
    "sine:a=1.0,b=-0.25": (),
    "two_level:lo=0.8,hi=1.2,split=0.5": (0.5,),
    "two_level:lo=1.2,hi=0.8,split=0.3": (0.3,),
}


def _steps_near(f, blocks: int) -> list:
    """f's projection on these blocks, the same shifted by noise, and a flat step at f(1/2)."""
    proj = truncated_expansion(f, blocks - 1)
    noise = np.random.default_rng(blocks).normal(0.0, 0.05, blocks)
    return [proj, StepFunction(proj.values + noise), StepFunction(np.full(blocks, f(0.5)))]


# blocks up to 2^14 against the 2^-14 grid, and finer ones against a 2^-18 grid
@pytest.mark.parametrize("label", SUP_KNOTS)
@pytest.mark.parametrize(
    "j, grid_step", [(j, 2.0**-14) for j in (0, 1, 2, 5, 9, 14)] + [(15, 2.0**-18), (16, 2.0**-18)]
)
def test_sup_error_lies_within_the_grid_max_and_its_pad(label, j, grid_step) -> None:
    f = parse_frontier(label)
    for step in _steps_near(f, 2**j):
        grid_max, pad = sup_on_grid(step, f, grid_step, SUP_KNOTS[label])
        got = sup_error(step, f)
        assert grid_max <= got <= grid_max + pad, (got, grid_max, pad)
        if label.startswith(("constant", "two_level")):  # no pad: on flat pieces the grid is exact
            assert got == grid_max


@pytest.mark.parametrize(
    "label", ["constant:a=1.0", "affine:a=1.0,b=0.5", "sine:a=1.0,b=0.25", "two_level"]
)
@pytest.mark.parametrize("h_prime", [0, 3, 7])
def test_projection_l2_error_is_the_block_moment_identity(label, h_prime) -> None:
    # reference: f minus its block means, squared, is sum over blocks of I2_b - B * I_b^2
    f = parse_frontier(label)
    blocks = 2**h_prime
    integ, integ_sq = block_integrals_loop(f, blocks - 1)
    reference = float(np.sum(integ_sq - blocks * integ**2))
    assert l2_error_sq(truncated_expansion(f, blocks - 1), f) == reference


@pytest.mark.parametrize(
    "label, h_n",
    [(label, h_n) for label in SHIPPED_LABELS for h_n in (0, 7, 4095)]
    + [("custom-cos", h_n) for h_n in (0, 7)],
)
def test_block_moments_and_projection_match_per_block_loop(label, h_n) -> None:
    f = frontier(label)
    integ, integ_sq = block_integrals_loop(f, h_n)
    got, got_sq = block_moments(f, h_n)
    assert np.array_equal(got, integ) and np.array_equal(got_sq, integ_sq)
    assert np.array_equal(truncated_expansion(f, h_n).values, (h_n + 1) * integ)


# points on the grid's edges (1 lies in the last, closed cell) and one off them;
# d_n = 3 makes k_n = 3 * 2^h_prime cells, a partition off the dyadic grid
EVAL_POINTS = (0.0, 0.3, 0.5, 1.0)


@pytest.mark.parametrize("label", ["constant:a=1.0", "sine:a=1.0,b=0.25"])
@pytest.mark.parametrize("h_prime, d_n", [(0, 1), (3, 1), (3, 3), (5, 3)])
def test_points_located_once_per_chunk_give_the_per_replicate_estimates(label, h_prime, d_n) -> None:
    seeds = [11, 2**63 + 5, 404]
    tasks = [ReplicateTask("fhat_zn_at", label, 600, h_prime, d_n, 1.5, EVAL_POINTS)]
    tasks += [ReplicateTask("weibull", label, 600, h_prime, d_n, 1.5, (x,)) for x in EVAL_POINTS]
    for task in tasks:
        want = np.array([replicate_reference(task, seed) for seed in seeds])
        assert run_chunk(task, seeds).tobytes() == want.tobytes()
