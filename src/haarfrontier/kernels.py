"""Per-replicate simulation kernels for the experiment driver.

Each kernel maps one seed to a small vector of replicate statistics. Tasks
carry only picklable primitives (the frontier travels as its label), so
chunks of replicates can run in worker processes; per-frontier geometry is
cached per process.

The error layer is here too: the L2 and sup distances from a step (on its
2^j equal blocks) to the frontier, for the kernels, the experiments and
`error_metrics`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .estimators import haar_ev_estimate, minima_mean
from .frontiers import FrontierSpec, parse_frontier
from .process import PartitionConfig, cell_stats, simulate
from .stepfun import StepFunction, _cell_index, _unit_points

SUP_GRID_STEP = 2.0**-14


@dataclass(frozen=True)
class ReplicateTask:
    kind: str
    frontier: str
    n: int
    h_prime: int
    d_n: int
    c: float
    xs: tuple = ()

    def __post_init__(self):
        # the check of uniform_cell_index, once per task: the kernels then
        # locate these points with its unchecked core
        _unit_points(self.xs)

    def partition(self) -> PartitionConfig:
        return PartitionConfig(n=self.n, h_prime=self.h_prime, d_n=self.d_n)


# run_chunk parses a fresh FrontierSpec per chunk, so an entry keyed on one is
# hit only within its chunk and by the experiment's own lookup: two suffice.
@functools.lru_cache(maxsize=2)
def block_moments(f: FrontierSpec, h_n: int) -> tuple:
    """Per-block integrals of f and f^2 on the h_n + 1 dyadic blocks."""
    edges = np.arange(h_n + 2) / (h_n + 1)
    integ, integ_sq = f.integral(edges[:-1], edges[1:]), f.integral_sq(edges[:-1], edges[1:])
    integ.flags.writeable = False
    integ_sq.flags.writeable = False
    return integ, integ_sq


@functools.lru_cache(maxsize=2)
def sup_grid(f: FrontierSpec) -> tuple:
    """Evaluation grid for sup norms: uniform 2^-14 step plus frontier knots."""
    base = np.arange(int(round(1.0 / SUP_GRID_STEP)) + 1) * SUP_GRID_STEP
    grid = np.union1d(base, np.asarray(f.knots, dtype=float)) if f.knots else base
    fvals = f(grid)
    pad = f.lip * SUP_GRID_STEP**f.alpha if math.isfinite(f.lip) else 0.0
    grid.flags.writeable = False
    fvals.flags.writeable = False
    return grid, fvals, pad


def require_sup_resolution(blocks: int) -> None:
    """Raise unless the sup grid resolves a step on this many equal blocks: at most 2^14."""
    if blocks * SUP_GRID_STEP > 1.0:
        raise ValueError("sup grid at step 2^-14 cannot resolve blocks finer than 2^14")


def l2_error_sq(step: StepFunction, f: FrontierSpec) -> float:
    """Exact squared L2 distance between a step and f."""
    vals = step.values
    blocks = len(vals)
    integ, integ_sq = block_moments(f, blocks - 1)
    return float(np.sum(vals**2 / blocks - 2.0 * vals * integ + integ_sq))


def sup_error(step: StepFunction, f: FrontierSpec) -> float:
    """Sup distance between a step on at most 2^14 blocks and f: grid max plus pad."""
    require_sup_resolution(len(step.values))
    grid, fvals, pad = sup_grid(f)
    return float(np.max(np.abs(step(grid) - fvals))) + pad


def _stats(f: FrontierSpec, cfg: PartitionConfig, c: float, seed: int):
    return cell_stats(simulate(f, cfg.n, c, seed), cfg, f)


def _kernel_fhat_zn_at(f, cfg, c, xs, seed):
    """The block-mean estimate at each x in xs, then the minima mean z_n."""
    stats = _stats(f, cfg, c, seed)
    values = haar_ev_estimate(stats, cfg).values
    return np.append(values[_cell_index(xs, len(values))], minima_mean(stats))


def _kernel_mise(f, cfg, c, xs, seed):
    """Squared L2 distances of the estimate from the projection and from f."""
    est = haar_ev_estimate(_stats(f, cfg, c, seed), cfg)
    blocks = cfg.h_n + 1
    proj = blocks * block_moments(f, cfg.h_n)[0]
    stoch_sq = float(np.sum((est.values - proj) ** 2)) / blocks
    return np.array([stoch_sq, l2_error_sq(est, f)])


def _kernel_sup(f, cfg, c, xs, seed):
    return np.array([sup_error(haar_ev_estimate(_stats(f, cfg, c, seed), cfg), f)])


def _kernel_weibull(f, cfg, c, xs, seed):
    stats = _stats(f, cfg, c, seed)
    x = xs[:1]
    r = int(_cell_index(x, cfg.k_n)[0])
    center = cfg.k_n * stats.cell_areas[r]
    rate = cfg.n * c / cfg.k_n
    values = haar_ev_estimate(stats, cfg).values
    t_est = rate * (values[_cell_index(x, len(values))[0]] - center)
    t_max = rate * (stats.x_star[r] - center)
    return np.array([t_est, t_max])


def _kernel_gumbel(f, cfg, c, xs, seed):
    stats = _stats(f, cfg, c, seed)
    return np.array([float(np.max(stats.f_max - stats.x_star))])


KERNELS = {
    "fhat_zn_at": _kernel_fhat_zn_at,
    "mise": _kernel_mise,
    "sup": _kernel_sup,
    "weibull": _kernel_weibull,
    "gumbel": _kernel_gumbel,
}


def run_chunk(task: ReplicateTask, seeds) -> np.ndarray:
    """Run a contiguous block of replicates; the unit of work for one worker."""
    f = parse_frontier(task.frontier)
    cfg = task.partition()
    kernel = KERNELS[task.kind]
    # the task checked its points when it was built
    xs = np.asarray(task.xs, dtype=float)
    return np.array([kernel(f, cfg, task.c, xs, int(s)) for s in seeds])
