"""Per-replicate simulation kernels for the experiment driver.

Each kernel maps one seed to a small vector of replicate statistics. The
cell and block of each evaluation point depend only on the task, so
`run_chunk` locates them once per chunk and hands them to every replicate as
`at`, a pair of index arrays (cells, blocks). Tasks carry only picklable
primitives (the frontier travels as its label), so chunks of replicates can
run in worker processes; per-frontier geometry is cached per process.

The error layer is here too: the L2 and sup distances from a step (on its
2^j equal blocks) to the frontier, for the kernels and the experiments. Both
are exact: the L2 from f's integrals of f and f^2 on each block, the sup from
f's exact range on each block, each cached per frontier and block count.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .estimators import haar_ev_estimate, minima_mean
from .frontiers import FrontierSpec, parse_frontier
from .process import PartitionConfig, cell_stats, simulate
from .stepfun import StepFunction, _cell_index, _unit_points

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


# keyed on a spec, of which parse_frontier gives one per label: an experiment's
# own lookups and its chunks in this process share an entry, so two suffice.
@functools.lru_cache(maxsize=2)
def block_moments(f: FrontierSpec, h_n: int) -> tuple:
    """Per-block integrals of f and f^2 on the h_n + 1 dyadic blocks."""
    edges = np.arange(h_n + 2) / (h_n + 1)
    integ, integ_sq = f.integral(edges[:-1], edges[1:]), f.integral_sq(edges[:-1], edges[1:])
    integ.flags.writeable = False
    integ_sq.flags.writeable = False
    return integ, integ_sq


# keyed and sized as block_moments; the traced benchmark reads this cache by name
@functools.lru_cache(maxsize=2)
def sup_grid(f: FrontierSpec, h_n: int) -> tuple:
    """The exact range (min, max) of f on each of the h_n + 1 dyadic blocks."""
    edges = np.arange(h_n + 2) / (h_n + 1)
    low, high = f.range_on(edges[:-1], edges[1:])
    low.flags.writeable = False
    high.flags.writeable = False
    return low, high


def l2_error_sq(step: StepFunction, f: FrontierSpec) -> float:
    """Exact squared L2 distance between a step and f."""
    vals = step.values
    blocks = len(vals)
    integ, integ_sq = block_moments(f, blocks - 1)
    return float(np.sum(vals**2 / blocks - 2.0 * vals * integ + integ_sq))


def sup_error(step: StepFunction, f: FrontierSpec) -> float:
    """Exact sup distance between a step and f.

    On each block |v - y| is convex in y, so its sup over f's range [m_b, M_b]
    there is at an end of that range.
    """
    vals = step.values
    low, high = sup_grid(f, len(vals) - 1)
    return float(np.max(np.maximum(np.abs(vals - low), np.abs(vals - high))))


def _stats(f: FrontierSpec, cfg: PartitionConfig, c: float, seed: int):
    return cell_stats(simulate(f, cfg.n, c, seed), cfg, f)


def _kernel_fhat_zn_at(f, cfg, c, at, seed):
    """The block-mean estimate at each evaluation point, then the minima mean z_n."""
    stats = _stats(f, cfg, c, seed)
    return np.append(haar_ev_estimate(stats, cfg).values[at[1]], minima_mean(stats))


def _kernel_mise(f, cfg, c, at, seed):
    """Squared L2 distances of the estimate from the projection and from f."""
    est = haar_ev_estimate(_stats(f, cfg, c, seed), cfg)
    blocks = cfg.h_n + 1
    proj = blocks * block_moments(f, cfg.h_n)[0]
    stoch_sq = float(np.sum((est.values - proj) ** 2)) / blocks
    return np.array([stoch_sq, l2_error_sq(est, f)])


def _kernel_sup(f, cfg, c, at, seed):
    return np.array([sup_error(haar_ev_estimate(_stats(f, cfg, c, seed), cfg), f)])


def _kernel_weibull(f, cfg, c, at, seed):
    stats = _stats(f, cfg, c, seed)
    r, k_n = at[0][0], cfg.k_n
    center = k_n * stats.cell_areas[r]
    rate = cfg.n * c / k_n
    t_est = rate * (haar_ev_estimate(stats, cfg).values[at[1][0]] - center)
    t_max = rate * (stats.x_star[r] - center)
    return np.array([t_est, t_max])


def _kernel_gumbel(f, cfg, c, at, seed):
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
    # the task checked its points when it was built; each point's cell and
    # block are the same on every replicate, so they are located once here
    xs = np.asarray(task.xs, dtype=float)
    at = (_cell_index(xs, cfg.k_n), _cell_index(xs, cfg.h_n + 1))
    return np.array([kernel(f, cfg, task.c, at, int(s)) for s in seeds])
