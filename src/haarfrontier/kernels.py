"""Per-replicate simulation kernels for the experiment driver.

Each kernel maps a table of replicates, one row of cell statistics each,
to one small vector of statistics per replicate. `run_chunk` has
`process._cell_tables` bin its replicates a table at a time, and each
kernel reduces all of a table's rows in one go, along the last axis, with
the arithmetic of the public one-record calls. The cell and block of each
evaluation point depend only on the task, so `run_chunk` locates them once
per chunk and hands them to every table as `at`, a pair of index arrays
(cells, blocks). Tasks carry only picklable primitives (the frontier
travels as its label), so chunks of replicates can run in worker
processes; per-frontier geometry is cached per process.

The error layer is here too: the L2 and sup distances from a step (on its
2^j equal blocks) to the frontier, for the kernels and the experiments. Both
are exact: the L2 from f's integrals of f and f^2 on each block, the sup from
f's exact range on each block, each cached per frontier and block count.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

# cell_stats, haar_ev_estimate and minima_mean are unused here, but the
# traced benchmark wraps them through this module's names
from .estimators import _block_means, _minima_means, haar_ev_estimate, minima_mean  # noqa: F401
from .frontiers import FrontierSpec, parse_frontier
from .process import PartitionConfig, _cell_tables, cell_stats, simulate  # noqa: F401
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
    return float(_l2_error_sq(step.values, f))


def _l2_error_sq(values: np.ndarray, f: FrontierSpec) -> np.ndarray:
    """`l2_error_sq` of the step with each row of block values, along the last axis."""
    blocks = values.shape[-1]
    integ, integ_sq = block_moments(f, blocks - 1)
    return np.add.reduce(values**2 / blocks - 2.0 * values * integ + integ_sq, axis=-1)


def sup_error(step: StepFunction, f: FrontierSpec) -> float:
    """Exact sup distance between a step and f.

    On each block |v - y| is convex in y, so its sup over f's range [m_b, M_b]
    there is at an end of that range.
    """
    return float(_sup_error(step.values, f))


def _sup_error(values: np.ndarray, f: FrontierSpec) -> np.ndarray:
    """`sup_error` of the step with each row of block values, along the last axis."""
    low, high = sup_grid(f, values.shape[-1] - 1)
    return np.max(np.maximum(np.abs(values - low), np.abs(values - high)), axis=-1)


# Each kernel takes the task's frontier, partition, rate c and located
# points, and a table from `_cell_tables`; it returns one row per replicate.


def _kernel_fhat_zn_at(f, cfg, c, at, table):
    """The block-mean estimate at each evaluation point, then the minima mean z_n."""
    values = _block_means(table.x_star, cfg.d_n)
    return np.column_stack((values[:, at[1]], _minima_means(table.z_star)))


def _kernel_mise(f, cfg, c, at, table):
    """Squared L2 distances of the estimate from the projection and from f."""
    values = _block_means(table.x_star, cfg.d_n)
    blocks = cfg.h_n + 1
    proj = blocks * block_moments(f, cfg.h_n)[0]
    stoch_sq = np.add.reduce((values - proj) ** 2, axis=-1) / blocks
    return np.column_stack((stoch_sq, _l2_error_sq(values, f)))


def _kernel_sup(f, cfg, c, at, table):
    return _sup_error(_block_means(table.x_star, cfg.d_n), f)[:, None]


def _kernel_weibull(f, cfg, c, at, table):
    r, k_n = at[0][0], cfg.k_n
    center = k_n * table.cell_areas[r]
    rate = cfg.n * c / k_n
    t_est = rate * (_block_means(table.x_star, cfg.d_n)[:, at[1][0]] - center)
    t_max = rate * (table.x_star[:, r] - center)
    return np.column_stack((t_est, t_max))


def _kernel_gumbel(f, cfg, c, at, table):
    return np.max(table.f_max - table.x_star, axis=-1)[:, None]


KERNELS = {
    "fhat_zn_at": _kernel_fhat_zn_at,
    "mise": _kernel_mise,
    "sup": _kernel_sup,
    "weibull": _kernel_weibull,
    "gumbel": _kernel_gumbel,
}


def run_chunk(task: ReplicateTask, seeds) -> np.ndarray:
    """Run a contiguous block of replicates; the unit of work for one worker.

    The replicates are binned a table at a time (see `process._cell_tables`),
    and the kernel reduces each table's rows; row i is replicate i.
    """
    f = parse_frontier(task.frontier)
    cfg = task.partition()
    kernel = KERNELS[task.kind]
    # the task checked its points when it was built; each point's cell and
    # block are the same on every replicate, so they are located once here
    xs = np.asarray(task.xs, dtype=float)
    at = (_cell_index(xs, cfg.k_n), _cell_index(xs, cfg.h_n + 1))
    samples = (simulate(f, cfg.n, task.c, int(s)) for s in seeds)
    tables = _cell_tables(samples, len(seeds), cfg, f)
    return np.concatenate([kernel(f, cfg, task.c, at, table) for table in tables])
