"""Deterministic replicate scheduling.

Every replicate owns a 64-bit seed derived from the base seed and its index
by a splitmix64 step, and the counter-based generator inside simulate is
keyed by that seed alone. Results are gathered by replicate index, so any
worker count (including one) produces bit-identical output.
"""

from __future__ import annotations

import os

import numpy as np

from .kernels import ReplicateTask, run_chunk

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def derive_seed(base: int, index: int) -> int:
    """64-bit seed for stream `index` of a run keyed by `base` (splitmix64)."""
    z = (base + (index + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def plan_chunks(replicates: int, workers: int, cpus: int) -> tuple:
    """Pool size and chunk bounds for `replicates` replicates.

    The pool never has more processes than CPUs or chunks, whatever
    `workers` asks for; a pool size of 1 means run serially.
    """
    workers = max(1, min(workers, cpus))
    size = -(-replicates // (4 * workers))
    bounds = list(range(0, replicates, size)) + [replicates]
    return min(workers, len(bounds) - 1), bounds


def run_task(task: ReplicateTask, replicates: int, base_seed: int, workers: int = 1) -> np.ndarray:
    """Run `replicates` independent replicates of a kernel; shape (R, m).

    Replicate i always uses the same derived seed regardless of `workers`,
    and chunks are reassembled in index order.
    """
    if replicates < 1:
        raise ValueError("need at least one replicate")
    seeds = [derive_seed(base_seed, i) for i in range(replicates)]
    pool_size, bounds = plan_chunks(replicates, workers, os.cpu_count() or 1)
    if pool_size == 1:
        return run_chunk(task, seeds)
    # imported here: it pulls in multiprocessing, which a serial run never needs
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=pool_size) as pool:
        futures = [
            pool.submit(run_chunk, task, seeds[a:b]) for a, b in zip(bounds, bounds[1:])
        ]
        parts = [fut.result() for fut in futures]
    return np.vstack(parts)
