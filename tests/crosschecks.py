"""Independent reference forms that the tests compare the package against.

Each one computes a quantity the package computes in closed or block form,
but by its defining sum, so agreement checks the faster form.
"""

import numpy as np

from haarfrontier.haar import dirichlet_kernel, haar_eval


def cell_centers(cfg):
    """Midpoints of the k_n cells of the partition."""
    k = cfg.k_n
    return (2.0 * np.arange(1, k + 1) - 1.0) / (2.0 * k)


def haar_ev_estimate_at(stats, cfg, x):
    """Kernel-sum form of the block-mean estimator, evaluated at x."""
    assert stats.cfg == cfg, "statistics were not produced under this partition"
    centers = cell_centers(cfg)
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty(len(x_arr))
    for j, xv in enumerate(x_arr):
        weights = dirichlet_kernel(cfg.h_n, centers, xv)
        out[j] = float(np.dot(weights, stats.x_star)) / cfg.k_n
    if np.ndim(x) == 0:
        return float(out[0])
    return out


def coefficient_estimates_riemann(stats, cfg):
    """Riemann-sum estimates of the first h_n + 1 Haar coefficients, one Haar function at a time."""
    assert stats.cfg == cfg, "statistics were not produced under this partition"
    centers = cell_centers(cfg)
    coeffs = np.empty(cfg.h_n + 1)
    for i in range(cfg.h_n + 1):
        coeffs[i] = float(np.dot(haar_eval(i, centers), stats.x_star)) / cfg.k_n
    return coeffs


def dirichlet_kernel_sum(h_n: int, x: float, y: float) -> float:
    """Summed form of the Dirichlet kernel: sum of haar_eval(i, x) haar_eval(i, y), i <= h_n."""
    return float(sum(haar_eval(i, x) * haar_eval(i, y) for i in range(h_n + 1)))
