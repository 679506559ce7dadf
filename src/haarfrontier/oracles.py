"""Closed-form ground truth for cell maxima and the three limit laws.

The distribution function of a cell maximum is exp(-n*c*A(u)) where A(u)
is the area of the frontier region above level u over the cell: the event
{max <= u} is exactly {no points above u}. Moments integrate the survival
function; working with the gap below the cell supremum keeps the variance
free of catastrophic cancellation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .frontiers import FrontierSpec
from .process import PartitionConfig, _require_rate
from .quadrature import adaptive_simpson

VALID_LAWS = ("weibull_evd", "gumbel", "std_normal")


def _std_normal(u: np.ndarray) -> np.ndarray:
    """0.5 * erfc(-u / sqrt(2)) elementwise, in one pass of math.erfc over the scaled values."""
    flat = np.ravel(np.asarray(u, dtype=float))
    erfc = np.fromiter(map(math.erfc, (-flat / math.sqrt(2.0)).tolist()), float, flat.size)
    return (0.5 * erfc).reshape(np.shape(u))


@dataclass(frozen=True)
class LimitLaw:
    """One of the three limit laws, called as its CDF at u (scalar or array)."""

    kind: str

    def __post_init__(self):
        if self.kind not in VALID_LAWS:
            raise ValueError(f"unknown limit law {self.kind!r}; choose from {VALID_LAWS}")

    def __call__(self, u):
        u_arr = np.asarray(u, dtype=float)
        if self.kind == "weibull_evd":
            out = np.minimum(np.exp(np.minimum(u_arr, 0.0)), 1.0)
        elif self.kind == "gumbel":
            # the CDF is 0.0 in float64 well before u = -700, past which exp(-u) overflows
            out = np.exp(-np.exp(-np.maximum(u_arr, -700.0)))
        else:
            out = _std_normal(u_arr)
        if np.ndim(u) == 0:
            return float(out)
        return out


def limit_law(kind: str) -> LimitLaw:
    """LimitLaw(kind), under the name that the benchmark's oracle workload calls."""
    return LimitLaw(kind)


def _cell_max_cdf(f: FrontierSpec, cfg: PartitionConfig, r: int, c: float) -> Callable:
    """v -> P(cell-r maximum <= v) = exp(-n*c * area above level v), for v >= 0.

    The closure computes what `FrontierSpec.area_above` returns without
    calling the method at each quadrature node: the integral of f over the
    cell at a level <= 0, else the spec's exact area above the level (NaN
    for NaN on every shipped family).
    """
    lo, hi = cfg.cell_bounds(r)
    nc = cfg.n * _require_rate(c)
    above, integral, exp = f.exact_area_above, f.integral, math.exp
    return lambda v: exp(-nc * (integral(lo, hi) if v <= 0.0 else above(lo, hi, v)))


def cell_cdf(f: FrontierSpec, cfg: PartitionConfig, r: int, c: float, u):
    """P(cell-r maximum <= u): exp(-n*c * area above level u), 0 below 0 (NaN stays NaN).

    u may have any shape; a scalar gives a float.
    """
    cdf = _cell_max_cdf(f, cfg, r, c)
    # Python floats: the same IEEE arithmetic as numpy scalars, at a fraction of the cost
    levels = np.ravel(np.asarray(u, dtype=float)).tolist()
    out = np.array([0.0 if v < 0.0 else cdf(v) for v in levels])
    if np.ndim(u) == 0:
        return float(out[0])
    return out.reshape(np.shape(u))


def _gap_quadrature(f: FrontierSpec, cfg: PartitionConfig, r: int, c: float) -> tuple:
    """The cell supremum, the CDF of the cell-r maximum, and its gap integrator.

    The gap W = top - max satisfies P(W > w) = F(top - w), so E W
    integrates the CDF and E W^2 integrates 2(top - v) F(v). Both integrands
    are boundary layers of width ~ k_n/(n c) near the cell supremum, which
    quadrature handles well and which keeps the variance free of large-term
    cancellation. `integrate(g)` is the integral of g over [0, top].
    """
    lo, hi = cfg.cell_bounds(r)
    _, top = f.range_on(lo, hi)
    cdf = _cell_max_cdf(f, cfg, r, c)
    # Both integrands live in a layer of width ~ 1/(n c (hi-lo)) below the cell
    # supremum and vanish at 0, so an unseeded adaptive pass can accept a
    # spurious zero. Seed the subdivision dyadically across the layer.
    layer = 1.0 / (cfg.n * c * (hi - lo))
    seeds = [0.0, top]
    depth = layer
    while top - depth > 0.0 and len(seeds) < 64:
        seeds.append(top - depth)
        depth *= 2.0
    seeds = sorted(set(seeds))
    tol = 1e-10 / len(seeds)

    def integrate(g) -> float:
        # a plain running sum: builtin sum() over floats is compensated from Python 3.12 on
        total = 0.0
        for a, b in zip(seeds, seeds[1:]):
            total += adaptive_simpson(g, a, b, tol)
        return total

    return top, cdf, integrate


def cell_max_mean(f: FrontierSpec, cfg: PartitionConfig, r: int, c: float) -> float:
    """Exact expectation of the cell-r maximum: the supremum less E W, one quadrature pass."""
    top, cdf, integrate = _gap_quadrature(f, cfg, r, c)
    return top - integrate(cdf)


def cell_max_variance(f: FrontierSpec, cfg: PartitionConfig, r: int, c: float) -> float:
    """Exact variance of the cell-r maximum: E W^2 - (E W)^2.

    Both passes run over the same seeds at the same tolerance, so they meet
    the same levels: the CDF at each level is computed once, into a table
    that lives only for this call.
    """
    top, cdf, integrate = _gap_quadrature(f, cfg, r, c)
    cdf = functools.cache(cdf)
    g0 = integrate(cdf)
    g1 = 2.0 * integrate(lambda v: (top - v) * cdf(v))
    return g1 - g0 * g0


def ks_statistic(samples, cdf: Callable) -> float:
    """Two-sided Kolmogorov distance between the empirical CDF and a reference CDF.

    Evaluated at both one-sided limits of every empirical jump. The samples
    may have any shape and are taken flat; a NaN sample raises. `cdf` may be
    a LimitLaw or any vectorised callable: it is called once, on the sorted
    samples, and a result of another shape raises.
    """
    arr = np.sort(np.ravel(np.asarray(samples, dtype=float)))
    if arr.size == 0:
        raise ValueError("need at least one sample")
    # NaN sorts last, so the top sample shows whether there is one
    if math.isnan(arr[-1]):
        raise ValueError("samples must not be NaN")
    ref = np.asarray(cdf(arr), dtype=float)
    if ref.shape != arr.shape:
        raise ValueError(f"the CDF gave shape {ref.shape} for samples of shape {arr.shape}")
    n = arr.size
    grid = np.arange(1, n + 1) / n
    d_plus = float(np.max(grid - ref))
    d_minus = float(np.max(ref - (grid - 1.0 / n)))
    return max(d_plus, d_minus)
