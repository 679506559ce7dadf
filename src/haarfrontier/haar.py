"""Dyadic index arithmetic, the Haar basis, and its Dirichlet kernel.

Index i >= 1 decomposes uniquely as i = 2^(q-1) + p with 0 <= p < 2^(q-1);
the associated dyadic interval is [p/2^(q-1), (p+1)/2^(q-1)), closed on the
right when it touches 1. All point-to-cell maps share one left-closed
convention (x = 1 belongs to the last cell), implemented with the same
searchsorted rule as StepFunction evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frontiers import FrontierSpec
from .stepfun import StepFunction


@dataclass(frozen=True)
class DyadicIndex:
    i: int
    p: int
    q: int


@dataclass(frozen=True)
class DyadicInterval:
    lo: float
    hi: float
    closed_right: bool


def dyadic_index(i: int) -> DyadicIndex:
    """Unique decomposition i = 2^(q-1) + p with 0 <= p < 2^(q-1)."""
    if i < 1:
        raise ValueError("dyadic decomposition is defined for i >= 1")
    q = int(i).bit_length()
    return DyadicIndex(i=int(i), p=int(i) - 2 ** (q - 1), q=q)


def haar_interval(i: int) -> DyadicInterval:
    idx = dyadic_index(i)
    width = 2.0 ** -(idx.q - 1)
    return DyadicInterval(
        lo=idx.p * width,
        hi=(idx.p + 1) * width,
        closed_right=(i == 2**idx.q - 1),
    )


def uniform_cell_index(x, n_cells: int) -> np.ndarray:
    """0-based index of the cell of the n_cells-piece uniform partition containing x.

    Left-closed pieces, with x = 1 assigned to the last (right-closed) one.
    Matches StepFunction evaluation exactly, breakpoint doubles included.
    """
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 0.0) or np.any(x_arr > 1.0):
        raise ValueError("x must lie in [0, 1]")
    edges = np.arange(n_cells + 1) / n_cells
    idx = np.searchsorted(edges, x_arr, side="right") - 1
    return np.minimum(idx, n_cells - 1)


def _require_dyadic(h_n: int) -> int:
    blocks = h_n + 1
    if blocks < 1 or blocks & (blocks - 1):
        raise ValueError("h_n + 1 must be a power of two")
    return blocks


def haar_eval(i: int, x):
    """Value of the i-th Haar basis function at x (scalar or array)."""
    if i < 0:
        raise ValueError("Haar index must be nonnegative")
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 0.0) or np.any(x_arr > 1.0):
        raise ValueError("x must lie in [0, 1]")
    if i == 0:
        out = np.ones_like(x_arr)
    else:
        idx = dyadic_index(i)
        amp = 2.0 ** (0.5 * (idx.q - 1))
        half = uniform_cell_index(x_arr, 2**idx.q)
        out = np.where(half == 2 * idx.p, amp, np.where(half == 2 * idx.p + 1, -amp, 0.0))
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out)
    return out


def haar_step(i: int) -> StepFunction:
    """The i-th Haar function as an exact StepFunction (for exact integration)."""
    if i < 0:
        raise ValueError("Haar index must be nonnegative")
    if i == 0:
        return StepFunction.constant(1.0)
    idx = dyadic_index(i)
    cells = 2**idx.q
    amp = 2.0 ** (0.5 * (idx.q - 1))
    values = np.zeros(cells)
    values[2 * idx.p] = amp
    values[2 * idx.p + 1] = -amp
    return StepFunction.uniform(values)


def dirichlet_kernel(h_n: int, x, y):
    """Closed form: (h_n + 1) when x and y share a level block, else 0."""
    blocks = _require_dyadic(h_n)
    bx = uniform_cell_index(x, blocks)
    by = uniform_cell_index(y, blocks)
    out = np.where(bx == by, float(blocks), 0.0)
    if np.ndim(out) == 0:
        return float(out)
    return out


def truncated_expansion(f: FrontierSpec, h_n: int) -> StepFunction:
    """Projection of f onto the first h_n + 1 Haar functions: blockwise means."""
    blocks = _require_dyadic(h_n)
    edges = np.arange(blocks + 1) / blocks
    return StepFunction.uniform(blocks * f.integral(edges[:-1], edges[1:]))


def haar_coefficient(f: FrontierSpec, i: int) -> float:
    """Coefficient of f against the i-th Haar function."""
    if i < 0:
        raise ValueError("Haar index must be nonnegative")
    if i == 0:
        return f.integral(0.0, 1.0)
    idx = dyadic_index(i)
    amp = 2.0 ** (0.5 * (idx.q - 1))
    pos = haar_interval(2 * i)
    neg = haar_interval(2 * i + 1)
    return amp * (f.integral(pos.lo, pos.hi) - f.integral(neg.lo, neg.hi))
