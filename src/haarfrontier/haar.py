"""Dyadic index arithmetic, the Haar basis, and its Dirichlet kernel.

Index i >= 1 decomposes uniquely as i = 2^(q-1) + p with 0 <= p < 2^(q-1);
the associated dyadic interval is [p/2^(q-1), (p+1)/2^(q-1)), closed on the
right when it touches 1. Every point-to-cell map here is `uniform_cell_index`
from `stepfun`, the one left-closed rule (x = 1 belongs to the last cell)
that also evaluates a StepFunction, so each Haar function is a step on its
2^q equal blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frontiers import FrontierSpec
from .stepfun import StepFunction, is_power_of_two, uniform_cell_index


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


def _require_dyadic(h_n: int) -> int:
    blocks = h_n + 1
    if not is_power_of_two(blocks):
        raise ValueError("h_n + 1 must be a power of two")
    return blocks


def haar_eval(i: int, x):
    """Value of the i-th Haar basis function at x (scalar or array)."""
    return haar_step(i)(x)


def haar_step(i: int) -> StepFunction:
    """The i-th Haar function as an exact StepFunction (for exact integration)."""
    if i < 0:
        raise ValueError("Haar index must be nonnegative")
    if i == 0:
        return StepFunction(np.ones(1))
    idx = dyadic_index(i)
    cells = 2**idx.q
    amp = 2.0 ** (0.5 * (idx.q - 1))
    values = np.zeros(cells)
    values[2 * idx.p] = amp
    values[2 * idx.p + 1] = -amp
    return StepFunction(values)


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
    return StepFunction(blocks * f.integral(edges[:-1], edges[1:]))


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
