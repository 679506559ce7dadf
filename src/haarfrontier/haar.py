"""Dyadic index arithmetic, the Haar basis and transform, and its Dirichlet kernel.

Index i >= 1 decomposes uniquely as i = 2^(q-1) + p with 0 <= p < 2^(q-1);
psi_i lives on the dyadic interval [p/2^(q-1), (p+1)/2^(q-1)). Every
point-to-cell map here is `uniform_cell_index` from `stepfun`, the one
left-closed rule (x = 1 belongs to the last cell) that also evaluates a
StepFunction, so each Haar function is a step on its 2^q equal blocks.
`haar_transform` is the one Haar analysis, of the estimate and the frontier.
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


def dyadic_index(i: int) -> DyadicIndex:
    """Unique decomposition i = 2^(q-1) + p with 0 <= p < 2^(q-1)."""
    if i < 1:
        raise ValueError("dyadic decomposition is defined for i >= 1")
    q = int(i).bit_length()
    return DyadicIndex(i=int(i), p=int(i) - 2 ** (q - 1), q=q)


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


def haar_transform(values) -> np.ndarray:
    """Coefficients against psi_0 ... psi_{2^j - 1} of the step with these 2^j block values.

    Those psi_i are constant on every block: this is the Haar pyramid of the block integrals.
    """
    s = np.asarray(values, dtype=float)
    if not is_power_of_two(len(s)):
        raise ValueError("need a power-of-two number of block values")
    s = s / len(s)
    coeffs = np.empty(len(s))
    while len(s) > 1:
        half = len(s) // 2
        coeffs[half : 2 * half] = (s[0::2] - s[1::2]) * np.sqrt(half)
        s = s[0::2] + s[1::2]
    coeffs[0] = s[0]
    return coeffs


def haar_coefficient(f: FrontierSpec, i: int) -> float:
    """Coefficient of f against the i-th Haar function: the transform of its 2^q block means."""
    if i < 0:
        raise ValueError("Haar index must be nonnegative")
    blocks = 2 ** int(i).bit_length()
    return float(haar_transform(truncated_expansion(f, blocks - 1).values)[i])
