"""The Haar basis, blockwise-mean projections and the Haar transform.

Index i >= 1 decomposes uniquely as i = 2^(q-1) + p with 0 <= p < 2^(q-1);
psi_i lives on the dyadic interval [p/2^(q-1), (p+1)/2^(q-1)). `haar_eval`
builds psi_i as a StepFunction on its 2^q equal blocks, so it is evaluated
by `uniform_cell_index`, the one left-closed point-to-cell rule (x = 1
belongs to the last cell). `haar_transform` is the one Haar analysis, of the
estimate and the frontier. The paper's kernel form of the estimator, the
coefficients of a frontier and the dyadic decomposition as its own record,
which only cross-check these, live with the tests.
"""

from __future__ import annotations

import numpy as np

from .frontiers import FrontierSpec
from .process import _require_integer
from .stepfun import StepFunction, is_power_of_two


def haar_eval(i: int, x):
    """Value of the i-th Haar basis function at x in [0, 1] (scalar or array).

    psi_0 is 1. For i = 2^(q-1) + p >= 1, psi_i is 2^((q-1)/2) on block 2p
    of 2^q equal blocks, minus that on block 2p + 1, and 0 elsewhere. The
    index i must be an integer >= 0.
    """
    i = _require_integer("Haar index", i)
    if i < 0:
        raise ValueError("Haar index must be nonnegative")
    if i == 0:
        return StepFunction(np.ones(1))(x)
    q = i.bit_length()
    p = i - 2 ** (q - 1)
    amp = 2.0 ** (0.5 * (q - 1))
    values = np.zeros(2**q)
    values[2 * p] = amp
    values[2 * p + 1] = -amp
    return StepFunction(values)(x)


def truncated_expansion(f: FrontierSpec, h_n: int) -> StepFunction:
    """Projection of f onto the first h_n + 1 Haar functions: blockwise means."""
    blocks = _require_integer("h_n", h_n) + 1
    if not is_power_of_two(blocks):
        raise ValueError("h_n + 1 must be a power of two")
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

