"""Step functions on 2^j equal dyadic blocks of [0, 1].

A step holds only its 2^j block values. Blocks are left-closed/right-open
except the last, which is closed, so evaluation is defined for every x in
[0, 1]; `uniform_cell_index` is the one point-to-cell rule, shared with the
Haar basis and the kernels. A step plus a scalar shifts every block value,
which is the one arithmetic the estimators need (the minima-mean
correction). Step-by-step arithmetic and norms serve only the tests, which
keep them with their other reference forms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def is_power_of_two(m: int) -> bool:
    """True for m = 1, 2, 4, ...: the block counts of a dyadic partition."""
    return m >= 1 and not m & (m - 1)


def uniform_cell_index(x, n_cells: int) -> np.ndarray:
    """0-based index of the cell of the n_cells-piece uniform partition containing x.

    Left-closed pieces, with x = 1 assigned to the last (right-closed) one:
    the index is the number of edges j / n_cells, 0 < j < n_cells, at or
    below x, for x in any order. Any x that is not finite and in [0, 1]
    raises, NaN included. When n_cells is a power of two (every dyadic
    partition) the index is floor(x * n_cells), which is exact.
    """
    return _cell_index(_unit_points(x), n_cells)


def _unit_points(x) -> np.ndarray:
    """x as a float array, checked to be finite and in [0, 1]: the check of `uniform_cell_index`."""
    x_arr = np.asarray(x, dtype=float)
    # NaN fails every comparison, so this also rejects non-finite values
    if x_arr.size and not (0.0 <= x_arr.min() and x_arr.max() <= 1.0):
        raise ValueError("x must lie in [0, 1]")
    return x_arr


def _cell_index(x_arr: np.ndarray, n_cells: int, out: np.ndarray | None = None) -> np.ndarray:
    """`uniform_cell_index` without its check: x_arr is a float array already in [0, 1].

    The index is written into `out`, an intp array of x_arr's shape, when
    one is given, and into one new array otherwise.
    """
    if out is None:
        out = np.empty(np.shape(x_arr), np.intp)
    # the product is a double, truncated toward zero as it is stored
    idx = np.multiply(x_arr, n_cells, out=out, casting="unsafe")
    np.minimum(idx, n_cells - 1, out=idx)
    if is_power_of_two(n_cells):
        # x * 2^j and every edge j / 2^j are exact in binary floating point,
        # so the floor already counts the edges at or below x
        return idx
    edges = np.arange(n_cells + 1) / n_cells
    # otherwise floor(x * n_cells) is at most one cell off where rounding
    # meets an edge; one comparison with each edge of that cell puts x where
    # the edges themselves say, without a search
    idx -= x_arr < edges[idx]
    idx += (x_arr >= edges[idx + 1]) & (idx < n_cells - 1)
    return idx


@dataclass(frozen=True, eq=False)
class StepFunction:
    values: np.ndarray  # shape (2^j,), the value on each equal block in order

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or not is_power_of_two(len(vals)):
            raise ValueError("a step function needs one value per block of 2^j equal blocks")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def __call__(self, x):
        out = self.values[uniform_cell_index(x, len(self.values))]
        if np.isscalar(x) or np.ndim(x) == 0:
            return float(out)
        return out

    def __add__(self, shift) -> "StepFunction":
        """This step shifted by the scalar `shift` on every block."""
        return StepFunction(self.values + float(shift))
