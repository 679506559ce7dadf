"""Step functions on 2^j equal dyadic blocks of [0, 1], with exact arithmetic.

A step holds only its 2^j block values. Blocks are left-closed/right-open
except the last, which is closed, so evaluation is defined for every x in
[0, 1]; `uniform_cell_index` is the one point-to-cell rule, shared with the
Haar basis and the kernels. Sums, differences and inner products of two
steps work on the finer of their two dyadic grids, which keeps L2 norms of
step-vs-step differences exact.
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


def _cell_index(x_arr: np.ndarray, n_cells: int) -> np.ndarray:
    """`uniform_cell_index` without its check: x_arr is a float array already in [0, 1]."""
    idx = np.minimum((x_arr * n_cells).astype(np.intp), n_cells - 1)
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

    def integral(self) -> float:
        return _block_integral(self.values)

    def l2_norm_sq(self) -> float:
        return _block_integral(self.values**2)

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def _on_finer_grid(self, other: "StepFunction") -> tuple:
        """Both value arrays on the finer of the two dyadic grids."""
        m = max(len(self.values), len(other.values))
        return (
            np.repeat(self.values, m // len(self.values)),
            np.repeat(other.values, m // len(other.values)),
        )

    def _binary(self, other, op) -> "StepFunction":
        if isinstance(other, StepFunction):
            return StepFunction(op(*self._on_finer_grid(other)))
        return StepFunction(op(self.values, float(other)))

    def __add__(self, other) -> "StepFunction":
        return self._binary(other, lambda u, v: u + v)

    __radd__ = __add__

    def __sub__(self, other) -> "StepFunction":
        return self._binary(other, lambda u, v: u - v)

    def __mul__(self, scalar) -> "StepFunction":
        return StepFunction(self.values * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "StepFunction":
        return self * -1.0

    def inner(self, other: "StepFunction") -> float:
        """Exact integral of the pointwise product of two step functions."""
        u, v = self._on_finer_grid(other)
        return _block_integral(u * v)


def _block_integral(vals: np.ndarray) -> float:
    """Integral over [0, 1] of the step with these values on equal blocks."""
    return float(np.dot(vals, np.full(len(vals), 1.0 / len(vals))))
