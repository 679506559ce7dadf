"""Piecewise-constant functions on [0, 1] with exact arithmetic.

Pieces are left-closed/right-open except the last, which is closed, so
evaluation is defined for every x in [0, 1]. Sums, differences and scalar
shifts are computed on the common refinement of the two breakpoint grids,
which keeps L2 norms of step-vs-step differences exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class StepFunction:
    breakpoints: np.ndarray  # shape (m+1,), 0 = b[0] < ... < b[m] = 1
    values: np.ndarray       # shape (m,)

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if bp.ndim != 1 or vals.ndim != 1 or len(vals) != len(bp) - 1:
            raise ValueError("need m+1 breakpoints and m values")
        if bp[0] != 0.0 or bp[-1] != 1.0:
            raise ValueError("breakpoints must start at 0 and end at 1")
        if np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        bp.flags.writeable = False
        vals.flags.writeable = False
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)

    @classmethod
    def uniform(cls, values) -> "StepFunction":
        """Step function on m equal pieces of [0, 1]."""
        vals = np.asarray(values, dtype=float)
        m = len(vals)
        if m == 0:
            raise ValueError("need at least one piece")
        return cls(np.arange(m + 1) / m, vals)

    @classmethod
    def constant(cls, value: float) -> "StepFunction":
        return cls(np.array([0.0, 1.0]), np.array([float(value)]))

    def piece_index(self, x) -> np.ndarray:
        x_arr = np.asarray(x, dtype=float)
        if np.any(x_arr < 0.0) or np.any(x_arr > 1.0):
            raise ValueError("x must lie in [0, 1]")
        idx = np.searchsorted(self.breakpoints, x_arr, side="right") - 1
        return np.minimum(idx, len(self.values) - 1)

    def __call__(self, x):
        out = self.values[self.piece_index(x)]
        if np.isscalar(x) or np.ndim(x) == 0:
            return float(out)
        return out

    def widths(self) -> np.ndarray:
        return np.diff(self.breakpoints)

    def integral(self) -> float:
        return float(np.dot(self.values, self.widths()))

    def l2_norm_sq(self) -> float:
        return float(np.dot(self.values**2, self.widths()))

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def refine_with(self, other: "StepFunction") -> np.ndarray:
        """Union of the two breakpoint grids."""
        return np.union1d(self.breakpoints, other.breakpoints)

    def _binary(self, other, op) -> "StepFunction":
        if isinstance(other, StepFunction):
            grid = self.refine_with(other)
            mids = 0.5 * (grid[:-1] + grid[1:])
            return StepFunction(grid, op(self(mids), other(mids)))
        val = float(other)
        return StepFunction(self.breakpoints, op(self.values, val))

    def __add__(self, other) -> "StepFunction":
        return self._binary(other, lambda u, v: u + v)

    __radd__ = __add__

    def __sub__(self, other) -> "StepFunction":
        return self._binary(other, lambda u, v: u - v)

    def __mul__(self, scalar) -> "StepFunction":
        return StepFunction(self.breakpoints, self.values * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "StepFunction":
        return self * -1.0

    def inner(self, other: "StepFunction") -> float:
        """Exact integral of the pointwise product of two step functions."""
        grid = self.refine_with(other)
        mids = 0.5 * (grid[:-1] + grid[1:])
        return float(np.dot(self(mids) * other(mids), np.diff(grid)))
