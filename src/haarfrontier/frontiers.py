"""Frontier functions on [0, 1] with declared bounds and regularity.

A FrontierSpec wraps the boundary function together with everything the
simulator and the analytic oracles need: global bounds, a Lipschitz
declaration, and four exact capabilities, all required: the integral of f,
the integral of f^2, the range of f over an interval and the area above a
level. Each is the one path to its quantity. The shipped family (constant,
affine, sine, two-level) gives all four in closed form, so oracle errors
stay far below Monte Carlo noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# unused here, but the traced benchmark counts calls through frontiers.adaptive_simpson
from .quadrature import adaptive_simpson  # noqa: F401

_CHECK_KEY = 0xF2011EA5EED
_EXACT = ("exact_integral", "exact_integral_sq", "exact_range", "exact_area_above")


def _float_or_array(v):
    """A float for a 0-d result, else a float array."""
    out = np.asarray(v, dtype=float)
    return float(out) if out.ndim == 0 else out


def _at_ends(g, lo, hi):
    """(g(lo), g(hi)), with one call of g per edge when the ends tile a partition."""
    if getattr(lo, "ndim", 0) == getattr(hi, "ndim", 0) == 1 and np.array_equal(lo[1:], hi[:-1]):
        at = g(np.append(lo, hi[-1:]))
        return at[:-1], at[1:]
    return g(lo), g(hi)


@dataclass(frozen=True, eq=False)
class FrontierSpec:
    """exact_integral, exact_integral_sq and exact_range are elementwise in the interval ends:
    scalar ends give a scalar (a pair for the range), ends of shape (k,) arrays of shape (k,).

    All four exact capabilities are required; their None defaults only let a
    missing one raise ValueError, as a None or non-callable one does."""

    f: Callable[[np.ndarray], np.ndarray]
    m: float
    M: float
    alpha: float
    lip: float
    label: str
    exact_integral: Callable = None
    exact_integral_sq: Callable = None
    exact_range: Callable = None
    exact_area_above: Callable[[float, float, float], float] = None
    knots: tuple = field(default=())

    def __post_init__(self):
        if not (0.0 < self.m <= self.M < math.inf):
            raise ValueError("need 0 < m <= M < inf")
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError("Lipschitz order must lie in (0, 1]")
        if not self.lip >= 0.0:  # inf declares no bound; NaN is not allowed
            raise ValueError(f"frontier {self.label!r} needs a Lipschitz constant >= 0")
        for name in _EXACT:
            if not callable(getattr(self, name)):
                raise ValueError(f"frontier {self.label!r} needs a callable {name}")
        self._spot_check()

    def _spot_check(self, n_pairs: int = 256) -> None:
        """Sample random pairs and verify bounds and the Lipschitz declaration."""
        rng = np.random.Generator(np.random.Philox(key=_CHECK_KEY))
        xs = rng.random(2 * n_pairs)
        xs[0], xs[1] = 0.0, 1.0
        vals = np.asarray(self.f(xs), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"frontier {self.label!r} takes a value that is not finite")
        slack = 1e-12 * max(1.0, abs(self.M))
        if np.any(vals < self.m - slack) or np.any(vals > self.M + slack):
            raise ValueError(f"frontier {self.label!r} escapes its declared bounds [m, M]")
        if math.isfinite(self.lip):
            u, v = xs[:n_pairs], xs[n_pairs:]
            gap = np.abs(np.asarray(self.f(u)) - np.asarray(self.f(v)))
            bound = self.lip * np.abs(u - v) ** self.alpha
            if np.any(gap > bound * (1.0 + 1e-9) + 1e-12):
                raise ValueError(f"frontier {self.label!r} violates its Lipschitz declaration")

    def __call__(self, x):
        x_arr = np.asarray(x, dtype=float)
        out = np.asarray(self.f(x_arr), dtype=float)
        return float(out) if x_arr.ndim == 0 else out

    def integral(self, lo, hi):
        """Integral of f over [lo, hi]; elementwise over arrays of ends."""
        return _float_or_array(self.exact_integral(lo, hi))

    def integral_sq(self, lo, hi):
        """Integral of f^2 over [lo, hi]; elementwise over arrays of ends."""
        return _float_or_array(self.exact_integral_sq(lo, hi))

    def range_on(self, lo, hi) -> tuple:
        """(min, max) of f over [lo, hi], from the exact range; elementwise over arrays of ends."""
        return tuple(map(_float_or_array, self.exact_range(lo, hi)))

    def area_above(self, lo: float, hi: float, u: float) -> float:
        """Area of {(x, y): lo <= x <= hi, u < y <= f(x)}, i.e. the mass above level u.

        The interval lies in the frontier's domain, 0 <= lo <= hi <= 1. A
        level <= 0 gives the integral; any other level, NaN included, goes
        to the exact area, which gives NaN for NaN on every shipped family.
        """
        if u <= 0.0:
            return self.integral(lo, hi)
        return float(self.exact_area_above(lo, hi, u))


def constant_frontier(a: float = 1.0) -> FrontierSpec:
    a = float(a)
    return FrontierSpec(
        f=lambda x: np.full_like(np.asarray(x, dtype=float), a),
        m=a,
        M=a,
        alpha=1.0,
        lip=0.0,
        label=f"constant:a={a!r}",
        exact_integral=lambda lo, hi: a * (hi - lo),
        exact_integral_sq=lambda lo, hi: a * a * (hi - lo),
        exact_range=lambda lo, hi: (np.full(np.shape(hi - lo), a), np.full(np.shape(hi - lo), a)),
        exact_area_above=lambda lo, hi, u: max(a - u, 0.0) * (hi - lo),
    )


def affine_frontier(a: float = 1.0, b: float = 0.5) -> FrontierSpec:
    """Frontier f(x) = a + b*x."""
    a, b = float(a), float(b)

    def integ(lo, hi):
        return a * (hi - lo) + 0.5 * b * (hi * hi - lo * lo)

    def integ_sq(lo, hi):
        if b == 0.0:
            return a * a * (hi - lo)
        # float_power is libm's pow, as for Python floats, on arrays too
        return (np.float_power(a + b * hi, 3) - np.float_power(a + b * lo, 3)) / (3.0 * b)

    def rng(lo, hi) -> tuple:
        va, vb = a + b * lo, a + b * hi
        return (np.minimum(va, vb), np.maximum(va, vb))

    def above(lo: float, hi: float, u: float) -> float:
        if b == 0.0:
            return max(a - u, 0.0) * (hi - lo)
        fl, fh = a + b * lo - u, a + b * hi - u
        if fl <= 0.0 and fh <= 0.0:
            return 0.0
        if fl >= 0.0 and fh >= 0.0:
            return 0.5 * (fl + fh) * (hi - lo)
        v = max(fl, fh)
        return 0.5 * v * v / abs(b)

    return FrontierSpec(
        f=lambda x: a + b * np.asarray(x, dtype=float),
        m=min(a, a + b),
        M=max(a, a + b),
        alpha=1.0,
        lip=abs(b),
        label=f"affine:a={a!r},b={b!r}",
        exact_integral=integ,
        exact_integral_sq=integ_sq,
        exact_range=rng,
        exact_area_above=above,
    )


def sine_frontier(a: float = 1.0, b: float = 0.25) -> FrontierSpec:
    """Frontier f(x) = a + b*sin(2*pi*x)."""
    a, b = float(a), float(b)
    w = 2.0 * math.pi

    def integ(lo, hi):
        cos_lo, cos_hi = _at_ends(lambda x: np.cos(w * x), lo, hi)
        return a * (hi - lo) - b * (cos_hi - cos_lo) / w

    def integ_sq(lo, hi):
        cos_lo, cos_hi = _at_ends(lambda x: np.cos(w * x), lo, hi)
        sin_lo, sin_hi = _at_ends(lambda x: np.sin(2 * w * x), lo, hi)
        lin = -2.0 * a * b * (cos_hi - cos_lo) / w
        sq = 0.5 * (hi - lo) - (sin_hi - sin_lo) / (4.0 * w)
        return a * a * (hi - lo) + lin + b * b * sq

    def rng(lo, hi) -> tuple:
        f_lo, f_hi = _at_ends(lambda x: a + b * np.sin(w * x), lo, hi)
        mn, mx = np.asarray(np.minimum(f_lo, f_hi)), np.asarray(np.maximum(f_lo, f_hi))
        peak, dip = (0.25, 0.75) if b >= 0.0 else (0.75, 0.25)  # where f is largest, smallest
        np.putmask(mx, (lo < peak) & (peak < hi), a + abs(b))
        np.putmask(mn, (lo < dip) & (dip < hi), a - abs(b))
        return (mn, mx)

    # f > u on (t, 1/2 - t) + shift + k, where sin(2*pi*t) = (u - a)/|b| and
    # |t| <= 1/4; on [lo, hi] within [0, 1] only two periods k can meet it
    abs_b, shift = abs(b), (0.5 if b < 0.0 else 0.0)
    periods = (-1.0, 0.0) if b < 0.0 else (0.0, 1.0)
    asin, cos = math.asin, math.cos

    def above(lo: float, hi: float, u: float) -> float:
        if b == 0.0:
            return max(a - u, 0.0) * (hi - lo)
        # each conditional returns what the builtin min or max would, NaN included
        z = (u - a) / abs_b
        t = asin(1.0 if z > 1.0 else -1.0 if z < -1.0 else z) / w
        start, end, lift = t + shift, 0.5 - t + shift, a - u
        area = 0.0
        for k in periods:
            s0, s1 = start + k, end + k
            s0 = s0 if s0 > lo else lo
            s1 = s1 if s1 < hi else hi
            if s0 < s1:
                area += lift * (s1 - s0) - b * (cos(w * s1) - cos(w * s0)) / w
        return 0.0 if area < 0.0 else area

    return FrontierSpec(
        f=lambda x: a + b * np.sin(w * np.asarray(x, dtype=float)),
        m=a - abs(b),
        M=a + abs(b),
        alpha=1.0,
        lip=abs(b) * w,
        label=f"sine:a={a!r},b={b!r}",
        exact_integral=integ,
        exact_integral_sq=integ_sq,
        exact_range=rng,
        exact_area_above=above,
    )


def two_level_frontier(lo: float = 0.8, hi: float = 1.2, split: float = 0.5) -> FrontierSpec:
    """Piecewise-constant frontier: lo on [0, split), hi on [split, 1].

    Not Lipschitz (the declared constant is infinite); cell extrema and
    integrals are exact, so everything downstream still works.
    """
    lo_val, hi_val, split = float(lo), float(hi), float(split)
    if not 0.0 < split < 1.0:
        raise ValueError("split must be interior to (0, 1)")

    def piece_overlap(seg_lo, seg_hi, a, b):
        return np.maximum(np.minimum(b, seg_hi) - np.maximum(a, seg_lo), 0.0)

    def integ(a, b):
        return lo_val * piece_overlap(0.0, split, a, b) + hi_val * piece_overlap(split, 1.0, a, b)

    def integ_sq(a, b):
        return lo_val**2 * piece_overlap(0.0, split, a, b) + hi_val**2 * piece_overlap(split, 1.0, a, b)

    def rng(a, b) -> tuple:
        one = np.where(a < split, lo_val, hi_val)
        other = np.where((b > split) | (b == 1.0) | (a >= split), hi_val, lo_val)
        return (np.minimum(one, other), np.maximum(one, other))

    def above(a: float, b: float, u: float) -> float:
        return max(lo_val - u, 0.0) * piece_overlap(0.0, split, a, b) + max(
            hi_val - u, 0.0
        ) * piece_overlap(split, 1.0, a, b)

    return FrontierSpec(
        f=lambda x: np.where(np.asarray(x, dtype=float) < split, lo_val, hi_val),
        m=min(lo_val, hi_val),
        M=max(lo_val, hi_val),
        alpha=1.0,
        lip=math.inf,
        label=f"two_level:lo={lo_val!r},hi={hi_val!r},split={split!r}",
        exact_integral=integ,
        exact_integral_sq=integ_sq,
        exact_range=rng,
        exact_area_above=above,
        knots=(split,),
    )


_FAMILY = {
    "constant": constant_frontier,
    "affine": affine_frontier,
    "sine": sine_frontier,
    "two_level": two_level_frontier,
}


def parse_frontier(label: str) -> FrontierSpec:
    """Build a shipped frontier from its textual label, e.g. 'affine:a=1.0,b=0.5'."""
    name, _, params = label.partition(":")
    if name not in _FAMILY:
        raise ValueError(f"unknown frontier {name!r}; choose from {sorted(_FAMILY)}")
    kwargs = {}
    if params:
        for item in params.split(","):
            key, _, value = item.partition("=")
            key = key.strip()
            if not _:
                raise ValueError(f"malformed frontier parameter {item!r}")
            if key in kwargs:
                raise ValueError(f"frontier parameter {key!r} given twice in {label!r}")
            kwargs[key] = float(value)
    try:
        return _FAMILY[name](**kwargs)
    except TypeError as exc:  # a parameter the family does not take
        raise ValueError(f"malformed frontier {label!r}: {exc}") from None
