"""Frontier functions on [0, 1] with declared bounds and regularity.

A FrontierSpec wraps the boundary function together with everything the
simulator and the analytic oracles need: global bounds, a Lipschitz
declaration, and optional exact-integration capabilities. The shipped
family (constant, affine, sine, two-level) provides exact integrals,
exact per-interval ranges and exact level-exceedance areas, so oracle
errors stay far below Monte Carlo noise.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .quadrature import adaptive_simpson

_CHECK_KEY = 0xF2011EA5EED


@dataclass(frozen=True, eq=False)
class FrontierSpec:
    f: Callable[[np.ndarray], np.ndarray]
    m: float
    M: float
    alpha: float
    lip: float
    label: str
    exact_integral: Optional[Callable[[float, float], float]] = None
    exact_integral_sq: Optional[Callable[[float, float], float]] = None
    exact_range: Optional[Callable[[float, float], tuple]] = None
    exact_area_above: Optional[Callable[[float, float, float], float]] = None
    knots: tuple = field(default=())

    def __post_init__(self):
        if not (0.0 < self.m <= self.M < math.inf):
            raise ValueError("need 0 < m <= M < inf")
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError("Lipschitz order must lie in (0, 1]")
        self._spot_check()

    def _spot_check(self, n_pairs: int = 256) -> None:
        """Sample random pairs and verify bounds and the Lipschitz declaration."""
        rng = np.random.Generator(np.random.Philox(key=_CHECK_KEY))
        xs = rng.random(2 * n_pairs)
        xs[0], xs[1] = 0.0, 1.0
        vals = np.asarray(self.f(xs), dtype=float)
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
        out = np.asarray(self.f(np.asarray(x, dtype=float)), dtype=float)
        if np.isscalar(x) or np.ndim(x) == 0:
            return float(out)
        return out

    def integral(self, lo: float, hi: float) -> float:
        """Integral of f over [lo, hi], exact when available."""
        if self.exact_integral is not None:
            return float(self.exact_integral(lo, hi))
        return adaptive_simpson(lambda t: float(self.f(t)), lo, hi)

    def integral_sq(self, lo: float, hi: float) -> float:
        """Integral of f^2 over [lo, hi], exact when available."""
        if self.exact_integral_sq is not None:
            return float(self.exact_integral_sq(lo, hi))
        return adaptive_simpson(lambda t: float(self.f(t)) ** 2, lo, hi)

    def range_on(self, lo: float, hi: float, tol: float = 1e-8) -> tuple:
        """Enclosure (min, max) of f over [lo, hi], tight to within tol.

        Exact when the frontier declares a range capability; otherwise a
        Lipschitz branch-and-bound seeded on a 64-point grid, which reaches
        the tolerance in logarithmically many splits per local extremum.
        """
        if self.exact_range is not None:
            mn, mx = self.exact_range(lo, hi)
            return float(mn), float(mx)
        if not math.isfinite(self.lip):
            raise ValueError(
                f"frontier {self.label!r} has no exact range and an unbounded "
                "Lipschitz constant; cannot enclose cell extrema"
            )
        hi_bound = self._lipschitz_extreme(lo, hi, tol, sign=1.0)
        lo_bound = -self._lipschitz_extreme(lo, hi, tol, sign=-1.0)
        return lo_bound, hi_bound

    def _lipschitz_extreme(self, lo: float, hi: float, tol: float, sign: float) -> float:
        """Upper bound on max of sign*f over [lo, hi], within tol of the true max."""
        grid = np.linspace(lo, hi, 65)
        vals = sign * np.asarray(self.f(grid), dtype=float)
        best = float(vals.max())
        width = (hi - lo) / 64.0
        pad = self.lip * (0.5 * width) ** self.alpha
        heap = []
        for j in range(64):
            ub = max(vals[j], vals[j + 1]) + pad
            heapq.heappush(heap, (-ub, grid[j], grid[j + 1], vals[j], vals[j + 1]))
        while heap:
            neg_ub, a, b, fa, fb = heapq.heappop(heap)
            ub = -neg_ub
            if ub <= best + tol:
                return min(ub, best + tol)
            m = 0.5 * (a + b)
            fm = sign * float(self.f(m))
            best = max(best, fm)
            half_pad = self.lip * (0.25 * (b - a)) ** self.alpha
            heapq.heappush(heap, (-(max(fa, fm) + half_pad), a, m, fa, fm))
            heapq.heappush(heap, (-(max(fm, fb) + half_pad), m, b, fm, fb))
        return best

    def area_above(self, lo: float, hi: float, u: float) -> float:
        """Area of {(x, y): lo <= x <= hi, u < y <= f(x)}, i.e. the mass above level u."""
        if u <= 0.0:
            return self.integral(lo, hi) - max(u, 0.0) * (hi - lo)
        if self.exact_area_above is not None:
            return float(self.exact_area_above(lo, hi, u))
        mn, mx = self.range_on(lo, hi)
        if u >= mx:
            return 0.0
        if u <= mn:
            return self.integral(lo, hi) - u * (hi - lo)
        # The positive part of f - u may be supported on a small interior bump;
        # a fixed 4-way split keeps the adaptive pass from accepting zero.
        cuts = np.linspace(lo, hi, 5)
        return sum(
            adaptive_simpson(lambda t: max(float(self.f(t)) - u, 0.0), a, b, 2.5e-11)
            for a, b in zip(cuts, cuts[1:])
        )


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
        exact_range=lambda lo, hi: (a, a),
        exact_area_above=lambda lo, hi, u: max(a - u, 0.0) * (hi - lo),
    )


def affine_frontier(a: float = 1.0, b: float = 0.5) -> FrontierSpec:
    """Frontier f(x) = a + b*x."""
    a, b = float(a), float(b)

    def integ(lo: float, hi: float) -> float:
        return a * (hi - lo) + 0.5 * b * (hi * hi - lo * lo)

    def integ_sq(lo: float, hi: float) -> float:
        if b == 0.0:
            return a * a * (hi - lo)
        return ((a + b * hi) ** 3 - (a + b * lo) ** 3) / (3.0 * b)

    def rng(lo: float, hi: float) -> tuple:
        va, vb = a + b * lo, a + b * hi
        return (min(va, vb), max(va, vb))

    def above(lo: float, hi: float, u: float) -> float:
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

    def integ(lo: float, hi: float) -> float:
        return a * (hi - lo) - b * (math.cos(w * hi) - math.cos(w * lo)) / w

    def integ_sq(lo: float, hi: float) -> float:
        lin = -2.0 * a * b * (math.cos(w * hi) - math.cos(w * lo)) / w
        sq = 0.5 * (hi - lo) - (math.sin(2 * w * hi) - math.sin(2 * w * lo)) / (4.0 * w)
        return a * a * (hi - lo) + lin + b * b * sq

    def rng(lo: float, hi: float) -> tuple:
        cand = [a + b * math.sin(w * lo), a + b * math.sin(w * hi)]
        for crit in (0.25, 0.75):
            if lo < crit < hi:
                cand.append(a + b * math.sin(w * crit))
        return (min(cand), max(cand))

    def above(lo: float, hi: float, u: float) -> float:
        if b == 0.0:
            return max(a - u, 0.0) * (hi - lo)
        # f > u on (t, 1/2 - t) + shift, mod 1, where sin(2*pi*t) = (u - a)/|b|
        t = math.asin(min(max((u - a) / abs(b), -1.0), 1.0)) / w
        shift = 0.5 if b < 0.0 else 0.0
        area = 0.0
        for k in (-1.0, 0.0, 1.0):
            s0, s1 = max(lo, t + shift + k), min(hi, 0.5 - t + shift + k)
            if s0 < s1:
                area += (a - u) * (s1 - s0) - b * (math.cos(w * s1) - math.cos(w * s0)) / w
        return max(area, 0.0)

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

    def piece_overlap(seg_lo: float, seg_hi: float, a: float, b: float) -> float:
        return max(min(b, seg_hi) - max(a, seg_lo), 0.0)

    def integ(a: float, b: float) -> float:
        return lo_val * piece_overlap(0.0, split, a, b) + hi_val * piece_overlap(split, 1.0, a, b)

    def integ_sq(a: float, b: float) -> float:
        return lo_val**2 * piece_overlap(0.0, split, a, b) + hi_val**2 * piece_overlap(split, 1.0, a, b)

    def rng(a: float, b: float) -> tuple:
        vals = []
        if a < split:
            vals.append(lo_val)
        if b > split or b == 1.0 or a >= split:
            vals.append(hi_val)
        return (min(vals), max(vals))

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
            if not _:
                raise ValueError(f"malformed frontier parameter {item!r}")
            kwargs[key.strip()] = float(value)
    try:
        return _FAMILY[name](**kwargs)
    except TypeError as exc:  # a parameter the family does not take
        raise ValueError(f"malformed frontier {label!r}: {exc}") from None
