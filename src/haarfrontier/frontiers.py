"""Frontier functions on [0, 1] with declared bounds and regularity.

A FrontierSpec wraps the boundary function together with everything the
simulator and the analytic oracles need: global bounds, a Lipschitz
declaration, and four exact capabilities, all required: the integral of f,
the integral of f^2, the range of f over an interval and the area above a
level. Each is the one path to its quantity. Every shipped family gives all
four in closed form, so oracle errors stay far below Monte Carlo noise. A
shipped family is built only from its label, by `parse_frontier`. The
constant, affine and two-level families are one piecewise-linear form,
`_piecewise_linear`, given their knots, levels and slopes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

# unused here, but the traced benchmark counts calls through frontiers.adaptive_simpson
from .quadrature import adaptive_simpson  # noqa: F401

_EXACT = ("exact_integral", "exact_integral_sq", "exact_range", "exact_area_above")

# The spot check's pairs (u, v): the 2-D R2 sequence, steps 1/g and 1/g^2 with g the
# plastic number. Its pairs differ in separation, as the two halves of a 1-D Weyl
# sequence would not; u_0 and u_1 are moved to the ends 0 and 1.
_PLASTIC = 1.3247179572447460
_CHECK_PAIRS = 256
_CHECK_XS = np.concatenate([(0.5 + np.arange(_CHECK_PAIRS) / _PLASTIC**p) % 1.0 for p in (1, 2)])
_CHECK_XS[:2] = 0.0, 1.0
_CHECK_XS.flags.writeable = False


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
    missing one raise ValueError, as a None or non-callable one does. The exact
    range also gives the sup-norm error, so a frontier lists no break points."""

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

    def _spot_check(self) -> None:
        """Verify the bounds and the Lipschitz declaration on a fixed set of point pairs."""
        xs = _CHECK_XS
        vals = np.asarray(self.f(xs), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"frontier {self.label!r} takes a value that is not finite")
        slack = 1e-12 * max(1.0, abs(self.M))
        if np.any(vals < self.m - slack) or np.any(vals > self.M + slack):
            raise ValueError(f"frontier {self.label!r} escapes its declared bounds [m, M]")
        if math.isfinite(self.lip):
            u, v = xs[:_CHECK_PAIRS], xs[_CHECK_PAIRS:]
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


def _piece(v: float, s: float) -> tuple:
    """The piece v + s*x's integral, integral of f^2, range and area above u, over [p, q]."""

    def integ_sq(p, q):
        if s == 0.0:
            return v * v * (q - p)
        # float_power is libm's pow, as for Python floats, on arrays too
        return (np.float_power(v + s * q, 3) - np.float_power(v + s * p, 3)) / (3.0 * s)

    def rng(p, q) -> tuple:
        fp, fq = (v + s * p, v + s * q) if s else (np.full(np.shape(q - p), v),) * 2
        return (np.minimum(fp, fq), np.maximum(fp, fq))

    def above(p, q, u):  # each conditional gives what the builtin max gives, NaN included
        if s == 0.0:
            return (0.0 if (d := v - u) < 0.0 else d) * (q - p)
        fl, fh = v + s * p - u, v + s * q - u
        if fl <= 0.0 and fh <= 0.0:
            return 0.0
        if fl >= 0.0 and fh >= 0.0:
            return 0.5 * (fl + fh) * (q - p)
        w = fh if fh > fl else fl
        return 0.5 * w * w / abs(s)

    return (lambda p, q: v * (q - p) + 0.5 * s * (q * q - p * p) if s else v * (q - p)), integ_sq, rng, above


def _piecewise_linear(label: str, knots, values, slopes, lip: float) -> FrontierSpec:
    """f = values[j] + slopes[j]*x on [t_j, t_{j+1}), t = (0, *knots, 1), the last piece closed.

    One piece is its own frontier. On several, each capability sums (the range takes the min
    and max of) the pieces' own over the pieces clipped to an interval within [0, 1]."""
    starts, stops = (0.0, *knots), (*knots, math.inf)
    integs, integ_sqs, rngs, aboves = zip(*(_piece(v, s) for v, s in zip(values, slopes)))
    backwards = tuple(zip(values, slopes, stops))[::-1]

    def f(x):
        x, out = np.asarray(x, dtype=float), None
        for v, s, t in backwards:
            at = v if s == 0.0 else v + s * x  # a flat piece enters as its level alone
            out = at if out is None else np.where(x < t, at, out)
        return np.full_like(x, out) if isinstance(out, float) else out

    def cuts(lo, hi) -> tuple:  # piece j clipped to [lo, hi] is [cut[j], cut[j + 1]]
        return (lo, *(np.minimum(np.maximum(t, lo), hi) for t in knots), hi)

    def summed(terms) -> Callable:
        def total(lo, hi, *level):
            cut, out = cuts(lo, hi), -0.0  # -0.0 + x is x, the sign of zero included
            for term, p, q in zip(terms, cut, cut[1:]):
                out += term(p, q, *level)
            return out

        return total if knots else terms[0]

    def rng(lo, hi) -> tuple:
        cut, low, high = cuts(lo, hi), np.inf, -np.inf
        for term, t0, t1, p, q in zip(rngs, starts, stops, cut, cut[1:]):
            at_lo, at_hi = term(p, q)
            # cells are half-open: a piece counts if it holds a point of [lo, hi), or lo = hi
            meets = ((hi > t0) | (lo >= t0)) & (lo < t1)
            low = np.minimum(low, np.where(meets, at_lo, np.inf))
            high = np.maximum(high, np.where(meets, at_hi, -np.inf))
        return (low, high)

    ends = [values[0]]  # f(0) first: min and max keep it, so a NaN slope fails the Lipschitz check
    ends += [v + s * t for v, s, t0, t1 in zip(values, slopes, starts, (*knots, 1.0)) for t in (t0, t1)]
    return FrontierSpec(
        f=f, m=min(ends), M=max(ends), alpha=1.0, lip=lip, label=label,
        exact_integral=summed(integs), exact_integral_sq=summed(integ_sqs),
        exact_range=rng if knots else rngs[0], exact_area_above=summed(aboves),
    )


def _constant(*, a: float = 1.0) -> FrontierSpec:
    """Frontier f(x) = a."""
    return _piecewise_linear(f"constant:a={a!r}", (), (a,), (0.0,), lip=0.0)


def _affine(*, a: float = 1.0, b: float = 0.5) -> FrontierSpec:
    """Frontier f(x) = a + b*x."""
    return _piecewise_linear(f"affine:a={a!r},b={b!r}", (), (a,), (b,), lip=abs(b))


def _sine(*, a: float = 1.0, b: float = 0.25) -> FrontierSpec:
    """Frontier f(x) = a + b*sin(2*pi*x)."""
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


def _two_level(*, lo: float = 0.8, hi: float = 1.2, split: float = 0.5) -> FrontierSpec:
    """Piecewise-constant frontier: lo on [0, split), hi on [split, 1].

    Not Lipschitz (the declared constant is infinite); cell extrema and
    integrals are exact, so everything downstream still works.
    """
    if not 0.0 < split < 1.0:
        raise ValueError("split must be interior to (0, 1)")
    label = f"two_level:lo={lo!r},hi={hi!r},split={split!r}"
    return _piecewise_linear(label, (split,), (lo, hi), (0.0, 0.0), lip=math.inf)


# each shipped family's builder, by the name its label starts with; a builder
# takes the label's parameters as floats, by keyword only, with the family's
# defaults for the rest
_FAMILY = {"constant": _constant, "affine": _affine, "sine": _sine, "two_level": _two_level}


def parse_frontier(label: str) -> FrontierSpec:
    """Build a shipped frontier from its textual label, e.g. 'affine:a=1.0,b=0.5'.

    The one constructor of a shipped family: the label names the family and
    gives its parameters, each as text that `float` reads; those left out
    take the family's defaults. The spec's label gives each one as its repr.
    """
    name, _, params = label.partition(":")
    if name not in _FAMILY:
        raise ValueError(f"unknown frontier {name!r}; choose from {sorted(_FAMILY)}")
    build = _FAMILY[name]
    taken = build.__kwdefaults__  # the family's parameters, with their defaults
    kwargs = {}
    if params:
        for item in params.split(","):
            key, _, value = item.partition("=")
            key = key.strip()
            if not _:
                raise ValueError(f"malformed frontier parameter {item!r}")
            if key not in taken:
                raise ValueError(
                    f"malformed frontier {label!r}: {name!r} takes no parameter {key!r};"
                    f" it takes {', '.join(taken)}"
                )
            if key in kwargs:
                raise ValueError(f"frontier parameter {key!r} given twice in {label!r}")
            kwargs[key] = float(value)
    return build(**kwargs)
