"""Adaptive composite Simpson quadrature."""

from __future__ import annotations

from typing import Callable

DEFAULT_TOL = 1e-10
MAX_SUBINTERVALS = 2**20


class QuadratureError(Exception):
    """Raised when adaptive refinement cannot reach the requested tolerance."""


def adaptive_simpson(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = DEFAULT_TOL,
) -> float:
    """Integrate f over [a, b] to absolute tolerance tol.

    Classic adaptive Simpson with the 1/15 Richardson error estimate, run on
    an explicit stack so the subinterval cap, `MAX_SUBINTERVALS`, is
    enforced exactly. Simpson's rule on a panel, width * (f(lo) + 4 f(mid)
    + f(hi)) / 6, is written out at each use, so a node costs f and its
    arithmetic alone.
    """
    if b < a:
        raise ValueError("integration bounds must satisfy a <= b")
    if b == a:
        return 0.0
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) * (fa + 4.0 * fm + fb) / 6.0
    # stack entries: (a, fa, m, fm, b, fb, coarse estimate, local tolerance)
    stack = [(a, fa, m, fm, b, fb, whole, tol)]
    pop, push = stack.pop, stack.append
    total = 0.0
    used, cap = 1, MAX_SUBINTERVALS
    while stack:
        xa, ya, xm, ym, xb, yb, coarse, loc_tol = pop()
        lm = 0.5 * (xa + xm)
        rm = 0.5 * (xm + xb)
        ylm, yrm = f(lm), f(rm)
        left = (xm - xa) * (ya + 4.0 * ylm + ym) / 6.0
        right = (xb - xm) * (ym + 4.0 * yrm + yb) / 6.0
        delta = left + right - coarse
        if abs(delta) <= 15.0 * loc_tol:
            total += left + right + delta / 15.0
            continue
        used += 1
        if used > cap:
            raise QuadratureError(
                f"adaptive Simpson exceeded {cap} subintervals "
                f"on [{a}, {b}] at tolerance {tol}"
            )
        half = 0.5 * loc_tol
        push((xa, ya, lm, ylm, xm, ym, left, half))
        push((xm, ym, rm, yrm, xb, yb, right, half))
    return total
