import math

import numpy as np
import pytest

from haarfrontier import quadrature
from haarfrontier.quadrature import QuadratureError, adaptive_simpson


def test_polynomial_exact() -> None:
    assert adaptive_simpson(lambda x: x * x, 0.0, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-13)
    assert adaptive_simpson(lambda x: x**3 - x, 0.0, 2.0) == pytest.approx(2.0, abs=1e-12)


def test_kinked_integrand() -> None:
    # |x - 1/3| integrates to 5/18 on [0, 1]
    got = adaptive_simpson(lambda x: abs(x - 1.0 / 3.0), 0.0, 1.0)
    assert got == pytest.approx(5.0 / 18.0, abs=1e-10)


def test_oscillatory_against_closed_form() -> None:
    got = adaptive_simpson(lambda x: math.sin(7.0 * x), 0.0, math.pi)
    want = (1.0 - math.cos(7.0 * math.pi)) / 7.0
    assert got == pytest.approx(want, abs=1e-10)


def test_degenerate_and_reversed_bounds() -> None:
    assert adaptive_simpson(math.exp, 0.5, 0.5) == 0.0
    with pytest.raises(ValueError):
        adaptive_simpson(math.exp, 1.0, 0.0)


def test_subinterval_cap_raises(monkeypatch) -> None:
    monkeypatch.setattr(quadrature, "MAX_SUBINTERVALS", 4)
    with pytest.raises(QuadratureError, match="exceeded 4 subintervals"):
        adaptive_simpson(math.exp, 0.0, 1.0, tol=1e-15)


def test_tolerance_is_absolute() -> None:
    loose = adaptive_simpson(lambda x: np.exp(-x) * 1e6, 0.0, 1.0, tol=1e-6)
    want = (1.0 - math.exp(-1.0)) * 1e6
    assert abs(loose - want) < 1e-4
