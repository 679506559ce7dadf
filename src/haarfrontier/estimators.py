"""Frontier estimators built from per-cell extremes.

The core estimator averages the d_n cell maxima inside each dyadic block,
equivalently a Haar-series estimate with Riemann-sum coefficient estimates.
The minima mean estimates the downward bias k_n/(n c) without knowing c,
and shifting by it gives the practical corrected estimator.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

# haar_eval is unused here, but the traced benchmark counts calls through estimators.haar_eval
from .haar import haar_eval, haar_transform  # noqa: F401
from .process import CellStats, PartitionConfig, _require_rate
from .stepfun import StepFunction


@dataclass(frozen=True, eq=False)
class EstimateBundle:
    f_hat: StepFunction
    f_tilde: StepFunction
    z_n: float
    coefficients: np.ndarray
    cfg: PartitionConfig

    def to_json(self) -> str:
        return json.dumps(self._payload(), indent=2)

    def _payload(self) -> dict:
        values = {key: attrgetter(attr)(self) for key, attr in _JSON_KEYS}
        return {k: list(v) if isinstance(v, np.ndarray) else v for k, v in values.items()}

    @classmethod
    def from_json(cls, text: str) -> "EstimateBundle":
        payload = json.loads(text)
        cfg = PartitionConfig(n=payload["n"], h_prime=payload["h_prime"], d_n=payload["d_n"])
        f_hat = StepFunction(payload["f_hat_values"])
        z_n = float(payload["z_n"])
        coefficients = np.array(payload["coefficients"], dtype=float)
        if not len(f_hat.values) == len(coefficients) == cfg.h_n + 1:
            raise ValueError("estimate JSON: f_hat_values and coefficients need h_n + 1 entries each")
        bundle = cls(f_hat, f_hat + z_n, z_n, coefficients, cfg)
        # every key, the derived h_n and k_n included, must read back as it would be written
        if bundle._payload() != payload:
            raise ValueError("estimate JSON: a missing or unknown key, or h_n or k_n off its partition")
        return bundle


# the keys of estimate.json, in order, and the bundle attribute each one holds
_JSON_KEYS = (
    ("n", "cfg.n"),
    ("h_prime", "cfg.h_prime"),
    ("d_n", "cfg.d_n"),
    ("h_n", "cfg.h_n"),
    ("k_n", "cfg.k_n"),
    ("z_n", "z_n"),
    ("coefficients", "coefficients"),
    ("f_hat_values", "f_hat.values"),
)


def haar_ev_estimate(stats: CellStats, cfg: PartitionConfig) -> StepFunction:
    """Blockwise mean of the d_n cell maxima, one value per dyadic block."""
    if stats.cfg != cfg:
        raise ValueError("statistics were not produced under this partition")
    blocks = cfg.h_n + 1
    values = stats.x_star.reshape(blocks, cfg.d_n).mean(axis=1)
    return StepFunction(values)


def geffroy_estimate(stats: CellStats, cfg: PartitionConfig) -> StepFunction:
    """The d_n = 1 special case: the cellwise-maximum histogram."""
    if cfg.d_n != 1:
        raise ValueError("the cellwise-maximum histogram requires d_n = 1")
    return haar_ev_estimate(stats, cfg)


def coefficient_estimates(stats: CellStats, cfg: PartitionConfig) -> np.ndarray:
    """Riemann-sum estimates of the first h_n + 1 Haar coefficients, i = 2^(q-1) + p.

    Each psi_i with i <= h_n is constant on every block, so the sums are the
    Haar transform of the block means.
    """
    return haar_transform(haar_ev_estimate(stats, cfg).values)


def minima_mean(stats: CellStats) -> float:
    """Mean of the cell minima; estimates k_n/(n c) with empty cells contributing 0."""
    return float(stats.z_star.mean())


def corrected_estimate(stats: CellStats, cfg: PartitionConfig) -> EstimateBundle:
    """Raw estimator plus the minima-mean shift, bundled with its coefficients.

    The kernel weights sum to k_n over the cells, so adding the minima mean
    to every cell maximum shifts the estimate by exactly that scalar; the
    identity is asserted by tests rather than recomputed here.
    """
    f_hat = haar_ev_estimate(stats, cfg)
    z_n = minima_mean(stats)
    return EstimateBundle(
        f_hat=f_hat,
        f_tilde=f_hat + z_n,
        z_n=z_n,
        coefficients=coefficient_estimates(stats, cfg),
        cfg=cfg,
    )


def oracle_corrected_estimate(stats: CellStats, cfg: PartitionConfig, c: float) -> StepFunction:
    """Shift by the true k_n/(n c); usable only when c is known (simulation)."""
    return haar_ev_estimate(stats, cfg) + cfg.k_n / (cfg.n * _require_rate(c))
