"""Frontier estimators built from per-cell extremes.

The core estimator averages the d_n cell maxima inside each dyadic block,
equivalently a Haar-series estimate with Riemann-sum coefficient estimates.
The minima mean estimates the downward bias k_n/(n c) without knowing c,
and shifting by it gives the practical corrected estimator. Both averages
are the sum and division of `ndarray.mean`, bit for bit, without its
Python-level wrapper, taken along the last axis by one helper each, so
that the kernels reduce a table of replicates, one row each, by the same
arithmetic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

# haar_eval is unused here, but the traced benchmark counts calls through estimators.haar_eval
from .haar import haar_eval, haar_transform  # noqa: F401
from .process import CellStats, PartitionConfig
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
        # the key set first, so that no read below can meet a missing key
        if not isinstance(payload, dict) or payload.keys() != {key for key, _ in _JSON_KEYS}:
            raise ValueError(_BAD_JSON)
        try:
            cfg = PartitionConfig(n=payload["n"], h_prime=payload["h_prime"], d_n=payload["d_n"])
            f_hat = StepFunction(payload["f_hat_values"])
            z_n = float(payload["z_n"])
            n_coefficients = len(payload["coefficients"])
        except TypeError as exc:  # a list, object or null where a number goes, or the reverse
            raise ValueError(f"estimate JSON: a value of the wrong type ({exc})") from exc
        if not len(f_hat.values) == n_coefficients == cfg.h_n + 1:
            raise ValueError("estimate JSON: f_hat_values and coefficients need h_n + 1 entries each")
        bundle = cls(f_hat, f_hat + z_n, z_n, haar_transform(f_hat.values), cfg)
        # every key, the derived h_n, k_n and coefficients included, must read
        # back as it would be written
        if bundle._payload() != payload:
            raise ValueError(_BAD_JSON)
        return bundle


_BAD_JSON = (
    "estimate JSON: a missing or unknown key, or h_n or k_n off its partition,"
    " or coefficients that are not the Haar transform of f_hat_values"
)


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
    # the identity test first: the dataclass comparison costs about 1 us
    if stats.cfg is not cfg and stats.cfg != cfg:
        raise ValueError("statistics were not produced under this partition")
    return StepFunction(_block_means(stats.x_star, cfg.d_n))


def _block_means(x_star: np.ndarray, d_n: int) -> np.ndarray:
    """The mean of each run of d_n cells along the last axis: each row's block values."""
    return np.add.reduce(x_star.reshape(*x_star.shape[:-1], -1, d_n), axis=-1) / d_n


def _minima_means(z_star: np.ndarray) -> np.ndarray:
    """The mean along the last axis: each row's minima mean."""
    return np.add.reduce(z_star, axis=-1) / z_star.shape[-1]


def coefficient_estimates(stats: CellStats, cfg: PartitionConfig) -> np.ndarray:
    """Riemann-sum estimates of the first h_n + 1 Haar coefficients, i = 2^(q-1) + p.

    Each psi_i with i <= h_n is constant on every block, so the sums are the
    Haar transform of the block means.
    """
    return haar_transform(haar_ev_estimate(stats, cfg).values)


def minima_mean(stats: CellStats) -> float:
    """Mean of the cell minima; estimates k_n/(n c) with empty cells contributing 0."""
    return float(_minima_means(stats.z_star))


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

