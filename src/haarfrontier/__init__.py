"""Frontier estimation for planar Poisson point clouds.

Estimates the upper boundary of the region a homogeneous Poisson process is
observed in, by averaging per-cell maxima through a Haar expansion, with a
minima-based correction for the systematic downward bias. Analytic oracles
for the cell-maximum law and the three limit distributions back a Monte
Carlo experiment harness.
"""

__version__ = "0.1.0"

from .estimators import (
    EstimateBundle,
    coefficient_estimates,
    corrected_estimate,
    geffroy_estimate,
    haar_ev_estimate,
    minima_mean,
    oracle_corrected_estimate,
)
from .experiments import (
    ErrorMetrics,
    ExperimentConfig,
    error_metrics,
    gaussian_experiment,
    gumbel_experiment,
    local_bias_experiment,
    mise_experiment,
    run_experiment,
    supnorm_experiment,
    variance_experiment,
    weibull_experiment,
    zn_moments_experiment,
)
from .frontiers import (
    FrontierSpec,
    affine_frontier,
    constant_frontier,
    parse_frontier,
    sine_frontier,
    two_level_frontier,
)
from .haar import (
    DyadicIndex,
    dirichlet_kernel,
    dyadic_index,
    haar_coefficient,
    haar_eval,
    haar_step,
    haar_transform,
    truncated_expansion,
)
from .oracles import (
    LimitLaw,
    cell_cdf,
    cell_max_mean,
    cell_max_variance,
    ks_statistic,
    limit_cdf,
    limit_law,
)
from .process import CellStats, PartitionConfig, PointSample, cell_stats, simulate
from .quadrature import QuadratureError, adaptive_simpson
from .stepfun import StepFunction, uniform_cell_index

__all__ = [
    "__version__",
    "EstimateBundle",
    "coefficient_estimates",
    "corrected_estimate",
    "geffroy_estimate",
    "haar_ev_estimate",
    "minima_mean",
    "oracle_corrected_estimate",
    "ErrorMetrics",
    "ExperimentConfig",
    "error_metrics",
    "gaussian_experiment",
    "gumbel_experiment",
    "local_bias_experiment",
    "mise_experiment",
    "run_experiment",
    "supnorm_experiment",
    "variance_experiment",
    "weibull_experiment",
    "zn_moments_experiment",
    "FrontierSpec",
    "affine_frontier",
    "constant_frontier",
    "parse_frontier",
    "sine_frontier",
    "two_level_frontier",
    "DyadicIndex",
    "dirichlet_kernel",
    "dyadic_index",
    "haar_coefficient",
    "haar_eval",
    "haar_step",
    "haar_transform",
    "truncated_expansion",
    "uniform_cell_index",
    "LimitLaw",
    "cell_cdf",
    "cell_max_mean",
    "cell_max_variance",
    "ks_statistic",
    "limit_cdf",
    "limit_law",
    "CellStats",
    "PartitionConfig",
    "PointSample",
    "cell_stats",
    "simulate",
    "QuadratureError",
    "adaptive_simpson",
    "StepFunction",
]
