"""Frontier estimation for planar Poisson point clouds.

Estimates the upper boundary of the region a homogeneous Poisson process is
observed in, by averaging per-cell maxima through a Haar expansion, with a
minima-based correction for the systematic downward bias. Analytic oracles
for the cell-maximum law and the three limit distributions back a Monte
Carlo experiment harness.

Importing the package loads none of its submodules. A public name, or a
submodule such as ``haarfrontier.experiments``, is imported on first use
(PEP 562), so reaching ``parse_frontier`` does not load the experiment
harness.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines; a submodule that defines none is
# listed so that it, too, resolves as an attribute of the package
_EXPORTS = {
    "estimators": ("EstimateBundle", "coefficient_estimates", "corrected_estimate",
                   "haar_ev_estimate", "minima_mean"),
    "experiments": ("ExperimentConfig", "run_experiment"),
    "frontiers": ("FrontierSpec", "affine_frontier", "constant_frontier", "parse_frontier",
                  "sine_frontier", "two_level_frontier"),
    "haar": ("DyadicIndex", "dyadic_index", "haar_eval", "haar_step", "haar_transform",
             "truncated_expansion"),
    "oracles": ("LimitLaw", "cell_cdf", "cell_max_mean", "cell_max_variance", "ks_statistic",
                "limit_law"),
    "process": ("CellStats", "PartitionConfig", "PointSample", "cell_stats", "simulate"),
    "stepfun": ("StepFunction", "uniform_cell_index"),
    "cli": (),
    "kernels": (),
    "quadrature": (),
    "report": (),
    "runner": (),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name):
    """Import the submodule that ``name`` is, or that defines it, and keep the value."""
    if name in _EXPORTS:
        # the import binds the submodule in this namespace itself
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
