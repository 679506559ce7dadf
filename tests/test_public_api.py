"""The package's public names, pinned: a new or dropped name is a reviewed edit here."""

import haarfrontier

PUBLIC = [
    "CellStats",
    "DyadicIndex",
    "EstimateBundle",
    "ExperimentConfig",
    "FrontierSpec",
    "LimitLaw",
    "PartitionConfig",
    "PointSample",
    "StepFunction",
    "__version__",
    "affine_frontier",
    "cell_cdf",
    "cell_max_mean",
    "cell_max_variance",
    "cell_stats",
    "coefficient_estimates",
    "constant_frontier",
    "corrected_estimate",
    "dyadic_index",
    "haar_ev_estimate",
    "haar_eval",
    "haar_step",
    "haar_transform",
    "ks_statistic",
    "limit_law",
    "minima_mean",
    "parse_frontier",
    "run_experiment",
    "simulate",
    "sine_frontier",
    "truncated_expansion",
    "two_level_frontier",
    "uniform_cell_index",
]


def test_public_names_are_exactly_the_pinned_list() -> None:
    assert sorted(haarfrontier.__all__) == PUBLIC
    assert len(set(haarfrontier.__all__)) == len(haarfrontier.__all__)
    for name in PUBLIC:
        assert hasattr(haarfrontier, name), name


def test_run_experiment_is_the_one_experiment_entry_point() -> None:
    for module in (haarfrontier, haarfrontier.experiments):
        public = [name for name in dir(module) if not name.startswith("_")]
        assert [name for name in public if name.endswith("_experiment")] == ["run_experiment"]
