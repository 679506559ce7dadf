"""The package's public names and its command line, pinned.

A new or dropped name, subcommand or flag is a reviewed edit here.
"""

import argparse

import haarfrontier
from haarfrontier import cli

PUBLIC = [
    "CellStats",
    "EstimateBundle",
    "ExperimentConfig",
    "FrontierSpec",
    "LimitLaw",
    "PartitionConfig",
    "PointSample",
    "StepFunction",
    "__version__",
    "cell_cdf",
    "cell_max_mean",
    "cell_max_variance",
    "cell_stats",
    "coefficient_estimates",
    "corrected_estimate",
    "haar_ev_estimate",
    "haar_eval",
    "haar_transform",
    "ks_statistic",
    "minima_mean",
    "parse_frontier",
    "run_experiment",
    "simulate",
    "truncated_expansion",
    "uniform_cell_index",
]


def test_public_names_are_exactly_the_pinned_list() -> None:
    assert sorted(haarfrontier.__all__) == PUBLIC
    assert len(set(haarfrontier.__all__)) == len(haarfrontier.__all__)
    for name in PUBLIC:
        assert hasattr(haarfrontier, name), name


# each subcommand's positional arguments and option strings, in parser order, -h left out
COMMAND_LINE = {
    "simulate": ["--frontier", "--n", "--c", "--seed", "--out"],
    "estimate": ["sample", "--hprime", "--dn", "--out"],
    "experiment": [
        "name", "--frontier", "--c", "--schedule", "--replicates", "--seed", "--x", "--variant",
        "--workers", "--out", "--strict",
    ],
    "list-presets": [],
}


def test_command_line_is_exactly_the_pinned_options() -> None:
    parser = cli._build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    surface = {
        name: [s for action in sub._actions for s in (action.option_strings or [action.dest])]
        for name, sub in commands.choices.items()
    }
    assert surface == {name: ["-h", "--help", *opts] for name, opts in COMMAND_LINE.items()}
    assert [s for action in parser._actions for s in action.option_strings] == ["-h", "--help"]


def test_run_experiment_is_the_one_experiment_entry_point() -> None:
    for module in (haarfrontier, haarfrontier.experiments):
        public = [name for name in dir(module) if not name.startswith("_")]
        assert [name for name in public if name.endswith("_experiment")] == ["run_experiment"]
