"""Command-line interface: simulate, estimate, experiment, list-presets.

An experiment is named as `list-presets` prints it, and a run is its
preset, then the flags that override it. Each setting has one flag; only
`--x` may be given twice, with another point, and only to an experiment
that takes points. The schedule is `--schedule n:hprime:dn` (entries
joined by `;`, each entry once). `--workers` is not a setting but an
argument of the run. The parser types every flag's value: a malformed
one is a usage error. Report CSVs are deterministic for a fixed
configuration whatever the workers, and for a frontier however it is
spelled. The JSON manifest has eight keys: the config echo (`config`),
its content hash (`input_hash`), the regime numbers per schedule entry
(`regimes`), `wall_time_s`, the package `version`, the counts of `rows`
and `failures`, and the sorted `statistics` of the report.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

from . import __version__

# keep these at module level, not inside the commands: the traced benchmark
# wraps run_experiment, write_report_csv, simulate, cell_stats and
# corrected_estimate where this module's namespace holds them
from .estimators import corrected_estimate
from .experiments import PRESETS, _declared, _regime_numbers, _report_name, run_experiment
from .frontiers import parse_frontier
from .process import PartitionConfig, PointSample, cell_stats, simulate
from .report import config_hash, summarize, write_manifest, write_report_csv

USAGE_ERROR = 1
TOLERANCE_FAILURE = 2


class _Once(argparse.Action):
    """Store a value, or const for a flag that takes none; the same flag given twice is a usage error."""

    def __call__(self, parser, namespace, values, option_string=None):
        # the namespace is new for each command line; the action is shared by all of them
        given = vars(namespace).setdefault("_given", set())
        if self.dest in given:
            raise argparse.ArgumentError(self, "given twice")
        given.add(self.dest)
        setattr(namespace, self.dest, self.const if self.nargs == 0 else values)


class _Parser(argparse.ArgumentParser):
    # also each subcommand's parser class: no parser takes a flag's prefix for
    # the flag, and every storing flag is taken once
    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)
        for name in (None, "store"):
            self.register("action", name, _Once)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser() -> _Parser:
    """The one parser of this process; parsing leaves no state in it."""
    parser = _Parser(prog="haarfrontier", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="draw a point sample and write it as CSV")
    sim.set_defaults(run=_cmd_simulate)
    sim.add_argument("--frontier", required=True, help="e.g. constant:a=1.0 or affine:a=1.0,b=0.5")
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--c", type=float, default=1.0)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", default=".")

    est = sub.add_parser("estimate", help="estimate a frontier from a sample CSV")
    est.set_defaults(run=_cmd_estimate)
    est.add_argument("sample", help="path to a PointSample CSV")
    est.add_argument("--hprime", type=int, required=True)
    est.add_argument("--dn", type=int, required=True)
    est.add_argument("--out", default=".")

    exp = sub.add_parser("experiment", help="run a named experiment preset")
    exp.set_defaults(run=_cmd_experiment)
    exp.add_argument("name", help="preset name; see list-presets")
    for key, (_, parse) in _CONFIG_KEYS.items():
        exp.add_argument(f"--{key}", type=parse, action="append" if key == "x" else "store")
    exp.add_argument("--workers", type=int, default=1)
    exp.add_argument("--out", default=".")
    exp.add_argument("--strict", action=_Once, nargs=0, const=True, default=False,
                     help="exit 2 on any tolerance failure")

    sub.add_parser("list-presets", help="list experiment presets").set_defaults(run=_cmd_list_presets)
    return parser


def _parse_schedule(text: str) -> tuple:
    entries = []
    for part in text.split(";"):
        try:
            n, h_prime, d_n = (int(v) for v in part.strip().split(":"))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"malformed schedule entry {part!r}; expected n:hprime:dn") from None
        entries.append((n, h_prime, d_n))
    return tuple(entries)


# flag name -> (ExperimentConfig field, type of one value); --x may be
# given more than once and arrives as a list
_CONFIG_KEYS = {
    "frontier": ("frontier", str),
    "c": ("c", float),
    "schedule": ("schedule", _parse_schedule),
    "replicates": ("replicates", int),
    "seed": ("base_seed", int),
    "x": ("xs", float),
}


def _cmd_simulate(args) -> int:
    frontier = parse_frontier(args.frontier)
    sample = simulate(frontier, args.n, args.c, args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "sample.csv"
    sample.to_csv(path)
    print(f"wrote {len(sample)} points to {path}")
    return 0


def _cmd_estimate(args) -> int:
    sample = PointSample.from_csv(args.sample)
    frontier = parse_frontier(sample.frontier_label)
    cfg = PartitionConfig(n=sample.n, h_prime=args.hprime, d_n=args.dn)
    bundle = corrected_estimate(cell_stats(sample, cfg, frontier), cfg)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "estimate.json"
    path.write_text(bundle.to_json() + "\n")
    print(f"wrote estimate (k_n={cfg.k_n}, z_n={bundle.z_n!r}) to {path}")
    return 0


def _cmd_experiment(args) -> int:
    # the name first: an unknown one is reported by the check run_experiment makes
    cfg = replace(_declared(args.name).config, **{
        field: value for key, (field, _) in _CONFIG_KEYS.items() if (value := getattr(args, key)) is not None
    })
    payload = {"preset": args.name, "experiment": _report_name(args.name), **asdict(cfg)}

    start = time.perf_counter()
    rows = run_experiment(args.name, cfg, args.workers)
    elapsed = time.perf_counter() - start

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{args.name}.csv"
    manifest_path = out_dir / f"{args.name}_manifest.json"
    write_report_csv(rows, csv_path)
    summary = summarize(rows)
    write_manifest(
        manifest_path,
        {
            "config": payload,
            "input_hash": config_hash(payload),
            "regimes": _regime_numbers(args.name, cfg),
            "wall_time_s": elapsed,
            "version": __version__,
            **summary,
        },
    )
    print(f"wrote {summary['rows']} rows to {csv_path} ({summary['failures']} failures)")
    if args.strict and summary["failures"] > 0:
        return TOLERANCE_FAILURE
    return 0


def _cmd_list_presets(args) -> int:
    width = max(len(name) for name in PRESETS)
    for name, spec in PRESETS.items():
        cfgs = ", ".join(f"n={n},h'={hp},d={dn}" for n, hp, dn in spec.config.schedule)
        print(f"{name:<{width}}  {spec.note} [{cfgs}]")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"haarfrontier: error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
