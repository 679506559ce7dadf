"""Command-line interface: simulate, estimate, experiment, list-presets.

Experiment configuration is layered: preset defaults, then a flat key=value
config file, then command-line flags. Report CSVs are deterministic for a
fixed configuration regardless of the worker count; the JSON manifest
carries the config echo, a content hash, and the wall time.
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
from .experiments import PRESETS, ExperimentConfig, run_experiment
from .frontiers import parse_frontier
from .process import PartitionConfig, PointSample, cell_stats, simulate
from .report import config_hash, summarize, write_manifest, write_report_csv

USAGE_ERROR = 1
TOLERANCE_FAILURE = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser() -> _Parser:
    """The one parser of this process; parsing leaves no state in it."""
    parser = _Parser(prog="haarfrontier", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="draw a point sample and write it as CSV")
    sim.add_argument("--frontier", required=True, help="e.g. constant:a=1.0 or affine:a=1.0,b=0.5")
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--c", type=float, default=1.0)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", default=".")

    est = sub.add_parser("estimate", help="estimate a frontier from a sample CSV")
    est.add_argument("sample", help="path to a PointSample CSV")
    est.add_argument("--hprime", type=int, required=True)
    est.add_argument("--dn", type=int, required=True)
    est.add_argument("--out", default=".")

    exp = sub.add_parser("experiment", help="run a named experiment preset")
    exp.add_argument("name", help="preset name; see list-presets")
    exp.add_argument("--config", help="flat key=value config file; flags override it")
    # the config-file keys, as text; _apply_config parses flags and file alike
    for key in (*_CONFIG_KEYS, *_ENTRY_KEYS):
        exp.add_argument(f"--{key}", action="append" if key == "x" else "store")
    exp.add_argument("--out", default=".")
    exp.add_argument("--strict", action="store_true", help="exit 2 on any tolerance failure")

    sub.add_parser("list-presets", help="list experiment presets")
    return parser


def _read_config_file(path: str) -> dict:
    values = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"malformed config line {raw!r}")
        key = key.strip()
        if key in values:
            raise ValueError(f"config key {key!r} given twice in {path}")
        values[key] = value.strip()
    return values


def _parse_schedule(text: str) -> tuple:
    entries = []
    for part in text.split(";"):
        fields = part.strip().split(":")
        if len(fields) != 3:
            raise ValueError(f"malformed schedule entry {part!r}; expected n:hprime:dn")
        entries.append(tuple(int(v) for v in fields))
    return tuple(entries)


def _floats(value) -> tuple:
    return tuple(float(v) for v in (value.split(",") if isinstance(value, str) else value))


# config-file key and flag name -> (ExperimentConfig field, parser of its
# text); --x may be given more than once and arrives as a list
_CONFIG_KEYS = {
    "frontier": ("frontier", str),
    "c": ("c", float),
    "schedule": ("schedule", _parse_schedule),
    "replicates": ("replicates", int),
    "seed": ("base_seed", int),
    "x": ("xs", _floats),
    "variant": ("variant", str),
    "workers": ("workers", int),
}
_ENTRY_KEYS = ("n", "hprime", "dn")  # one schedule entry, given whole or not at all


def _parse(key: str, parse, value):
    try:
        return parse(value)
    except ValueError as exc:
        raise ValueError(f"bad value {value!r} for {key}: {exc}") from None


def _apply_config(cfg: ExperimentConfig, values: dict) -> ExperimentConfig:
    unknown = sorted(values.keys() - _CONFIG_KEYS.keys() - set(_ENTRY_KEYS))
    if unknown:
        raise ValueError(f"unknown config keys {unknown}")
    changes = {}
    given = [key for key in _ENTRY_KEYS if key in values]
    if given:
        if len(given) != len(_ENTRY_KEYS):
            raise ValueError("n, hprime and dn must be given together")
        changes["schedule"] = (tuple(_parse(key, int, values[key]) for key in _ENTRY_KEYS),)
    for key, (field, parse) in _CONFIG_KEYS.items():
        if key in values:
            changes[field] = _parse(key, parse, values[key])
    return replace(cfg, **changes)


def _merge_experiment_config(base: ExperimentConfig, file_vals: dict, args) -> ExperimentConfig:
    """Preset, then the config file, then the flags; each layer overrides the last."""
    flags = {key: getattr(args, key) for key in (*_CONFIG_KEYS, *_ENTRY_KEYS)}
    flags = {key: value for key, value in flags.items() if value is not None}
    return _apply_config(_apply_config(base, file_vals), flags)


def _config_payload(name: str, kind: str, cfg: ExperimentConfig) -> dict:
    """The manifest's config echo: every field but workers, which never changes the output."""
    payload = {"preset": name, "experiment": kind, **asdict(cfg)}
    del payload["workers"]
    return payload


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
    if args.name not in PRESETS:
        print(f"unknown preset {args.name!r}; see list-presets", file=sys.stderr)
        return USAGE_ERROR
    preset = PRESETS[args.name]
    file_vals = _read_config_file(args.config) if args.config else {}
    cfg = _merge_experiment_config(preset.config, file_vals, args)
    payload = _config_payload(args.name, preset.kind, cfg)

    start = time.perf_counter()
    rows = run_experiment(preset.kind, cfg)
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
            "wall_time_s": elapsed,
            "version": __version__,
            **summary,
        },
    )
    print(f"wrote {summary['rows']} rows to {csv_path} ({summary['failures']} failures)")
    if args.strict and summary["failures"] > 0:
        return TOLERANCE_FAILURE
    return 0


def _cmd_list_presets() -> int:
    width = max(len(name) for name in PRESETS)
    for name, preset in PRESETS.items():
        cfgs = ", ".join(f"n={n},h'={hp},d={dn}" for n, hp, dn in preset.config.schedule)
        print(f"{name:<{width}}  {preset.note} [{cfgs}]")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "estimate":
            return _cmd_estimate(args)
        if args.command == "experiment":
            return _cmd_experiment(args)
        if args.command == "list-presets":
            return _cmd_list_presets()
    except (ValueError, OSError, MemoryError) as exc:
        print(f"haarfrontier: error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return USAGE_ERROR
    return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
