"""The four benchmark workloads: their inputs, ops and output checks.

A workload is a list of ops that is rebuilt for every round from the
workload seed and the round index, so the same seed gives the same inputs.
An op is one top-level call into the package: an ``experiment`` preset run
(mc-points, mc-cells), one oracle call (oracle), or one simulate -> estimate
pass through the CLI (estimate). Each op carries an ``inspect`` function that
runs outside the timed region and returns what the op produced:

* ``values``: what is compared with the recorded reference (only for the
  fixed reference seed);
* ``problems``: broken invariants that hold for any seed;
* ``misses``: report rows that missed their statistical tolerance, which at
  reduced replicate counts is expected and is not a failure;
* ``items``: the work the op completed (replicates, oracle calls or points).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

# Base seed of the presets; the reference round always uses it, whatever
# --seed says, so its outputs can be compared with reference.json.
REFERENCE_SEED = 20260808

# Tolerances of compare(): loose enough for reformulated arithmetic, tight
# enough that any change of method shows.
REL_TOL = 1e-9
ABS_TOL = 1e-12

REPORT_HEADER = [
    "experiment", "frontier", "n", "c", "h_n", "d_n", "k_n", "x",
    "statistic", "estimate", "std_err", "comparator", "tolerance", "pass",
]


class Op:
    """One top-level call, or a tuple of calls that together make one op.

    For a tuple the output is the list of the calls' results; the host's
    speed may be sampled between the calls, outside the op's time. The op's
    kind is its key without a trailing cell index.
    """

    __slots__ = ("key", "kind", "steps", "single", "inspect")

    def __init__(self, key, run, inspect):
        self.key = key
        self.kind = key.rstrip("0123456789").rstrip(".")
        self.single = callable(run)
        self.steps = (run,) if self.single else tuple(run)
        self.inspect = inspect


class Outcome:
    __slots__ = ("values", "problems", "misses", "items")

    def __init__(self, values, problems, items, misses=0):
        self.values = values
        self.problems = problems
        self.items = items
        self.misses = misses


def _op_seed(seed, round_index, salt):
    """A 48-bit seed for one op, derived from the workload seed."""
    rng = np.random.default_rng([seed, round_index, salt])
    return int(rng.integers(0, 2**48))


class Workload:
    name = ""
    why = ""
    frontiers = ()

    def __init__(self, hf, work_dir: Path):
        self.hf = hf
        self.work_dir = work_dir

    def build(self, seed, round_index):
        raise NotImplementedError

    def _cli(self, *args):
        return self.hf["cli"].main([str(a) for a in args])


class ExperimentWorkload(Workload):
    """Experiment presets through ``cli.main`` at reduced replicate counts."""

    presets = ()  # (preset name, replicates per schedule entry)

    def build(self, seed, round_index):
        return [
            self._preset_op(name, reps, _op_seed(seed, round_index, k))
            for k, (name, reps) in enumerate(self.presets)
        ]

    def _preset_op(self, name, reps, op_seed):
        out = self.work_dir / self.name
        entries = len(self.hf["experiments"].PRESETS[name].config.schedule)
        argv = ("experiment", name, "--replicates", reps, "--seed", op_seed,
                "--workers", 1, "--out", out)

        def inspect(rc):
            if rc != 0:
                return Outcome(None, [f"exit code {rc}"], 0)
            rows = _read_report(out / f"{name}.csv")
            problems, misses = _report_problems(rows)
            return Outcome(rows, problems, reps * entries, misses)

        return Op(name, lambda: self._cli(*argv), inspect)


def _read_report(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _report_problems(rows):
    """Invariants of a report CSV that hold at any seed and replicate count."""
    if not rows or rows[0] != REPORT_HEADER:
        return ["report header differs from the documented schema"], 0
    problems, misses = [], 0
    for row in rows[1:]:
        stat, estimate = row[8], float(row[9])
        if not math.isfinite(estimate):
            problems.append(f"{stat}: estimate {row[9]} is not finite")
        if stat.startswith("ks_") and not 0.0 <= estimate <= 1.0:
            problems.append(f"{stat}: KS statistic {estimate} outside [0, 1]")
        if stat.endswith("_nonneg") and estimate < 0.0:
            problems.append(f"{stat}: {estimate} < 0")
        if row[13] not in ("true", "false"):
            problems.append(f"{stat}: pass column {row[13]!r}")
        misses += row[13] == "false"
    return problems, misses


class McPoints(ExperimentWorkload):
    name = "mc-points"
    why = "dense cells (>= 100 points each): point-cloud simulation dominates each replicate"
    presets = (("gumbel", 10), ("supnorm", 5), ("mise", 10))
    frontiers = ("constant:a=1.0", "affine:a=1.0,b=0.5")


class McCells(ExperimentWorkload):
    name = "mc-cells"
    why = "many sparse cells (<= 16 points each): binning and per-replicate overhead show"
    presets = (("weibull", 100), ("gaussian", 20), ("variance", 50))
    frontiers = ("constant:a=1.0",)


class Oracle(Workload):
    """Exact cell-maximum law, limit laws, KS, projection and cold cell geometry."""

    name = "oracle"
    why = "no simulation: quadrature oracles, KS and cold sine cell geometry"
    frontiers = ("constant:a=1.0", "affine:a=1.0,b=0.5", "sine:a=1.0,b=0.25")
    n, h_prime, c = 10_000, 4, 1.0
    cdf_points = 256
    ks_draws = 5000
    projection_h_n = 1023
    geometry_h_prime = 16

    def build(self, seed, round_index):
        process = self.hf["process"]
        parse = self.hf["frontiers"].parse_frontier
        rng = np.random.default_rng([seed, round_index, 99])
        jitter = [float(v) for v in rng.random(3)]
        labels = (
            f"constant:a={1.0 + 0.02 * jitter[0]!r}",
            f"affine:a={1.0 + 0.02 * jitter[1]!r},b=0.5",
            f"sine:a={1.0 + 0.02 * jitter[2]!r},b=0.25",
        )
        cfg = process.PartitionConfig(n=self.n, h_prime=self.h_prime, d_n=1)
        ops = []
        for label in labels:
            f = parse(label)
            family = label.partition(":")[0]
            tops = [f.range_on(*cfg.cell_bounds(r))[1] for r in range(1, cfg.k_n + 1)]
            for r, top in enumerate(tops, start=1):
                ops.append(self._moment_op("cell_max_mean", f"{family}.mean.{r}",
                                           f, cfg, r, top))
                ops.append(self._moment_op("cell_max_variance", f"{family}.var.{r}",
                                           f, cfg, r, top * top))
            r = int(rng.integers(1, cfg.k_n + 1))
            layer = cfg.k_n / (cfg.n * self.c)
            grid = tops[r - 1] - layer * np.linspace(8.0, 0.0, self.cdf_points)
            ops.append(self._cdf_op(f"{family}.cdf", f, cfg, r, grid))
        draws = {
            "weibull_evd": np.log(rng.random(self.ks_draws)),
            "gumbel": rng.gumbel(size=self.ks_draws),
            "std_normal": rng.standard_normal(self.ks_draws),
        }
        for law, sample in draws.items():
            ops.append(self._ks_op(law, sample))
        ops.append(self._projection_op(parse(labels[2])))
        ops.append(self._geometry_op(parse(labels[2]), rng))
        return ops

    def _moment_op(self, name, key, f, cfg, r, upper):
        oracles = self.hf["oracles"]

        def inspect(v):
            ok = math.isfinite(v) and 0.0 <= v <= upper * (1.0 + 1e-12)
            return Outcome(v, [] if ok else [f"{key}: {v} outside [0, {upper}]"], 1)

        return Op(key, lambda: getattr(oracles, name)(f, cfg, r, self.c), inspect)

    def _cdf_op(self, key, f, cfg, r, grid):
        oracles = self.hf["oracles"]

        def inspect(values):
            problems = []
            if not np.all((values >= 0.0) & (values <= 1.0)):
                problems.append(f"{key}: CDF outside [0, 1]")
            if np.any(np.diff(values) < 0.0):
                problems.append(f"{key}: CDF decreases")
            return Outcome(values[::16].tolist(), problems, 1)

        return Op(key, lambda: oracles.cell_cdf(f, cfg, r, self.c, grid), inspect)

    def _ks_op(self, law, sample):
        oracles = self.hf["oracles"]
        limit = oracles.limit_law(law)

        def inspect(d):
            ok = 0.0 <= d <= 1.0
            return Outcome(d, [] if ok else [f"ks.{law}: {d} outside [0, 1]"], 1)

        return Op(f"ks.{law}", lambda: oracles.ks_statistic(sample, limit), inspect)

    def _projection_op(self, f):
        haar = self.hf["haar"]
        mass = f.integral(0.0, 1.0)

        def inspect(step):
            values = step.values
            problems = []
            if len(values) != self.projection_h_n + 1:
                problems.append("projection: wrong number of blocks")
            elif not math.isclose(float(values.mean()), mass, rel_tol=1e-9):
                problems.append("projection: block means do not integrate to the frontier's mass")
            return Outcome(values[::64].tolist() + [float(values.sum())], problems, 1)

        return Op("projection", lambda: haar.truncated_expansion(f, self.projection_h_n), inspect)

    def _geometry_op(self, f, rng):
        process = self.hf["process"]
        n = 64
        xs = np.sort(rng.random(n))
        ys = rng.random(n) * f(xs)
        sample = process.PointSample(xs=xs, ys=ys, n=n, c=self.c, seed=0, frontier_label=f.label)
        cfg = process.PartitionConfig(n=n, h_prime=self.geometry_h_prime, d_n=1)
        mass = f.integral(0.0, 1.0)

        def inspect(stats):
            problems = []
            if int(stats.counts.sum()) != n:
                problems.append("geometry: cell counts do not add up to the sample size")
            if not math.isclose(float(stats.cell_areas.sum()), mass, rel_tol=1e-9):
                problems.append("geometry: cell areas do not add up to the frontier's mass")
            if np.any(stats.x_star > stats.f_max):
                problems.append("geometry: a cell maximum exceeds f_max")
            values = [stats.cell_areas[::4096].tolist(), stats.f_max[::4096].tolist()]
            return Outcome(values, problems, 1)

        return Op("geometry", lambda: process.cell_stats(sample, cfg, f), inspect)


class Estimate(Workload):
    """The real-data path: CLI simulate writes a sample CSV, CLI estimate reads it."""

    name = "estimate"
    why = "one large sine sample through CSV write/read and the Haar coefficients up to h'=12"
    frontiers = ("sine:a=1.0,b=0.25",)
    n = 100_000
    configs = ((4, 4), (10, 4), (12, 1))

    def build(self, seed, round_index):
        return [self._pass_op(_op_seed(seed, round_index, 0))]

    def _pass_op(self, op_seed):
        hf = self.hf
        out = self.work_dir / self.name
        sample_path = out / "sample.csv"
        f_max = hf["frontiers"].parse_frontier(self.frontiers[0]).M

        steps = [lambda: self._cli("simulate", "--frontier", self.frontiers[0], "--n", self.n,
                                   "--c", 1.0, "--seed", op_seed, "--out", out)]
        for hp, dn in self.configs:
            steps.append(lambda hp=hp, dn=dn: self._cli(
                "estimate", sample_path, "--hprime", hp, "--dn", dn,
                "--out", out / f"h{hp}_d{dn}"))

        def inspect(codes):
            if any(codes):
                return Outcome(None, [f"exit codes {codes}"], 0)
            raw = sample_path.read_bytes()
            values = {"sample_sha256": hashlib.sha256(raw).hexdigest()}
            problems = []
            for hp, dn in self.configs:
                key = f"h{hp}_d{dn}"
                text = (out / key / "estimate.json").read_text()
                payload = json.loads(text)
                problems += _estimate_problems(hf, key, text, payload, hp, dn, f_max)
                stride = max(1, 2**hp // 64)
                values[key] = {
                    "z_n": payload["z_n"],
                    "f_hat_values": payload["f_hat_values"][::stride],
                    "coefficients": payload["coefficients"][::stride],
                }
            return Outcome(values, problems, raw.count(b"\n") - 2)

        return Op("pass", tuple(steps), inspect)


def _estimate_problems(hf, key, text, payload, hp, dn, f_max):
    """Invariants of an estimate JSON that hold at any seed."""
    problems = []
    blocks = 2**hp
    fhat = np.array(payload["f_hat_values"])
    coeffs = np.array(payload["coefficients"])
    if (payload["h_n"], payload["k_n"]) != (blocks - 1, blocks * dn):
        problems.append(f"{key}: wrong h_n or k_n")
    if len(fhat) != blocks or len(coeffs) != blocks:
        return problems + [f"{key}: wrong number of blocks or coefficients"]
    if not (math.isfinite(payload["z_n"]) and payload["z_n"] >= 0.0):
        problems.append(f"{key}: z_n = {payload['z_n']} is not >= 0")
    if np.any(fhat < 0.0) or np.any(fhat > f_max):
        problems.append(f"{key}: a block estimate lies outside [0, max f]")
    # the first h_n + 1 Haar functions are an orthonormal basis of the block
    # step functions: c_0 is the mean of f_hat and Parseval holds exactly
    if not math.isclose(coeffs[0], fhat.mean(), rel_tol=1e-9):
        problems.append(f"{key}: c_0 differs from the mean of f_hat")
    if not math.isclose(float(coeffs @ coeffs), float(fhat @ fhat) / blocks, rel_tol=1e-9):
        problems.append(f"{key}: Haar coefficients break Parseval against f_hat")
    if hf["estimators"].EstimateBundle.from_json(text).to_json() + "\n" != text:
        problems.append(f"{key}: estimate JSON does not round-trip")
    return problems


WORKLOADS = {w.name: w for w in (McPoints, McCells, Oracle, Estimate)}


def compare(expected, actual, path=""):
    """Differences between recorded and produced values.

    Numbers (and strings that parse as numbers, as in report CSVs) compare
    with a relative tolerance, so reformulated arithmetic that changes only
    the last bits still matches; other strings compare exactly.
    """
    if isinstance(expected, dict) and isinstance(actual, dict):
        if expected.keys() != actual.keys():
            return [f"{path}: keys {sorted(actual)} != {sorted(expected)}"]
        return [d for k in expected for d in compare(expected[k], actual[k], f"{path}/{k}")]
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(actual)} != {len(expected)}"]
        return [d for i, (e, a) in enumerate(zip(expected, actual))
                for d in compare(e, a, f"{path}[{i}]")]
    e, a = _number(expected), _number(actual)
    if e is not None and a is not None:
        if e == a or math.isclose(e, a, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            return []
        return [f"{path}: {actual!r} != {expected!r}"]
    return [] if expected == actual else [f"{path}: {actual!r} != {expected!r}"]


def _number(value):
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            return None
    return None
