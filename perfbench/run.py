"""Benchmark of the haarfrontier package: one workload, one process, --workers 1.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload mc-points --seed 1 --seconds 20 --trace 0

The run first runs one round of the workload at the fixed reference seed and
compares its outputs with ``reference.json``. With ``--trace 0`` it then
repeats rounds built from ``--seed`` for ``--seconds`` seconds and at least
MIN_OPS ops, and between rounds it measures set-up several times (a fresh
interpreter importing the package and parsing the workload's frontiers); it
reports the end-to-end metrics, scaled to a reference host speed (see
hostspeed.py). With ``--trace 1`` it runs each round twice
in turn, untraced and then with the package's functions wrapped in spans,
and reports per-layer metrics. The last line of standard output is one JSON
object. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

from hostspeed import REFERENCE_S, HostSpeed
from spans import Installation, Tracer, layer_metrics
from workloads import REFERENCE_SEED, WORKLOADS, compare

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE = BENCH_DIR / "reference.json"
MODULES = ("cli", "estimators", "experiments", "frontiers", "haar", "kernels", "oracles",
           "process", "runner")
SETUP_REPEATS = 15
# op_ms_p90 needs at least ten op times; the estimate workload has one
# op per round, of about two seconds
MIN_OPS = 10
MAX_REPORTED_PROBLEMS = 20

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
}

SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import haarfrontier
from haarfrontier.frontiers import parse_frontier
for label in sys.argv[3:]:
    parse_frontier(label)
elapsed = time.perf_counter() - t0
sys.path.insert(0, sys.argv[2])
from hostspeed import HostSpeed
speed = HostSpeed()
speed.sample()
print(repr(elapsed), repr(speed.kernel_s[0]))
"""


def load_package():
    """Import haarfrontier from this checkout's src/, or exit 2 if it is not there."""
    if not (SRC / "haarfrontier" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}/haarfrontier", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    hf = {m: importlib.import_module(f"haarfrontier.{m}") for m in MODULES}
    if Path(hf["cli"].__file__).resolve().parent != SRC / "haarfrontier":
        print(f"perfbench: imported haarfrontier from {hf['cli'].__file__}", file=sys.stderr)
        sys.exit(2)
    return hf


def setup_seconds(labels):
    """Wall time of one fresh interpreter's import and frontier parsing.

    The interpreter then samples the calibration kernel, and the time is
    scaled to the reference speed by that sample.
    """
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC), str(BENCH_DIR), *labels],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
    )
    elapsed, kernel_s = map(float, proc.stdout.strip().splitlines()[-1].split())
    return elapsed * REFERENCE_S / kernel_s


class Tally:
    """What the rounds of one pass did."""

    def __init__(self):
        self.op_s = []
        self.op_kind = []
        self.op_parts = []  # per op: (seconds, perf_counter time halfway) per step
        self.round_ops = []  # how many ops each round ran
        self.round_s = []
        self.items = 0
        self.attempted = 0
        self.failed = 0
        self.misses = 0
        self.problems = []

    def fail(self, problem):
        self.failed += 1
        if len(self.problems) < MAX_REPORTED_PROBLEMS:
            self.problems.append(problem)

    def absorb(self, other):
        """Add another tally's op and failure counts to this one."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems[: MAX_REPORTED_PROBLEMS - len(self.problems)]


def run_round(ops, tally, installation=None, reference=None, speed=None):
    """Run one round of ops, timing each; inspect the outputs afterwards.

    Only the ops run under ``installation`` (the tracing wrappers), so output
    checks never show up in a trace. With ``reference`` (op key -> recorded
    values) the outputs are also compared with it. With ``speed`` (a
    HostSpeed) the host's speed is sampled between ops. Returns op key ->
    values.
    """
    tracer = installation.tracer if installation is not None else None
    results = []
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        with installation if installation is not None else contextlib.nullcontext():
            for op in ops:
                if tracer is not None:
                    tracer.op = tally.attempted + len(results)
                    span = tracer.open("op")
                outs, parts, error = [], [], None
                for step in op.steps:
                    start = time.perf_counter()
                    try:
                        outs.append(step())
                    except Exception:
                        error = traceback.format_exc()
                    elapsed = time.perf_counter() - start
                    parts.append((elapsed, start + 0.5 * elapsed))
                    if speed is not None:
                        speed.maybe_sample()
                    if error is not None:
                        break
                if tracer is not None:
                    tracer.close(span)
                out = outs[0] if op.single and error is None else outs
                results.append((op, out, error, sum(s for s, _ in parts), parts))
    values = {}
    for op, out, error, elapsed, parts in results:
        tally.attempted += 1
        tally.op_s.append(elapsed)
        tally.op_kind.append(op.kind)
        tally.op_parts.append(parts)
        if error is not None:
            tally.fail(f"{op.key}: {error}")
            continue
        try:
            outcome = op.inspect(out)
        except Exception:
            tally.fail(f"{op.key}: inspecting the output raised {traceback.format_exc()}")
            continue
        problems = list(outcome.problems)
        if reference is not None:
            if op.key not in reference:
                problems.append(f"{op.key}: no recorded reference")
            else:
                problems += compare(reference[op.key], outcome.values, op.key)[:3]
        if problems:
            tally.fail("; ".join(problems))
        tally.items += outcome.items
        tally.misses += outcome.misses
        values[op.key] = outcome.values
    tally.round_s.append(sum(r[3] for r in results))
    tally.round_ops.append(len(results))
    return values


def timed_pass(workload, seed, tally, speed, seconds):
    """Run rounds 0, 1, ... for ``seconds`` and at least MIN_OPS ops.

    Between rounds it also times SETUP_REPEATS set-ups, spread evenly over
    the pass. Set-up time does not count towards ``seconds``. The host's
    speed is sampled into ``speed`` throughout. Returns the set-up times,
    scaled to the reference speed.
    """
    setup_times = []
    busy = 0.0
    count = 0
    speed.sample()
    while busy < seconds or len(tally.op_s) < MIN_OPS:
        start = time.perf_counter()
        run_round(workload.build(seed, count), tally, speed=speed)
        busy += time.perf_counter() - start
        count += 1
        while len(setup_times) < SETUP_REPEATS * min(busy / seconds, 1.0):
            setup_times.append(setup_seconds(workload.frontiers))
    speed.sample()
    return setup_times


def cache_state(hf):
    return {
        "process.geometry": hf["process"]._cell_geometry.cache_info(),
        "kernels.block_moments": hf["kernels"].block_moments.cache_info(),
        "kernels.sup_grid": hf["kernels"].sup_grid.cache_info(),
    }


def kind_median(op_ms, kinds):
    """Geometric mean over ops of the median time of the op's kind.

    A workload mixes op kinds whose times differ by up to 100 times, and
    half of its ops can be of one kind, so the median of the pooled op
    times can sit in the gap between two kinds and jump across it from run
    to run. Taken per kind, it does not.
    """
    by_kind = defaultdict(list)
    for ms, kind in zip(op_ms, kinds):
        by_kind[kind].append(ms)
    log_median = {kind: math.log(statistics.median(v)) for kind, v in by_kind.items()}
    return math.exp(statistics.fmean(log_median[kind] for kind in kinds))


def end_to_end(tally, setup_times, speed):
    """The end-to-end metrics, every time in it scaled to the reference speed."""
    op_s = [sum(speed.scale(s, at) for s, at in parts) for parts in tally.op_parts]
    op_ms = [1e3 * s for s in op_s]
    round_s, first = [], 0
    for n in tally.round_ops:
        round_s.append(sum(op_s[first:first + n]))
        first += n
    values = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.fmean(round_s),
        "items_per_s": tally.items / sum(round_s),
        "op_ms_p50": kind_median(op_ms, tally.op_kind),
        "op_ms_p90": statistics.quantiles(op_ms, n=10)[-1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def traced_layers(hf, workload, seed, seconds, tally):
    """Per-layer metrics from rounds run twice in turn, untraced then traced.

    Both runs of a round get freshly built inputs, so no cache carries over,
    and pairing them keeps drift in machine speed out of the overhead.
    """
    installation = Installation(hf, Tracer())
    plain, traced = Tally(), Tally()
    misses, hits = Counter(), Counter()
    start = time.perf_counter()
    rounds = 0
    while time.perf_counter() - start < seconds:
        run_round(workload.build(seed, rounds), plain)
        before = cache_state(hf)
        run_round(workload.build(seed, rounds), traced, installation)
        for name, info in cache_state(hf).items():
            misses[name] += info.misses - before[name].misses
            hits[name] += info.hits - before[name].hits
        rounds += 1
    tally.absorb(plain)
    tally.absorb(traced)
    if not installation.restored():
        tally.fail("tracing wrappers were left in place after the traced rounds")
    overhead = sum(traced.round_s) / sum(plain.round_s) - 1.0
    return layer_metrics(installation.tracer, rounds, misses, hits, traced.misses, overhead)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    hf = load_package()
    work_dir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](hf, work_dir)
        reference = json.loads(REFERENCE.read_text())[workload.name]
        tally = Tally()
        # the reference round also warms the process up before timing starts
        run_round(workload.build(REFERENCE_SEED, 0), tally, reference=reference)
        if args.trace:
            metrics = traced_layers(hf, workload, args.seed, args.seconds, tally)
        else:
            timed, speed = Tally(), HostSpeed()
            setup_times = timed_pass(workload, args.seed, timed, speed, seconds=args.seconds)
            tally.absorb(timed)
            metrics = end_to_end(timed, setup_times, speed)
            print(f"{workload.name}: {len(timed.op_s)} ops of {len(set(timed.op_kind))} kinds "
                  f"in {len(timed.round_s)} rounds, "
                  f"unscaled wall_s {statistics.fmean(timed.round_s):.6g} s; calibration "
                  f"kernel {1e3 * statistics.median(speed.kernel_s):.4g} ms median of "
                  f"{len(speed.kernel_s)} samples, reference {1e3 * REFERENCE_S:.4g} ms")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_dir.parent.rmdir()

    for problem in tally.problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{name:48s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
