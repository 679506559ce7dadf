"""Machine description, full-size preset wall times and single-layer costs.

    python3 perfbench/baseline.py

Reproduces the baseline table of ROADMAP.md on the current machine: every
experiment preset at its own replicate count with --workers 1 (wall time
from the run manifest), and the cost of single calls into each layer. Each
figure is the median of at least REPEATS (3) runs in this one process; cheap
layer calls repeat until they fill half a second. Prints a table
and, as the last line, a JSON object. Takes about two minutes.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from run import ROOT, load_package

REPEATS = 3


def machine():
    """nproc, CPU model, cache sizes, Python and numpy versions."""
    info = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_model": platform.processor() or "unknown",
        "caches": {},
    }
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        with contextlib.suppress(OSError):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
            info["caches"][f"L{level} {kind}"] = size
    return info


def median_ms(fn, budget_s=0.5):
    """Median call time; cheap calls repeat until they fill ``budget_s``."""
    times = []
    while len(times) < REPEATS or (sum(times) < budget_s and len(times) < 1000):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def preset_walls(hf, work):
    cli, presets = hf["cli"], hf["experiments"].PRESETS
    walls = {}
    for name in presets:
        runs = []
        for _ in range(REPEATS):
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                rc = cli.main(["experiment", name, "--workers", "1", "--out", str(work)])
            if rc != 0:
                raise RuntimeError(f"preset {name} exited {rc}")
            manifest = json.loads((work / f"{name}_manifest.json").read_text())
            runs.append(manifest["wall_time_s"])
        walls[name] = statistics.median(runs)
    return walls


def layer_costs(hf, work):
    """Single-call costs in ms, named after the ROADMAP's layer list."""
    frontiers, process, estimators, oracles = (
        hf["frontiers"], hf["process"], hf["estimators"], hf["oracles"]
    )
    parse, simulate, cell_stats = frontiers.parse_frontier, process.simulate, process.cell_stats
    PartitionConfig = process.PartitionConfig
    const, affine = parse("constant:a=1.0"), parse("affine:a=1.0,b=0.5")
    sine = "sine:a=1.0,b=0.25"
    costs = {}
    for n in (4000, 50_000, 1_000_000):
        costs[f"simulate n={n}"] = median_ms(lambda: simulate(const, n, 1.0, 7))
    cfg = PartitionConfig(n=50_000, h_prime=7, d_n=1)
    sample = simulate(const, cfg.n, 1.0, 7)
    unsorted = np.random.default_rng(7).random(len(sample))
    costs["argsort n=5e4"] = median_ms(lambda: np.argsort(unsorted))
    costs["cell_stats n=5e4 k=128"] = median_ms(lambda: cell_stats(sample, cfg, const))
    stats = cell_stats(sample, cfg, const)
    costs["haar_ev_estimate k=128"] = median_ms(
        lambda: estimators.haar_ev_estimate(stats, cfg))
    costs["corrected_estimate k=128"] = median_ms(
        lambda: estimators.corrected_estimate(stats, cfg))
    for hp, dn in ((4, 4), (10, 4), (12, 1)):
        pc = PartitionConfig(n=50_000, h_prime=hp, d_n=dn)
        st = cell_stats(sample, pc, const)
        costs[f"coefficient_estimates h'={hp} d={dn}"] = median_ms(
            lambda: estimators.coefficient_estimates(st, pc))
    gumbel = hf["kernels"].ReplicateTask("gumbel", "constant:a=1.0", 50_000, 7, 1, 1.0)
    costs["gumbel replicate n=5e4 k=128"] = median_ms(
        lambda: hf["runner"].run_task(gumbel, 1, 3))
    sup = hf["kernels"].ReplicateTask("sup", "constant:a=1.0", 100_000, 4, 8, 1.0)
    costs["sup replicate n=1e5"] = median_ms(lambda: hf["runner"].run_task(sup, 1, 3))
    gauss = hf["kernels"].ReplicateTask("fhat_zn_at", "constant:a=1.0", 4096, 4, 64, 4.0, (0.3,))
    costs["gaussian replicate n=4096 c=4 k=1024"] = median_ms(
        lambda: hf["runner"].run_task(gauss, 1, 3))
    costs["simulate n=4096 c=4"] = median_ms(lambda: simulate(const, 4096, 4.0, 7))
    small = PartitionConfig(n=64, h_prime=16, d_n=1)
    tiny = simulate(parse(sine), 64, 1.0, 7)
    costs["sine geometry k=65536 (cold)"] = median_ms(
        lambda: cell_stats(tiny, small, parse(sine)))
    k16 = PartitionConfig(n=10_000, h_prime=4, d_n=1)
    costs["cell_max_mean affine"] = median_ms(
        lambda: oracles.cell_max_mean(affine, k16, 3, 1.0))
    costs["cell_max_mean sine"] = median_ms(
        lambda: oracles.cell_max_mean(parse(sine), k16, 3, 1.0))
    draws = np.random.default_rng(7).gumbel(size=5000)
    costs["ks_statistic 5000 gumbel"] = median_ms(
        lambda: oracles.ks_statistic(draws, oracles.limit_law("gumbel")))
    big = simulate(parse(sine), 1_000_000, 1.0, 7)
    path = work / "sample.csv"
    costs["to_csv n=1e6"] = median_ms(lambda: big.to_csv(path))
    costs["from_csv n=1e6"] = median_ms(lambda: process.PointSample.from_csv(path))
    return costs


def main():
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    hf = load_package()
    work = ROOT / ".perfbench_work" / f"baseline-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        result = {
            "machine": machine(),
            "repeats": REPEATS,
            "preset_wall_s": preset_walls(hf, work),
            "layer_ms": layer_costs(hf, work),
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    for name, wall in result["preset_wall_s"].items():
        print(f"preset {name:34s} {wall:10.3f} s")
    for name, ms in result["layer_ms"].items():
        print(f"layer  {name:34s} {ms:10.3f} ms")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
