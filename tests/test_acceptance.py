"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines. Every
tolerance is pinned here, not computed on the fly, and each Monte Carlo
criterion runs under a fixed seed so the suite is deterministic.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from haarfrontier.estimators import coefficient_estimates, haar_ev_estimate
from haarfrontier.experiments import ExperimentConfig, run_experiment
from haarfrontier.frontiers import parse_frontier
from haarfrontier.haar import haar_eval
from haarfrontier.kernels import ReplicateTask
from haarfrontier.oracles import cell_cdf, ks_statistic
from haarfrontier.process import PartitionConfig, cell_stats, simulate
from haarfrontier.runner import run_task

from crosschecks import dirichlet_kernel, dirichlet_kernel_sum, haar_step, step_inner

SRC = str(Path(__file__).resolve().parents[1] / "src")


def report(num: int, name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} {name}: {verdict} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_haar_algebra() -> None:
    # orthonormality by exact piecewise integration, i, j <= 63
    steps = [haar_step(i) for i in range(64)]
    ortho_err = max(
        abs(step_inner(steps[i], steps[j]) - (1.0 if i == j else 0.0))
        for i in range(64)
        for j in range(i, 64)
    )
    ok_ortho = ortho_err <= 1e-12

    # closed-form vs summed-form kernel on 1000 random pairs
    rng = np.random.Generator(np.random.Philox(key=101))
    kernel_err = 0.0
    for h_plus_1 in (2, 4, 8, 16):
        for _ in range(250):
            x, y = rng.random(2)
            kernel_err = max(
                kernel_err,
                abs(dirichlet_kernel(h_plus_1 - 1, x, y) - dirichlet_kernel_sum(h_plus_1 - 1, x, y)),
            )
    ok_kernel = kernel_err <= 1e-12

    # estimator reconstruction from its coefficient estimates
    f = parse_frontier("affine:a=1.0,b=0.5")
    cfg = PartitionConfig(n=500, h_prime=3, d_n=4)
    stats = cell_stats(simulate(f, 500, 1.0, 102), cfg, f)
    est = haar_ev_estimate(stats, cfg)
    coeffs = coefficient_estimates(stats, cfg)
    recon_err = 0.0
    for x in rng.random(1000):
        series = sum(coeffs[i] * haar_eval(i, x) for i in range(len(coeffs)))
        recon_err = max(recon_err, abs(series - est(x)))
    ok_recon = recon_err <= 1e-12

    report(
        1,
        "haar algebra",
        ok_ortho and ok_kernel and ok_recon,
        f"orthonormality {ortho_err:.2e}, kernel {kernel_err:.2e}, "
        f"reconstruction {recon_err:.2e}, all <= 1e-12",
    )


def test_criterion_02_exact_cell_max_law() -> None:
    # flat frontier, n=200, c=1, k_n=16, R=1e4, one fixed cell
    f = parse_frontier("constant:a=1.0")
    pc = PartitionConfig(n=200, h_prime=4, d_n=1)
    x_probe = 0.4  # cell 7 of 16
    # at d_n = 1 the estimate at x is the maximum of the cell holding x
    task = ReplicateTask("fhat_zn_at", f.label, 200, 4, 1, 1.0, (x_probe,))
    maxima = run_task(task, 10_000, base_seed=202, workers=1)[:, 0]
    r = 7
    ks = ks_statistic(maxima, lambda u: cell_cdf(f, pc, r, 1.0, u))
    band = 0.0163  # 1% Kolmogorov band 1.63/sqrt(R)
    report(2, "exact cell-max law", ks < band, f"KS={ks:.5f} < {band}")


def test_criterion_03_local_bias() -> None:
    cfg = ExperimentConfig(
        frontier="affine:a=1.0,b=0.5",
        schedule=((10_000, 4, 4),),  # k_n = 64, 16 blocks
        c=1.0,
        replicates=2000,
        base_seed=303,
        xs=(0.3, 0.7),
    )
    rows = run_experiment("local_bias", cfg)
    ok = all(r.passed for r in rows)
    detail = "; ".join(
        f"x={r.x}: |{r.estimate:.2e}| <= 1/64 + 3SE = {r.tolerance:.2e}" for r in rows
    )
    report(3, "local bias", ok, detail)


def test_criterion_04_local_variance() -> None:
    cfg = ExperimentConfig(
        frontier="constant:a=1.0",
        schedule=((4096, 4, 16),),  # k_n = 256, h_n = 15
        c=1.0,
        replicates=5000,
        base_seed=404,
        xs=(0.5,),
    )
    row = run_experiment("variance", cfg)[0]
    ok = 0.8 <= row.estimate <= 1.2
    report(4, "local variance", ok, f"ratio={row.estimate:.4f} in [0.8, 1.2]")


def test_criterion_05_mise_decomposition() -> None:
    cfg = ExperimentConfig(
        frontier="affine:a=1.0,b=0.5",
        schedule=((10_000, 3, 8), (10_000, 4, 4)),  # k_n = 64, blocks 8 -> 16
        c=1.0,
        replicates=500,
        base_seed=505,
    )
    rows = run_experiment("mise", cfg)
    totals = [r for r in rows if r.statistic == "mise_total"]
    ok_split = all(r.passed for r in totals)
    resid = max(abs(r.estimate - r.comparator) for r in totals)
    ratio = next(r for r in rows if r.statistic == "mise_systematic_ratio")
    ok_ratio = 3.5 <= ratio.estimate <= 4.5
    report(
        5,
        "mise decomposition",
        ok_split and ok_ratio,
        f"split residual {resid:.2e} < 3SE; doubling ratio {ratio.estimate:.3f} in [3.5, 4.5]",
    )


def test_criterion_06_weibull_limit() -> None:
    # d_n = 1 requires k_n = 2^h'; 512 is the admissible point closest to the
    # nominal 500
    cfg = ExperimentConfig(
        frontier="constant:a=1.0",
        schedule=((2000, 9, 1),),
        c=1.0,
        replicates=5000,
        base_seed=606,
        xs=(0.3,),
    )
    rows = run_experiment("weibull", cfg)
    ks = next(r for r in rows if r.statistic == "ks_weibull")
    agree = next(r for r in rows if r.statistic == "form_agreement")
    ok = ks.estimate < 0.03 and agree.passed
    report(
        6,
        "weibull limit",
        ok,
        f"KS={ks.estimate:.4f} < 0.03; |T(fhat) - T(max)| = {agree.estimate:.1e}",
    )


def test_criterion_07_gumbel_limit() -> None:
    cfg = ExperimentConfig(
        frontier="constant:a=1.0",
        schedule=((50_000, 7, 1),),  # k_n = 128
        c=1.0,
        replicates=5000,
        base_seed=707,
        # replicate seeds do not depend on the pool size, so the rows are those of workers=1
        workers=os.cpu_count() or 1,
    )
    rows = run_experiment("gumbel", cfg)
    ks = next(r for r in rows if r.statistic == "ks_gumbel")
    nonneg = next(r for r in rows if r.statistic == "gumbel_nonneg")
    ok = ks.estimate < 0.03 and nonneg.passed
    report(7, "gumbel limit", ok, f"KS={ks.estimate:.4f} < 0.03; min stat {nonneg.estimate:.3f} >= 0")


def test_criterion_08_gaussian_limit() -> None:
    # the criterion leaves c free; c=4 makes nc/k_n = 16, satisfying the
    # k_n = o(n/ln n) regime the statement presumes (at c=1 the empty-cell
    # bias a*exp(-nc/k_n) inflates to 0.59 sigma and no Gaussian fit exists)
    cfg = ExperimentConfig(
        frontier="constant:a=1.0",
        schedule=((4096, 4, 64),),  # k_n = 1024, h_n + 1 = 16
        c=4.0,
        replicates=5000,
        base_seed=808,
        xs=(0.3,),
        variant="z_corrected",
    )
    rows = run_experiment("gaussian", cfg)
    ks = next(r for r in rows if r.statistic == "ks_gaussian_z_corrected")
    raw = next(r for r in rows if r.statistic == "uncorrected_mean")
    ok = ks.estimate < 0.05 and raw.estimate < -2.0
    report(
        8,
        "gaussian limit",
        ok,
        f"KS={ks.estimate:.4f} < 0.05; uncorrected mean {raw.estimate:.2f} < -2 "
        f"(diverges like -sqrt(d_n) = -8)",
    )


def test_criterion_09_minima_mean_moments() -> None:
    cfg = ExperimentConfig(
        frontier="constant:a=1.0",
        schedule=((10_000, 6, 1),),  # k_n = 64
        c=1.0,
        replicates=2000,
        base_seed=909,
    )
    rows = run_experiment("zn_moments", cfg)
    mean_row = next(r for r in rows if r.statistic == "zn_mean")
    var_row = next(r for r in rows if r.statistic == "zn_var_ratio")
    ok = mean_row.passed and 0.8 <= var_row.estimate <= 1.2
    report(
        9,
        "minima-mean moments",
        ok,
        f"|mean - 6.4e-3| = {abs(mean_row.estimate - mean_row.comparator):.2e} "
        f"<= 3SE = {mean_row.tolerance:.2e}; var ratio {var_row.estimate:.3f} in [0.8, 1.2]",
    )


def test_criterion_10_reproducibility(tmp_path) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")

    def run(workers: int, out: Path) -> bytes:
        proc = subprocess.run(
            [
                sys.executable, "-m", "haarfrontier", "experiment", "zn-moments",
                "--replicates", "300", "--seed", "1010",
                "--workers", str(workers), "--out", str(out),
            ],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        return (out / "zn-moments.csv").read_bytes()

    bytes1 = run(1, tmp_path / "w1")
    bytes8 = run(8, tmp_path / "w8")
    ok = bytes1 == bytes8
    report(10, "reproducibility", ok, f"workers 1 vs 8: {len(bytes1)} bytes, byte-identical={ok}")
