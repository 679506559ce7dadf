import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from haarfrontier.cli import _build_parser, main
from haarfrontier.estimators import EstimateBundle
from haarfrontier.experiments import PRESETS
from haarfrontier.process import PointSample
from haarfrontier.report import ReportRow, write_report_csv

from crosschecks import read_report_csv

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*args, check=True):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "haarfrontier", *args],
        capture_output=True,
        text=True,
        env=env,
    )
    if check and proc.returncode != 0:
        raise AssertionError(f"cli failed ({proc.returncode}): {proc.stderr}")
    return proc


def test_simulate_then_estimate(tmp_path) -> None:
    out = tmp_path / "sim"
    run_cli(
        "simulate", "--frontier", "affine:a=1.0,b=0.5", "--n", "400",
        "--c", "1.0", "--seed", "11", "--out", str(out),
    )
    sample_path = out / "sample.csv"
    sample = PointSample.from_csv(sample_path)
    assert sample.n == 400 and sample.seed == 11
    assert sample.frontier_label == "affine:a=1.0,b=0.5"

    est_out = tmp_path / "est"
    run_cli("estimate", str(sample_path), "--hprime", "3", "--dn", "2", "--out", str(est_out))
    bundle = EstimateBundle.from_json((est_out / "estimate.json").read_text())
    assert bundle.cfg.k_n == 16
    assert len(bundle.f_hat.values) == 8
    assert bundle.z_n >= 0.0


def test_experiment_with_config_file_and_overrides(tmp_path) -> None:
    config = tmp_path / "run.cfg"
    config.write_text(
        "# desk-scale smoke run\n"
        "replicates = 80\n"
        "seed = 99\n"
        "n = 1000\n"
        "hprime = 4\n"
        "dn = 1\n"
    )
    out = tmp_path / "reports"
    proc = run_cli(
        "experiment", "zn-moments", "--config", str(config),
        "--replicates", "120", "--out", str(out),
    )
    assert "120" not in proc.stderr
    rows = read_report_csv(out / "zn-moments.csv")
    assert rows[0].n == 1000  # from the config file
    manifest = json.loads((out / "zn-moments_manifest.json").read_text())
    assert manifest["config"]["replicates"] == 120  # flag overrides file
    assert manifest["config"]["base_seed"] == 99
    assert manifest["rows"] == len(rows)
    assert "wall_time_s" in manifest and "input_hash" in manifest


@pytest.mark.parametrize(
    "text, message",
    [
        ("n = 5000\n", "given together"),
        ("n = 5000\nhprime = 4\n", "given together"),
        ("replicate = 10\n", "unknown config keys"),
        ("replicates = 4\nreplicates = 6\n", "config key 'replicates' given twice"),
        # these ran serially and exited 0
        ("workers = 0\n", "workers must be >= 1, got 0"),
        ("workers = -7\n", "workers must be >= 1, got -7"),
    ],
    ids=["n-only", "n-and-hprime", "unknown-key", "repeated-key", "workers-0", "workers-negative"],
)
def test_experiment_config_file_errors_exit_1(tmp_path, capsys, text, message) -> None:
    config = tmp_path / "run.cfg"
    config.write_text(text)
    out = tmp_path / "reports"
    rc = main(["experiment", "zn-moments", "--config", str(config), "--out", str(out)])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_estimate_rejects_invalid_values(tmp_path, capsys) -> None:
    sample = tmp_path / "sample.csv"
    sample.write_text("n=4,c=1.0,seed=0,frontier=constant:a=1.0\nx,y\n0.1,nan\n1.5,0.8\n")
    out = tmp_path / "est"
    assert main(["estimate", str(sample), "--hprime", "1", "--dn", "1", "--out", str(out)]) == 1
    assert "finite" in capsys.readouterr().err
    assert not (out / "estimate.json").exists()


@pytest.mark.parametrize(
    "error, message",
    [
        (
            MemoryError("Unable to allocate 8.00 TiB for an array with shape (2199023255552,)"),
            "haarfrontier: error: Unable to allocate 8.00 TiB",
        ),
        (MemoryError(), "haarfrontier: error: MemoryError"),
    ],
    ids=["numpy-allocation", "bare"],
)
def test_estimate_reports_memory_error_as_usage_error(
    tmp_path, capsys, monkeypatch, error, message
) -> None:
    # stands in for the geometry of a huge partition; nothing large is allocated
    def no_memory(f, k_n):
        raise error

    monkeypatch.setattr("haarfrontier.process._cell_geometry", no_memory)
    sample = tmp_path / "sample.csv"
    sample.write_text("n=4,c=1.0,seed=0,frontier=constant:a=1.0\nx,y\n0.1,0.5\n")
    out = tmp_path / "est"
    assert main(["estimate", str(sample), "--hprime", "40", "--dn", "1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(message) and "Traceback" not in err
    assert not (out / "estimate.json").exists()


@pytest.mark.parametrize(
    "text, message",
    [
        ("n=4,c=1.0\nx,y\n0.1,0.5\n", "malformed sample header"),
        ("n=4,c=1.0,seed=0,run=3,frontier=constant:a=1.0\nx,y\n0.1,0.5\n", "sample header"),
        # after the frontier, an extra key reads as a frontier parameter
        ("n=4,c=1.0,seed=0,frontier=constant:a=1.0,run=3\nx,y\n0.1,0.5\n", "malformed frontier"),
        ("n=4,c=1.0,seed=0,frontier=constant:a=1.0\nx,y\n0.1,0.5,0.2\n", "malformed sample row"),
        # well formed, but a point lies above the frontier the header names
        (
            "n=4,c=1.0,seed=0,frontier=constant:a=1.0\nx,y\n0.1,0.5\n0.6,1.5\n",
            "escape the frontier enclosure",
        ),
    ],
    ids=[
        "missing-header-key", "extra-header-key", "extra-key-after-frontier", "three-field-row",
        "point-above-frontier",
    ],
)
def test_estimate_rejects_malformed_sample_file(tmp_path, capsys, text, message) -> None:
    sample = tmp_path / "sample.csv"
    sample.write_text(text)
    out = tmp_path / "est"
    assert main(["estimate", str(sample), "--hprime", "1", "--dn", "1", "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not (out / "estimate.json").exists()


def test_experiment_bad_flag_value_names_its_key(tmp_path, capsys) -> None:
    out = tmp_path / "reports"
    assert main(["experiment", "zn-moments", "--replicates", "many", "--out", str(out)]) == 1
    assert "for replicates" in capsys.readouterr().err
    assert not out.exists()


def test_experiment_workers_byte_identical(tmp_path) -> None:
    out1, out2 = tmp_path / "w1", tmp_path / "w2"
    run_cli("experiment", "zn-moments", "--replicates", "60", "--workers", "1", "--out", str(out1))
    run_cli("experiment", "zn-moments", "--replicates", "60", "--workers", "4", "--out", str(out2))
    assert (out1 / "zn-moments.csv").read_bytes() == (out2 / "zn-moments.csv").read_bytes()


@pytest.mark.parametrize("name", ["weibull", "gumbel", "supnorm", "mise"])
def test_each_kernel_writes_the_same_report_on_one_or_two_workers(tmp_path, name) -> None:
    # the weibull, gumbel, sup and mise kernels; zn-moments covers fhat_zn_at above
    reports = []
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}"
        args = ["experiment", name, "--replicates", "24", "--workers", workers, "--out", str(out)]
        assert main(args) == 0
        reports.append((out / f"{name}.csv").read_bytes())
    assert reports[0] == reports[1]


def test_strict_mode_returns_2_on_failed_tolerance(tmp_path) -> None:
    # c=1 starves the cells (k_n > n c / ln(nc)), so the Gaussian fit fails;
    # strict mode must surface that as exit code 2
    out = tmp_path / "bad"
    proc = run_cli(
        "experiment", "gaussian", "--c", "1.0", "--replicates", "300",
        "--out", str(out), "--strict",
        check=False,
    )
    assert proc.returncode == 2
    rows = read_report_csv(out / "gaussian.csv")
    ks = next(r for r in rows if r.statistic.startswith("ks_gaussian"))
    assert not ks.passed


def test_usage_errors_exit_1() -> None:
    assert run_cli("experiment", "no-such-preset", check=False).returncode == 1
    assert run_cli("simulate", "--frontier", "constant:a=1.0", check=False).returncode == 1
    assert run_cli("bogus-subcommand", check=False).returncode == 1
    assert run_cli("experiment", "zn-moments", "--n", "5000", check=False).returncode == 1
    for name in ("weibull", "gaussian"):  # each takes exactly one evaluation point
        proc = run_cli("experiment", name, "--x", "0.3", "--x", "0.7", check=False)
        assert proc.returncode == 1
    proc = run_cli("simulate", "--frontier", "mystery:a=1", "--n", "10", check=False)
    assert proc.returncode == 1


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_simulate_seed_off_the_key_range_exits_1(tmp_path, capsys, seed) -> None:
    out = tmp_path / "sim"
    argv = ["simulate", "--frontier", "constant:a=1.0", "--n", "50", "--seed", seed, "--out", str(out)]
    assert main(argv) == 1
    assert "seed must lie in [0, 2**64)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_experiment_seed_off_the_key_range_exits_1(tmp_path, capsys, seed) -> None:
    # -1 would derive the same replicate seeds as 2**64 - 1 under another recorded seed
    out = tmp_path / "exp"
    argv = ["experiment", "zn-moments", "--replicates", "20", "--workers", "1", f"--seed={seed}",
            "--out", str(out)]
    assert main(argv) == 1
    assert "seed must lie in [0, 2**64)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("c", ["nan", "inf", "-1"])
def test_rate_that_is_not_finite_and_positive_exits_1(tmp_path, capsys, c) -> None:
    # checked before any draw: NaN used to reach numpy's "lam < 0 or lam is NaN"
    out = tmp_path / "out"
    for argv in (
        ["experiment", "weibull", "--replicates", "20", "--workers", "1", f"--c={c}"],
        ["simulate", "--frontier", "constant:a=1.0", "--n", "50", f"--c={c}"],
    ):
        assert main([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "intensity rate c must be finite and positive" in err and "lam" not in err
    assert not out.exists()


def test_simulate_mean_count_too_large_to_draw_exits_1(tmp_path, capsys) -> None:
    out = tmp_path / "sim"
    argv = ["simulate", "--frontier", "constant:a=1.0", "--n", "10", "--c", "1e300", "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "mean point count n*c*integral(f) = 1e+301 is too large to draw" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "label, message",
    [
        ("affine:a=1.0,b=nan", "needs a Lipschitz constant >= 0"),
        ("two_level:lo=0.8,hi=nan,split=0.5", "takes a value that is not finite"),
        ("affine:a=1.0,a=2.0,b=0.5", "frontier parameter 'a' given twice"),
    ],
)
def test_simulate_rejects_a_frontier_that_is_not_finite_or_repeats_a_parameter(
    tmp_path, capsys, label, message
) -> None:
    out = tmp_path / "sim"
    assert main(["simulate", "--frontier", label, "--n", "10", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert message in err and "too large to draw" not in err
    assert not out.exists()


@pytest.mark.parametrize("label", ["affine:a=1.0,b=nan", "two_level:lo=0.8,hi=nan,split=0.5"])
def test_estimate_rejects_a_sample_frontier_that_is_not_finite(tmp_path, capsys, label) -> None:
    # points far above any finite frontier of the family, which a NaN one would let through
    sample = tmp_path / "sample.csv"
    sample.write_text(f"n=2,c=1.0,seed=0,frontier={label}\nx,y\n0.25,50.0\n0.75,70.0\n")
    out = tmp_path / "est"
    assert main(["estimate", str(sample), "--hprime", "0", "--dn", "1", "--out", str(out)]) == 1
    assert f"frontier {label!r}" in capsys.readouterr().err
    assert not (out / "estimate.json").exists()


@pytest.mark.parametrize("c", ["nan", "inf", "-1.0", "0.0"])
def test_estimate_rejects_a_sample_rate_that_is_not_finite_and_positive(tmp_path, capsys, c) -> None:
    sample = tmp_path / "sample.csv"
    sample.write_text(f"n=4,c={c},seed=0,frontier=constant:a=1.0\nx,y\n0.1,0.5\n0.6,0.8\n")
    out = tmp_path / "est"
    assert main(["estimate", str(sample), "--hprime", "1", "--dn", "1", "--out", str(out)]) == 1
    assert "intensity rate c must be finite and positive" in capsys.readouterr().err
    assert not (out / "estimate.json").exists()


def test_list_presets_names_everything() -> None:
    proc = run_cli("list-presets")
    for name in ("local-bias", "variance", "mise", "supnorm", "weibull", "gumbel", "gaussian", "zn-moments"):
        assert name in proc.stdout


def test_main_callable_in_process(tmp_path) -> None:
    out = tmp_path / "sim"
    rc = main(
        ["simulate", "--frontier", "constant:a=1.0", "--n", "50", "--seed", "3", "--out", str(out)]
    )
    assert rc == 0
    assert (out / "sample.csv").exists()


def test_back_to_back_calls_share_no_parsed_values(tmp_path, monkeypatch) -> None:
    # one parser serves every call in a process: an appended --x must not
    # carry over into the next call
    xs = ["--x", "0.2", "--x", "0.6"]
    for run, flags in (("two", xs), ("again", xs), ("none", [])):
        args = ["experiment", "local-bias", "--replicates", "2", *flags, "--out", str(tmp_path / run)]
        assert main(args) == 0
    echoed = {
        run: json.loads((tmp_path / run / "local-bias_manifest.json").read_text())["config"]["xs"]
        for run in ("two", "again", "none")
    }
    assert echoed["two"] == echoed["again"] == [0.2, 0.6]
    assert echoed["none"] == list(PRESETS["local-bias"].config.xs) != [0.2, 0.6]
    # simulate, then estimate with its default --out: the simulate call's --out stays behind
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    sim = tmp_path / "sim"
    assert main(["simulate", "--frontier", "constant:a=1.0", "--n", "200", "--seed", "3",
                 "--out", str(sim)]) == 0
    assert main(["estimate", str(sim / "sample.csv"), "--hprime", "2", "--dn", "2"]) == 0
    assert (cwd / "estimate.json").exists() and not (sim / "estimate.json").exists()


def test_usage_error_after_a_good_call_exits_1_with_usage_on_stderr(capsys) -> None:
    # the parser outlives the stream that was sys.stderr when it was built
    with capsys.disabled():
        _build_parser()
    assert main(["list-presets"]) == 0
    capsys.readouterr()
    for _ in range(2):
        with pytest.raises(SystemExit) as exit_info:
            main(["simulate", "--frontier", "constant:a=1.0"])
        assert exit_info.value.code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("usage: haarfrontier simulate")
        assert "the following arguments are required: --n" in captured.err
        assert captured.out == ""


def test_importing_the_package_and_its_cli_leaves_out_multiprocessing() -> None:
    # the process pool is imported only by a run that forks
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    code = "import sys, haarfrontier, haarfrontier.cli; print('multiprocessing' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def _fresh_interpreter(code):
    """Run ``code`` in a new interpreter with src/ on its path; give back the JSON it prints."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", "import json, sys\n" + code],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_the_package_loads_a_submodule_when_one_of_its_names_is_first_used() -> None:
    numpy_random, *steps = _fresh_interpreter(textwrap.dedent("""
        def loaded():
            return sorted(m for m in sys.modules if m.startswith("haarfrontier."))
        import haarfrontier
        steps = [loaded()]
        # the benchmark's set-up path
        from haarfrontier.frontiers import parse_frontier
        parse_frontier("sine:a=1.0,b=0.25")
        steps.append(loaded())
        numpy_random = "numpy.random" in sys.modules
        haarfrontier.simulate
        steps.append(loaded())
        print(json.dumps([numpy_random, *steps]))
    """))
    assert steps[0] == []
    assert numpy_random is False
    assert steps[1] == ["haarfrontier.frontiers", "haarfrontier.quadrature"]
    assert "haarfrontier.process" in steps[2]
    harness = ("experiments", "kernels", "runner", "oracles", "report")
    assert not {f"haarfrontier.{m}" for m in harness} & set(steps[2])


def test_each_lazy_name_is_its_home_modules_object() -> None:
    found = _fresh_interpreter(textwrap.dedent("""
        import haarfrontier
        experiments = haarfrontier.experiments
        found = {"experiments": experiments is sys.modules.get("haarfrontier.experiments")}
        star = {}
        exec("from haarfrontier import *", star)
        found["star"] = sorted(set(star) - {"__builtins__"})
        found["all"] = sorted(haarfrontier.__all__)
        found["foreign"] = []
        for name in set(haarfrontier.__all__) - {"__version__"}:
            home = star[name].__module__
            if not home.startswith("haarfrontier.") or getattr(
                sys.modules[home], name
            ) is not getattr(haarfrontier, name):
                found["foreign"].append(name)
        try:
            haarfrontier.no_such_name
        except AttributeError as exc:
            found["unknown"] = str(exc)
        print(json.dumps(found))
    """))
    assert found["experiments"] is True
    assert found["star"] == found["all"] and len(found["all"]) == 33
    assert found["foreign"] == []
    assert found["unknown"] == "module 'haarfrontier' has no attribute 'no_such_name'"


def test_report_csv_round_trip(tmp_path) -> None:
    rows = [
        ReportRow(
            experiment="demo", frontier="affine:a=1.0,b=0.5", n=100, c=1.0,
            h_n=3, d_n=2, k_n=8, x=0.3, statistic="thing",
            estimate=0.125, std_err=0.01, comparator=0.0, tolerance=0.2, passed=True,
        ),
        ReportRow(
            experiment="demo", frontier="constant:a=1.0", n=100, c=2.0,
            h_n=3, d_n=2, k_n=8, x=None, statistic="other",
            estimate=float("inf"), std_err=0.0, comparator=1.0,
            tolerance=float("inf"), passed=False,
        ),
    ]
    path = tmp_path / "rows.csv"
    write_report_csv(rows, path)
    assert read_report_csv(path) == rows
    header = path.read_text().splitlines()[0]
    assert header == "experiment,frontier,n,c,h_n,d_n,k_n,x,statistic,estimate,std_err,comparator,tolerance,pass"
