import math
import re
from dataclasses import replace

import numpy as np
import pytest

from haarfrontier import experiments
from haarfrontier.experiments import (
    REGIME_HN_SMALL,
    REGIME_KN_LOG,
    REGIME_KN_SMALL,
    REGIME_KN_SUBLINEAR,
    REGIME_N_CENTERED,
    REGIME_N_CORRECTED,
    REGIME_N_VS_KN,
    ExperimentConfig,
    run_experiment,
)
from haarfrontier.frontiers import affine_frontier, constant_frontier
from haarfrontier.kernels import ReplicateTask
from haarfrontier.report import write_report_csv
from haarfrontier.runner import plan_chunks, run_task
from haarfrontier.stepfun import StepFunction

from crosschecks import error_metrics, read_report_csv


def _cfg(**kw) -> ExperimentConfig:
    base = dict(
        frontier="constant:a=1.0",
        schedule=((500, 4, 4),),
        c=1.0,
        replicates=200,
        base_seed=1234,
        xs=(0.3,),
        regimes=(REGIME_KN_SMALL,),
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_config_validation() -> None:
    with pytest.raises(ValueError):
        _cfg(c=0.0)
    with pytest.raises(ValueError):
        _cfg(replicates=1)
    with pytest.raises(ValueError):
        _cfg(schedule=())
    with pytest.raises(ValueError):
        _cfg(variant="magic")
    for x in (math.nan, 1.5):
        with pytest.raises(ValueError, match="must lie in"):
            _cfg(xs=(0.5, x))


@pytest.mark.parametrize("eps", [math.nan, -0.1, 0.0, -0.0, math.inf])
def test_config_rejects_a_sup_level_that_is_not_finite_and_positive(eps) -> None:
    # a NaN level gave a row with p = 0 and a negative one a row with p = 1, both passing
    supnorm = experiments.PRESETS["supnorm"].config
    with pytest.raises(ValueError, match="sup_eps must be finite and > 0"):
        replace(supnorm, sup_eps=(0.1, eps), replicates=4)
    assert replace(supnorm, sup_eps=(5e-324, 0.1), replicates=4).sup_eps == (5e-324, 0.1)


@pytest.mark.parametrize(
    "field,value",
    [("replicates", 2.5), ("replicates", 3.0), ("replicates", True), ("workers", 1.5), ("workers", True)],
)
def test_config_rejects_integer_fields_that_are_not_integers(field, value) -> None:
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        _cfg(**{field: value})


def test_config_stores_integer_fields_as_python_ints() -> None:
    cfg = _cfg(replicates=np.int64(3), workers=np.int32(2))
    assert type(cfg.replicates) is int and cfg.replicates == 3
    assert type(cfg.workers) is int and cfg.workers == 2


@pytest.mark.parametrize("workers", [0, -7])
def test_config_rejects_fewer_than_one_worker(workers) -> None:
    # these ran serially and exited 0, as if workers = 1 had been asked for
    with pytest.raises(ValueError, match="workers must be >= 1"):
        _cfg(workers=workers)


def test_config_stores_regimes_as_a_tuple_of_strings() -> None:
    zn = experiments.PRESETS["zn-moments"].config
    assert replace(zn, regimes=[REGIME_KN_SMALL]).regimes == (REGIME_KN_SMALL,)
    # a bare string passed the regime check by substring and ran
    for bad in (f"xx {REGIME_KN_SMALL} yy", (REGIME_KN_SMALL, 3), (None,), 7):
        with pytest.raises(ValueError, match="regimes must be a sequence of strings"):
            replace(zn, regimes=bad)


@pytest.mark.parametrize("c", [math.nan, math.inf, -1.0, True], ids=["nan", "inf", "-1", "True"])
def test_config_rejects_a_rate_that_is_not_finite_and_positive(c) -> None:
    # NaN used to pass `c <= 0.0` and fail inside the first replicate's Poisson draw
    with pytest.raises(ValueError, match="intensity rate c must be"):
        _cfg(c=c)


@pytest.mark.parametrize(
    "seed, message",
    [(-1, "must lie in"), (2**64, "must lie in"), (True, "must be an integer"), (3.0, "must be an integer")],
)
def test_config_rejects_a_base_seed_off_the_key_range(seed, message) -> None:
    with pytest.raises(ValueError, match=message):
        _cfg(base_seed=seed)


def test_config_stores_the_base_seed_as_a_python_int() -> None:
    cfg = _cfg(base_seed=np.uint64(2**64 - 1))
    assert type(cfg.base_seed) is int and cfg.base_seed == 2**64 - 1


@pytest.mark.parametrize("xs", [(math.nan,), (0.5, 1.5), (-0.0001,), (math.inf,)])
def test_replicate_task_checks_its_points_before_any_replicate(monkeypatch, xs) -> None:
    def no_simulation(*args):
        raise AssertionError("simulated a replicate")

    monkeypatch.setattr("haarfrontier.kernels.simulate", no_simulation)
    with pytest.raises(ValueError, match=r"x must lie in \[0, 1\]"):
        run_task(ReplicateTask("fhat_zn_at", "constant:a=1.0", 200, 2, 1, 1.0, xs), 4, 1)


def test_regime_flags_are_enforced() -> None:
    with pytest.raises(ValueError, match="regime"):
        run_experiment("local_bias", _cfg(regimes=()))
    with pytest.raises(ValueError, match="regime"):
        run_experiment("variance", _cfg(regimes=(REGIME_KN_SMALL,)))
    with pytest.raises(ValueError, match="regime"):
        run_experiment("gumbel", _cfg(regimes=()))


def test_local_bias_flat_frontier_matches_closed_form() -> None:
    # for a flat frontier the shifted residual has the exact value
    # (k/(nc)) * exp(-nc/k); the Monte Carlo mean must sit within 3 SE of it
    cfg = _cfg(schedule=((500, 4, 4),), replicates=800, xs=(0.3, 0.7))
    rows = run_experiment("local_bias", cfg)
    k, n = 64, 500
    exact = (k / n) * math.exp(-n / k)
    for row in rows:
        assert row.statistic == "bias_residual"
        assert abs(row.estimate - exact) <= 3.0 * row.std_err
        assert row.passed


def test_local_bias_raw_bias_is_negative() -> None:
    cfg = _cfg(schedule=((500, 4, 4),), replicates=400)
    rows = run_experiment("local_bias", cfg)
    shift = 64 / 500
    for row in rows:
        raw_bias = row.estimate - shift
        assert raw_bias < 0.0


def test_variance_ratio_d1_comparator() -> None:
    cfg = _cfg(
        schedule=((2000, 5, 1),),
        replicates=1500,
        xs=(0.5,),
        regimes=(REGIME_KN_SMALL, REGIME_N_VS_KN),
    )
    rows = run_experiment("variance", cfg)
    assert len(rows) == 1
    assert rows[0].passed
    assert abs(rows[0].estimate - 1.0) <= 0.2


def test_variance_halves_twice_when_n_doubles() -> None:
    task_a = ReplicateTask("fhat_zn_at", "constant:a=1.0", 2000, 4, 2, 1.0, (0.5,))
    task_b = ReplicateTask("fhat_zn_at", "constant:a=1.0", 4000, 4, 2, 1.0, (0.5,))
    var_a = float(run_task(task_a, 1500, 5, workers=1)[:, 0].var(ddof=1))
    var_b = float(run_task(task_b, 1500, 6, workers=1)[:, 0].var(ddof=1))
    assert 3.2 <= var_a / var_b <= 4.8


def test_plan_chunks_bounds_the_pool() -> None:
    # far more workers than CPUs: the pool is clamped to the CPUs
    pool, bounds = plan_chunks(60, 10**6, 2)
    assert pool == 2
    assert bounds[0] == 0 and bounds[-1] == 60 and bounds == sorted(set(bounds))
    # more CPUs than replicates: one process per chunk at most
    pool, bounds = plan_chunks(3, 8, 16)
    assert (pool, bounds) == (3, [0, 1, 2, 3])
    # the usual case: four chunks per worker
    pool, bounds = plan_chunks(64, 2, 4)
    assert (pool, len(bounds) - 1) == (2, 8)
    # one worker, zero, negative or a single replicate all mean serial
    assert plan_chunks(100, 1, 8)[0] == 1
    assert plan_chunks(100, 0, 8)[0] == 1
    assert plan_chunks(100, -3, 8)[0] == 1
    assert plan_chunks(1, 4, 4)[0] == 1


def test_mise_flat_frontier_has_zero_systematic_part() -> None:
    cfg = _cfg(schedule=((2000, 3, 4),), replicates=150)
    rows = run_experiment("mise", cfg)
    by_stat = {r.statistic: r for r in rows}
    assert by_stat["mise_systematic"].estimate == 0.0
    assert by_stat["mise_total"].passed


def test_mise_affine_systematic_quarters_under_doubling() -> None:
    cfg = _cfg(
        frontier="affine:a=1.0,b=0.5",
        schedule=((2000, 3, 4), (2000, 4, 2)),
        replicates=150,
    )
    rows = run_experiment("mise", cfg)
    ratio_rows = [r for r in rows if r.statistic == "mise_systematic_ratio"]
    assert len(ratio_rows) == 1
    assert ratio_rows[0].estimate == pytest.approx(4.0, abs=1e-9)
    assert ratio_rows[0].passed
    slope_rows = [r for r in rows if r.statistic == "systematic_rate_slope"]
    assert len(slope_rows) == 1
    assert slope_rows[0].estimate == pytest.approx(-2.0, abs=1e-9)
    assert slope_rows[0].tolerance == math.inf and slope_rows[0].passed


def test_mise_orthogonal_split_residual_is_tiny() -> None:
    cfg = _cfg(frontier="affine:a=1.0,b=0.5", schedule=((1000, 3, 2),), replicates=200)
    rows = run_experiment("mise", cfg)
    total = next(r for r in rows if r.statistic == "mise_total")
    # the split residual is pure float rounding, far below the 3 SE budget
    assert abs(total.estimate - total.comparator) < 1e-12


def test_supnorm_tail_probabilities_decrease_along_schedule() -> None:
    cfg = _cfg(
        schedule=((500, 3, 2), (2000, 3, 2), (8000, 3, 2)),
        replicates=150,
        sup_eps=(0.05, 0.1, 0.2),
    )
    rows = run_experiment("supnorm", cfg)
    for eps in (0.05, 0.1, 0.2):
        ps = [r.estimate for r in rows if r.statistic == f"p_sup_gt_{eps}"]
        assert len(ps) == 3
        assert ps[0] >= ps[1] >= ps[2]
    assert any(r.estimate > 0.2 for r in rows if r.statistic == "p_sup_gt_0.05")


def test_supnorm_huge_n_tail_vanishes() -> None:
    cfg = _cfg(schedule=((100_000, 7, 1),), replicates=150, sup_eps=(0.1, 1.5))
    rows = run_experiment("supnorm", cfg)
    by_stat = {r.statistic: r for r in rows}
    assert by_stat["p_sup_gt_0.1"].estimate < 0.01
    # the error can never exceed the frontier bound itself
    assert by_stat["p_sup_gt_1.5"].estimate == 0.0


def test_supnorm_runs_on_2_to_the_16_blocks() -> None:
    # the sup is exact on any block count, so supnorm takes h' > 14
    cfg = _cfg(frontier="affine:a=1.0,b=0.5", schedule=((70_000, 16, 1),), replicates=2, sup_eps=(0.1,))
    rows = run_experiment("supnorm", cfg)
    assert [(r.h_n, r.statistic) for r in rows] == [(2**16 - 1, "p_sup_gt_0.1")]
    # about one point per cell: empty cells put the estimate far below f somewhere
    assert rows[0].estimate == 1.0 and rows[0].passed


def test_weibull_small_schedule() -> None:
    cfg = _cfg(
        schedule=((500, 7, 1),),
        replicates=800,
        xs=(0.3,),
        regimes=(REGIME_KN_SUBLINEAR, REGIME_N_VS_KN),
    )
    rows = run_experiment("weibull", cfg)
    by_stat = {r.statistic: r for r in rows}
    assert by_stat["form_agreement"].estimate <= 1e-12
    assert by_stat["ks_weibull"].estimate < 0.07


def test_weibull_statistic_nonpositive_for_flat_frontier() -> None:
    task = ReplicateTask("weibull", "constant:a=1.0", 500, 7, 1, 1.0, (0.3,))
    data = run_task(task, 400, 99, workers=1)
    assert np.all(data[:, 0] <= 1e-12)


def test_weibull_ks_shrinks_with_the_cell_to_mass_ratio() -> None:
    # deterministic below-support gap exp(-nc/k) dominates the KS here, so
    # the decay across the schedule is sharp, not a noise comparison
    cfg = _cfg(
        schedule=((512, 9, 1), (1024, 9, 1), (2048, 9, 1)),
        replicates=1500,
        xs=(0.3,),
        regimes=(REGIME_KN_SUBLINEAR, REGIME_N_VS_KN),
    )
    ks = [r.estimate for r in run_experiment("weibull", cfg) if r.statistic == "ks_weibull"]
    assert ks[0] > ks[1] > ks[2]


def test_weibull_rejects_grouped_cells() -> None:
    cfg = _cfg(
        schedule=((500, 4, 2),),
        regimes=(REGIME_KN_SUBLINEAR, REGIME_N_VS_KN),
    )
    with pytest.raises(ValueError):
        run_experiment("weibull", cfg)


def test_gumbel_small_schedule() -> None:
    cfg = _cfg(
        schedule=((20_000, 6, 1),),
        replicates=1000,
        regimes=(REGIME_KN_LOG,),
    )
    rows = run_experiment("gumbel", cfg)
    by_stat = {r.statistic: r for r in rows}
    assert by_stat["gumbel_nonneg"].estimate >= 0.0
    assert by_stat["ks_gumbel"].estimate < 0.08
    assert abs(by_stat["gumbel_median"].estimate + math.log(math.log(2.0))) <= 0.15


def test_gumbel_median_row_once_for_a_repeated_entry() -> None:
    cfg = _cfg(schedule=((2000, 5, 1), (2000, 5, 1)), replicates=20, regimes=(REGIME_KN_LOG,))
    stats = [r.statistic for r in run_experiment("gumbel", cfg)]
    assert stats.count("gumbel_median") == 1
    assert stats.count("ks_gumbel") == 2
    assert stats[-1] == "gumbel_median"


def test_gumbel_rejects_grouped_cells() -> None:
    cfg = _cfg(schedule=((500, 3, 2),), regimes=(REGIME_KN_LOG,))
    with pytest.raises(ValueError):
        run_experiment("gumbel", cfg)


GAUSS_REGIMES = (REGIME_HN_SMALL, REGIME_KN_SMALL, REGIME_N_CORRECTED)


def test_gaussian_variants_agree_and_center() -> None:
    cfg = _cfg(
        schedule=((4096, 4, 64),),
        c=4.0,
        replicates=1000,
        xs=(0.3,),
        regimes=GAUSS_REGIMES + ("n=o(kn^(1/2+alpha)*hn^(1/2))",),
    )
    rows_z = run_experiment("gaussian", replace(cfg, variant="z_corrected"))
    rows_c = run_experiment("gaussian", replace(cfg, variant="centered"))
    ks_z = next(r for r in rows_z if r.statistic.startswith("ks_gaussian"))
    ks_c = next(r for r in rows_c if r.statistic.startswith("ks_gaussian"))
    assert ks_z.estimate < 0.07
    assert abs(ks_z.estimate - ks_c.estimate) <= 0.02
    v_mean_c = next(r for r in rows_c if r.statistic == "v_mean")
    assert v_mean_c.estimate == pytest.approx(0.0, abs=1e-12)


def test_gaussian_uncorrected_mean_diverges_like_sqrt_d() -> None:
    cfg = _cfg(
        schedule=((4096, 4, 64),),
        c=4.0,
        replicates=600,
        xs=(0.3,),
        regimes=GAUSS_REGIMES,
    )
    rows = run_experiment("gaussian", replace(cfg, variant="z_corrected"))
    raw = next(r for r in rows if r.statistic == "uncorrected_mean")
    assert raw.estimate < -2.0
    assert raw.estimate == pytest.approx(-8.0, abs=0.5)


def test_gaussian_rejects_single_cell_blocks() -> None:
    cfg = _cfg(schedule=((4096, 4, 1),), regimes=GAUSS_REGIMES)
    with pytest.raises(ValueError):
        run_experiment("gaussian", cfg)


WEIBULL_REGIMES = (REGIME_KN_SUBLINEAR, REGIME_N_VS_KN)
VARIANCE_REGIMES = (REGIME_KN_SMALL, REGIME_N_VS_KN)


LOCAL_BIAS = dict(regimes=(REGIME_KN_SMALL,))
VARIANCE = dict(regimes=VARIANCE_REGIMES, xs=(0.5,))
WEIBULL = dict(schedule=((500, 7, 1),), regimes=WEIBULL_REGIMES)
GAUSSIAN = dict(schedule=((4096, 4, 64),), regimes=GAUSS_REGIMES)


@pytest.mark.parametrize(
    "kind, changes, message",
    [
        # a bad partition after a good one
        ("weibull", dict(WEIBULL, schedule=((500, 7, 1), (500, 4, 2))), "d_n = 1"),
        ("gumbel", dict(schedule=((500, 6, 1), (500, 3, 2)), regimes=(REGIME_KN_LOG,)), "d_n = 1"),
        ("gaussian", dict(GAUSSIAN, schedule=((4096, 4, 64), (4096, 4, 1))), "d_n > 1"),
        ("variance", dict(VARIANCE, schedule=((500, 4, 4), (500, 0, 4))), "h_n >= 1"),
        ("supnorm", dict(schedule=((500, 3, 2), (500, 3, 0))), "d_n must be"),
        ("zn_moments", dict(schedule=((500, 4, 1), (0, 4, 1))), "n must be"),
        ("local_bias", dict(LOCAL_BIAS, schedule=((500, 4, 4), (500, -1, 4))), "h_prime must be"),
        ("mise", dict(schedule=((500, 3, 2), (500, 4, 0))), "d_n must be"),
        # the evaluation-point rules
        ("local_bias", dict(LOCAL_BIAS, xs=()), "^local bias experiment needs evaluation points$"),
        ("variance", dict(VARIANCE, xs=()), "^variance experiment needs evaluation points$"),
        ("weibull", dict(WEIBULL, xs=(0.3, 0.7)), "^weibull experiment needs exactly one"),
        ("gaussian", dict(GAUSSIAN, xs=(0.3, 0.7)), "^gaussian experiment needs exactly one"),
        ("gaussian", dict(GAUSSIAN, xs=()), "^gaussian experiment needs exactly one"),
        # the centered variant's own regime
        ("gaussian", dict(GAUSSIAN, variant="centered"), re.escape(repr([REGIME_N_CENTERED]))),
    ],
    ids=[
        "weibull", "gumbel", "gaussian", "variance", "supnorm", "zn_moments", "local_bias", "mise",
        "local_bias-no-x", "variance-no-x", "weibull-two-x", "gaussian-two-x", "gaussian-no-x",
        "gaussian-centered-regime",
    ],
)
def test_bad_schedule_entry_raises_before_any_replicate(monkeypatch, kind, changes, message) -> None:
    calls = []

    def fake_run_task(task, replicates, seed, workers):
        calls.append(task)
        return np.zeros((replicates, 4))

    monkeypatch.setattr(experiments, "run_task", fake_run_task)
    cfg = _cfg(replicates=10, **changes)
    with pytest.raises(ValueError, match=message):
        run_experiment(kind, cfg)
    assert calls == []


def test_requirements_are_checked_regimes_then_points_then_partitions() -> None:
    every_fault = _cfg(schedule=((500, 4, 2),), regimes=(), xs=(0.3, 0.7))
    with pytest.raises(ValueError, match="regime flags"):
        run_experiment("weibull", every_fault)
    with pytest.raises(ValueError, match="exactly one evaluation point"):
        run_experiment("weibull", replace(every_fault, regimes=WEIBULL_REGIMES))


def test_an_experiment_without_points_ignores_them(monkeypatch) -> None:
    tasks = []

    def fake_run_task(task, replicates, seed, workers):
        tasks.append(task)
        return np.ones((replicates, 2))

    monkeypatch.setattr(experiments, "run_task", fake_run_task)
    rows = run_experiment("zn_moments", _cfg(xs=(0.1, 0.2, 0.9), replicates=10))
    assert [t.xs for t in tasks] == [()]
    assert all(r.x is None for r in rows)


def test_zn_moments_small() -> None:
    cfg = _cfg(schedule=((10_000, 6, 1),), replicates=500)
    rows = run_experiment("zn_moments", cfg)
    by_stat = {r.statistic: r for r in rows}
    assert by_stat["zn_mean"].comparator == pytest.approx(6.4e-3)
    assert by_stat["zn_mean"].passed
    assert 0.8 <= by_stat["zn_var_ratio"].estimate <= 1.2
    assert by_stat["zn_nonneg"].estimate >= 0.0


def test_config_holds_points_and_levels_as_python_floats(tmp_path) -> None:
    # a numpy float reached the report CSV as "np.float64(0.3)", which reads back as no number
    cfg = replace(experiments.PRESETS["local-bias"].config, xs=(np.float64(0.3),), replicates=4)
    assert cfg.xs == (0.3,) and type(cfg.xs[0]) is float
    write_report_csv(run_experiment("local_bias", cfg), tmp_path / "report.csv")
    assert [row.x for row in read_report_csv(tmp_path / "report.csv")] == [0.3]
    # an array is copied into the frozen config, not kept as a mutable view
    points = np.array([0.3, 0.7])
    cfg = replace(cfg, xs=points, sup_eps=np.array([0.1], dtype=np.float32))
    points[0] = 0.9
    assert cfg.xs == (0.3, 0.7) and cfg.sup_eps == (float(np.float32(0.1)),)
    assert all(type(v) is float for v in cfg.xs + cfg.sup_eps)
    for bad in (("0.3",), (None,), (True,), 0.3, "0.3"):
        for field in ("xs", "sup_eps"):
            with pytest.raises(ValueError, match=f"{field} must be a sequence of numbers"):
                replace(cfg, **{field: bad})


def test_error_metrics_examples() -> None:
    flat = constant_frontier(1.0)
    exact = StepFunction([1.0])
    m = error_metrics(exact, flat, xs=(0.2, 0.8))
    assert m.l2 == pytest.approx(0.0, abs=1e-12)
    assert m.sup == pytest.approx(0.0, abs=1e-12)
    assert m.at_points == (0.0, 0.0)

    zero = StepFunction([0.0])
    m = error_metrics(zero, flat, xs=(0.5,))
    assert m.l2 == pytest.approx(1.0, abs=1e-12)
    assert m.sup == pytest.approx(1.0, abs=1e-12)
    assert m.at_points == (1.0,)


def test_error_metrics_projection_l2() -> None:
    # slope-1 frontier, two blocks: squared L2 projection error is 1/48
    from haarfrontier.haar import truncated_expansion

    f = affine_frontier(0.5, 1.0)
    proj = truncated_expansion(f, 1)
    m = error_metrics(proj, f)
    assert m.l2**2 == pytest.approx(1.0 / 48.0, abs=1e-12)


def test_run_experiment_dispatch() -> None:
    rows = run_experiment("zn_moments", _cfg(schedule=((1000, 4, 1),), replicates=100))
    assert rows and all(r.experiment == "zn_moments" for r in rows)
    with pytest.raises(ValueError):
        run_experiment("nope", _cfg())


def test_workers_do_not_change_results() -> None:
    cfg1 = _cfg(schedule=((1000, 4, 2),), replicates=64, workers=1)
    cfg2 = _cfg(schedule=((1000, 4, 2),), replicates=64, workers=3)
    rows1 = run_experiment("zn_moments", cfg1)
    rows2 = run_experiment("zn_moments", cfg2)
    assert rows1 == rows2


def test_rerun_is_deterministic() -> None:
    cfg = _cfg(schedule=((1000, 4, 2),), replicates=64)
    assert run_experiment("zn_moments", cfg) == run_experiment("zn_moments", cfg)
