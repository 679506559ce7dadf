import math
from dataclasses import replace

import numpy as np
import pytest

from haarfrontier import experiments
from haarfrontier.cli import main
from haarfrontier.experiments import CONDITIONS, PRESETS, ExperimentConfig, run_experiment
from haarfrontier.frontiers import parse_frontier
from haarfrontier.kernels import ReplicateTask
from haarfrontier.oracles import LimitLaw, ks_statistic
from haarfrontier.process import PartitionConfig
from haarfrontier.report import write_report_csv
from haarfrontier.runner import plan_chunks, run_task
from haarfrontier.stepfun import StepFunction

from crosschecks import error_metrics, gaussian_normalized_errors, read_report_csv


def _cfg(**kw) -> ExperimentConfig:
    base = dict(
        frontier="constant:a=1.0",
        schedule=((500, 4, 4),),
        c=1.0,
        replicates=200,
        base_seed=1234,
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
    with pytest.raises(TypeError, match="workers"):  # the worker count is an argument of the run
        _cfg(workers=2)
    with pytest.raises(TypeError, match="variant"):  # the gaussian statistic is not a setting
        _cfg(variant="z_corrected")
    for x in (math.nan, 1.5):
        with pytest.raises(ValueError, match="must lie in"):
            _cfg(xs=(0.5, x))


@pytest.mark.parametrize("xs", [(0.3, 0.3), (0.3, 0.7, 0.3), (0.0, -0.0)], ids=["twice", "apart", "signed-zero"])
def test_config_rejects_a_repeated_evaluation_point(xs) -> None:
    # a repeated point ran and reported the same bias_residual row twice
    with pytest.raises(ValueError, match="evaluation points x must be distinct"):
        _cfg(xs=xs)


@pytest.mark.parametrize(
    "entries",
    [((500, 4, 4), (500, 4, 4)), ((500, 4, 4), (1000, 4, 4), (500, 4, 4)), ((500, 4, 4), [500, 4, 4])],
    ids=["twice", "apart", "tuple-and-list"],
)
def test_config_rejects_a_repeated_schedule_entry(entries) -> None:
    # a repeated entry ran its replicates twice and reported each of its checks as two rows
    with pytest.raises(ValueError, match=r"^schedule entries must be distinct, got \[\(500, 4, 4\), "):
        _cfg(schedule=entries)


@pytest.mark.parametrize(
    "entry, shown",
    [((500, 4), "(500, 4)"), ((500, 4, 4, 1), "(500, 4, 4, 1)"), (500, "500"), ("544", "'544'")],
    ids=["pair", "quadruple", "int", "str"],
)
def test_config_rejects_a_schedule_entry_that_is_not_a_triple(entry, shown) -> None:
    # a pair failed only in run_experiment, "not enough values to unpack"; an int raised TypeError
    with pytest.raises(ValueError) as info:
        _cfg(schedule=((500, 4, 4), entry))
    want = f"schedule entries must be (n, h_prime, d_n) triples, got [(500, 4, 4), {shown}]"
    assert str(info.value) == want


def test_config_holds_its_schedule_as_tuples() -> None:
    # a list was kept as given: appending its first entry again ran it twice, past the check above
    schedule = [[500, 4, 4]]
    cfg = _cfg(schedule=schedule)
    schedule.append([500, 4, 4])
    assert cfg.schedule == ((500, 4, 4),) and cfg == _cfg()
    assert hash(cfg) == hash(_cfg())


@pytest.mark.parametrize("field,value", [("replicates", 2.5), ("replicates", 3.0), ("replicates", True)])
def test_config_rejects_integer_fields_that_are_not_integers(field, value) -> None:
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        _cfg(**{field: value})


def test_config_stores_integer_fields_as_python_ints() -> None:
    cfg = _cfg(replicates=np.int64(3))
    assert type(cfg.replicates) is int and cfg.replicates == 3


def _no_replicates(monkeypatch) -> list:
    """The tasks run_experiment hands run_task, which runs none of them; each as (task, workers)."""
    calls = []

    def fake_run_task(task, replicates, seed, workers):
        calls.append((task, workers))
        return np.zeros((replicates, 4))

    monkeypatch.setattr(experiments, "run_task", fake_run_task)
    return calls


@pytest.mark.parametrize(
    "workers, message",
    [(0, "workers must be >= 1, got 0"), (-7, "workers must be >= 1, got -7"),
     (1.5, "workers must be an integer"), (True, "workers must be an integer")],
)
def test_run_rejects_a_worker_count_before_any_replicate(monkeypatch, workers, message) -> None:
    # 0 and -7 ran serially and exited 0, as if workers = 1 had been asked for
    calls = _no_replicates(monkeypatch)
    with pytest.raises(ValueError, match=f"^{message}$"):
        run_experiment("zn-moments", _cfg(replicates=4), workers)
    assert calls == []


def test_run_hands_the_worker_count_to_each_entry_as_a_python_int(monkeypatch) -> None:
    calls = _no_replicates(monkeypatch)
    run_experiment("mise", _cfg(schedule=((500, 3, 2), (500, 4, 1)), replicates=4), np.int32(2))
    assert [workers for _, workers in calls] == [2, 2]
    assert all(type(workers) is int for _, workers in calls)


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


def test_local_bias_flat_frontier_matches_closed_form() -> None:
    # for a flat frontier the shifted residual has the exact value
    # (k/(nc)) * exp(-nc/k); the Monte Carlo mean must sit within 3 SE of it
    cfg = _cfg(schedule=((500, 4, 4),), replicates=800, xs=(0.3, 0.7))
    rows = run_experiment("local-bias", cfg)
    k, n = 64, 500
    exact = (k / n) * math.exp(-n / k)
    for row in rows:
        assert row.statistic == "bias_residual"
        assert abs(row.estimate - exact) <= 3.0 * row.std_err
        assert row.passed


def test_local_bias_raw_bias_is_negative() -> None:
    cfg = _cfg(schedule=((500, 4, 4),), replicates=400, xs=(0.3,))
    rows = run_experiment("local-bias", cfg)
    shift = 64 / 500
    for row in rows:
        raw_bias = row.estimate - shift
        assert raw_bias < 0.0


def test_variance_ratio_d1_comparator() -> None:
    cfg = _cfg(
        schedule=((2000, 5, 1),),
        replicates=1500,
        xs=(0.5,),
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
    )
    rows = run_experiment("supnorm", cfg)
    for eps in experiments.SUP_EPS:
        ps = [r.estimate for r in rows if r.statistic == f"p_sup_gt_{eps}"]
        assert len(ps) == 3
        assert ps[0] >= ps[1] >= ps[2]
    assert any(r.estimate > 0.2 for r in rows if r.statistic == "p_sup_gt_0.05")


def test_supnorm_huge_n_tail_vanishes() -> None:
    cfg = _cfg(schedule=((100_000, 7, 1),), replicates=150)
    rows = run_experiment("supnorm", cfg)
    assert [r.statistic for r in rows] == [f"p_sup_gt_{eps}" for eps in experiments.SUP_EPS]
    by_stat = {r.statistic: r for r in rows}
    assert by_stat["p_sup_gt_0.1"].estimate < 0.01
    # about 780 points per cell: no cell's maximum falls 0.2 below the frontier
    assert by_stat["p_sup_gt_0.2"].estimate == 0.0


def test_supnorm_comparator_is_1_at_levels_within_the_systematic_sup() -> None:
    # one block on a line of slope 0.5: the projection misses f by exactly 0.25 at
    # each end, so every level lies at or below the systematic sup and no bound applies
    cfg = _cfg(frontier="affine:a=1.0,b=0.5", schedule=((2000, 0, 4),), replicates=20)
    rows = run_experiment("supnorm", cfg)
    assert [r.statistic for r in rows] == [f"p_sup_gt_{eps}" for eps in experiments.SUP_EPS]
    assert max(experiments.SUP_EPS) <= 0.25
    for row in rows:
        assert row.estimate == 1.0 and row.comparator == 1.0 and row.passed


def test_supnorm_runs_on_2_to_the_16_blocks() -> None:
    # the sup is exact on any block count, so supnorm takes h' > 14
    cfg = _cfg(frontier="affine:a=1.0,b=0.5", schedule=((70_000, 16, 1),), replicates=2)
    rows = run_experiment("supnorm", cfg)
    assert [(r.h_n, r.statistic) for r in rows] == [
        (2**16 - 1, f"p_sup_gt_{eps}") for eps in experiments.SUP_EPS
    ]
    # about one point per cell: empty cells put the estimate far below f somewhere
    assert all(r.estimate == 1.0 and r.passed for r in rows)


def test_weibull_small_schedule() -> None:
    cfg = _cfg(
        schedule=((500, 7, 1),),
        replicates=800,
        xs=(0.3,),
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
    )
    ks = [r.estimate for r in run_experiment("weibull", cfg) if r.statistic == "ks_weibull"]
    assert ks[0] > ks[1] > ks[2]


def test_weibull_rejects_grouped_cells() -> None:
    cfg = _cfg(schedule=((500, 4, 2),), xs=(0.3,))
    with pytest.raises(ValueError):
        run_experiment("weibull", cfg)


def test_gumbel_small_schedule() -> None:
    cfg = _cfg(
        schedule=((20_000, 6, 1),),
        replicates=1000,
    )
    rows = run_experiment("gumbel", cfg)
    by_stat = {r.statistic: r for r in rows}
    assert by_stat["gumbel_nonneg"].estimate >= 0.0
    assert by_stat["ks_gumbel"].estimate < 0.08
    assert abs(by_stat["gumbel_median"].estimate + math.log(math.log(2.0))) <= 0.15


def test_gumbel_median_row_once_across_entries() -> None:
    cfg = _cfg(schedule=((2000, 5, 1), (4000, 5, 1)), replicates=20)
    stats = [r.statistic for r in run_experiment("gumbel", cfg)]
    assert stats.count("gumbel_median") == 1
    assert stats.count("ks_gumbel") == 2
    assert stats[-1] == "gumbel_median"


def test_gumbel_rejects_grouped_cells() -> None:
    cfg = _cfg(schedule=((500, 3, 2),))
    with pytest.raises(ValueError):
        run_experiment("gumbel", cfg)


def test_gaussian_variants_agree_and_center() -> None:
    cfg = _cfg(
        schedule=((4096, 4, 64),),
        c=4.0,
        replicates=1000,
        xs=(0.3,),
    )
    rows = run_experiment("gaussian", cfg)
    assert [r.statistic for r in rows] == ["ks_gaussian_z_corrected", "v_mean", "uncorrected_mean"]
    ks_row, v_mean_row = rows[0], rows[1]
    # the same replicates, with the minima mean z_n, the exact shift k_n/(nc) or the grand mean
    v = gaussian_normalized_errors(cfg)
    law = LimitLaw("std_normal")
    ks_z, ks_c, ks_o = (ks_statistic(v[name], law) for name in ("z_corrected", "centered", "oracle_corrected"))
    assert ks_z == ks_row.estimate and float(v["z_corrected"].mean()) == v_mean_row.estimate
    assert ks_z < 0.07 and ks_o < 0.07
    assert abs(ks_z - ks_c) <= 0.02
    assert abs(ks_z - ks_o) <= 0.02
    assert float(v["centered"].mean()) == pytest.approx(0.0, abs=1e-12)
    # the v_mean row's window, 3/sqrt(R), holds the oracle-shifted mean too
    assert abs(float(v["oracle_corrected"].mean())) <= v_mean_row.tolerance


def test_gaussian_uncorrected_mean_diverges_like_sqrt_d() -> None:
    cfg = _cfg(
        schedule=((4096, 4, 64),),
        c=4.0,
        replicates=600,
        xs=(0.3,),
    )
    rows = run_experiment("gaussian", cfg)
    raw = next(r for r in rows if r.statistic == "uncorrected_mean")
    assert raw.estimate < -2.0
    assert raw.estimate == pytest.approx(-8.0, abs=0.5)


def test_gaussian_rejects_single_cell_blocks() -> None:
    cfg = _cfg(schedule=((4096, 4, 1),), xs=(0.3,))
    with pytest.raises(ValueError):
        run_experiment("gaussian", cfg)


VARIANCE = dict(xs=(0.5,))
WEIBULL = dict(schedule=((500, 7, 1),), xs=(0.3,))
GAUSSIAN = dict(schedule=((4096, 4, 64),), xs=(0.3,))


@pytest.mark.parametrize(
    "name, changes, message",
    [
        # a bad partition after a good one
        ("weibull", dict(WEIBULL, schedule=((500, 7, 1), (500, 4, 2))), "d_n = 1"),
        ("gumbel", dict(schedule=((500, 6, 1), (500, 3, 2))), "d_n = 1"),
        ("gaussian", dict(GAUSSIAN, schedule=((4096, 4, 64), (4096, 4, 1))), "d_n > 1"),
        ("variance", dict(VARIANCE, schedule=((500, 4, 4), (500, 0, 4))), "h_n >= 1"),
        ("supnorm", dict(schedule=((500, 3, 2), (500, 3, 0))), "d_n must be"),
        ("zn-moments", dict(schedule=((500, 4, 1), (0, 4, 1))), "n must be"),
        ("local-bias", dict(schedule=((500, 4, 4), (500, -1, 4)), xs=(0.3,)), "h_prime must be"),
        ("mise", dict(schedule=((500, 3, 2), (500, 4, 0))), "d_n must be"),
        # the evaluation-point rules
        ("local-bias", dict(xs=()), "^local-bias experiment needs evaluation points$"),
        ("variance", dict(VARIANCE, xs=()), "^variance experiment needs evaluation points$"),
        ("weibull", dict(WEIBULL, xs=(0.3, 0.7)), "^weibull experiment needs exactly one"),
        ("gaussian", dict(GAUSSIAN, xs=(0.3, 0.7)), "^gaussian experiment needs exactly one"),
        ("gaussian", dict(GAUSSIAN, xs=()), "^gaussian experiment needs exactly one"),
    ],
    ids=[
        "weibull", "gumbel", "gaussian", "variance", "supnorm", "zn-moments", "local-bias", "mise",
        "local-bias-no-x", "variance-no-x", "weibull-two-x", "gaussian-two-x", "gaussian-no-x",
    ],
)
def test_bad_schedule_entry_raises_before_any_replicate(monkeypatch, name, changes, message) -> None:
    calls = _no_replicates(monkeypatch)
    cfg = _cfg(replicates=10, **changes)
    with pytest.raises(ValueError, match=message):
        run_experiment(name, cfg)
    assert calls == []


def test_requirements_are_checked_points_then_partitions() -> None:
    every_fault = _cfg(schedule=((500, 4, 2),), xs=(0.3, 0.7))
    with pytest.raises(ValueError, match="exactly one evaluation point"):
        run_experiment("weibull", every_fault)
    with pytest.raises(ValueError, match="d_n = 1"):
        run_experiment("weibull", replace(every_fault, xs=(0.3,)))
    with pytest.raises(ValueError, match="takes no evaluation points"):
        run_experiment("gumbel", replace(every_fault, xs=(0.3,)))


def test_every_condition_an_experiment_names_has_a_number() -> None:
    for name, spec in PRESETS.items():
        assert spec.conditions and set(spec.conditions) <= CONDITIONS.keys(), name
    # and no condition is kept that no experiment names
    assert CONDITIONS.keys() == {condition for spec in PRESETS.values() for condition in spec.conditions}


def test_condition_numbers_at_an_alpha_below_one() -> None:
    # every shipped frontier has alpha = 1, so the preset pins cannot see alpha misused
    pc = PartitionConfig(4096, 4, 64)  # k_n = 1024, h_n = 15
    numbers = {name: number(pc, 0.5) for name, number in CONDITIONS.items()}
    assert numbers == pytest.approx(
        {
            "kn=o(n/ln n)": 1024 * math.log(4096) / 4096,
            "kn=o(n)": 0.25,
            "kn*ln(kn)=o(n)": 1024 * math.log(1024) / 4096,
            "n=o(kn^(1+alpha))": 4096 / 1024**1.5,
            "hn=o(kn)": 15 / 1024,
            "n=o(kn^(1/2)*hn^(1/2+alpha))": 4096 / (32 * 15),
        },
        rel=1e-12,
    )


@pytest.mark.parametrize("name", ["mise", "supnorm", "gumbel", "zn-moments"])
def test_an_experiment_without_points_refuses_them(monkeypatch, name) -> None:
    # zn-moments ran with --x 0.3 and wrote the CSV of a run without it, under another input hash
    tasks = []

    def fake_run_task(task, replicates, seed, workers):
        tasks.append(task)
        return np.ones((replicates, 2))

    monkeypatch.setattr(experiments, "run_task", fake_run_task)
    cfg = _cfg(schedule=((500, 3, 1),), replicates=10)
    with pytest.raises(ValueError, match=f"^{name} experiment takes no evaluation points$"):
        run_experiment(name, replace(cfg, xs=(0.1, 0.2, 0.9)))
    assert tasks == []
    rows = run_experiment(name, cfg)
    assert [t.xs for t in tasks] == [()]
    assert rows and all(r.x is None for r in rows)


@pytest.mark.parametrize("spelling", ["constant:a=1.0", "constant:a=1", "constant", "constant: a = 1e0"])
def test_config_stores_the_frontiers_canonical_label(spelling) -> None:
    assert _cfg(frontier=spelling).frontier == "constant:a=1.0"
    assert _cfg(frontier=spelling) == _cfg()


@pytest.mark.parametrize("frontier", [None, 1.0, b"constant:a=1.0", ("constant:a=1.0",)])
def test_config_rejects_a_frontier_that_is_not_a_label(frontier) -> None:
    with pytest.raises(ValueError, match="frontier must be a label"):
        _cfg(frontier=frontier)


def test_zn_moments_small() -> None:
    cfg = _cfg(schedule=((10_000, 6, 1),), replicates=500)
    rows = run_experiment("zn-moments", cfg)
    by_stat = {r.statistic: r for r in rows}
    assert by_stat["zn_mean"].comparator == pytest.approx(6.4e-3)
    assert by_stat["zn_mean"].passed
    assert 0.8 <= by_stat["zn_var_ratio"].estimate <= 1.2
    assert by_stat["zn_nonneg"].estimate >= 0.0


def test_config_holds_points_as_python_floats(tmp_path) -> None:
    # a numpy float reached the report CSV as "np.float64(0.3)", which reads back as no number
    cfg = replace(experiments.PRESETS["local-bias"].config, xs=(np.float64(0.3),), replicates=4)
    assert cfg.xs == (0.3,) and type(cfg.xs[0]) is float
    write_report_csv(run_experiment("local-bias", cfg), tmp_path / "report.csv")
    assert [row.x for row in read_report_csv(tmp_path / "report.csv")] == [0.3]
    # an array is copied into the frozen config, not kept as a mutable view
    points = np.array([0.3, 0.7])
    cfg = replace(cfg, xs=points)
    points[0] = 0.9
    assert cfg.xs == (0.3, 0.7)
    assert all(type(v) is float for v in cfg.xs)
    for bad in (("0.3",), (None,), (True,), 0.3, "0.3"):
        with pytest.raises(ValueError, match="xs must be a sequence of numbers"):
            replace(cfg, xs=bad)


def test_error_metrics_examples() -> None:
    flat = parse_frontier("constant:a=1.0")
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

    f = parse_frontier("affine:a=0.5,b=1.0")
    proj = truncated_expansion(f, 1)
    m = error_metrics(proj, f)
    assert m.l2**2 == pytest.approx(1.0 / 48.0, abs=1e-12)


# the names list-presets prints, in its order
LISTED = ["local-bias", "variance", "mise", "supnorm", "weibull", "gumbel", "gaussian", "zn-moments"]


def test_list_presets_prints_the_registry_in_order(capsys) -> None:
    assert main(["list-presets"]) == 0
    assert [line.split()[0] for line in capsys.readouterr().out.splitlines()] == LISTED == list(PRESETS)


@pytest.mark.parametrize("name", LISTED)
def test_each_listed_name_runs_and_its_rows_spell_it_with_underscores(name) -> None:
    rows = run_experiment(name, replace(PRESETS[name].config, replicates=4))
    assert rows and {r.experiment for r in rows} == {name.replace("-", "_")}


@pytest.mark.parametrize("name", ["local_bias", "zn_moments", "local bias", "nope"])
def test_run_refuses_a_name_list_presets_does_not_print(name) -> None:
    # the report's spelling is not a second name: "local_bias" used to be the only one run_experiment took
    with pytest.raises(ValueError) as info:
        run_experiment(name, _cfg())
    assert str(info.value) == f"unknown experiment {name!r}; choose from {LISTED}"


def test_workers_do_not_change_results() -> None:
    cfg = _cfg(schedule=((1000, 4, 2),), replicates=64)
    assert run_experiment("zn-moments", cfg, workers=1) == run_experiment("zn-moments", cfg, workers=3)


def test_rerun_is_deterministic() -> None:
    cfg = _cfg(schedule=((1000, 4, 2),), replicates=64)
    assert run_experiment("zn-moments", cfg) == run_experiment("zn-moments", cfg)
