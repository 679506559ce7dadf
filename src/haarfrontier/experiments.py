"""Monte Carlo experiments validating the estimator's limit behavior.

Each experiment simulates replicates along a schedule, compares Monte Carlo
summaries against analytic comparators, and emits report rows. Desk-scale
schedules are an engineering choice the presets make explicit. The limits
rest on growth conditions in n, k_n, h_n and alpha: `CONDITIONS` gives the
number behind each at one schedule entry, and nothing judges it.

`run_experiment(name, cfg, workers)` is the one entry point, and `name` is
one that `list-presets` prints. `_experiment` declares each experiment once,
on its row builder: kernel, conditions, point rule, partition check and
preset. `PRESETS` is the one registry, keyed by that name; the report's
`experiment` column and the manifest spell it with `_` for `-`. Points and
partitions are checked before any replicate runs; each entry's replicate
data then goes to the row builder. A config holds only what shapes the
rows: a frontier is stored as its spec's label, and the worker count is an
argument of the run.
"""

from __future__ import annotations

import functools
import math
import numbers
from collections.abc import Iterable
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .frontiers import parse_frontier
from .haar import truncated_expansion
from .kernels import ReplicateTask, l2_error_sq, sup_error
from .oracles import LimitLaw, ks_statistic
from .process import PartitionConfig, _require_integer, _require_rate, _require_seed
from .report import ReportRow
from .runner import derive_seed, run_task

# Preregistered goodness-of-fit budgets: the limit laws are asymptotic, so
# fixed desk-scale KS tolerances (validated by closed-form pilots on constant
# frontiers) stand in for formal hypothesis tests.
KS_TOL_WEIBULL = 0.03
KS_TOL_GUMBEL = 0.03
KS_TOL_GAUSSIAN = 0.05

_KS_SD = 0.26  # asymptotic standard deviation of sqrt(R) * KS

SUP_EPS = (0.05, 0.1, 0.2)  # the levels eps of supnorm's tail probabilities P(sup error > eps)


def _tuple_of_numbers(values) -> tuple:
    """values as a tuple of Python floats; bool, a string and any other item raise."""
    items = tuple(values) if isinstance(values, Iterable) and not isinstance(values, str) else None
    if items is None or any(isinstance(v, bool) or not isinstance(v, numbers.Real) for v in items):
        raise ValueError("xs must be a sequence of numbers")
    return tuple(map(float, items))


@dataclass(frozen=True)
class ExperimentConfig:
    frontier: str
    schedule: tuple  # of (n, h_prime, d_n) triples
    c: float = 1.0
    replicates: int = 500
    base_seed: int = 20260808
    xs: tuple = ()

    def __post_init__(self):
        # "constant" and "constant:a=1" are one frontier, with one CSV column and one hash
        if not isinstance(self.frontier, str):
            raise ValueError(f"frontier must be a label such as 'constant:a=1.0', got {self.frontier!r}")
        object.__setattr__(self, "frontier", parse_frontier(self.frontier).label)
        # derive_seed works modulo 2^64, so a seed outside [0, 2^64) would
        # run the same replicates as its residue under another recorded seed
        object.__setattr__(self, "base_seed", _require_seed(self.base_seed))
        object.__setattr__(self, "c", _require_rate(self.c))
        object.__setattr__(self, "replicates", _require_integer("replicates", self.replicates))
        # a numpy float would reach the report CSV as its repr, "np.float64(0.3)"
        object.__setattr__(self, "xs", _tuple_of_numbers(self.xs))
        if self.replicates < 2:
            raise ValueError("need at least two replicates")
        if not self.schedule:
            raise ValueError("schedule must contain at least one (n, h_prime, d_n) entry")
        # held as tuples, so no caller's list can later add a repeated entry
        entries = tuple(tuple(entry) for entry in self.schedule)
        if len(set(entries)) != len(entries):  # one check reported as two rows each
            raise ValueError(f"schedule entries must be distinct, got {list(entries)}")
        object.__setattr__(self, "schedule", entries)
        # NaN fails the comparison, so this rejects it too
        if not all(0.0 <= x <= 1.0 for x in self.xs):
            raise ValueError("evaluation points x must lie in [0, 1]")
        if len(set(self.xs)) != len(self.xs):  # one check reported as two rows
            raise ValueError(f"evaluation points x must be distinct, got {list(self.xs)}")


def _mean_se(col: np.ndarray) -> tuple:
    return float(col.mean()), float(col.std(ddof=1) / math.sqrt(len(col)))


def _row(experiment, cfg, pc, *, estimate, comparator, tolerance, passed=None, **kw) -> ReportRow:
    """One report row; unless a one-sided verdict is given, |estimate - comparator| <= tolerance.

    run_experiment binds experiment and cfg, and hands the builders the rest as `row`.
    """
    if passed is None:
        passed = abs(estimate - comparator) <= tolerance
    return ReportRow(
        experiment=experiment,
        frontier=cfg.frontier,
        n=pc.n,
        c=cfg.c,
        h_n=pc.h_n,
        d_n=pc.d_n,
        k_n=pc.k_n,
        estimate=estimate,
        comparator=comparator,
        tolerance=tolerance,
        passed=passed,
        **kw,
    )


# each sample below holds one value per replicate
def _ks_row(row, pc, x, statistic, sample, law, tol) -> ReportRow:
    """Kolmogorov distance of a replicate sample from a limit law, against its budget."""
    ks = ks_statistic(sample, law)
    return row(
        pc, x=x, statistic=statistic,
        estimate=ks, std_err=_KS_SD / math.sqrt(len(sample)), comparator=0.0, tolerance=tol,
    )


def _var_ratio_row(row, pc, x, statistic, sample, comparator_var) -> ReportRow:
    """Sample variance over its comparator, within 0.2 of 1."""
    ratio = float(sample.var(ddof=1)) / comparator_var
    se = ratio * math.sqrt(2.0 / (len(sample) - 1))
    return row(
        pc, x=x, statistic=statistic,
        estimate=ratio, std_err=se, comparator=1.0, tolerance=0.2,
    )


def _nonneg_row(row, pc, statistic, sample) -> ReportRow:
    """The smallest replicate value, which must not be negative."""
    low = float(sample.min())
    return row(
        pc, x=None, statistic=statistic,
        estimate=low, std_err=0.0, comparator=0.0, tolerance=0.0, passed=low >= 0.0,
    )


# growth condition -> the number that vanishes as it holds; None if unbounded (h_n = 0)
CONDITIONS = {
    "kn=o(n/ln n)": lambda pc, alpha: pc.k_n * math.log(pc.n) / pc.n,
    "kn=o(n)": lambda pc, alpha: pc.k_n / pc.n,
    "kn*ln(kn)=o(n)": lambda pc, alpha: pc.k_n * math.log(pc.k_n) / pc.n,
    "n=o(kn^(1+alpha))": lambda pc, alpha: pc.n / pc.k_n ** (1.0 + alpha),
    "hn=o(kn)": lambda pc, alpha: pc.h_n / pc.k_n,
    "n=o(kn^(1/2)*hn^(1/2+alpha))":
        lambda pc, alpha: pc.n / (pc.k_n**0.5 * pc.h_n ** (0.5 + alpha)) if pc.h_n else None,
}


@dataclass(frozen=True)
class Experiment:
    """One experiment's declaration, kept in `PRESETS` under its name.

    `conditions` names the keys of `CONDITIONS` its limit rests on. The
    point rule is "none" (a point is an error), "some" (one or more) or
    "one"; the kernel is handed `cfg.xs`.
    `partition(pc)` raises ValueError on a schedule entry the experiment
    cannot take. `rows(row, cfg, f, entries)` builds the report rows from
    each entry's (partition, replicate data), in schedule order; `row(pc,
    ...)` makes one row of this experiment under cfg. `config` is the
    preset a run starts from, and `note` its line in `list-presets`.
    """

    kernel: str
    conditions: tuple
    points: str
    partition: Callable
    rows: Callable
    config: ExperimentConfig
    note: str


# experiment name -> its declaration, in the order list-presets prints them
PRESETS = {}


def _experiment(name, kernel, conditions, points="none", partition=lambda pc: None, *, config, note):
    """Declare experiment `name` and its preset; the function decorated is its row builder."""

    def register(rows):
        PRESETS[name] = Experiment(kernel, conditions, points, partition, rows, config, note)
        return rows

    return register


def _report_name(name: str) -> str:
    """Experiment `name` as the report's `experiment` column and the manifest spell it."""
    return name.replace("-", "_")


def _partition_check(ok, message):
    """A partition check that raises ValueError(message) on an entry failing ok."""

    def check(pc: PartitionConfig) -> None:
        if not ok(pc):
            raise ValueError(message)

    return check


@_experiment(
    "local-bias", "fhat_zn_at", ("kn=o(n/ln n)",), "some",
    config=ExperimentConfig(
        frontier="affine:a=1.0,b=0.5", schedule=((10_000, 4, 4),), replicates=400, xs=(0.3, 0.7)
    ),
    note="mean local error of the raw estimate, shifted by k_n/(nc)",
)
def _local_bias_rows(row, cfg, f, entries) -> Iterator[ReportRow]:
    """Mean of the raw estimate at each x against its projection, shifted by k_n/(nc)."""
    for pc, data in entries:
        proj = truncated_expansion(f, pc.h_n)
        shift = pc.k_n / (pc.n * cfg.c)
        for j, x in enumerate(cfg.xs):
            mean, se = _mean_se(data[:, j])
            residual = mean - proj(x) + shift
            tol = pc.k_n ** (-f.alpha) + 3.0 * se
            yield row(
                pc, x=x, statistic="bias_residual",
                estimate=residual, std_err=se, comparator=0.0, tolerance=tol,
            )


@_experiment(
    "variance", "fhat_zn_at", ("kn=o(n/ln n)", "n=o(kn^(1+alpha))"), "some",
    _partition_check(
        lambda pc: pc.d_n == 1 or pc.h_n >= 1, "variance comparator needs h_n >= 1 when d_n > 1"
    ),
    config=ExperimentConfig(
        frontier="constant:a=1.0", schedule=((4096, 4, 16),), replicates=1000, xs=(0.5,)
    ),
    note="local variance against k_n h_n/(nc)^2",
)
def _variance_rows(row, cfg, f, entries) -> Iterator[ReportRow]:
    """Empirical variance of the estimate at x against k_n h_n / (n c)^2."""
    for pc, data in entries:
        nc = pc.n * cfg.c
        comparator_var = (pc.k_n**2 if pc.d_n == 1 else pc.k_n * pc.h_n) / nc**2
        for j, x in enumerate(cfg.xs):
            yield _var_ratio_row(row, pc, x, "variance_ratio", data[:, j], comparator_var)


@_experiment(
    "mise", "mise", ("kn=o(n/ln n)",),
    config=ExperimentConfig(
        frontier="affine:a=1.0,b=0.5", schedule=((10_000, 3, 8), (10_000, 4, 4)), replicates=300
    ),
    note="integrated squared error and its orthogonal decomposition",
)
def _mise_rows(row, cfg, f, entries) -> Iterator[ReportRow]:
    """Integrated squared error, decomposed into stochastic and systematic parts."""
    per_entry = []
    for pc, data in entries:
        stoch_mean, stoch_se = _mean_se(data[:, 0])
        total_mean, total_se = _mean_se(data[:, 1])
        systematic = l2_error_sq(truncated_expansion(f, pc.h_n), f)
        per_entry.append((pc, systematic, total_mean))
        nc = pc.n * cfg.c
        stoch_comp = (pc.k_n**2 + pc.k_n * pc.h_n) / nc**2
        sys_bound = (
            f.lip**2 * (pc.h_n + 1) ** (-2.0 * f.alpha) if math.isfinite(f.lip) else math.inf
        )
        yield row(
            pc, x=None, statistic="mise_total",
            estimate=total_mean, std_err=total_se,
            comparator=stoch_mean + systematic, tolerance=3.0 * total_se,
        )
        yield row(
            pc, x=None, statistic="mise_stochastic",
            estimate=stoch_mean, std_err=stoch_se, comparator=stoch_comp, tolerance=stoch_comp,
        )
        yield row(
            pc, x=None, statistic="mise_systematic",
            estimate=systematic, std_err=0.0, comparator=sys_bound, tolerance=sys_bound,
            passed=systematic <= 2.0 * sys_bound,
        )
    for (pc_a, sys_a, _), (pc_b, sys_b, _) in zip(per_entry, per_entry[1:]):
        if pc_b.h_n + 1 == 2 * (pc_a.h_n + 1) and sys_b > 0.0:
            ratio = sys_a / sys_b
            comp = 2.0 ** (2.0 * f.alpha)
            yield row(
                pc_b, x=None, statistic="mise_systematic_ratio",
                estimate=ratio, std_err=0.0, comparator=comp, tolerance=0.5,
            )
    yield from _rate_slope_rows(row, f, per_entry)


def _rate_slope_rows(row, f, per_entry) -> Iterator[ReportRow]:
    """Fitted log-log decay slopes, reported without assertion.

    Small-sample slopes are contaminated by second-order terms, so these
    rows carry an infinite tolerance and never fail a run.
    """
    pcs, systematic, total = zip(*per_entry)
    fits = (  # statistic, scale, values, comparator
        ("systematic_rate_slope", [pc.h_n + 1 for pc in pcs], systematic, -2.0 * f.alpha),
        ("total_rate_slope", [pc.n for pc in pcs], total, -2.0),
    )
    for statistic, scale, values, comparator in fits:
        scale, values = np.array(scale, dtype=float), np.array(values)
        if len(set(scale)) >= 2 and np.all(values > 0.0):
            slope = float(np.polyfit(np.log(scale), np.log(values), 1)[0])
            yield row(
                pcs[-1], x=None, statistic=statistic,
                estimate=slope, std_err=0.0, comparator=comparator, tolerance=math.inf,
            )


@_experiment(
    "supnorm", "sup", ("kn=o(n/ln n)",),
    config=ExperimentConfig(
        frontier="constant:a=1.0",
        schedule=((20_000, 4, 2), (50_000, 4, 4), (100_000, 4, 8)),
        replicates=200,
    ),
    note="tail probabilities of the uniform error",
)
def _supnorm_rows(row, cfg, f, entries) -> Iterator[ReportRow]:
    """Tail probabilities P(sup error > eps) across the schedule, at each level eps of SUP_EPS."""
    for pc, data in entries:
        sups = data[:, 0]
        sys_sup = sup_error(truncated_expansion(f, pc.h_n), f)
        nc = pc.n * cfg.c
        for eps in SUP_EPS:
            p_hat = float(np.mean(sups > eps))
            se = math.sqrt(max(p_hat * (1.0 - p_hat), 1.0 / cfg.replicates) / cfg.replicates)
            margin = eps - sys_sup
            if margin > 0.0:
                bound = min(1.0, pc.k_n * math.exp(-nc * margin / (2.0 * pc.k_n)))
            else:
                bound = 1.0
            yield row(
                pc, x=None, statistic=f"p_sup_gt_{eps}",
                estimate=p_hat, std_err=se, comparator=bound, tolerance=3.0 * se,
                passed=p_hat <= bound + 3.0 * se,
            )


@_experiment(
    "weibull", "weibull", ("kn=o(n)", "n=o(kn^(1+alpha))"), "one",
    _partition_check(lambda pc: pc.d_n == 1, "the extreme-value local limit requires d_n = 1"),
    config=ExperimentConfig(
        frontier="constant:a=1.0", schedule=((2000, 9, 1),), replicates=2000, xs=(0.3,)
    ),
    note="local statistic vs the Weibull extreme-value law (d_n = 1)",
)
def _weibull_rows(row, cfg, f, entries) -> Iterator[ReportRow]:
    """Local statistic at x against the Weibull extreme-value law (d_n = 1 regime)."""
    x = cfg.xs[0]
    law = LimitLaw("weibull_evd")
    for pc, data in entries:
        gap = float(np.max(np.abs(data[:, 0] - data[:, 1])))
        yield row(
            pc, x=x, statistic="form_agreement",
            estimate=gap, std_err=0.0, comparator=0.0, tolerance=1e-12,
        )
        yield _ks_row(row, pc, x, "ks_weibull", data[:, 0], law, KS_TOL_WEIBULL)


@_experiment(
    "gumbel", "gumbel", ("kn*ln(kn)=o(n)", "n=o(kn^(1+alpha))"),
    partition=_partition_check(lambda pc: pc.d_n == 1, "the worst-cell limit requires d_n = 1"),
    config=ExperimentConfig(frontier="constant:a=1.0", schedule=((50_000, 7, 1),), replicates=1500),
    note="worst-cell deviation vs the Gumbel law (d_n = 1)",
)
def _gumbel_rows(row, cfg, f, entries) -> Iterator[ReportRow]:
    """Normalized worst-cell deviation against the Gumbel law (d_n = 1 regime)."""
    law = LimitLaw("gumbel")
    for pc, data in entries:
        raw = data[:, 0]
        rate = pc.n * cfg.c / pc.k_n
        normalized = rate * raw - math.log(pc.k_n)
        yield _nonneg_row(row, pc, "gumbel_nonneg", raw)
        yield _ks_row(row, pc, None, "ks_gumbel", normalized, law, KS_TOL_GUMBEL)
    # the median is checked once, on the last entry's statistic
    yield row(
        pc, x=None, statistic="gumbel_median",
        estimate=float(np.median(normalized)), std_err=_KS_SD / math.sqrt(cfg.replicates),
        comparator=-math.log(math.log(2.0)), tolerance=0.1,
    )


@_experiment(
    "gaussian", "fhat_zn_at",
    # the last is the bias condition of the z_n-corrected statistic
    ("hn=o(kn)", "kn=o(n/ln n)", "n=o(kn^(1/2)*hn^(1/2+alpha))"),
    "one",
    _partition_check(lambda pc: pc.d_n > 1, "the Gaussian normalization presumes d_n > 1"),
    config=ExperimentConfig(
        frontier="constant:a=1.0", schedule=((4096, 4, 64),), c=4.0, replicates=2000, xs=(0.3,)
    ),
    note="normalized local error vs the standard Gaussian (d_n large)",
)
def _gaussian_rows(row, cfg, f, entries) -> Iterator[ReportRow]:
    """v = (f_hat + z_n - f(x)) / sigma at x against the standard Gaussian (d_n large regime)."""
    x = cfg.xs[0]
    f_true = f(x)
    law = LimitLaw("std_normal")
    for pc, data in entries:
        fhat, zn = data[:, 0], data[:, 1]
        nc = pc.n * cfg.c
        sigma = pc.k_n / (nc * math.sqrt(pc.d_n))
        v = (fhat + zn - f_true) / sigma
        yield _ks_row(row, pc, x, "ks_gaussian_z_corrected", v, law, KS_TOL_GAUSSIAN)
        v_mean, v_se = _mean_se(v)
        mean_tol = 3.0 / math.sqrt(cfg.replicates)
        yield row(
            pc, x=x, statistic="v_mean",
            estimate=v_mean, std_err=v_se, comparator=0.0, tolerance=mean_tol,
        )
        raw_mean, raw_se = _mean_se((fhat - f_true) / sigma)
        root_d = math.sqrt(pc.d_n)
        yield row(
            pc, x=x, statistic="uncorrected_mean",
            estimate=raw_mean, std_err=raw_se, comparator=-root_d, tolerance=0.5 * root_d,
        )


@_experiment(
    "zn-moments", "fhat_zn_at", ("kn=o(n/ln n)",),
    config=ExperimentConfig(frontier="constant:a=1.0", schedule=((10_000, 6, 1),), replicates=2000),
    note="moments of the minima mean",
)
def _zn_moments_rows(row, cfg, f, entries) -> Iterator[ReportRow]:
    """Mean and variance of the minima mean against k_n/(nc) and k_n/(nc)^2."""
    for pc, data in entries:
        zn = data[:, -1]
        nc = pc.n * cfg.c
        mean, se = _mean_se(zn)
        target = pc.k_n / nc
        yield row(
            pc, x=None, statistic="zn_mean",
            estimate=mean, std_err=se, comparator=target, tolerance=3.0 * se,
        )
        yield _var_ratio_row(row, pc, None, "zn_var_ratio", zn, pc.k_n / nc**2)
        yield _nonneg_row(row, pc, "zn_nonneg", zn)


def run_experiment(name: str, cfg: ExperimentConfig, workers: int = 1) -> list:
    """The report rows of experiment `name` under cfg: the one experiment entry point.

    `name` is one that `list-presets` prints. The worker count, the
    experiment's evaluation points, then the partition of every schedule
    entry are checked before any replicate runs. Each entry's replicates
    then run in schedule order, on up to `workers` processes, and the row
    builder takes their data entry by entry.
    """
    if name not in PRESETS:
        raise ValueError(f"unknown experiment {name!r}; choose from {list(PRESETS)}")
    workers = _require_integer("workers", workers)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    spec = PRESETS[name]
    if spec.points == "none" and cfg.xs:
        raise ValueError(f"{name} experiment takes no evaluation points")
    if spec.points == "some" and not cfg.xs:
        raise ValueError(f"{name} experiment needs evaluation points")
    if spec.points == "one" and len(cfg.xs) != 1:
        raise ValueError(f"{name} experiment needs exactly one evaluation point")
    pcs = [PartitionConfig(n, h_prime, d_n) for n, h_prime, d_n in cfg.schedule]
    for pc in pcs:
        spec.partition(pc)
    f = parse_frontier(cfg.frontier)

    def entries():
        for e, pc in enumerate(pcs):
            task = ReplicateTask(spec.kernel, cfg.frontier, pc.n, pc.h_prime, pc.d_n, cfg.c, cfg.xs)
            yield pc, run_task(task, cfg.replicates, derive_seed(cfg.base_seed, e), workers)

    row = functools.partial(_row, _report_name(name), cfg)
    return list(spec.rows(row, cfg, f, entries()))


def _regime_numbers(name: str, cfg: ExperimentConfig) -> list:
    """Per schedule entry, {condition: number} for each condition experiment `name` names."""
    conditions, alpha = PRESETS[name].conditions, parse_frontier(cfg.frontier).alpha
    pcs = (PartitionConfig(n, h_prime, d_n) for n, h_prime, d_n in cfg.schedule)
    return [{condition: CONDITIONS[condition](pc, alpha) for condition in conditions} for pc in pcs]
