"""Monte Carlo experiments validating the estimator's limit behavior.

Each experiment simulates replicates under a declared asymptotic-regime
schedule, compares Monte Carlo summaries against analytic comparators, and
emits report rows. Desk-scale schedules are an engineering choice the
presets make explicit; the regime strings record which growth conditions a
schedule point is intended to satisfy.

`run_experiment(kind, cfg)` is the one entry point. Each experiment is
declared once, by `_experiment` on its row builder: its kernel, required
regimes, evaluation-point rule and partition check. `run_experiment`
checks all of them before any replicate runs, then hands each schedule
entry's replicate data to the row builder.
"""

from __future__ import annotations

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

REGIME_KN_SMALL = "kn=o(n/ln n)"
REGIME_KN_SUBLINEAR = "kn=o(n)"
REGIME_KN_LOG = "kn*ln(kn)=o(n)"
REGIME_N_VS_KN = "n=o(kn^(1+alpha))"
REGIME_HN_SMALL = "hn=o(kn)"
REGIME_N_CENTERED = "n=o(kn^(1/2+alpha)*hn^(1/2))"
REGIME_N_CORRECTED = "n=o(kn^(1/2)*hn^(1/2+alpha))"

GAUSSIAN_VARIANTS = ("centered", "oracle_corrected", "z_corrected")

# Preregistered goodness-of-fit budgets: the limit laws are asymptotic, so
# fixed desk-scale KS tolerances (validated by closed-form pilots on constant
# frontiers) stand in for formal hypothesis tests.
KS_TOL_WEIBULL = 0.03
KS_TOL_GUMBEL = 0.03
KS_TOL_GAUSSIAN = 0.05

_KS_SD = 0.26  # asymptotic standard deviation of sqrt(R) * KS


def _tuple_of(name: str, values, kind: type, what: str) -> tuple:
    """values as a tuple of items of kind; bool, a bare string and any other item raise."""
    items = tuple(values) if isinstance(values, Iterable) and not isinstance(values, str) else None
    if items is None or any(isinstance(v, bool) or not isinstance(v, kind) for v in items):
        raise ValueError(f"{name} must be a sequence of {what}")
    return items


@dataclass(frozen=True)
class ExperimentConfig:
    frontier: str
    schedule: tuple  # of (n, h_prime, d_n) triples
    c: float = 1.0
    replicates: int = 500
    base_seed: int = 20260808
    xs: tuple = ()
    regimes: tuple = ()
    workers: int = 1
    variant: str = "z_corrected"
    sup_eps: tuple = (0.05, 0.1, 0.2)

    def __post_init__(self):
        # derive_seed works modulo 2^64, so a seed outside [0, 2^64) would
        # run the same replicates as its residue under another recorded seed
        object.__setattr__(self, "base_seed", _require_seed(self.base_seed))
        object.__setattr__(self, "c", _require_rate(self.c))
        for name in ("replicates", "workers"):
            object.__setattr__(self, name, _require_integer(name, getattr(self, name)))
        # a numpy float would reach the report CSV as its repr, "np.float64(0.3)"
        for name in ("xs", "sup_eps"):
            items = _tuple_of(name, getattr(self, name), numbers.Real, "numbers")
            object.__setattr__(self, name, tuple(map(float, items)))
        object.__setattr__(self, "regimes", _tuple_of("regimes", self.regimes, str, "strings"))
        if self.replicates < 2:
            raise ValueError("need at least two replicates")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if not self.schedule:
            raise ValueError("schedule must contain at least one (n, h_prime, d_n) entry")
        if self.variant not in GAUSSIAN_VARIANTS:
            raise ValueError(f"variant must be one of {GAUSSIAN_VARIANTS}")
        # NaN fails the comparison, so this rejects it too
        if not all(0.0 <= x <= 1.0 for x in self.xs):
            raise ValueError("evaluation points x must lie in [0, 1]")
        if not all(0.0 < eps < math.inf for eps in self.sup_eps):
            raise ValueError("sup-norm levels sup_eps must be finite and > 0")


def _mean_se(col: np.ndarray) -> tuple:
    return float(col.mean()), float(col.std(ddof=1) / math.sqrt(len(col)))


def _row(name, cfg, pc, *, estimate, comparator, tolerance, passed=None, **kw) -> ReportRow:
    """One report row; unless a one-sided verdict is given, |estimate - comparator| <= tolerance."""
    if passed is None:
        passed = abs(estimate - comparator) <= tolerance
    return ReportRow(
        experiment=name,
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


def _ks_row(name, cfg, pc, x, statistic, sample, law, tol) -> ReportRow:
    """Kolmogorov distance of a replicate sample from a limit law, against its budget."""
    ks = ks_statistic(sample, law)
    return _row(
        name, cfg, pc, x=x, statistic=statistic,
        estimate=ks, std_err=_KS_SD / math.sqrt(cfg.replicates), comparator=0.0, tolerance=tol,
    )


def _var_ratio_row(name, cfg, pc, x, statistic, sample, comparator_var) -> ReportRow:
    """Sample variance over its comparator, within 0.2 of 1."""
    ratio = float(sample.var(ddof=1)) / comparator_var
    se = ratio * math.sqrt(2.0 / (cfg.replicates - 1))
    return _row(
        name, cfg, pc, x=x, statistic=statistic,
        estimate=ratio, std_err=se, comparator=1.0, tolerance=0.2,
    )


def _nonneg_row(name, cfg, pc, statistic, sample) -> ReportRow:
    """The smallest replicate value, which must not be negative."""
    low = float(sample.min())
    return _row(
        name, cfg, pc, x=None, statistic=statistic,
        estimate=low, std_err=0.0, comparator=0.0, tolerance=0.0, passed=low >= 0.0,
    )


@dataclass(frozen=True)
class Experiment:
    """One experiment's declaration, checked in full before any replicate runs.

    `regimes(cfg)` names the regime flags the schedule must declare. The
    point rule is "none" (`cfg.xs` is ignored), "some" (one or more) or
    "one"; the kernel is handed the points unless it is "none".
    `partition(pc)` raises ValueError on a schedule entry the experiment
    cannot take. `rows(cfg, f, entries)` builds the report rows from each
    entry's (partition, replicate data), in schedule order.
    """

    kernel: str
    regimes: Callable
    points: str
    partition: Callable
    rows: Callable


EXPERIMENTS = {}


def _experiment(kind, kernel, regimes, points="none", partition=lambda pc: None):
    """Declare experiment `kind`; the function decorated is its row builder."""

    def register(rows):
        EXPERIMENTS[kind] = Experiment(kernel, regimes, points, partition, rows)
        return rows

    return register


def _partition_check(ok, message):
    """A partition check that raises ValueError(message) on an entry failing ok."""

    def check(pc: PartitionConfig) -> None:
        if not ok(pc):
            raise ValueError(message)

    return check


@_experiment("local_bias", "fhat_zn_at", lambda cfg: (REGIME_KN_SMALL,), "some")
def _local_bias_rows(cfg, f, entries) -> Iterator[ReportRow]:
    """Mean of the raw estimate at each x against its projection, shifted by k_n/(nc)."""
    for pc, data in entries:
        proj = truncated_expansion(f, pc.h_n)
        shift = pc.k_n / (pc.n * cfg.c)
        for j, x in enumerate(cfg.xs):
            mean, se = _mean_se(data[:, j])
            residual = mean - proj(x) + shift
            tol = pc.k_n ** (-f.alpha) + 3.0 * se
            yield _row(
                "local_bias", cfg, pc, x=x, statistic="bias_residual",
                estimate=residual, std_err=se, comparator=0.0, tolerance=tol,
            )


@_experiment(
    "variance", "fhat_zn_at", lambda cfg: (REGIME_KN_SMALL, REGIME_N_VS_KN), "some",
    _partition_check(
        lambda pc: pc.d_n == 1 or pc.h_n >= 1, "variance comparator needs h_n >= 1 when d_n > 1"
    ),
)
def _variance_rows(cfg, f, entries) -> Iterator[ReportRow]:
    """Empirical variance of the estimate at x against k_n h_n / (n c)^2."""
    for pc, data in entries:
        nc = pc.n * cfg.c
        comparator_var = (pc.k_n**2 if pc.d_n == 1 else pc.k_n * pc.h_n) / nc**2
        for j, x in enumerate(cfg.xs):
            yield _var_ratio_row(
                "variance", cfg, pc, x, "variance_ratio", data[:, j], comparator_var
            )


@_experiment("mise", "mise", lambda cfg: (REGIME_KN_SMALL,))
def _mise_rows(cfg, f, entries) -> Iterator[ReportRow]:
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
        yield _row(
            "mise", cfg, pc, x=None, statistic="mise_total",
            estimate=total_mean, std_err=total_se,
            comparator=stoch_mean + systematic, tolerance=3.0 * total_se,
        )
        yield _row(
            "mise", cfg, pc, x=None, statistic="mise_stochastic",
            estimate=stoch_mean, std_err=stoch_se, comparator=stoch_comp, tolerance=stoch_comp,
        )
        yield _row(
            "mise", cfg, pc, x=None, statistic="mise_systematic",
            estimate=systematic, std_err=0.0, comparator=sys_bound, tolerance=sys_bound,
            passed=systematic <= 2.0 * sys_bound,
        )
    for (pc_a, sys_a, _), (pc_b, sys_b, _) in zip(per_entry, per_entry[1:]):
        if pc_b.h_n + 1 == 2 * (pc_a.h_n + 1) and sys_b > 0.0:
            ratio = sys_a / sys_b
            comp = 2.0 ** (2.0 * f.alpha)
            yield _row(
                "mise", cfg, pc_b, x=None, statistic="mise_systematic_ratio",
                estimate=ratio, std_err=0.0, comparator=comp, tolerance=0.5,
            )
    yield from _rate_slope_rows("mise", cfg, f, per_entry)


def _rate_slope_rows(name, cfg, f, per_entry) -> Iterator[ReportRow]:
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
            yield _row(
                name, cfg, pcs[-1], x=None, statistic=statistic,
                estimate=slope, std_err=0.0, comparator=comparator, tolerance=math.inf,
            )


@_experiment("supnorm", "sup", lambda cfg: (REGIME_KN_SMALL,))
def _supnorm_rows(cfg, f, entries) -> Iterator[ReportRow]:
    """Tail probabilities of the uniform error across the schedule."""
    for pc, data in entries:
        sups = data[:, 0]
        sys_sup = sup_error(truncated_expansion(f, pc.h_n), f)
        nc = pc.n * cfg.c
        for eps in cfg.sup_eps:
            p_hat = float(np.mean(sups > eps))
            se = math.sqrt(max(p_hat * (1.0 - p_hat), 1.0 / cfg.replicates) / cfg.replicates)
            margin = eps - sys_sup
            if margin > 0.0:
                bound = min(1.0, pc.k_n * math.exp(-nc * margin / (2.0 * pc.k_n)))
            else:
                bound = 1.0
            yield _row(
                "supnorm", cfg, pc, x=None, statistic=f"p_sup_gt_{eps}",
                estimate=p_hat, std_err=se, comparator=bound, tolerance=3.0 * se,
                passed=p_hat <= bound + 3.0 * se,
            )


@_experiment(
    "weibull", "weibull", lambda cfg: (REGIME_KN_SUBLINEAR, REGIME_N_VS_KN), "one",
    _partition_check(lambda pc: pc.d_n == 1, "the extreme-value local limit requires d_n = 1"),
)
def _weibull_rows(cfg, f, entries) -> Iterator[ReportRow]:
    """Local statistic at x against the Weibull extreme-value law (d_n = 1 regime)."""
    x = cfg.xs[0]
    law = LimitLaw("weibull_evd")
    for pc, data in entries:
        gap = float(np.max(np.abs(data[:, 0] - data[:, 1])))
        yield _row(
            "weibull", cfg, pc, x=x, statistic="form_agreement",
            estimate=gap, std_err=0.0, comparator=0.0, tolerance=1e-12,
        )
        yield _ks_row("weibull", cfg, pc, x, "ks_weibull", data[:, 0], law, KS_TOL_WEIBULL)


@_experiment(
    "gumbel", "gumbel", lambda cfg: (REGIME_KN_LOG,),
    partition=_partition_check(lambda pc: pc.d_n == 1, "the worst-cell limit requires d_n = 1"),
)
def _gumbel_rows(cfg, f, entries) -> Iterator[ReportRow]:
    """Normalized worst-cell deviation against the Gumbel law (d_n = 1 regime)."""
    law = LimitLaw("gumbel")
    for pc, data in entries:
        raw = data[:, 0]
        rate = pc.n * cfg.c / pc.k_n
        normalized = rate * raw - math.log(pc.k_n)
        yield _nonneg_row("gumbel", cfg, pc, "gumbel_nonneg", raw)
        yield _ks_row("gumbel", cfg, pc, None, "ks_gumbel", normalized, law, KS_TOL_GUMBEL)
    # the median is checked once, on the last entry's statistic
    yield _row(
        "gumbel", cfg, pc, x=None, statistic="gumbel_median",
        estimate=float(np.median(normalized)), std_err=_KS_SD / math.sqrt(cfg.replicates),
        comparator=-math.log(math.log(2.0)), tolerance=0.1,
    )


@_experiment(
    "gaussian", "fhat_zn_at",
    # the bias regime depends on how the statistic is centered
    lambda cfg: (
        REGIME_HN_SMALL,
        REGIME_KN_SMALL,
        REGIME_N_CENTERED if cfg.variant == "centered" else REGIME_N_CORRECTED,
    ),
    "one",
    _partition_check(lambda pc: pc.d_n > 1, "the Gaussian normalization presumes d_n > 1"),
)
def _gaussian_rows(cfg, f, entries) -> Iterator[ReportRow]:
    """Normalized local error at x against the standard Gaussian (d_n large regime)."""
    x = cfg.xs[0]
    f_true = f(x)
    law = LimitLaw("std_normal")
    for pc, data in entries:
        fhat, zn = data[:, 0], data[:, 1]
        nc = pc.n * cfg.c
        sigma = pc.k_n / (nc * math.sqrt(pc.d_n))
        if cfg.variant == "centered":
            # two passes over the same replicate set: grand mean, then centering
            v = (fhat - fhat.mean()) / sigma
        elif cfg.variant == "oracle_corrected":
            v = (fhat + pc.k_n / nc - f_true) / sigma
        else:
            v = (fhat + zn - f_true) / sigma
        statistic = f"ks_gaussian_{cfg.variant}"
        yield _ks_row("gaussian", cfg, pc, x, statistic, v, law, KS_TOL_GAUSSIAN)
        v_mean, v_se = _mean_se(v)
        mean_tol = 3.0 / math.sqrt(cfg.replicates)
        yield _row(
            "gaussian", cfg, pc, x=x, statistic="v_mean",
            estimate=v_mean, std_err=v_se, comparator=0.0, tolerance=mean_tol,
        )
        raw_mean, raw_se = _mean_se((fhat - f_true) / sigma)
        root_d = math.sqrt(pc.d_n)
        yield _row(
            "gaussian", cfg, pc, x=x, statistic="uncorrected_mean",
            estimate=raw_mean, std_err=raw_se, comparator=-root_d, tolerance=0.5 * root_d,
        )


@_experiment("zn_moments", "fhat_zn_at", lambda cfg: (REGIME_KN_SMALL,))
def _zn_moments_rows(cfg, f, entries) -> Iterator[ReportRow]:
    """Mean and variance of the minima mean against k_n/(nc) and k_n/(nc)^2."""
    for pc, data in entries:
        zn = data[:, -1]
        nc = pc.n * cfg.c
        mean, se = _mean_se(zn)
        target = pc.k_n / nc
        yield _row(
            "zn_moments", cfg, pc, x=None, statistic="zn_mean",
            estimate=mean, std_err=se, comparator=target, tolerance=3.0 * se,
        )
        yield _var_ratio_row("zn_moments", cfg, pc, None, "zn_var_ratio", zn, pc.k_n / nc**2)
        yield _nonneg_row("zn_moments", cfg, pc, "zn_nonneg", zn)


def run_experiment(kind: str, cfg: ExperimentConfig) -> list:
    """The report rows of experiment `kind` under cfg: the one experiment entry point.

    Everything the experiment declares is checked before any replicate
    runs: its regimes, then its evaluation points, then the partition of
    every schedule entry. Each entry's replicates then run in schedule
    order, and the row builder takes their data entry by entry.
    """
    if kind not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {kind!r}; choose from {sorted(EXPERIMENTS)}")
    spec = EXPERIMENTS[kind]
    missing = [r for r in spec.regimes(cfg) if r not in cfg.regimes]
    if missing:
        raise ValueError(f"schedule must declare regime flags {missing}")
    name = kind.replace("_", " ")
    if spec.points == "some" and not cfg.xs:
        raise ValueError(f"{name} experiment needs evaluation points")
    if spec.points == "one" and len(cfg.xs) != 1:
        raise ValueError(f"{name} experiment needs exactly one evaluation point")
    xs = () if spec.points == "none" else cfg.xs
    pcs = [PartitionConfig(n, h_prime, d_n) for n, h_prime, d_n in cfg.schedule]
    for pc in pcs:
        spec.partition(pc)
    f = parse_frontier(cfg.frontier)

    def entries():
        for e, pc in enumerate(pcs):
            task = ReplicateTask(spec.kernel, cfg.frontier, pc.n, pc.h_prime, pc.d_n, cfg.c, xs)
            yield pc, run_task(task, cfg.replicates, derive_seed(cfg.base_seed, e), cfg.workers)

    return list(spec.rows(cfg, f, entries()))


@dataclass(frozen=True)
class Preset:
    kind: str
    config: ExperimentConfig
    note: str


PRESETS = {
    "local-bias": Preset(
        "local_bias",
        ExperimentConfig(
            frontier="affine:a=1.0,b=0.5",
            schedule=((10_000, 4, 4),),
            replicates=400,
            xs=(0.3, 0.7),
            regimes=(REGIME_KN_SMALL,),
        ),
        "mean local error of the raw estimate, shifted by k_n/(nc)",
    ),
    "variance": Preset(
        "variance",
        ExperimentConfig(
            frontier="constant:a=1.0",
            schedule=((4096, 4, 16),),
            replicates=1000,
            xs=(0.5,),
            regimes=(REGIME_KN_SMALL, REGIME_N_VS_KN),
        ),
        "local variance against k_n h_n/(nc)^2",
    ),
    "mise": Preset(
        "mise",
        ExperimentConfig(
            frontier="affine:a=1.0,b=0.5",
            schedule=((10_000, 3, 8), (10_000, 4, 4)),
            replicates=300,
            regimes=(REGIME_KN_SMALL,),
        ),
        "integrated squared error and its orthogonal decomposition",
    ),
    "supnorm": Preset(
        "supnorm",
        ExperimentConfig(
            frontier="constant:a=1.0",
            schedule=((20_000, 4, 2), (50_000, 4, 4), (100_000, 4, 8)),
            replicates=200,
            regimes=(REGIME_KN_SMALL,),
        ),
        "tail probabilities of the uniform error",
    ),
    "weibull": Preset(
        "weibull",
        ExperimentConfig(
            frontier="constant:a=1.0",
            schedule=((2000, 9, 1),),
            replicates=2000,
            xs=(0.3,),
            regimes=(REGIME_KN_SUBLINEAR, REGIME_N_VS_KN),
        ),
        "local statistic vs the Weibull extreme-value law (d_n = 1)",
    ),
    "gumbel": Preset(
        "gumbel",
        ExperimentConfig(
            frontier="constant:a=1.0",
            schedule=((50_000, 7, 1),),
            replicates=1500,
            regimes=(REGIME_KN_LOG, REGIME_N_VS_KN),
        ),
        "worst-cell deviation vs the Gumbel law (d_n = 1)",
    ),
    "gaussian": Preset(
        "gaussian",
        ExperimentConfig(
            frontier="constant:a=1.0",
            schedule=((4096, 4, 64),),
            c=4.0,
            replicates=2000,
            xs=(0.3,),
            regimes=(REGIME_HN_SMALL, REGIME_KN_SMALL, REGIME_N_CORRECTED, REGIME_N_CENTERED),
        ),
        "normalized local error vs the standard Gaussian (d_n large)",
    ),
    "zn-moments": Preset(
        "zn_moments",
        ExperimentConfig(
            frontier="constant:a=1.0",
            schedule=((10_000, 6, 1),),
            replicates=2000,
            regimes=(REGIME_KN_SMALL,),
        ),
        "moments of the minima mean",
    ),
}
