"""In-memory span tracing of the haarfrontier package, from outside it.

The package has no tracing of its own, so the benchmark wraps package
functions at the places where callers look them up (``kernels.simulate``,
``cli.cell_stats``, the ``FrontierSpec`` methods, ...). A wrapper records a
span (name, start, end, parent, op id) or, for functions called many
thousands of times per op, only a count keyed by the enclosing span. Spans
stay in memory; ``uninstall`` puts every original object back.
"""

from __future__ import annotations

import os
import time
from collections import Counter, defaultdict

import numpy as np


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "attrs")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.attrs = None


class Tracer:
    """Collects spans and counts; ``stack`` holds the indices of open spans."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.op = None

    def open(self, name):
        span = Span(name, 0.0, self.stack[-1] if self.stack else None, self.op)
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span):
        span.end = time.perf_counter()
        self.stack.pop()

    def count(self, name):
        enclosing = self.spans[self.stack[-1]].name if self.stack else None
        self.counts[name, enclosing] += 1


def self_times(spans):
    """Each span's duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(i)
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for lo, hi in sorted((spans[j].start, spans[j].end) for j in children[i]):
            lo, hi = max(lo, reach), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


def _span_wrapper(tracer, fn, name, annotate):
    def wrapper(*args, **kwargs):
        span = tracer.open(name(args) if callable(name) else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if annotate is not None:
            # keeps references only; anything costly is derived after the run
            span.attrs = annotate(args, result)
        return result

    return wrapper


def _count_wrapper(tracer, fn, name):
    def wrapper(*args, **kwargs):
        tracer.count(name)
        return fn(*args, **kwargs)

    return wrapper


def _ks_name(args):
    return f"oracles.ks_statistic.{getattr(args[1], 'kind', 'callable')}"


def _sample_attrs(args, sample):
    return (len(sample), sample.xs.nbytes + sample.ys.nbytes)


def _stats_attrs(args, stats):
    return (len(args[0]), stats.counts)


def _csv_bytes(path):
    return os.path.getsize(path)


def patch_sites(hf):
    """(owner, attribute, layer name, kind, annotate) for every wrapped lookup.

    ``hf`` maps module names to the imported haarfrontier modules. ``kind``
    is "span" or "count"; ``annotate(args, result)`` stores what the layer
    metrics need on the span.
    """
    cli, kernels, experiments, runner = hf["cli"], hf["kernels"], hf["experiments"], hf["runner"]
    estimators, oracles, process, frontiers = (
        hf["estimators"], hf["oracles"], hf["process"], hf["frontiers"]
    )
    spec, sample = frontiers.FrontierSpec, process.PointSample
    return [
        (cli, "run_experiment", "experiments.run_experiment", "span", None),
        (cli, "write_report_csv", "report.write_report_csv", "span", None),
        (experiments, "run_task", "runner.run_task", "span", lambda a, r: a[1]),
        (runner, "run_chunk", "kernels.run_chunk", "span", lambda a, r: len(a[1])),
        (kernels, "simulate", "process.simulate", "span", _sample_attrs),
        (cli, "simulate", "process.simulate", "span", _sample_attrs),
        (process, "simulate", "process.simulate", "span", _sample_attrs),
        (kernels, "cell_stats", "process.cell_stats", "span", _stats_attrs),
        (cli, "cell_stats", "process.cell_stats", "span", _stats_attrs),
        (process, "cell_stats", "process.cell_stats", "span", _stats_attrs),
        (sample, "to_csv", "process.to_csv", "span", lambda a, r: _csv_bytes(a[1])),
        (sample, "from_csv", "process.from_csv", "span", lambda a, r: _csv_bytes(a[1])),
        (kernels, "haar_ev_estimate", "estimators.haar_ev_estimate", "span", None),
        (estimators, "haar_ev_estimate", "estimators.haar_ev_estimate", "span", None),
        (kernels, "minima_mean", "estimators.minima_mean", "span", None),
        (estimators, "minima_mean", "estimators.minima_mean", "span", None),
        (estimators, "coefficient_estimates", "estimators.coefficient_estimates", "span", None),
        (cli, "corrected_estimate", "estimators.corrected_estimate", "span", None),
        (experiments, "ks_statistic", _ks_name, "span", None),
        (oracles, "ks_statistic", _ks_name, "span", None),
        (oracles, "cell_max_mean", "oracles.cell_max_mean", "span", None),
        (oracles, "cell_max_variance", "oracles.cell_max_variance", "span", None),
        (oracles, "cell_cdf", "oracles.cell_cdf", "span", None),
        (estimators, "haar_eval", "haar.haar_eval", "count", None),
        (spec, "area_above", "frontiers.area_above", "count", None),
        (spec, "integral", "frontiers.integral", "count", None),
        (spec, "range_on", "frontiers.range_on", "count", None),
        (oracles, "adaptive_simpson", "quadrature.adaptive_simpson", "count", None),
        (frontiers, "adaptive_simpson", "quadrature.adaptive_simpson", "count", None),
    ]


class Installation:
    """Wraps every patch site on ``install`` and restores the originals on ``uninstall``."""

    def __init__(self, hf, tracer):
        self.sites = patch_sites(hf)
        self.originals = [(owner, attr, vars(owner)[attr]) for owner, attr, *_ in self.sites]
        self.tracer = tracer
        self.saved = []

    def install(self):
        for owner, attr, name, kind, annotate in self.sites:
            original = vars(owner)[attr]
            is_classmethod = isinstance(original, classmethod)
            fn = original.__func__ if is_classmethod else original
            if kind == "span":
                wrapped = _span_wrapper(self.tracer, fn, name, annotate)
            else:
                wrapped = _count_wrapper(self.tracer, fn, name)
            self.saved.append((owner, attr, original))
            setattr(owner, attr, classmethod(wrapped) if is_classmethod else wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved.clear()

    def restored(self):
        """True when every patch site holds the object it held before ``install``."""
        return all(vars(owner)[attr] is original for owner, attr, original in self.originals)

    def __enter__(self):
        self.install()
        return self.tracer

    def __exit__(self, *exc):
        self.uninstall()
        return False


# name -> unit of every per-layer metric; "count/round" counts are per round
# of the workload's op list, "ms" times are per call unless the name says
# otherwise. A layer the workload never reaches reports 0.
LAYER_UNITS = {
    "process.simulate.calls": "count/round",
    "process.simulate.ms_per_call": "ms",
    "process.simulate.points_per_call": "points",
    "process.simulate.useful_frac": "frac",
    "process.simulate.bytes_computed": "bytes/call",
    "process.cell_stats.ms_per_call": "ms",
    "process.cell_stats.empty_frac": "frac",
    "process.geometry.cache_hits": "count/round",
    "process.geometry.cache_misses": "count/round",
    "process.to_csv.ms": "ms",
    "process.from_csv.ms": "ms",
    "process.csv.mb_per_s": "MB/s",
    "estimators.haar_ev_estimate.ms_per_call": "ms",
    "estimators.coefficient_estimates.ms_per_call": "ms",
    "estimators.corrected_estimate.ms_per_call": "ms",
    "estimators.minima_mean.ms_per_call": "ms",
    "haar.haar_eval.calls": "count/round",
    "runner.run_task.ms_per_replicate": "ms/replicate",
    "kernels.self_ms_per_replicate": "ms/replicate",
    "kernels.block_moments.cache_misses": "count/round",
    "kernels.sup_grid.cache_misses": "count/round",
    "experiments.self_ms": "ms",
    "experiments.tolerance_misses": "count/round",
    "report.write_report_csv.ms": "ms",
    "oracles.cell_max_mean.ms_per_call": "ms",
    "oracles.cell_max_variance.ms_per_call": "ms",
    "oracles.cell_cdf.ms_per_call": "ms",
    "oracles.ks_statistic.weibull_evd.ms_per_call": "ms",
    "oracles.ks_statistic.gumbel.ms_per_call": "ms",
    "oracles.ks_statistic.std_normal.ms_per_call": "ms",
    "frontiers.area_above.calls_per_moment": "count/moment",
    "frontiers.integral.calls": "count/round",
    "frontiers.range_on.calls": "count/round",
    "quadrature.adaptive_simpson.calls": "count/round",
    "trace.overhead_frac": "frac",
}

_MOMENTS = ("oracles.cell_max_mean", "oracles.cell_max_variance")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, rounds, cache_misses, cache_hits, tolerance_misses, overhead_frac):
    """Per-layer metrics of a traced pass over ``rounds`` rounds.

    ``cache_misses`` and ``cache_hits`` map a cache name to its change over
    the pass; ``tolerance_misses`` is the number of report rows that missed
    their tolerance during the pass.
    """
    calls, total, own = Counter(), Counter(), Counter()
    points = sample_bytes = replicates = chunk_replicates = 0
    binned = useful = cells = empty = csv_bytes = 0
    for span, self_s in zip(tracer.spans, self_times(tracer.spans)):
        name, attrs = span.name, span.attrs
        calls[name] += 1
        total[name] += span.end - span.start
        own[name] += self_s
        if name == "process.simulate":
            points += attrs[0]
            sample_bytes += attrs[1]
        elif name == "process.cell_stats":
            # a cell's max and min are at most two of its points
            binned += attrs[0]
            useful += int(np.minimum(attrs[1], 2).sum())
            cells += len(attrs[1])
            empty += int((attrs[1] == 0).sum())
        elif name in ("process.to_csv", "process.from_csv"):
            csv_bytes += attrs
        elif name == "runner.run_task":
            replicates += attrs
        elif name == "kernels.run_chunk":
            chunk_replicates += attrs

    def ms_per_call(name):
        return 1e3 * _ratio(total[name], calls[name])

    def per_round(count):
        return count / rounds

    def counted(name):
        return sum(v for (n, _), v in tracer.counts.items() if n == name)

    moment_calls = sum(calls[m] for m in _MOMENTS)
    area_in_moments = sum(tracer.counts["frontiers.area_above", m] for m in _MOMENTS)
    csv_seconds = total["process.to_csv"] + total["process.from_csv"]
    values = {
        "process.simulate.calls": per_round(calls["process.simulate"]),
        "process.simulate.ms_per_call": ms_per_call("process.simulate"),
        "process.simulate.points_per_call": _ratio(points, calls["process.simulate"]),
        # only samples drawn by simulate count: oracle bins a hand-made one
        "process.simulate.useful_frac": (
            _ratio(useful, binned) if calls["process.simulate"] else 0.0
        ),
        "process.simulate.bytes_computed": _ratio(sample_bytes, calls["process.simulate"]),
        "process.cell_stats.ms_per_call": ms_per_call("process.cell_stats"),
        "process.cell_stats.empty_frac": _ratio(empty, cells),
        "process.geometry.cache_hits": per_round(cache_hits["process.geometry"]),
        "process.geometry.cache_misses": per_round(cache_misses["process.geometry"]),
        "process.to_csv.ms": ms_per_call("process.to_csv"),
        "process.from_csv.ms": ms_per_call("process.from_csv"),
        "process.csv.mb_per_s": _ratio(csv_bytes / 1e6, csv_seconds),
        "estimators.haar_ev_estimate.ms_per_call": ms_per_call("estimators.haar_ev_estimate"),
        "estimators.coefficient_estimates.ms_per_call": ms_per_call(
            "estimators.coefficient_estimates"
        ),
        "estimators.corrected_estimate.ms_per_call": ms_per_call("estimators.corrected_estimate"),
        "estimators.minima_mean.ms_per_call": ms_per_call("estimators.minima_mean"),
        "haar.haar_eval.calls": per_round(counted("haar.haar_eval")),
        "runner.run_task.ms_per_replicate": 1e3 * _ratio(total["runner.run_task"], replicates),
        "kernels.self_ms_per_replicate": 1e3 * _ratio(own["kernels.run_chunk"], chunk_replicates),
        "kernels.block_moments.cache_misses": per_round(cache_misses["kernels.block_moments"]),
        "kernels.sup_grid.cache_misses": per_round(cache_misses["kernels.sup_grid"]),
        "experiments.self_ms": 1e3 * _ratio(
            own["experiments.run_experiment"], calls["experiments.run_experiment"]
        ),
        "experiments.tolerance_misses": per_round(tolerance_misses),
        "report.write_report_csv.ms": ms_per_call("report.write_report_csv"),
        "oracles.cell_max_mean.ms_per_call": ms_per_call("oracles.cell_max_mean"),
        "oracles.cell_max_variance.ms_per_call": ms_per_call("oracles.cell_max_variance"),
        "oracles.cell_cdf.ms_per_call": ms_per_call("oracles.cell_cdf"),
        "oracles.ks_statistic.weibull_evd.ms_per_call": ms_per_call(
            "oracles.ks_statistic.weibull_evd"
        ),
        "oracles.ks_statistic.gumbel.ms_per_call": ms_per_call("oracles.ks_statistic.gumbel"),
        "oracles.ks_statistic.std_normal.ms_per_call": ms_per_call(
            "oracles.ks_statistic.std_normal"
        ),
        "frontiers.area_above.calls_per_moment": _ratio(area_in_moments, moment_calls),
        "frontiers.integral.calls": per_round(counted("frontiers.integral")),
        "frontiers.range_on.calls": per_round(counted("frontiers.range_on")),
        "quadrature.adaptive_simpson.calls": per_round(counted("quadrature.adaptive_simpson")),
        "trace.overhead_frac": overhead_frac,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_UNITS.items()}
