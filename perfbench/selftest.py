"""Self-test of the benchmark's own machinery.

    python3 perfbench/selftest.py

Checks that self time is computed correctly on a synthetic span tree, that
times are scaled by the interpolated calibration kernel time, that
op_ms_p50 takes the median per op kind, that
the tracing wrappers are removed afterwards (also when an op raises), that
traced and untraced runs write byte-identical report CSVs, sample CSVs and
estimate JSON, that reference comparison tolerates last-bit changes only,
and that the metric names agree with BENCHMARK.json. The file is not named
test_*.py, so the package's own pytest run does not collect it.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

from hostspeed import REFERENCE_S, HostSpeed
from run import END_TO_END_UNITS, ROOT, Tally, kind_median, load_package, run_round
from spans import LAYER_UNITS, Installation, Span, Tracer, self_times
from workloads import Estimate, McCells, McPoints, compare

HF = load_package()


def _span(name, start, end, parent):
    span = Span(name, start, parent, 0)
    span.end = end
    return span


class SelfTime(unittest.TestCase):
    def test_synthetic_tree(self):
        spans = [
            _span("root", 0.0, 10.0, None),
            _span("a", 1.0, 4.0, 0),
            _span("b", 3.0, 6.0, 0),   # overlaps a: covered time is a union
            _span("c", 8.0, 12.0, 0),  # runs past its parent: clipped
            _span("a.child", 2.0, 3.0, 1),
            _span("other", 20.0, 25.0, None),
        ]
        self.assertEqual(self_times(spans), [3.0, 2.0, 3.0, 4.0, 1.0, 5.0])

    def test_tracer_nests_spans(self):
        tracer = Tracer()
        outer = tracer.open("outer")
        inner = tracer.open("inner")
        tracer.count("counted")
        tracer.close(inner)
        tracer.close(outer)
        self.assertEqual([s.parent for s in tracer.spans], [None, 0])
        self.assertEqual(tracer.counts["counted", "inner"], 1)
        self.assertEqual(tracer.stack, [])


class Scaling(unittest.TestCase):
    def test_interpolates_the_kernel_time(self):
        speed = HostSpeed()
        speed.times, speed.kernel_s = [10.0, 11.0], [REFERENCE_S, 2.0 * REFERENCE_S]
        self.assertEqual(speed.scale(3.0, 9.0), 3.0)
        self.assertAlmostEqual(speed.scale(3.0, 10.5), 2.0)
        self.assertEqual(speed.scale(3.0, 12.0), 1.5)

    def test_samples_between_the_steps_of_an_op(self):
        workload = type("SmallEstimate", (Estimate,), {"n": 2000})(HF, Path(tempfile.mkdtemp(
            prefix="selftest-", dir=ROOT)))
        try:
            tally, speed = Tally(), HostSpeed()
            run_round(workload.build(5, 0), tally, speed=speed)
        finally:
            shutil.rmtree(workload.work_dir, ignore_errors=True)
        self.assertEqual(tally.failed, 0, tally.problems)
        self.assertEqual(len(tally.op_parts[0]), 1 + len(Estimate.configs))
        self.assertEqual(tally.op_s[0], sum(s for s, _ in tally.op_parts[0]))
        self.assertTrue(speed.kernel_s)


class OpMedian(unittest.TestCase):
    def test_per_kind_geometric_mean(self):
        op_ms = [1.0, 3.0, 2.0, 100.0]
        kinds = ["a", "a", "a", "b"]
        # medians 2 (kind a, three ops) and 100 (kind b, one op)
        self.assertAlmostEqual(kind_median(op_ms, kinds), (2.0**3 * 100.0) ** 0.25)


class Wrappers(unittest.TestCase):
    def test_removed_afterwards(self):
        installation = Installation(HF, Tracer())
        self.assertTrue(installation.restored())
        with installation:
            self.assertFalse(installation.restored())
        self.assertTrue(installation.restored())

    def test_removed_when_an_op_raises(self):
        installation = Installation(HF, Tracer())
        with self.assertRaises(ValueError):
            with installation:
                HF["cli"].simulate(None, 0, 1.0, 0)
        self.assertTrue(installation.restored())
        self.assertEqual(installation.tracer.stack, [])


class TracedOutputs(unittest.TestCase):
    def setUp(self):
        self.tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=ROOT))

    def tearDown(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def _files(self, workload_cls, traced):
        work = self.tmp / ("traced" if traced else "plain")
        workload = workload_cls(HF, work)
        installation = Installation(HF, Tracer()) if traced else None
        tally = Tally()
        run_round(workload.build(5, 0), tally, installation)
        self.assertEqual(tally.failed, 0, tally.problems)
        if traced:
            self.assertTrue(installation.restored())
            self.assertIn("process.simulate", {s.name for s in installation.tracer.spans})
        return {p.relative_to(work): p.read_bytes() for p in sorted(work.rglob("*"))
                if p.is_file() and not p.name.endswith("_manifest.json")}

    def _assert_identical(self, workload_cls):
        plain = self._files(workload_cls, traced=False)
        traced = self._files(workload_cls, traced=True)
        self.assertTrue(plain)
        self.assertEqual(sorted(plain), sorted(traced))
        for name in plain:
            self.assertEqual(plain[name], traced[name], f"{name} differs when traced")

    def test_report_csvs(self):
        small_points = type("SmallPoints", (McPoints,), {"presets": (("gumbel", 3), ("mise", 2))})
        small_cells = type("SmallCells", (McCells,), {"presets": (("weibull", 5),)})
        self._assert_identical(small_points)
        self._assert_identical(small_cells)

    def test_sample_and_estimate_json(self):
        self._assert_identical(type("SmallEstimate", (Estimate,), {"n": 2000}))


class Reference(unittest.TestCase):
    def test_relative_tolerance(self):
        self.assertEqual(compare({"x": [1.0, "0.5"]}, {"x": [1.0 + 2e-16, "0.5000000000000001"]}), [])
        self.assertTrue(compare([1.0], [1.0 + 1e-6]))
        self.assertTrue(compare(["gumbel_median"], ["ks_gumbel"]))
        self.assertTrue(compare([1.0, 2.0], [1.0]))


class MetricNames(unittest.TestCase):
    def test_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, LAYER_UNITS)


if __name__ == "__main__":
    sys.exit(unittest.main())
