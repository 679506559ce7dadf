"""Work-count guards: how often a run checks, integrates and evaluates its frontier.

Each count is deterministic, so a regression in per-replicate work fails
here without any timing. A frontier label is parsed and spot-checked once
per process; a replicate integrates its frontier over no interval once the
partition's geometry is cached; and a replicate on a flat frontier, whose
declared bounds meet, never evaluates it.
"""

import dataclasses

import numpy as np
import pytest

from haarfrontier.cli import main
from haarfrontier.experiments import PRESETS
from haarfrontier.frontiers import FrontierSpec, parse_frontier
from haarfrontier.kernels import KERNELS, ReplicateTask, run_chunk
from haarfrontier.process import PartitionConfig, cell_stats, simulate
from haarfrontier.stepfun import _cell_index


def _counting(monkeypatch, name) -> list:
    """The arguments of each FrontierSpec.<name> call from here on, after self."""
    calls, method = [], getattr(FrontierSpec, name)

    def counted(self, *args):
        calls.append(args)
        return method(self, *args)

    monkeypatch.setattr(FrontierSpec, name, counted)
    return calls


def test_an_experiment_spot_checks_its_frontier_once_per_process(tmp_path, monkeypatch) -> None:
    # run_experiment, the manifest's regime numbers and each of the three
    # entries' chunks each parsed and checked the label afresh
    checks = _counting(monkeypatch, "_spot_check")
    parse_frontier.cache_clear()
    assert len(PRESETS["supnorm"].config.schedule) == 3
    argv = ["experiment", "supnorm", "--replicates", "4", "--workers", "1", "--out"]
    assert main([*argv, str(tmp_path / "first")]) == 0
    assert len(checks) == 1
    assert main([*argv, str(tmp_path / "again")]) == 0
    assert len(checks) == 1


@pytest.mark.parametrize("label", ["constant:a=1.0", "sine:a=1.0,b=0.25"])
@pytest.mark.parametrize("kind", sorted(KERNELS))
def test_a_replicate_integrates_its_frontier_nowhere(monkeypatch, kind, label) -> None:
    # the mass over [0, 1] is the spec's, computed when it was built; the
    # cell and block integrals are cached with the partition's geometry
    task = ReplicateTask(kind, label, 3000, 3, 1, 1.0, (0.3,))
    run_chunk(task, [1])
    integrals = _counting(monkeypatch, "integral")
    ranges = _counting(monkeypatch, "range_on")
    run_chunk(task, [2, 3, 4, 5])
    assert integrals == [] and ranges == []


def test_a_replicate_on_a_flat_frontier_never_evaluates_it() -> None:
    calls = []

    def f(x):
        calls.append(np.shape(x))
        return np.full(np.shape(x), 1.0)

    flat = dataclasses.replace(parse_frontier("constant:a=1.0"), f=f, label="counted:flat")
    assert flat.m == flat.M and calls  # the spot check evaluated it when it was built
    # the same frontier, declared with bounds that do not meet, is evaluated
    loose = dataclasses.replace(flat, m=0.5, label="counted:loose")
    cfg = PartitionConfig(n=40_000, h_prime=4, d_n=2)
    at = (_cell_index(np.array([0.3]), cfg.k_n), _cell_index(np.array([0.3]), cfg.h_n + 1))
    for seed in range(3):
        calls.clear()
        got = cell_stats(simulate(flat, cfg.n, 1.0, seed), cfg, flat)
        for kernel in KERNELS.values():
            kernel(flat, cfg, 1.0, at, seed)
        assert calls == []
        want = cell_stats(simulate(loose, cfg.n, 1.0, seed), cfg, loose)
        assert calls
        for name in ("counts", "x_star", "z_star"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
