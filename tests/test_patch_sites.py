"""Every name the traced benchmark wraps is still where it looks for it.

`perfbench/spans.py` wraps package functions at the names its `patch_sites`
lists, reading each from its owner's `vars()`, so a renamed or removed name
makes `perfbench/run.py --trace 1` raise KeyError. This test loads that file
as it stands, without changing it, and checks each name here. A name that
stays but is no longer called reads 0 instead, so the one span the
benchmark's self-test requires of every traced Monte Carlo round,
`kernels.simulate`, is checked to run once per replicate.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
MODULES = ("cli", "kernels", "experiments", "runner", "estimators", "oracles", "process", "frontiers")


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans_under_test", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patch_site_names_an_attribute_of_its_owner() -> None:
    hf = {name: importlib.import_module(f"haarfrontier.{name}") for name in MODULES}
    sites = _spans_module().patch_sites(hf)
    assert sites
    missing = [
        (getattr(owner, "__name__", owner), attr) for owner, attr, *_ in sites if attr not in vars(owner)
    ]
    assert missing == []


def test_run_chunk_reaches_kernels_simulate_once_per_replicate(monkeypatch) -> None:
    # the traced benchmark times a replicate's draw by wrapping kernels.simulate,
    # and its self-test needs that span in every traced Monte Carlo round
    from haarfrontier import kernels

    calls, simulate = [], kernels.simulate

    def counted(*args):
        calls.append(args[3])
        return simulate(*args)

    monkeypatch.setattr(kernels, "simulate", counted)
    seeds = [3, 1, 4, 1, 5]
    kernels.run_chunk(kernels.ReplicateTask("gumbel", "sine:a=1.0,b=0.25", 500, 2, 1, 1.0), seeds)
    assert calls == seeds
