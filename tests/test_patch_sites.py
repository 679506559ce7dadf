"""Every name the traced benchmark wraps is still where it looks for it.

`perfbench/spans.py` wraps package functions at the names its `patch_sites`
lists, reading each from its owner's `vars()`, so a renamed or removed name
makes `perfbench/run.py --trace 1` raise KeyError. This test loads that file
as it stands, without changing it, and checks each name here.
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
