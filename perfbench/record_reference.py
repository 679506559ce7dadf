"""Record reference.json: the outputs of each workload's reference round.

    python3 perfbench/record_reference.py

run.py compares every run's reference round with this file. Re-record only
when a change to the package is meant to change these outputs, and say why
in the change's description.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from run import REFERENCE, ROOT, Tally, load_package, run_round
from workloads import REFERENCE_SEED, WORKLOADS


def main():
    hf = load_package()
    work_dir = ROOT / ".perfbench_work" / f"record-{os.getpid()}"
    recorded = {}
    try:
        for name, workload in WORKLOADS.items():
            tally = Tally()
            recorded[name] = run_round(workload(hf, work_dir).build(REFERENCE_SEED, 0), tally)
            if tally.failed:
                print("\n".join(tally.problems), file=sys.stderr)
                return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    REFERENCE.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
