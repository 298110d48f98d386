"""Print the end-to-end figures of every workload by name, with units.

    python3 perfbench/report.py

Each workload runs once in traced mode (``run.py --trace 1``) at seed
``SEED`` for BENCHMARK.json's ``run_seconds``.  That run makes the untraced
sweeps that sweep_s, setup_s and peak_rss_mb come from, the traced sweeps
behind trace_overhead_s, and the output checks behind failed_frac.
"""

from __future__ import annotations

import json
import sys

from run import ROOT, declared_units, machine_facts, measure, work_dir
from workloads import GENERATORS

FIGURES = ("sweep_s", "setup_s", "peak_rss_mb", "failed_frac", "trace_overhead_s")
SEED = 101


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = declared_units(declared)
    print("# machine: " + json.dumps(machine_facts(), sort_keys=True))
    print(f"{'workload':12s} " + " ".join(f"{name:>22s}" for name in FIGURES))
    for workload in GENERATORS:
        with work_dir(f"report-{workload}-") as work:
            metrics = measure(workload, SEED, declared["run_seconds"], True, work)["metrics"]
        print(f"{workload:12s} " + " ".join(
            f"{metrics[name]:>15.4g} {units[name]:6s}" for name in FIGURES), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
