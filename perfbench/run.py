"""topoqubit benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The seed generates the workload's inputs
(``workloads.py``); every timed sweep then runs in a fresh interpreter
(``child.py``), serially, until S seconds are used.  Outputs are checked
outside the timed region (``checks.py``).  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` --
the end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  A readable table of every metric measured goes
to standard error.

``correct`` is false when the run cannot vouch for its figures: repeated
sweeps of one seed disagreed, or no operation succeeded.  ``attempted`` and
``failed`` count the operations of one sweep; an operation whose outputs fail
a check in any sweep is counted in ``failed`` (and per check in the traced
run's ``check.<name>.failed``), including the known ``tnd_x`` defect
described in ``checks.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import layers
from workloads import GENERATORS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# Fewest sweeps a run makes, whatever --seconds says, so medians exist.
MIN_SWEEPS = 3
# Set-up is cheap; set-up-only children bring its sample count to at least this.
MIN_SETUP_SAMPLES = 9
CHILD_TIMEOUT_S = 150
# Serial runs: the figures then measure the program, not the scheduler.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def machine_facts() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": THREAD_ENV,
    }


class Runner:
    """Spawns child interpreters for one workload and keeps their results."""

    def __init__(self, work: Path, steps: list[dict]):
        self.work = work
        self.steps = steps
        self.plan = work / "plan.json"
        self.plan.write_text(json.dumps(steps), encoding="utf-8")
        self.env = dict(os.environ, PYTHONHASHSEED="0", **THREAD_ENV)
        # Children load cached bytecode, as an installed package does; the
        # discarded warm-up child writes it.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.count = 0

    def child(self, mode: str) -> dict:
        k = self.count
        self.count += 1
        out_dir = self.work / f"sweep{k}"
        out_dir.mkdir()
        result_path = self.work / f"result{k}.json"
        log_path = self.work / f"child{k}.log"
        t_launch = _monotonic()
        with open(log_path, "w", encoding="utf-8") as log:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).with_name("child.py")), str(self.plan), str(result_path),
                 str(out_dir), repr(t_launch), mode],
                stdout=log, stderr=subprocess.STDOUT, env=self.env, timeout=CHILD_TIMEOUT_S,
            )
        wall = _monotonic() - t_launch
        if proc.returncode != 0:
            raise RuntimeError(f"{mode} child exited {proc.returncode}:\n"
                               + log_path.read_text(encoding="utf-8")[-2000:])
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result.update(mode=mode, wall=wall, out_dir=str(out_dir))
        return result

    def outputs(self, result: dict) -> list[str]:
        """A digest per step of what the sweep produced."""
        digests = []
        for step, outcome in zip(self.steps, result["steps"]):
            if step["kind"] == "cli":
                path = Path(result["out_dir"]) / step["out"]
                data = path.read_bytes() if path.is_file() else b""
                digests.append(f"{outcome['rc']}:" + hashlib.sha256(data).hexdigest())
            else:
                digests.append(json.dumps(outcome, sort_keys=True))
        return digests


@contextlib.contextmanager
def work_dir(prefix: str):
    """A scratch directory inside the checkout, removed afterwards."""
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=prefix, dir=ROOT / ".perfbench_work"))
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)


def declared_units(declared: dict) -> dict[str, str]:
    return {m["name"]: m["unit"] for key in ("end_to_end", "per_layer") for m in declared[key]}


def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Run one workload; returns every metric it measured plus the verdict."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import checks  # imports topoqubit from SRC

    steps = GENERATORS[workload](seed, str(work))
    runner = Runner(work, steps)
    runner.child("setup")  # discarded: writes bytecode, warms the file cache

    kinds = ("sweep", "trace") if trace else ("sweep",)
    min_children = len(kinds) if trace else MIN_SWEEPS
    deadline = _monotonic() + seconds
    results: list[dict] = []
    setups: list[float] = []
    while True:
        results.append(runner.child(kinds[len(results) % len(kinds)]))
        # Set-up samples are spread over the run, like the sweeps, so that
        # both see the same drift in machine speed.
        setups += [results[-1]["setup_s"], runner.child("setup")["setup_s"]]
        typical = statistics.median(r["wall"] for r in results)
        if len(results) >= min_children and _monotonic() + typical > deadline:
            break
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(runner.child("setup")["setup_s"])

    # Checks: sweeps whose outputs match the first sweep's byte for byte share
    # its verdict; any other sweep is checked on its own and its differing
    # steps fail repeat_identical.  Every sweep runs the same operations, so
    # an operation fails if it fails in any sweep: attempted and failed count
    # one sweep's operations, whatever the number of sweeps.
    first = runner.outputs(results[0])
    attempted, fails = checks.check_sweep(steps, results[0]["steps"], results[0]["out_dir"])
    failing = {name: set(fails.get(name, ())) for name in checks.CHECKS}
    for r in results[1:]:
        digests = runner.outputs(r)
        if digests == first:
            continue
        _, fails = checks.check_sweep(steps, r["steps"], r["out_dir"])
        fails["repeat_identical"] = {
            (i, row)
            for i, (a, b) in enumerate(zip(digests, first)) if a != b
            for row in range(checks.expected_rows(steps[i]) if steps[i]["kind"] == "cli" else 1)
        }
        for name, ops in fails.items():
            failing[name] |= ops
    failed = len(set().union(*failing.values()))
    per_check = {name: len(ops) for name, ops in failing.items()}

    untraced = [r for r in results if r["mode"] == "sweep"]
    sweep_s = statistics.median(r["sweep_s"] for r in untraced)
    metrics = {
        "sweep_s": sweep_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        "failed_frac": failed / attempted,
    }
    notes = {"sweep_s samples": [round(r["sweep_s"], 3) for r in untraced],
             "setup_s samples": [round(t, 3) for t in setups]}
    if trace:
        traced = [r for r in results if r["mode"] == "trace"]
        metrics.update(layers.median_metrics(
            [layers.layer_metrics(r["trace"], r["sweep_s"]) for r in traced]))
        traced_s = statistics.median(r["sweep_s"] for r in traced)
        metrics["trace_overhead_s"] = traced_s - sweep_s
        shares = sorted(((v / traced_s, k[: -len(".self_s")]) for k, v in metrics.items()
                         if k.endswith(".self_s") and k.count(".") == 2), reverse=True)
        notes["largest self_s shares of traced sweep_s"] = {k: round(v, 3) for v, k in shares[:5]}
        metrics.update({f"check.{name}.failed": n for name, n in per_check.items()})
        out_dir = Path(results[0]["out_dir"])
        tables = [out_dir / s["out"] for s in steps if s["kind"] == "cli"]
        metrics["cli.write.bytes"] = sum(p.stat().st_size for p in tables if p.is_file())
        metrics["cli.rows"] = sum(checks.expected_rows(s) for s in steps if s["kind"] == "cli")
        notes["traced_sweeps"] = len(traced)
        notes["largest_self_s_by_step"] = {
            steps[step]["name"]: f"{name} {t:.3f} s"
            for step, (name, t) in sorted(layers.largest_self_by_step(traced[0]["trace"]).items())
        }
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "correct": per_check["repeat_identical"] == 0 and failed < attempted,
        "notes": notes,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "topoqubit" / "__init__.py").is_file():
        print(f"error: no topoqubit sources under {SRC}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    with work_dir(f"{args.workload}-{args.seed}-") as work:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)

    units = declared_units(declared)
    metrics = result["metrics"]
    for name in sorted(metrics):
        print(f"{name:48s} {metrics[name]:>16.6g} {units.get(name, '')}", file=sys.stderr)
    for key, value in result["notes"].items():
        print(f"# {key}: {value}", file=sys.stderr)

    wanted = declared["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 3
    print("# machine: " + json.dumps(machine_facts(), sort_keys=True))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
