"""Run one sweep of a benchmark plan in a fresh interpreter.

Usage: python3 perfbench/child.py PLAN RESULT OUT_DIR T_LAUNCH MODE

MODE is ``setup`` (import and parse only), ``sweep`` (untraced) or ``trace``.
T_LAUNCH is the parent's CLOCK_MONOTONIC reading just before it started this
process, so set-up time includes interpreter start.  Every sweep needs its
own process: ``nonmarkov._cached_profile`` would turn a repeated sweep into
cache hits, while a CLI user pays the cold cost on every invocation.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main(argv: list[str]) -> int:
    plan_path, result_path, out_dir, t_launch, mode = argv
    sys.path.insert(0, str(ROOT / "src"))
    import topoqubit
    from topoqubit import cli, dephasing, nonmarkov

    if not Path(topoqubit.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"topoqubit imported from {topoqubit.__file__}, not this checkout")

    with open(plan_path, encoding="utf-8") as fh:
        steps = json.load(fh)
    call_args = []
    for step in steps:
        if step["kind"] == "cli":
            cli.parse_spec(step["spec_path"], step["mode"])
            call_args.append(None)
            continue
        a = dict(step["args"])
        if step["fn"] == "blp_pair_scan":
            env = dephasing.OhmicEnvironment(a.pop("q"), a.pop("gamma0"))
            ch = dephasing.DephasingChannel(env, a.pop("b"))
            w = nonmarkov.TimeWindow(a.pop("t_max"), a.pop("n_grid"))
            call_args.append(((ch, w), a))
        else:
            call_args.append(((), a))
    setup_s = _monotonic() - float(t_launch)
    result = {"setup_s": setup_s}

    if mode != "setup":
        tracer = None
        if mode == "trace":
            from layers import Tracer  # the script's directory is on sys.path

            tracer = Tracer()
            tracer.install()
        outcomes = []
        t0 = time.perf_counter()
        for i, (step, args) in enumerate(zip(steps, call_args)):
            if tracer is not None:
                tracer.step = i
            outcomes.append(_run_step(cli, nonmarkov, step, args, out_dir))
        result["sweep_s"] = time.perf_counter() - t0
        result["peak_rss_mb"] = _peak_rss_mb()
        result["steps"] = outcomes
        if tracer is not None:
            result["trace"] = tracer.dump()

    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def _peak_rss_mb() -> float:
    # VmHWM is this process image's own high-water mark.  ru_maxrss is not
    # used: Linux carries the parent's RSS into it across fork and exec, so it
    # would read the benchmark driver's memory whenever that is larger.
    with open("/proc/self/status", encoding="utf-8") as fh:
        kib = next(int(ln.split()[1]) for ln in fh if ln.startswith("VmHWM:"))
    return kib / 1024.0


def _run_step(cli, nonmarkov, step: dict, args, out_dir: str) -> dict:
    # A step that raises or exits nonzero is recorded, not fatal: the parent
    # counts every operation it was asked for as failed.
    if step["kind"] == "cli":
        argv = [step["mode"], "--spec", step["spec_path"], "--out", os.path.join(out_dir, step["out"])]
        try:
            return {"rc": cli.main(argv)}
        except SystemExit as exc:
            return {"rc": exc.code if isinstance(exc.code, int) else 1}
        except Exception as exc:  # noqa: BLE001 - reported to the parent
            return {"rc": -1, "error": repr(exc)}
    positional, kwargs = args
    try:
        # Looked up at call time so a traced run calls the wrapper.
        value = getattr(nonmarkov, step["fn"])(*positional, **kwargs)
    except Exception as exc:  # noqa: BLE001 - reported to the parent
        return {"error": repr(exc)}
    return {"value": value}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
