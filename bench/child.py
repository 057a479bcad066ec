"""One workload run in a fresh interpreter; ``run.py`` starts it.

Usage: child.py --workload NAME --seed N --seconds S --trace 0|1 --work DIR [--spans FILE]
       child.py --probe --workload NAME   (only time the program import, print it, exit)

Prints one JSON line with the raw samples, each time with the factor that
puts it at the nominal host speed (speed.py); ``run.py`` turns them into
metrics. The program is imported from ``src/`` next to this directory and
nowhere else. Load is a closed loop with one client: each op starts when the
previous one has returned, and ops run until their summed time reaches the
requested seconds.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SET_UP_ROUNDS = 3
# What set-up imports and times, per workload. The program is imported
# before the benchmark's own modules, which import numpy too.
PROGRAM_MODULE = {"ground-reuse": "flowground", "cli-ground": "flowground.cli", "train": "flowground.cli"}


def import_program(module: str):
    """Import ``module`` from ROOT/src; returns (flowground package, seconds)."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    importlib.import_module(module)
    elapsed = time.perf_counter() - start
    fg = sys.modules["flowground"]
    if not Path(fg.__file__).resolve().is_relative_to(src):
        raise ImportError(f"flowground came from {fg.__file__}, not {src}")
    return fg, elapsed


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--workload", required=True, choices=sorted(PROGRAM_MODULE))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", type=Path)
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args()
    fg, import_s = import_program(PROGRAM_MODULE[args.workload])
    from speed import SpeedLog

    speed = SpeedLog()
    speed.sample(3)  # the first run includes numpy's first calls; the median drops it
    now = time.perf_counter()
    imported = [import_s * 1e3, speed.factor(now, now)]  # [ms, factor to nominal speed]
    if args.probe:
        print(json.dumps({"import": imported}))
        return 0
    from checks import CheckFailed
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    w = cls(fg, args.seed, args.work)

    warm = w.warmup()
    set_up = []
    for _ in range(SET_UP_ROUNDS):
        speed.sample(3)
        start = time.perf_counter()
        w.prepare()
        result = w.run(warm)
        set_up.append([start, time.perf_counter()])
    speed.sample(3)
    problems = []
    try:
        w.check(warm, result)
    except Exception as exc:  # reported like a failed op's check, and the run goes on
        problems.append(f"warm-up op: check failed: {type(exc).__name__}: {exc}")
    set_up = [[(b - a) * 1e3, speed.factor(a, b)] for a, b in set_up]

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    # With tracing, ops cycle plain / traced / traced with tracemalloc, and
    # the three ops of a cycle share a slot, so they have the same shape.
    period = 3 if tracer else 1
    ops, spans = [], []
    last_ms = max(ms for ms, _ in set_up)
    busy, index, deadline = 0.0, 0, time.monotonic() + 4 * args.seconds + 30
    try:
        while busy < args.seconds and time.monotonic() < deadline:
            kind = index % period
            op = w.make(index // period, index)
            if tracer:
                tracer.op = index if kind else None
                tracer.memory = kind == 2
            speed.sample_near(last_ms)
            start = time.perf_counter()
            try:
                result = w.run(op)
                error = None
            except Exception as exc:  # a failed op is recorded, not fatal
                error = f"{type(exc).__name__}: {exc}"
            end = time.perf_counter()
            if tracer:
                tracer.op = None
            busy += end - start
            last_ms = (end - start) * 1e3
            spans.append((start, end))
            sample = {"ms": (end - start) * 1e3, "kind": kind, "ok": False}
            if error is None:
                try:
                    out = w.check(op, result)
                    sample.update(ok=True, clips=out.clips, acc=out.accuracy)
                except Exception as exc:  # CheckFailed, or output the check cannot read
                    error = f"check failed: {type(exc).__name__}: {exc}"
            if error is not None:
                problems.append(f"op {index}: {error}")
            ops.append(sample)
            index += 1
    finally:
        if tracer:
            tracer.restore()
    speed.sample_near(last_ms)
    for sample, (start, end) in zip(ops, spans):
        sample["scale"] = speed.factor(start, end)
    try:
        w.finish()
    except CheckFailed as exc:
        problems.append(f"run check failed: {exc}")

    report = {
        "workload": cls.name,
        "import": imported,
        "set_up": set_up,
        "ops": ops,
        "oracle_checks": w.oracle_checks,
        "inputs": w.input_profile(),
        "problems": problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        from tracing import layer_metrics

        timed = {i: s["scale"] for i, s in enumerate(ops) if s["kind"] == 1}
        memory = {i for i, s in enumerate(ops) if s["kind"] == 2}
        report["layers"] = layer_metrics(tracer, timed, memory)
        if args.spans:
            args.spans.parent.mkdir(exist_ok=True)
            tracer.write(args.spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(2)
