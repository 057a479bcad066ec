"""flowground benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all ...          every workload in turn
    python3 bench/run.py --steady 10 --workload all  steadiness: 10 seeds per workload

Each workload runs in its own fresh child process (bench/child.py) with BLAS
held to one thread, and every op's output is checked. With ``--trace 0`` the
end-to-end metrics are measured; ``--trace 1`` is a separate traced run that
reports the per-layer metrics and the tracing overhead. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Metric names, units, directions and bounds are those of BENCHMARK.json.
Times are given at a nominal host speed: each is scaled by the median time
of a fixed reference kernel run between ops near it (speed.py), which
cancels the speed swings of a shared host; the unscaled p50 is printed too.
Inputs and outputs live in .bench_work/ under the repository root and are
removed after the run; spans of a traced run go to .bench_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path


ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
# Printed, but not in BENCHMARK.json: p90 needs 100 ops (train has fewer),
# failed_frac is 0 on a good run (the result line carries attempted and
# failed), and the unscaled p50 swings with the host's speed.
UNITS.update(op_ms_p90="ms", failed_frac="fraction", op_ms_p50_raw="ms")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# A fixed mmap threshold stops glibc from raising it after large frees, so
# freed DP tables go back to the OS and ru_maxrss follows live memory rather
# than heap fragmentation (which otherwise moved the peak by 30 MB with the seed).
CHILD_ENV = {**{v: "1" for v in THREAD_VARS}, "MALLOC_MMAP_THRESHOLD_": "131072"}
IMPORT_PROBES = 2  # fresh interpreters that only time the import, besides the run's own


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child(args: list[str], timeout: float) -> dict:
    env = dict(os.environ, **CHILD_ENV)
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), *args],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"child {' '.join(args)} ran longer than {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"child {' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; a failed op is +inf and so counts as slowest."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = ROOT / ".bench_work" / f"{name}-seed{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--work", str(work)]
    if trace:
        args += ["--trace", "1", "--spans", str(ROOT / ".bench_out" / f"spans-{name}-seed{seed}.jsonl")]
    try:
        probes = [child(["--probe", "--workload", name], 60)["import"] for _ in range(IMPORT_PROBES)]
        raw = child(args, 4 * seconds + 60)  # the child stops its loop by 4 * seconds + 30
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only once empty
    raw["import"] = [raw["import"], *probes]
    return raw


def op_ms(op: dict) -> float:
    """An op's time at the nominal host speed; +inf if it failed."""
    return op["ms"] * op["scale"] if op["ok"] else math.inf


def end_to_end(raw: dict) -> tuple[dict, dict]:
    """(metric values, sample counts) of an untraced run."""
    ops = raw["ops"]
    ok = [o for o in ops if o["ok"]]
    times = [op_ms(o) for o in ops]
    values = {
        "setup_s": sum(statistics.median(ms * f for ms, f in raw[k]) for k in ("import", "set_up")) / 1e3,
        "op_ms_p50": percentile(times, 50),
        "op_ms_p50_raw": percentile([o["ms"] if o["ok"] else math.inf for o in ops], 50),
        "op_ms_p90": percentile(times, 90) if len(ops) >= 100 else None,
        "clips_per_s": statistics.median(o["clips"] / op_ms(o) * 1e3 if o["ok"] else 0.0 for o in ops),
        "frame_acc": statistics.fmean(o["acc"] for o in ok) if ok else 0.0,
        "peak_rss_mb": raw["peak_rss_mb"],
        "failed_frac": (len(ops) - len(ok)) / len(ops),
    }
    n = len(ops)
    counts = {
        "setup_s": f"import {len(raw['import'])} + set-up {len(raw['set_up'])}",
        "op_ms_p50": n, "op_ms_p50_raw": n, "op_ms_p90": n, "clips_per_s": n, "frame_acc": len(ok),
        "peak_rss_mb": 1, "failed_frac": n,
    }
    return values, counts


def per_layer(raw: dict) -> tuple[dict, dict]:
    """(metric values, sample counts) of a traced run."""
    ops = raw["ops"]
    plain = [op_ms(o) for o in ops if o["kind"] == 0]
    traced = [op_ms(o) for o in ops if o["kind"] == 1]
    values = dict(raw["layers"])
    values["trace.overhead"] = percentile(traced, 50) / percentile(plain, 50) - 1 if traced else math.inf
    values["brute.checked"] = raw["oracle_checks"]
    counts = dict.fromkeys(values, f"{len(traced)} traced ops")
    counts.update({
        "align.hard_peak_mb": f"{sum(o['kind'] == 2 for o in ops)} memory ops",
        "soft.peak_mb": f"{sum(o['kind'] == 2 for o in ops)} memory ops",
        "trace.overhead": f"{len(traced)} traced, {len(plain)} plain ops",
        "brute.checked": f"{len(ops)} ops",
    })
    return values, counts


def report(name: str, seed: int, trace: bool, raw: dict) -> dict:
    """Print the human-readable lines and return the contract's result object."""
    ops = raw["ops"]
    failed = sum(not o["ok"] for o in ops)
    print(f"workload {name}  seed {seed}  trace {int(trace)}  ops {len(ops)}  failed {failed}")
    inputs = raw["inputs"]
    ranges = "  ".join(f"{k} {inputs[k][0]}-{inputs[k][1]}" for k in ("states", "edges", "clips"))
    print(f"  inputs: reused graph {inputs['reused_graph_share']:.0%}  CSV {inputs['csv_share']:.0%}  {ranges}")
    for problem in raw["problems"][:10]:
        print(f"  problem: {problem}")
    values, counts = per_layer(raw) if trace else end_to_end(raw)
    listed = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    if set(listed) - set(values):
        raise BenchError(f"BENCHMARK.json lists metrics the run did not produce: {set(listed) - set(values)}")
    if trace:
        selfs = {k: v for k, v in values.items() if UNITS[k] == "s/op"}
        print(f"  largest self time: {max(selfs, key=selfs.get)}")
    for key, value in values.items():
        shown = "n/a (fewer than 100 ops)" if value is None else f"{value:.6g} {UNITS[key]}"
        print(f"  {key:24s} {shown}  (n={counts[key]})")
    return {
        "correct": not raw["problems"],
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": UNITS[k]} for k in listed},
    }


def steady(names: list[str], seed: int, runs: int, seconds: float) -> dict:
    """Median and quartile spread of each end-to-end metric over ``runs`` seeds."""
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    summary = {}
    for name in names:
        samples: dict[str, list[float]] = {k: [] for k in bounds}
        for s in range(seed, seed + runs):
            result = report(name, s, False, run_workload(name, s, seconds, False))
            for k in bounds:
                samples[k].append(result["metrics"][k]["value"])
        summary[name] = {}
        print(f"steadiness {name}: {runs} seeds from {seed}")
        for k, vals in samples.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            verdict = "ok" if spread <= bounds[k] / 3 else ("within bound" if spread <= bounds[k] else "TOO WIDE")
            print(f"  {k:14s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.4f}  bound {bounds[k]}  {verdict}")
            summary[name][k] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": vals}
    return summary


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steady", type=int, metavar="RUNS", help="rerun over RUNS seeds and print the spreads")
    args = ap.parse_args()
    names = WORKLOADS if args.workload == "all" else [args.workload]
    try:
        if args.steady:
            print(json.dumps(steady(names, args.seed, args.steady, args.seconds)))
            return 0
        results = {
            name: report(name, args.seed, bool(args.trace), run_workload(name, args.seed, args.seconds, bool(args.trace)))
            for name in names
        }
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
