"""matseg benchmark: one workload per fresh process, closed loop, BLAS on one thread.

    python3 bench/run.py --workload segment_cv --seed 0 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 15

Each workload is set up SETUP_SAMPLES times in fresh worker processes
(see worker.py); the last of them also measures.  A traced run sets up once.  setup_s is the median
time from process start to the first timed operation.  With --trace 0 the
last line of standard output is a JSON object with the end-to-end metrics;
with --trace 1 it carries the per-layer metrics instead.  Full results go
to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("replicate", "segment_cv", "tensor_wide", "cli_files")
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 120.0
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

# The gated end-to-end metrics, as in BENCHMARK.json, with their units.  The
# report prints all seven; bench/README.md says why the rest are not gated.
END_TO_END = {"ops_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}
SEVEN = ("ops_per_s", "op_ms_p50", "op_ms_p90", "correct_frac", "failed_frac", "peak_rss_mb", "setup_s")


class BenchError(Exception):
    pass


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def spawn_worker(workload: str, seed: int, seconds: float, trace: int, setup_only: bool):
    """Start one worker; return (seconds from start to READY, parsed result or None)."""
    cmd = [
        sys.executable, str(BENCH / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=worker_env()) as proc:
        watchdog = threading.Timer(SETUP_TIMEOUT_S + seconds, proc.kill)
        watchdog.start()
        try:
            first = proc.stdout.readline()
            ready = time.perf_counter() - start
            rest = proc.stdout.read()
        finally:
            proc.wait()
            watchdog.cancel()
    if proc.returncode != 0 or first.strip() != "READY":
        raise BenchError(f"{workload} worker exited with code {proc.returncode}")
    if setup_only:
        return ready, None
    return ready, json.loads(rest.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    # A traced run reports no setup_s, so it sets up only once.
    setups = [
        spawn_worker(workload, seed, seconds, trace, setup_only=True)[0]
        for _ in range(0 if trace else SETUP_SAMPLES - 1)
    ]
    ready, result = spawn_worker(workload, seed, seconds, trace, setup_only=False)
    setups.append(ready)
    result["setup_s"] = statistics.median(setups)
    result["setup_samples_s"] = setups
    result.update(workload=workload, seed=seed, seconds=seconds, trace=trace)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    result["result_file"] = str(path.relative_to(ROOT))
    return result


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report_end_to_end(r: dict) -> None:
    print(f"== {r['workload']}  seed={r['seed']}  seconds={r['seconds']:g}  "
          f"attempted={r['attempted']}  failed={r['failed']}")
    p90 = r["op_ms_p90"]
    rows = [
        ("ops_per_s", r["ops_per_s"], "1/s", ""),
        ("op_ms_p50", r["op_ms_p50"], "ms", f"over {r['untraced_ops']} ops"),
        ("op_ms_p90", p90, "ms", "" if p90 is not None else
         f"omitted: {r['untraced_ops']} ops < 100"),
        ("correct_frac", r["correct_frac"], "frac",
         f"over {r['rated_segmentations']} rated segmentations" if r["correct_frac"] is not None
         else "n/a: no ground truth on this workload"),
        ("failed_frac", r["failed_frac"], "frac", ""),
        ("peak_rss_mb", r["peak_rss_mb"], "MB", ""),
        ("setup_s", r["setup_s"], "s", "median of " + ", ".join(f"{s:.3f}" for s in r["setup_samples_s"])),
    ]
    for name, value, unit, note in rows:
        shown = "-" if value is None else _fmt(value)
        print(f"  {name:<13} {shown:>12} {unit:<5} {note}")
    for err in r["errors"]:
        print(f"  error: {err}")
    print(f"  machine: {json.dumps(r['machine'])}")
    print(f"  details: {r['result_file']}")


def report_layers(r: dict) -> None:
    layers = r["layers"]
    print(f"== {r['workload']} traced  seed={r['seed']}  traced_ops={r['traced_ops']}  "
          f"spans={r['spans']}  ({r['spans_file']})")
    print(f"  per traced operation: {layers['trace.op_ms']:.3f} ms; "
          f"tracing overhead {layers['trace.overhead_pct']:.2f}% of untraced ops_per_s "
          f"({r['ops_per_s']:.4g}/s over {r['untraced_ops']} untraced ops)")
    for name, value in layers.items():
        print(f"  {name:<48} {value:14.6g}")


def final_line(r: dict, trace: int) -> str:
    if trace:
        metrics = {name: {"value": r["layers"][name], "unit": unit}
                   for name, unit in r["layer_units"].items()}
    else:
        metrics = {name: {"value": r[name], "unit": unit} for name, unit in END_TO_END.items()}
    return json.dumps({
        "correct": r["failed"] == 0,
        "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": metrics,
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "matseg" / "__init__.py").is_file():
        print(f"bench: no matseg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        try:
            r = run_workload(name, args.seed, args.seconds, args.trace)
        except BenchError as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 1
        (report_layers if args.trace else report_end_to_end)(r)
        results.append(r)
    if args.workload != "all":
        print(final_line(results[0], args.trace))
    elif not args.trace:
        print("== summary")
        print(f"  {'workload':<12} " + " ".join(f"{m:>13}" for m in SEVEN))
        for r in results:
            cells = [r[m] for m in SEVEN]
            print(f"  {r['workload']:<12} " + " ".join(
                f"{'-' if c is None else _fmt(c):>13}" for c in cells))
        print("  units: 1/s, ms, ms, frac, frac, MB, s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
