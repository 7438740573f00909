"""One benchmark workload, set up and measured in a fresh process.

``run.py`` starts this script with BLAS pinned to one thread, once for each
set-up sample; the last start also measures.  The worker builds its inputs
from ``--seed``, runs one untimed warm-up operation and prints ``READY``:
the parent's clock from process start to that line is the set-up time.  A
measuring worker then runs operations back to back (closed loop, one
caller) for ``--seconds``, checks every output and prints one JSON line
with the raw results.

With ``--trace 1`` every other operation runs under the tracer in
``tracing.py``; the others run untraced, and the gap between the two
operation rates is the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

N = 1500
TENSOR_DIMS = (6, 8, 10)
ORTHO_TOL = 1e-8


class CheckFailed(Exception):
    """An operation's output failed a correctness check."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def import_matseg():
    """Import the package from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import matseg
    from matseg import cli, io  # noqa: F401  (the tracer wraps functions in both)

    if Path(matseg.__file__).resolve().parent != SRC / "matseg":
        raise ImportError(f"matseg imported from {matseg.__file__}, not from {SRC}")
    return matseg


def check_segmentation(gamma, groups, scores, selected_edges, q: int) -> None:
    """The per-operation checks every segmentation result must pass."""
    gamma = np.asarray(gamma, dtype=float)
    require(gamma.shape == (q, q), f"gamma has shape {gamma.shape}, expected ({q}, {q})")
    err = float(np.max(np.abs(gamma.T @ gamma - np.eye(q))))
    require(err <= ORTHO_TOL, f"gamma is not orthogonal: max |G'G - I| = {err:.3g}")
    members = sorted(c for g in groups for c in g)
    require(members == list(range(1, q + 1)), f"groups {groups} do not partition 1..{q}")
    values = [s[2] for s in scores]
    require(len(values) == q * (q - 1) // 2, f"{len(values)} scores for {q} columns")
    require(all(a >= b for a, b in zip(values, values[1:])), "scores are not sorted descending")
    require(0 <= selected_edges <= len(values), f"selected_edges {selected_edges} out of range")


def fingerprint(*parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part if isinstance(part, bytes) else repr(part).encode())
    return digest.hexdigest()


def result_fingerprint(result) -> str:
    return fingerprint(result.gamma.tobytes(), result.groups, result.selected_edges)


class Replicate:
    """simulation.run_replication on examples 1, 2 and 3, n=1500, no
    thresholding; data generation is inside the timed operation.

    One operation is one rotation: a replication of each example, so every
    operation has the same shape mix and its latency has a single mode.
    """

    pool_size = 32
    warm_keys = (0,)

    def __init__(self, matseg, seed: int, work_dir: Path):
        self.m = matseg
        self.seed = seed
        self.cfg = matseg.SegmentationConfig()

    def run(self, key: int):
        run_replication = self.m.simulation.run_replication
        return [run_replication(example, N, key, self.cfg, self.seed) for example in (1, 2, 3)]

    def check(self, key: int, out):
        sim = self.m.simulation
        for rep, label, d_bar in out:
            require(label != "failed", f"replication {key} raised a MatsegError")
            require(rep == key, f"replication index {rep}, expected {key}")
            require(label in (sim.CORRECT, sim.NEAR_COMPLETE, sim.INCORRECT), f"label {label!r}")
            if label == sim.CORRECT:
                require(0.0 <= d_bar <= 1.0, f"fit error {d_bar} outside [0, 1]")
            else:
                require(math.isnan(d_bar), f"fit error {d_bar} reported for a {label} run")
        rated = [label == sim.CORRECT for _, label, _ in out]
        return rated, fingerprint(out)


class SegmentCv:
    """segmentation.segment with CvThreshold() on pre-generated example-3
    inputs (10x10, n=1500); ground truth is kept for correct_frac."""

    pool_size = 6
    warm_keys = (0,)

    def __init__(self, matseg, seed: int, work_dir: Path):
        self.m = matseg
        self.cfg = matseg.SegmentationConfig(threshold=matseg.CvThreshold(seed=seed))
        self.inputs = [
            matseg.simulation.gen_example(3, N, np.random.default_rng((seed, 1, k)))
            for k in range(self.pool_size)
        ]

    def run(self, key: int):
        return self.m.segmentation.segment(self.inputs[key][0], self.cfg)

    def check(self, key: int, result):
        check_segmentation(result.gamma, result.groups, result.scores, result.selected_edges, 10)
        require(len(result.u_per_lag) == self.cfg.k0, "missing cross-validated u levels")
        require(len(result.v_per_lag) == self.cfg.m + 1, "missing cross-validated v levels")
        label = self.m.simulation.classify_segmentation(result, self.inputs[key][1])
        return [label == self.m.simulation.CORRECT], result_fingerprint(result)


class TensorWide:
    """tensor.sequential_segment with NoThreshold on an order-3 series
    (n=1500, 6x8x10): every mode unfolds to p*q = 480."""

    pool_size = 2
    warm_keys = (0,)

    def __init__(self, matseg, seed: int, work_dir: Path):
        self.m = matseg
        self.cfg = matseg.SegmentationConfig()
        dim = math.prod(TENSOR_DIMS)
        self.inputs = [
            matseg.TensorSeries(
                matseg.simulation.gen_factor_varma(
                    dim, N, np.random.default_rng((seed, 2, k))
                ).reshape(N, *TENSOR_DIMS)
            )
            for k in range(self.pool_size)
        ]

    def run(self, key: int):
        return self.m.tensor.sequential_segment(self.inputs[key], self.cfg)

    def check(self, key: int, out):
        results, transformed = out
        require(len(results) == len(TENSOR_DIMS), f"{len(results)} mode results, expected 3")
        for result, q in zip(results, TENSOR_DIMS):
            check_segmentation(result.gamma, result.groups, result.scores, result.selected_edges, q)
        require(transformed.data.shape == self.inputs[key].data.shape, "transformed shape differs")
        require(bool(np.all(np.isfinite(transformed.data))), "transformed series is not finite")
        return None, fingerprint(*(result_fingerprint(r) for r in results))


class CliFiles:
    """cli.main segment then correlogram --gamma on an example-3 series file
    written in set-up; the result document is checked against an in-process
    segment of the same file."""

    pool_size = 1
    warm_keys = (0,)

    def __init__(self, matseg, seed: int, work_dir: Path):
        self.m = matseg
        series, _ = matseg.simulation.gen_example(3, N, np.random.default_rng((seed, 3)))
        self.series_path = str(work_dir / "series.txt")
        self.result_path = str(work_dir / "result.json")
        self.csv_path = str(work_dir / "correlogram.csv")
        matseg.io.write_series(self.series_path, series)
        self.reference = matseg.segment(matseg.io.read_series(self.series_path))
        self.lags = matseg.SegmentationConfig().m

    def run(self, key: int):
        for path in (self.result_path, self.csv_path):
            if os.path.exists(path):
                os.remove(path)
        cli = self.m.cli
        return (
            cli.main(["segment", self.series_path, "--out", self.result_path]),
            cli.main(
                ["correlogram", self.series_path, "--out", self.csv_path, "--gamma", self.result_path]
            ),
        )

    def check(self, key: int, codes):
        require(codes == (0, 0), f"exit codes {codes}")
        doc = self.m.io.read_result(self.result_path)
        gamma = np.asarray(doc["gamma"], dtype=float)
        check_segmentation(gamma, doc["groups"], doc["scores"], doc["selected_edges"], 10)
        ref = self.reference
        require(doc["groups"] == ref.groups, "groups read back differ from in-process segment")
        require(gamma.tobytes() == ref.gamma.tobytes(), "gamma read back is not bit-identical")
        rows = self.m.io.read_correlogram_csv(self.csv_path)
        require(len(rows) == 55 * (self.lags + 1), f"correlogram has {len(rows)} rows")
        values = np.array([r[3] for r in rows])
        require(bool(np.all((values >= 0) & (values <= 1 + 1e-9))), "correlation outside [0, 1]")
        return None, fingerprint(gamma.tobytes(), values.tobytes())


WORKLOADS = {
    "replicate": Replicate,
    "segment_cv": SegmentCv,
    "tensor_wide": TensorWide,
    "cli_files": CliFiles,
}


def measure(workload, seconds: float, tracer=None) -> dict:
    """Run operations back to back for `seconds`, checking each output.

    Inputs cycle through the workload's pool.  Repeats of one input must
    give the same output bit for bit.  With a tracer, even-numbered
    operations are traced and odd-numbered ones are not, and at least one
    of each runs.  A check returns
    the ground-truth ratings of the output (a list of bools, or None where
    the workload has no ground truth) and a fingerprint of it.
    """
    from matseg.errors import MatsegError

    records = []
    quality: dict[int, list[bool]] = {}
    prints: dict[int, str] = {}
    errors: list[str] = []
    min_ops = 1 if tracer is None else 2
    start = time.perf_counter()
    i = 0
    while i < min_ops or time.perf_counter() - start < seconds:
        key = i % workload.pool_size
        traced = tracer is not None and i % 2 == 0
        if traced:
            tracer.install()
            tracer.begin_op(i)
        error = None
        t0 = time.perf_counter()
        try:
            out = workload.run(key)
        except MatsegError as exc:
            error = exc
        finally:
            elapsed = time.perf_counter() - t0
            if traced:
                tracer.end_op()
                tracer.restore()
        if error is None:
            try:
                rated, digest = workload.check(key, out)
                require(prints.setdefault(key, digest) == digest, f"input {key} gave a new output")
                if rated is not None:
                    quality[key] = rated
            except CheckFailed as exc:
                error = exc
        if error is not None and len(errors) < 5:
            errors.append(f"op {i}: {type(error).__name__}: {error}")
        records.append((elapsed, traced, error is None))
        i += 1
    return {"records": records, "quality": quality, "errors": errors}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def summarize(raw: dict) -> dict:
    """Untraced end-to-end figures from the operation records."""
    lat = [r[0] for r in raw["records"] if not r[1]]
    attempted = len(raw["records"])
    failed = sum(1 for r in raw["records"] if not r[2])
    rated = [good for ratings in raw["quality"].values() for good in ratings]
    return {
        "attempted": attempted,
        "failed": failed,
        "errors": raw["errors"],
        "ops_per_s": len(lat) / sum(lat),
        "op_ms_p50": percentile(lat, 50) * 1e3,
        "op_ms_p90": percentile(lat, 90) * 1e3 if len(lat) >= 100 else None,
        "untraced_ops": len(lat),
        "correct_frac": sum(rated) / len(rated) if rated else None,
        "rated_segmentations": len(rated),
        "failed_frac": failed / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "latencies_ms": [x * 1e3 for x in lat],
    }


def machine_block() -> dict:
    """Where and on what code the numbers were measured."""

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    src_digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model or platform.processor() or None,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "num_threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "src_sha256": src_digest.hexdigest(),
    }


def write_spans(path: Path, spans) -> None:
    with open(path, "w") as handle:
        for s in spans:
            handle.write(
                json.dumps(
                    {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                     "op": s.op, "lag": s.lag, "gflop": s.gflop}
                )
                + "\n"
            )


def traced_summary(raw: dict, tracer, spans_path: Path) -> dict:
    """Per-layer metrics from the traced operations, plus the tracing overhead."""
    traced = [r[0] for r in raw["records"] if r[1]]
    untraced = [r[0] for r in raw["records"] if not r[1]]
    layers = tracing.layer_metrics(tracer.spans, len(traced), sum(traced))
    untraced_rate = len(untraced) / sum(untraced)
    traced_rate = len(traced) / sum(traced)
    layers["trace.overhead_pct"] = 100.0 * (untraced_rate - traced_rate) / untraced_rate
    write_spans(spans_path, tracer.spans)
    return {
        "layers": layers,
        "layer_units": dict(tracing.layer_metric_names()),
        "traced_ops": len(traced),
        "spans": len(tracer.spans),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    matseg = import_matseg()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"work-{args.workload}-") as tmp:
        workload = WORKLOADS[args.workload](matseg, args.seed, Path(tmp))
        for key in workload.warm_keys:
            workload.check(key, workload.run(key))
        print("READY", flush=True)
        if args.setup_only:
            return 0
        tracer = tracing.Tracer() if args.trace else None
        raw = measure(workload, args.seconds, tracer)
    result = summarize(raw)
    if tracer is not None:
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        result.update(traced_summary(raw, tracer, spans_path))
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    result["machine"] = machine_block()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
