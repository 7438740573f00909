"""Paired A/B timing of one matseg operation: a git revision against the working tree.

    python tools/ab.py REV OP [--rounds N] [--seed S] [--calls K]

REV is extracted with ``git archive`` into a temporary directory.  Each
round runs OP in two fresh subprocesses, one on REV's ``src`` and one on
the working tree's, in alternating order, with OpenBLAS, OpenMP and MKL on
one thread.  Each subprocess makes one warm-up call and then K timed calls
on the same input, and reports the median of its K calls and its max RSS.
The input is generated once, by the working tree's generator at the given
seed, and both sides read the same bytes.

The report gives each round's times and paired ratio (REV over working
tree, so above 1 means the working tree is faster), the number of rounds
the working tree won, the median and quartiles of each side's per-round
medians, and each side's largest max RSS.  Running REV = HEAD on a clean
tree (an A/A run) measures the noise floor that a claimed gain must
clear.  The tool gates nothing.

Operations (n = 1500 throughout):

    segment-ex1, segment-ex3          segment, no threshold, example 1 or 3
    segment-cv-ex1, segment-cv-ex3    segment under CvThreshold(seed=S)
    tensor                            sequential_segment of a 6x8x10 series
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
N = 1500
TENSOR_DIMS = (6, 8, 10)
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# name -> (example, cross-validated); example None is the tensor input
OPS = {
    "segment-ex1": (1, False),
    "segment-ex3": (3, False),
    "segment-cv-ex1": (1, True),
    "segment-cv-ex3": (3, True),
    "tensor": (None, False),
}

CHILD = r"""
import json, resource, sys, time
import numpy as np
import matseg

example, cv, seed, path, calls = json.loads(sys.argv[1])
data = np.load(path)
if example is None:
    series = matseg.TensorSeries(data)
    cfg = matseg.SegmentationConfig()
    run = lambda: matseg.sequential_segment(series, cfg)
else:
    series = matseg.MatrixSeries(data)
    threshold = matseg.CvThreshold(seed=seed) if cv else matseg.NoThreshold()
    cfg = matseg.SegmentationConfig(threshold=threshold)
    run = lambda: matseg.segment(series, cfg)
run()
times = []
for _ in range(calls):
    start = time.perf_counter()
    run()
    times.append(1e3 * (time.perf_counter() - start))
rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"ms": times, "rss_mb": rss_mb, "module": matseg.__file__}))
"""


def extract(rev: str, dest: Path) -> Path:
    """REV's tree under dest, as git archive writes it."""
    tar = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, capture_output=True, check=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return dest


def make_input(op: str, seed: int, path: Path) -> None:
    """Write OP's input, from the working tree's generator, to path (.npy)."""
    sys.path.insert(0, str(ROOT / "src"))
    from matseg.simulation import gen_example, gen_factor_varma

    example, _ = OPS[op]
    if example is None:
        rng = np.random.default_rng((seed, 2))
        data = gen_factor_varma(int(np.prod(TENSOR_DIMS)), N, rng).reshape(N, *TENSOR_DIMS)
    else:
        data = gen_example(example, N, np.random.default_rng((seed, example)))[0].data
    np.save(path, data)


def run_side(tree: Path, op: str, seed: int, path: Path, calls: int) -> dict:
    """One fresh subprocess on tree's src: median ms of its timed calls and max RSS."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    env.update({var: "1" for var in BLAS_VARIABLES})
    example, cv = OPS[op]
    arg = json.dumps([example, cv, seed, str(path), calls])
    out = subprocess.run(
        [sys.executable, "-c", CHILD, arg], env=env, capture_output=True, text=True, check=True
    )
    record = json.loads(out.stdout.strip().splitlines()[-1])
    if not Path(record["module"]).resolve().is_relative_to((tree / "src").resolve()):
        raise RuntimeError(f"matseg imported from {record['module']}, not from {tree / 'src'}")
    return {"ms": statistics.median(record["ms"]), "rss_mb": record["rss_mb"]}


def spread(values: list[float]) -> str:
    q1, q2, q3 = np.percentile(values, [25, 50, 75])
    return f"median {q2:.2f} ms, quartiles {q1:.2f}-{q3:.2f} ms"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev")
    parser.add_argument("op", choices=sorted(OPS))
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--calls", type=int, default=9)
    args = parser.parse_args(argv)
    if args.rounds < 1 or args.calls < 1:
        parser.error("--rounds and --calls must be positive")
    with tempfile.TemporaryDirectory() as tmp:
        base = extract(args.rev, Path(tmp) / "base")
        path = Path(tmp) / "input.npy"
        make_input(args.op, args.seed, path)
        sides = {"base": [], "work": []}
        for r in range(args.rounds):
            order = ("base", "work") if r % 2 == 0 else ("work", "base")
            got = {}
            for side in order:
                tree = base if side == "base" else ROOT
                got[side] = run_side(tree, args.op, args.seed, path, args.calls)
                sides[side].append(got[side])
            ratio = got["base"]["ms"] / got["work"]["ms"]
            print(
                f"round {r + 1}: {args.rev} {got['base']['ms']:.2f} ms, "
                f"working tree {got['work']['ms']:.2f} ms, ratio {ratio:.3f}",
                flush=True,
            )
    base_ms = [s["ms"] for s in sides["base"]]
    work_ms = [s["ms"] for s in sides["work"]]
    wins = sum(w < b for b, w in zip(base_ms, work_ms))
    ratios = [b / w for b, w in zip(base_ms, work_ms)]
    print(f"{args.op}, seed {args.seed}, {args.rounds} rounds of {args.calls} calls")
    for label, side in ((args.rev, "base"), ("working tree", "work")):
        ms = [s["ms"] for s in sides[side]]
        rss = max(s["rss_mb"] for s in sides[side])
        print(f"{label}: {spread(ms)}, max RSS {rss:.1f} MB")
    median_ratio = statistics.median(ratios)
    print(f"working tree faster in {wins} of {args.rounds} rounds; median ratio {median_ratio:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
