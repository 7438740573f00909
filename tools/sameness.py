"""Manifest of the matseg CLI's outputs on fixed inputs, for comparing two source trees.

    python tools/sameness.py SRC_DIR [--blas-threads N] > manifest.txt

Every command runs as ``python -m matseg.cli`` in a fresh subprocess with
``PYTHONPATH=SRC_DIR`` and, by default, OpenBLAS, OpenMP and MKL on one
thread.  Each manifest line gives the command's exit code, the sha256 of
the files it writes followed by its stdout, and the sha256 of its stderr,
then the command.  Two
trees that behave the same print identical manifests, so ``diff`` of two
manifests lists the commands whose output moved.

The inputs are generated here: ``simulate --seed 11`` writes examples 1-3 at
n = 60, 300 and 1500, and an order-3 3x4x5 and an order-4 2x1x3x2 series
are written directly.  Each matrix series is segmented under none,
fixed:0.05,0.03 and cv:5 and its correlogram taken raw, with --gamma (from
its unthresholded result) and under cv:3; the order-3 tensor is segmented
under none, cv:3 and fixed:0.05,0.03, the order-4 one (whose size-1 mode
is carried with the identity gamma) under none and fixed:0.05,0.03, and a
correlogram with --gamma set to the order-3 result is refused; four
small replicate reports follow, one of them with no correct run and one
over three lengths on two worker processes.  Last,
``segment`` runs on three malformed series files (a bad dimension line, a
bad float and a byte that is not UTF-8) and on a 5x2x6 matrix series too
short for the default lag window, so their exit codes and error records
enter the manifest too, and each subcommand's ``--help`` and one
usage error of each (exit 2) close the manifest, so the parser surface is
compared as well.
Commands run one at a time in a temporary directory, with relative paths.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

EXAMPLES = (1, 2, 3)
LENGTHS = (60, 300, 1500)
SEGMENT_THRESHOLDS = ("none", "fixed:0.05,0.03", "cv:5")
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TENSORS = {"tensor.txt": (3, 4, 5), "tensor4.txt": (2, 1, 3, 2)}
MALFORMED = {
    "bad_dims.txt": b"matseg,matrix,1\n2,1,2,2\n1.0,2.0,3.0,4.0\n5.0,6.0,7.0,8.0\n",
    "bad_float.txt": b"matseg,matrix,1\n2,1,2\n1.0,2.0\n3.0,x\n",
    "bad_utf8.txt": b"matseg,matrix,1\n2,1,2\n1.0,2.0\n3.0,4.0\xff\n",
}
# refused before any estimation: m = 10 exceeds n - 2
SHORT = "short.txt"
USAGE_ERRORS = {
    "simulate": ["--example", "4", "--n", "100", "--out", "x.txt"],
    "segment": ["ex1_n60.txt", "--out", "x.json", "--threshold", "median:3"],
    "correlogram": ["ex1_n60.txt", "--out", "x.csv", "--m", "two"],
    "replicate": ["--example", "1", "--n", "1", "--reps", "2", "--out", "x.csv"],
}


def write_tensor(path: Path, dims: tuple[int, ...]) -> None:
    """An AR(1) series of length 300 of dims-shaped tensors in the matseg tensor format."""
    rng = np.random.default_rng((11,) + dims)
    data = rng.standard_normal((300,) + dims)
    for t in range(1, data.shape[0]):
        data[t] += 0.6 * data[t - 1]
    lines = ["matseg,tensor,1", ",".join(str(v) for v in (300, len(dims)) + dims)]
    # mode-major flattening, index 1 fastest, as the series format requires
    lines += [",".join(repr(float(v)) for v in x.ravel(order="F")) for x in data]
    path.write_text("\n".join(lines) + "\n")


def write_short(path: Path) -> None:
    """A 5x2x6 matrix series of standard normal entries in the matseg matrix format."""
    rows = np.random.default_rng(11).standard_normal((5, 12))
    lines = ["matseg,matrix,1", "5,2,6"] + [",".join(repr(float(v)) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def commands() -> list[tuple[list[str], list[str]]]:
    """Every (argv, written files) pair, in run order."""
    out = []
    series = []
    for example in EXAMPLES:
        for n in LENGTHS:
            name = f"ex{example}_n{n}.txt"
            series.append(name)
            argv = ["simulate", "--example", str(example), "--n", str(n), "--seed", "11"]
            out.append((argv + ["--out", name], [name, name + ".truth"]))
    for name in series:
        for i, spec in enumerate(SEGMENT_THRESHOLDS):
            result = f"{name}.seg{i}.json"
            out.append((["segment", name, "--out", result, "--threshold", spec], [result]))
        correlograms = [[], ["--gamma", f"{name}.seg0.json"], ["--threshold", "cv:3"]]
        for i, flags in enumerate(correlograms):
            csv = f"{name}.cor{i}.csv"
            out.append((["correlogram", name, "--out", csv] + flags, [csv]))
    tensor_flags = [[], ["--threshold", "cv:3"], ["--threshold", "fixed:0.05,0.03"]]
    for i, flags in enumerate(tensor_flags):
        result = f"tensor.seg{i}.json"
        out.append((["segment", "tensor.txt", "--out", result] + flags, [result]))
    for i, flags in enumerate([[], ["--threshold", "fixed:0.05,0.03"]]):
        result = f"tensor4.seg{i}.json"
        out.append((["segment", "tensor4.txt", "--out", result] + flags, [result]))
    # a tensor document has no one gamma to apply: refused, exit 3
    refused = "ex1_n60.txt.cor_tensor.csv"
    argv = ["correlogram", "ex1_n60.txt", "--out", refused, "--gamma", "tensor.seg0.json"]
    out.append((argv, [refused]))
    reports = [
        (["--example", "1", "--n", "60,100", "--reps", "4"], 1),
        (["--example", "3", "--n", "100", "--reps", "3", "--threshold", "cv:3"], 1),
        # no run is correct, so the report has no median
        (["--example", "3", "--n", "50", "--reps", "1"], 1),
        # every length's replications in one pool of two worker processes
        (["--example", "1", "--n", "60,100,150", "--reps", "4"], 2),
    ]
    for i, (flags, threads) in enumerate(reports):
        csv = f"report{i}.csv"
        argv = ["replicate"] + flags + ["--seed", "0", "--threads", str(threads), "--out", csv]
        out.append((argv, [csv]))
    for name in MALFORMED:
        result = f"{name}.seg.json"
        out.append((["segment", name, "--out", result], [result]))
    out.append((["segment", SHORT, "--out", f"{SHORT}.seg.json"], [f"{SHORT}.seg.json"]))
    for command, flags in USAGE_ERRORS.items():
        out.append(([command, "--help"], []))
        out.append(([command] + flags, []))
    return out


def digest(paths: list[Path], stdout: bytes) -> str:
    """sha256 over the files in order, then stdout; a missing file counts as empty."""
    h = hashlib.sha256()
    for path in paths:
        h.update(path.read_bytes() if path.exists() else b"")
    h.update(stdout)
    return h.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src_dir", help="directory holding the matseg package")
    parser.add_argument(
        "--blas-threads",
        type=int,
        default=1,
        help="BLAS threads per command; 0 leaves the thread variables as they are",
    )
    args = parser.parse_args()
    # a fixed width, so the help text wraps the same on any terminal
    env = dict(os.environ, PYTHONPATH=str(Path(args.src_dir).resolve()), COLUMNS="80")
    if args.blas_threads > 0:
        env.update({var: str(args.blas_threads) for var in BLAS_VARIABLES})
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, dims in TENSORS.items():
            write_tensor(work / name, dims)
        for name, raw in MALFORMED.items():
            (work / name).write_bytes(raw)
        write_short(work / SHORT)
        for argv, written in commands():
            run = subprocess.run(
                [sys.executable, "-m", "matseg.cli"] + argv,
                cwd=work,
                env=env,
                capture_output=True,
            )
            err = hashlib.sha256(run.stderr).hexdigest()
            files = digest([work / name for name in written], run.stdout)
            print(f"{run.returncode} {files} {err} {' '.join(argv)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
