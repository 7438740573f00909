"""Text formats for series, ground truth, results and reports.

Series files are comma-separated with a magic first line; floats are
written with Python's shortest round-trip representation, so reading a
written file reproduces the array bit for bit.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from .errors import InvalidInput, ParseError
from .segmentation import (
    CvThreshold,
    FixedThreshold,
    NoThreshold,
    SegmentationConfig,
    SegmentationResult,
)
from .series import MatrixSeries, TensorSeries
from .simulation import ExperimentReport, GroundTruth

MAGIC_PREFIX = "matseg"
FORMAT_VERSION = 1


def _fmt(x: float) -> str:
    return repr(float(x))


def _parse_floats(token_line: str, lineno: int, expected: int) -> np.ndarray:
    parts = token_line.split(",")
    if len(parts) != expected:
        raise ParseError(lineno, f"expected {expected} values, found {len(parts)}")
    try:
        return np.array([float(tok) for tok in parts])
    except ValueError as exc:
        raise ParseError(lineno, f"bad float: {exc}") from exc


def _parse_ints(tokens: list[str], lineno: int) -> list[int]:
    try:
        return [int(tok) for tok in tokens]
    except ValueError as exc:
        raise ParseError(lineno, f"bad integer: {exc}") from exc


def write_series(path, series: MatrixSeries | TensorSeries) -> None:
    """Write a matrix or tensor series file."""
    lines = []
    if isinstance(series, MatrixSeries):
        lines.append(f"{MAGIC_PREFIX},matrix,{FORMAT_VERSION}")
        lines.append(f"{series.n},{series.p},{series.q}")
        flat = series.data.reshape(series.n, series.p * series.q)
    elif isinstance(series, TensorSeries):
        lines.append(f"{MAGIC_PREFIX},tensor,{FORMAT_VERSION}")
        dims = ",".join(str(d) for d in series.dims)
        lines.append(f"{series.n},{series.order},{dims}")
        # each tensor flattens mode-major (index 1 fastest) independently of
        # the leading time axis
        flat = np.stack([series.data[t].ravel(order="F") for t in range(series.n)])
    else:
        raise InvalidInput(f"cannot write object of type {type(series).__name__}")
    for t in range(series.n):
        lines.append(",".join(_fmt(v) for v in flat[t]))
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def read_series(path) -> MatrixSeries | TensorSeries:
    """Read a series file, dispatching on the magic line."""
    with open(path) as handle:
        lines = handle.read().splitlines()
    if not lines:
        raise ParseError(1, "empty file")
    magic = lines[0].split(",")
    if len(magic) != 3 or magic[0] != MAGIC_PREFIX or magic[1] not in ("matrix", "tensor"):
        raise ParseError(1, f"unrecognized header {lines[0]!r}")
    if magic[2] != str(FORMAT_VERSION):
        raise ParseError(1, f"unsupported format version {magic[2]!r}")
    if len(lines) < 2:
        raise ParseError(2, "missing dimension line")
    kind = magic[1]
    header = lines[1].split(",")
    if kind == "matrix":
        if len(header) != 3:
            raise ParseError(2, f"expected n,p,q, found {lines[1]!r}")
        n, p, q = _parse_ints(header, 2)
        if n < 2 or p < 1 or q < 1:
            raise ParseError(2, f"bad dimensions n={n}, p={p}, q={q}")
        dims: tuple[int, ...] = (p, q)
    else:
        if len(header) < 4:
            raise ParseError(2, f"expected n,r,p1,...,pr, found {lines[1]!r}")
        values = _parse_ints(header, 2)
        n, order = values[0], values[1]
        dims = tuple(values[2:])
        if order < 2 or len(dims) != order or any(d < 1 for d in dims) or n < 2:
            raise ParseError(2, f"bad dimensions {lines[1]!r}")
    width = math.prod(dims)
    payload = [(lineno, line) for lineno, line in enumerate(lines[2:], start=3) if line]
    if len(payload) != n:
        raise ParseError(3, f"expected {n} data lines, found {len(payload)}")
    rows = [_parse_floats(line, lineno, width) for lineno, line in payload]
    stacked = np.stack(rows)
    if kind == "matrix":
        return MatrixSeries(stacked.reshape(n, *dims))
    data = np.stack([row.reshape(dims, order="F") for row in stacked])
    return TensorSeries(data)


def write_truth(path, truth: GroundTruth) -> None:
    """Write the generating transformation and partition of a simulated series."""
    q = truth.a.shape[0]
    lines = [f"{MAGIC_PREFIX},truth,{FORMAT_VERSION}", f"{q},{truth.q1},{truth.example}"]
    for group in truth.partition:
        lines.append("group," + ",".join(str(c) for c in group))
    for row in np.asarray(truth.a, dtype=float):
        lines.append("a," + ",".join(_fmt(v) for v in row))
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def read_truth(path) -> GroundTruth:
    """Read a truth sidecar file."""
    with open(path) as handle:
        lines = handle.read().splitlines()
    if not lines or lines[0] != f"{MAGIC_PREFIX},truth,{FORMAT_VERSION}":
        raise ParseError(1, "not a truth file")
    header = _parse_ints(lines[1].split(","), 2) if len(lines) > 1 else []
    if len(header) != 3:
        raise ParseError(2, "expected q,q1,example")
    q, q1, example = header
    groups = []
    a_rows = []
    for lineno, line in enumerate(lines[2:], start=3):
        if not line:
            continue
        tag, _, rest = line.partition(",")
        if tag == "group":
            groups.append(_parse_ints(rest.split(","), lineno))
        elif tag == "a":
            a_rows.append(_parse_floats(rest, lineno, q))
        else:
            raise ParseError(lineno, f"unknown record {tag!r}")
    if len(groups) != q1:
        raise ParseError(3, f"expected {q1} groups, found {len(groups)}")
    if len(a_rows) != q:
        raise ParseError(3, f"expected {q} transformation rows, found {len(a_rows)}")
    return GroundTruth(example=example, a=np.stack(a_rows), partition=groups)


def _threshold_to_doc(mode) -> dict[str, Any]:
    if isinstance(mode, NoThreshold):
        return {"mode": "none"}
    if isinstance(mode, FixedThreshold):
        return {"mode": "fixed", "u": mode.u, "v": mode.v}
    if isinstance(mode, CvThreshold):
        return {
            "mode": "cv",
            "n_splits": mode.n_splits,
            "grid_size": mode.grid_size,
            "seed": mode.seed,
        }
    raise InvalidInput(f"unknown threshold mode {mode!r}")


def threshold_from_doc(doc: dict[str, Any]):
    kind = doc.get("mode")
    if kind == "none":
        return NoThreshold()
    if kind == "fixed":
        return FixedThreshold(u=float(doc["u"]), v=float(doc["v"]))
    if kind == "cv":
        return CvThreshold(
            n_splits=int(doc["n_splits"]),
            grid_size=int(doc["grid_size"]),
            seed=int(doc["seed"]),
        )
    raise InvalidInput(f"unknown threshold mode {kind!r}")


def config_to_doc(cfg: SegmentationConfig) -> dict[str, Any]:
    return {
        "k0": cfg.k0,
        "m": cfg.m,
        "c0": cfg.c0,
        "ratio_shift": cfg.ratio_shift,
        "threshold": _threshold_to_doc(cfg.threshold),
        "eps": cfg.eps,
    }


def config_from_doc(doc: dict[str, Any]) -> SegmentationConfig:
    return SegmentationConfig(
        k0=int(doc["k0"]),
        m=int(doc["m"]),
        c0=float(doc["c0"]),
        ratio_shift=None if doc["ratio_shift"] is None else float(doc["ratio_shift"]),
        threshold=threshold_from_doc(doc["threshold"]),
        eps=float(doc["eps"]),
    )


def _result_to_doc(result: SegmentationResult) -> dict[str, Any]:
    return {
        "gamma": result.gamma.tolist(),
        "standardizer": result.standardizer.tolist(),
        "scores": [[i, j, s] for i, j, s in result.scores],
        "selected_edges": result.selected_edges,
        "groups": result.groups,
        "u_lag0": result.u_lag0,
        "u_per_lag": result.u_per_lag,
        "v_per_lag": result.v_per_lag,
    }


def result_document(
    cfg: SegmentationConfig,
    matrix_result: SegmentationResult | None = None,
    mode_results: list[SegmentationResult] | None = None,
) -> dict[str, Any]:
    """Self-describing result document for one segmentation run."""
    doc: dict[str, Any] = {
        "format": f"{MAGIC_PREFIX}-result",
        "version": FORMAT_VERSION,
        "config": config_to_doc(cfg),
    }
    if matrix_result is not None:
        doc["kind"] = "matrix"
        doc.update(_result_to_doc(matrix_result))
    elif mode_results is not None:
        doc["kind"] = "tensor"
        doc["modes"] = [_result_to_doc(r) for r in mode_results]
    else:
        raise InvalidInput("a result document needs a matrix result or mode results")
    return doc


def write_result(path, doc: dict[str, Any]) -> None:
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=1)
        handle.write("\n")


def read_result(path) -> dict[str, Any]:
    with open(path) as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ParseError(exc.lineno, f"bad result document: {exc.msg}") from exc
    if not isinstance(doc, dict) or doc.get("format") != f"{MAGIC_PREFIX}-result":
        raise ParseError(1, "not a result document")
    return doc


def write_correlogram_csv(path, rows) -> None:
    """Write (i, j, h, max_abs_corr) records."""
    lines = ["i,j,h,max_abs_corr"]
    for i, j, h, value in rows:
        lines.append(f"{i},{j},{h},{_fmt(value)}")
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def read_correlogram_csv(path) -> list[tuple[int, int, int, float]]:
    """Read (i, j, h, max_abs_corr) records back from a correlogram file."""
    with open(path) as handle:
        lines = handle.read().splitlines()
    if not lines or lines[0] != "i,j,h,max_abs_corr":
        raise ParseError(1, "not a correlogram file")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise ParseError(lineno, f"expected 4 values, found {len(parts)}")
        i, j, h = _parse_ints(parts[:3], lineno)
        rows.append((i, j, h, float(_parse_floats(parts[3], lineno, 1)[0])))
    return rows


REPORT_HEADER = "example,n,reps,correct,incorrect,near_complete,d_bar_median"


def write_report_csv(path, report: ExperimentReport) -> None:
    """Write one aggregate line per series length."""
    lines = [REPORT_HEADER]
    for row in report.rows:
        lines.append(
            ",".join(
                [
                    str(row.example),
                    str(row.n),
                    str(row.reps),
                    _fmt(row.correct_prop),
                    _fmt(row.incorrect_prop),
                    _fmt(row.near_complete_prop),
                    _fmt(row.d_bar_median),
                ]
            )
        )
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def read_report_csv(path) -> list[tuple[int, int, int, float, float, float, float]]:
    """Read aggregate (example, n, reps, proportions, median) lines back."""
    with open(path) as handle:
        lines = handle.read().splitlines()
    if not lines or lines[0] != REPORT_HEADER:
        raise ParseError(1, "not a report file")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 7:
            raise ParseError(lineno, f"expected 7 values, found {len(parts)}")
        example, n, reps = _parse_ints(parts[:3], lineno)
        values = [float(_parse_floats(tok, lineno, 1)[0]) for tok in parts[3:]]
        rows.append((example, n, reps, *values))
    return rows
