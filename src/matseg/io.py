"""Text formats for series, ground truth, results and reports.

Series files are comma-separated with a magic first line; floats are
written with Python's shortest round-trip representation, so reading a
written file reproduces the array bit for bit.

Every reader takes UTF-8 text whose lines end in LF, CRLF or CR, and
parses floats with numpy's text parser, so all of them accept one float
grammar. Truth, correlogram and report files are record files, one
header line and then records, read by `_records` and written by
`_write_records`; empty lines are skipped but counted. Correlogram and
report records, three integers and then floats, are read by
`_numeric_records`. A series reader parses the data lines in one numpy
pass streamed from the open file, without a copy of its text; only a
file that pass refuses is read again line by line, to name the first
line at fault. Bytes that are not UTF-8 end in a ParseError at their line.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import asdict
from typing import Any, NoReturn, get_type_hints

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
from .tensor import _fold_series, _unfold_series

MAGIC_PREFIX = "matseg"
FORMAT_VERSION = 1
REPORT_HEADER = "example,n,reps,correct,incorrect,near_complete,d_bar_median"
# each record file's header line, keyed by the kind a wrong header's error names
_HEADERS = {
    "truth": f"{MAGIC_PREFIX},truth,{FORMAT_VERSION}",
    "correlogram": "i,j,h,max_abs_corr",
    "report": REPORT_HEADER,
}


def _fmt(x: float) -> str:
    return repr(float(x))


def _load_table(lines) -> np.ndarray:
    """Comma-separated float lines, from an open file or a list, as a 2-d array.

    numpy skips empty lines, so callers check the shape.
    """
    with warnings.catch_warnings():
        # a table with no rows fails the caller's shape check
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        return np.loadtxt(lines, delimiter=",", comments=None, dtype=float, ndmin=2)


def _parse_floats(token_line: str, lineno: int, expected: int) -> np.ndarray:
    found = token_line.count(",") + 1
    if found != expected:
        raise ParseError(lineno, f"expected {expected} values, found {found}")
    try:
        table = _load_table([token_line])
    except ValueError as exc:
        # numpy counts rows of its own input; the line number is the row here
        raise ParseError(lineno, f"bad float: {str(exc).partition(' at row ')[0]}") from exc
    if table.shape != (1, expected):
        raise ParseError(lineno, "bad float: no value")
    return table[0]


def _parse_ints(tokens: list[str], lineno: int) -> list[int]:
    """Base-10 integers in ASCII; int() would also take other digits and `_` groups."""
    values = []
    for tok in tokens:
        try:
            if not tok.isascii() or "_" in tok:
                raise ValueError(tok)
            values.append(int(tok))
        except ValueError:
            raise ParseError(lineno, f"bad integer: {tok!r}") from None
    return values


def _read_lines(path) -> list[str]:
    """The lines of a text file, without their ends.

    A line holding bytes that are not UTF-8 ends in a ParseError at that line.
    """
    with open(path, encoding="utf-8", errors="surrogateescape") as handle:
        lines = handle.read().split("\n")
    if lines[-1] == "":
        lines.pop()
    for lineno, line in enumerate(lines, start=1):
        if not line.isascii():
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                raise ParseError(lineno, "bytes that are not UTF-8 text") from None
    return lines


def _records(path, kind: str) -> list[tuple[int, str]]:
    """The numbered non-empty lines after the header line; a wrong header is a ParseError at 1."""
    lines = _read_lines(path)
    if lines[:1] != [_HEADERS[kind]]:
        raise ParseError(1, f"not a {kind} file")
    return [(lineno, line) for lineno, line in enumerate(lines[1:], start=2) if line]


def _numeric_records(path, kind: str, blank_last: bool = False) -> list[tuple]:
    """A kind's records as three integers, then floats: one field per header field.

    The field count is checked first, then the integers, then the floats in
    order; with blank_last, an empty last field reads as NaN.
    """
    width = _HEADERS[kind].count(",") + 1
    rows = []
    for lineno, line in _records(path, kind):
        fields = line.split(",")
        if len(fields) != width:
            raise ParseError(lineno, f"expected {width} values, found {len(fields)}")
        ints = _parse_ints(fields[:3], lineno)
        if blank_last and fields[-1] == "":
            fields[-1] = "nan"
        rows.append((*ints, *(float(_parse_floats(tok, lineno, 1)[0]) for tok in fields[3:])))
    return rows


def _write_records(path, kind: str, records) -> None:
    """Write the kind's header line, then one line per record: its fields joined by commas."""
    lines = [_HEADERS[kind], *(",".join(map(str, fields)) for fields in records)]
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def write_series(path, series: MatrixSeries | TensorSeries) -> None:
    """Write a matrix or tensor series file."""
    if isinstance(series, MatrixSeries):
        header = f"{MAGIC_PREFIX},matrix,{FORMAT_VERSION}\n{series.n},{series.p},{series.q}\n"
        flat = series.data.reshape(series.n, -1)
    elif isinstance(series, TensorSeries):
        dims = ",".join(str(d) for d in series.dims)
        header = f"{MAGIC_PREFIX},tensor,{FORMAT_VERSION}\n{series.n},{series.order},{dims}\n"
        # a data row is the tensor's mode-1 unfolding, flattened: index 1 fastest
        flat = _unfold_series(series.data, 1).reshape(series.n, -1)
    else:
        raise InvalidInput(f"cannot write object of type {type(series).__name__}")
    with open(path, "w") as handle:
        handle.write(header)
        for row in flat.tolist():
            handle.write(",".join(map(_fmt, row)) + "\n")


def _series_header(head: list[str]) -> tuple[str, int, tuple[int, ...]]:
    """(kind, n, dims) from the first two lines of a series file, or as many as it has."""
    if not head:
        raise ParseError(1, "empty file")
    magic = head[0].split(",")
    if len(magic) != 3 or magic[0] != MAGIC_PREFIX or magic[1] not in ("matrix", "tensor"):
        raise ParseError(1, f"unrecognized header {head[0]!r}")
    if magic[2] != str(FORMAT_VERSION):
        raise ParseError(1, f"unsupported format version {magic[2]!r}")
    if len(head) < 2:
        raise ParseError(2, "missing dimension line")
    # one rule for both kinds: n, then r (implied 2 for a matrix), then r dims
    values = _parse_ints(head[1].split(","), 2)
    if magic[1] == "matrix":
        values[1:1] = [2]
    if len(values) < 4 or values[1] != len(values) - 2 or values[0] < 2 or min(values[2:]) < 1:
        form = "n,p,q" if magic[1] == "matrix" else "n,r,p1,...,pr"
        raise ParseError(2, f"expected {form} with n >= 2 and positive dims, found {head[1]!r}")
    return magic[1], values[0], tuple(values[2:])


def _raise_series_fault(path) -> NoReturn:
    """Find, line by line, the first fault of a series file the streamed parse refused."""
    lines = _read_lines(path)
    _, n, dims = _series_header(lines[:2])
    width = math.prod(dims)
    payload = [(lineno, line) for lineno, line in enumerate(lines[2:], start=3) if line]
    if len(payload) != n:
        raise ParseError(3, f"expected {n} data lines, found {len(payload)}")
    for lineno, line in payload:
        _parse_floats(line, lineno, width)
    raise ParseError(3, f"data lines do not form {n} rows of {width} values")


def read_series(path) -> MatrixSeries | TensorSeries:
    """Read a series file, dispatching on the magic line.

    The data lines are parsed in one numpy pass streamed from the open
    file. A file that pass refuses is read again line by line, and the
    ParseError names the first line at fault.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            lines = (handle.readline(), handle.readline())
            head = [line.removesuffix("\n") for line in lines if line]
            kind, n, dims = _series_header(head)
            table = _load_table(handle)
    except ValueError:  # a bad header or float, or bytes that are not UTF-8
        _raise_series_fault(path)
    if table.shape != (n, math.prod(dims)):
        _raise_series_fault(path)
    if kind == "matrix":
        return MatrixSeries(table.reshape(n, *dims))
    return TensorSeries(np.ascontiguousarray(_fold_series(table, 1, dims)))


def write_truth(path, truth: GroundTruth) -> None:
    """Write the generating transformation and partition of a simulated series."""
    records = [(truth.a.shape[0], truth.q1, truth.example)]
    records += [("group", *group) for group in truth.partition]
    records += [("a", *map(_fmt, row)) for row in np.asarray(truth.a, dtype=float)]
    _write_records(path, "truth", records)


def read_truth(path) -> GroundTruth:
    """Read a truth sidecar file."""
    records = _records(path, "truth")
    # the q,q1,example record must sit at line 2
    lineno, line = records[0] if records else (0, "")
    header = _parse_ints(line.split(","), 2) if lineno == 2 else []
    if len(header) != 3:
        raise ParseError(2, "expected q,q1,example")
    q, q1, example = header
    groups = []
    a_rows = []
    for lineno, line in records[1:]:
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


# each threshold mode's name in a result document; its fields are the dataclass's
_THRESHOLD_MODES = {"none": NoThreshold, "fixed": FixedThreshold, "cv": CvThreshold}


def _threshold_to_doc(mode) -> dict[str, Any]:
    for name, cls in _THRESHOLD_MODES.items():
        if isinstance(mode, cls):
            return {"mode": name, **asdict(mode)}
    raise InvalidInput(f"unknown threshold mode {mode!r}")


def threshold_from_doc(doc: dict[str, Any]):
    name = doc.get("mode")
    if not isinstance(name, str) or name not in _THRESHOLD_MODES:
        raise InvalidInput(f"unknown threshold mode {name!r}")
    cls = _THRESHOLD_MODES[name]
    # each field is read as its annotated type: float levels, int counts and seed
    return cls(**{key: kind(doc[key]) for key, kind in get_type_hints(cls).items()})


def config_to_doc(cfg: SegmentationConfig) -> dict[str, Any]:
    return {**asdict(cfg), "threshold": _threshold_to_doc(cfg.threshold)}


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
    try:
        doc = json.loads("\n".join(_read_lines(path)))
    except json.JSONDecodeError as exc:
        raise ParseError(exc.lineno, f"bad result document: {exc.msg}") from exc
    if not isinstance(doc, dict) or doc.get("format") != f"{MAGIC_PREFIX}-result":
        raise ParseError(1, "not a result document")
    return doc


def read_matrix_maps(path) -> tuple[np.ndarray, np.ndarray]:
    """The standardizer and gamma of a matrix result document, as float arrays.

    A tensor document, or a standardizer or gamma that is missing, not a
    numeric array or not finite, is an InvalidInput.
    """
    doc = read_result(path)
    if doc.get("kind") != "matrix":
        raise InvalidInput("only matrix result documents carry a usable gamma")
    try:
        maps = tuple(np.asarray(doc[key], dtype=float) for key in ("standardizer", "gamma"))
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInput(
            f"result document lacks a numeric standardizer and gamma: {exc!r}"
        ) from exc
    if not all(np.isfinite(m).all() for m in maps):
        raise InvalidInput("result document has a non-finite standardizer or gamma")
    return maps


def write_correlogram_csv(path, rows) -> None:
    """Write (i, j, h, max_abs_corr) records."""
    _write_records(path, "correlogram", [(i, j, h, _fmt(value)) for i, j, h, value in rows])


def read_correlogram_csv(path) -> list[tuple[int, int, int, float]]:
    """Read (i, j, h, max_abs_corr) records back from a correlogram file."""
    return _numeric_records(path, "correlogram")


def write_report_csv(path, report: ExperimentReport) -> None:
    """Write one aggregate line per series length."""
    records = []
    for row in report.rows:
        props = map(_fmt, (row.correct_prop, row.incorrect_prop, row.near_complete_prop))
        # no correct run, no median: an empty field, never nan
        median = "" if math.isnan(row.d_bar_median) else _fmt(row.d_bar_median)
        records.append((row.example, row.n, row.reps, *props, median))
    _write_records(path, "report", records)


def read_report_csv(path) -> list[tuple[int, int, int, float, float, float, float]]:
    """Read the aggregate lines back; an empty median (no correct run) reads as NaN."""
    return _numeric_records(path, "report", blank_last=True)
