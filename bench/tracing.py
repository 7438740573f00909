"""Per-layer tracing of matseg from outside the package.

The tracer replaces each traced function at every binding the loaded
``matseg`` modules hold (``matseg.estimators.row_autocov`` and
``matseg.threshold_cv.row_autocov`` are the same function bound twice),
so the package's own calls are timed as they happen.  Nothing under
``src/`` changes: ``restore`` puts every original back.

Spans are kept in memory while an operation runs and are aggregated into
per-operation layer metrics ``<module>.<function>.<stat>`` at the end.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

# The per-layer metrics, by module and function.  "calls" counts spans,
# "ms" is inclusive time, "self_ms" is time not covered by child spans and
# "gflop" is computed from call shapes.  Every function listed here is
# wrapped, so its time is a child of its callers' spans.
LAYER_STATS = {
    "threshold_cv": {
        "cv_threshold_pair": ("calls", "self_ms"),
        "cv_threshold_autocov": ("calls", "self_ms"),
        "split_pair_product": ("calls", "ms", "gflop"),
        "split_row_autocov": ("calls", "ms"),
        "split_indices": ("ms",),
        "threshold_grid": ("ms",),
    },
    "estimators": {
        "pair_autocov_all": ("calls", "ms", "gflop"),
        "row_autocov": ("calls", "ms"),
        "w_stat": ("self_ms",),
        "hard_threshold": ("calls", "ms"),
    },
    "segmentation": {
        "segment": ("self_ms",),
        "standardize": ("self_ms",),
        "pair_score_matrix": ("self_ms",),
        "ratio_select": ("ms",),
        "group_columns": ("ms",),
    },
    "linalg": {
        "sym_eig": ("calls", "ms"),
        "inv_sqrt_psd": ("self_ms",),
        "subspace_distance": ("ms",),
    },
    "simulation": {
        "gen_factor_varma": ("calls", "ms"),
        "gen_example": ("self_ms",),
        "run_replication": ("self_ms",),
        "classify_segmentation": ("ms",),
        "mean_subspace_error": ("self_ms",),
    },
    "tensor": {
        "sequential_segment": ("self_ms",),
    },
    "io": {
        "read_series": ("ms",),
        "read_result": ("ms",),
        "result_document": ("ms",),
        "write_result": ("ms",),
        "write_correlogram_csv": ("ms",),
    },
    "cli": {
        "main": ("self_ms",),
        "cmd_segment": ("self_ms",),
        "cmd_correlogram": ("self_ms",),
    },
}

STAT_UNITS = {"calls": "count", "ms": "ms", "self_ms": "ms", "gflop": "gflop"}

# Positional index of the lag argument of the cross-validation calls.
LAG_ARG = {
    "threshold_cv.cv_threshold_pair": (1, "h"),
    "threshold_cv.cv_threshold_autocov": (1, "k"),
    "threshold_cv.split_pair_product": (2, "h"),
    "threshold_cv.split_row_autocov": (2, "k"),
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _pair_autocov_all_gflop(args, kwargs):
    series, h = _arg(args, kwargs, 0, "series"), _arg(args, kwargs, 1, "h")
    return 2.0 * (series.n - h) * (series.p * series.q) ** 2 / 1e9


def _split_pair_product_gflop(args, kwargs):
    series = _arg(args, kwargs, 0, "series")
    indices = _arg(args, kwargs, 1, "indices")
    h = _arg(args, kwargs, 2, "h")
    terms = int(np.count_nonzero(np.asarray(indices) + h <= series.n - 1))
    return 2.0 * terms * (series.p * series.q) ** 2 / 1e9


GFLOP = {
    "estimators.pair_autocov_all": _pair_autocov_all_gflop,
    "threshold_cv.split_pair_product": _split_pair_product_gflop,
}


def layer_metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    names = []
    for module, funcs in LAYER_STATS.items():
        for func, stats in funcs.items():
            names += [(f"{module}.{func}.{stat}", STAT_UNITS[stat]) for stat in stats]
    names += [(f"{module}.self_share_pct", "%") for module in LAYER_STATS]
    names += [("trace.op_ms", "ms"), ("trace.overhead_pct", "%")]
    return names


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    lag: int | None = None
    gflop: float = 0.0


def covered_length(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for idx, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(spans[idx])
    out = []
    for idx, span in enumerate(spans):
        clipped = [
            (max(c.start, span.start), min(c.end, span.end)) for c in children[idx]
        ]
        out.append(span.end - span.start - covered_length(clipped))
    return out


class Tracer:
    """Wraps the functions in LAYER_STATS and records spans while an operation runs."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._bindings: list[tuple[object, str, object]] = []
        self._wrappers = self._build_wrappers()

    def _build_wrappers(self) -> dict[int, tuple]:
        """Map id(original function) -> wrapper, for every function in LAYER_STATS."""
        wrappers = {}
        for module, funcs in LAYER_STATS.items():
            mod = sys.modules[f"matseg.{module}"]
            for func in funcs:
                original = getattr(mod, func)
                wrappers[id(original)] = (original, self._wrap(f"{module}.{func}", original))
        return wrappers

    def _wrap(self, name, fn):
        lag_arg = LAG_ARG.get(name)
        gflop = GFLOP.get(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            idx = len(spans)
            span = Span(name, clock(), 0.0, stack[-1] if stack else None, self._op)
            spans.append(span)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if lag_arg is not None:
                    span.lag = int(_arg(args, kwargs, *lag_arg))
                if gflop is not None:
                    span.gflop = gflop(args, kwargs)

        return wrapper

    def install(self) -> None:
        """Replace every binding of a traced function in the loaded matseg modules."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "matseg" or modname.startswith("matseg.")):
                continue
            for attr, value in list(vars(mod).items()):
                entry = self._wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._bindings.append((mod, attr, value))
                    setattr(mod, attr, entry[1])

    def restore(self) -> None:
        """Put every original function back where install found it."""
        for mod, attr, original in self._bindings:
            setattr(mod, attr, original)
        self._bindings.clear()

    def begin_op(self, op: int) -> None:
        self._op = op

    def end_op(self) -> None:
        self._op = None
        self._stack.clear()


def layer_metrics(spans: list[Span], n_ops: int, op_seconds: float) -> dict[str, float]:
    """Per-operation layer metrics from the spans of n_ops traced operations.

    op_seconds is the summed wall time of those operations; it is the base
    of the module self-time shares.
    """
    totals = defaultdict(lambda: {"calls": 0.0, "ms": 0.0, "self_ms": 0.0, "gflop": 0.0})
    for span, self_s in zip(spans, self_times(spans)):
        agg = totals[span.name]
        agg["calls"] += 1
        agg["ms"] += (span.end - span.start) * 1e3
        agg["self_ms"] += self_s * 1e3
        agg["gflop"] += span.gflop
    out = {}
    for module, funcs in LAYER_STATS.items():
        module_self = 0.0
        for func in funcs:
            agg = totals[f"{module}.{func}"]
            module_self += agg["self_ms"]
            for stat in funcs[func]:
                out[f"{module}.{func}.{stat}"] = agg[stat] / n_ops
        out[f"{module}.self_share_pct"] = 100.0 * module_self / (op_seconds * 1e3)
    out["trace.op_ms"] = op_seconds * 1e3 / n_ops
    return out
