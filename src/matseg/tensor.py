"""Mode unfoldings and sequential segmentation for tensor-valued series."""

from __future__ import annotations

import contextvars
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np

from .errors import DegenerateColumn, DegenerateVariance, InvalidInput, ResourceLimit
from .estimators import _check_pair_size, _check_window, _pair_lag_products
from .segmentation import (
    SegmentationConfig,
    SegmentationResult,
    _Maps,
    _grouped,
    _lag_score,
    _maps,
    _level_rule,
    _sandwich,
)
from .series import MatrixSeries, TensorSeries


def _layout(mode: int, order: int) -> list[int]:
    """Tensor axes 1..order in mode m's C-order layout, slowest first: the one unfolding rule.

    The rows run over the other modes, lowest-numbered fastest, and the
    columns are mode m.
    """
    return [a for a in range(order, 0, -1) if a != mode] + [mode]


def _unfold_series(data: np.ndarray, mode: int) -> np.ndarray:
    """Mode-m matrix series of an (n, p1, ..., pr) array, 1-based mode.

    Returns a C-ordered (n, prod of the other dims, p_mode) array: each
    tensor's mode-m unfolding, transposed to the layout of :func:`_layout`.
    """
    arranged = np.ascontiguousarray(data.transpose(0, *_layout(mode, data.ndim - 1)))
    return arranged.reshape(data.shape[0], -1, data.shape[mode])


def _fold_series(mat: np.ndarray, mode: int, dims: tuple[int, ...]) -> np.ndarray:
    """Inverse of :func:`_unfold_series`; mat may be any shape of the same C-order entries."""
    axes = [0] + _layout(mode, len(dims))
    arranged = mat.reshape([mat.shape[0]] + [dims[a - 1] for a in axes[1:]])
    return arranged.transpose(np.argsort(axes))


def _layout_axes(mode: int, order: int) -> list[int]:
    """Axes of a (rows, rows, cols, cols) mode-m pair tensor, as tensor axes.

    Lead tensor axis a is labelled a - 1 and base axis a is labelled
    order + a - 1; each tensor's axes run in :func:`_layout`'s order.
    """
    *rows, col = (a - 1 for a in _layout(mode, order))
    return rows + [order + a for a in rows] + [col, order + col]


def _relayout(tensor: np.ndarray, src: int, dst: int, dims: tuple[int, ...], out) -> np.ndarray:
    """A pair tensor in mode src's layout re-indexed into mode dst's.

    out is a C-ordered array of mode dst's shape, sharing no memory with
    tensor, that receives the re-indexed copy.
    """
    order = len(dims)
    src_axes, dst_axes = _layout_axes(src, order), _layout_axes(dst, order)
    full = tensor.reshape([dims[a % order] for a in src_axes])
    moved = full.transpose([src_axes.index(a) for a in dst_axes])
    np.copyto(out.reshape(moved.shape), moved)
    return out


def _pair_shape(mode: int, dims: tuple[int, ...]) -> tuple[int, int, int, int]:
    """Shape (rows, rows, cols, cols) of the mode's pair tensor."""
    cols = dims[mode - 1]
    rows = int(np.prod(dims)) // cols
    return rows, rows, cols, cols


@contextmanager
def _mode_stage(mode: int):
    """Name the mode in the message of a data error raised inside its stage."""
    try:
        yield
    except (DegenerateColumn, DegenerateVariance, ResourceLimit) as exc:
        exc.args = (f"mode {mode}: {exc}",)
        raise


def _lag_mode_scores(
    centered: np.ndarray,
    stages: list[_Maps],
    dims: tuple[int, ...],
    h: int,
    denoms: list,
    buffers: list[np.ndarray],
) -> list[np.ndarray | None]:
    """Every mode's (q, q) pair scores at lag h, from that lag's one row-pair product.

    Mode 1's tensor is the product itself.  Rotated by mode m's gamma,
    re-indexed into mode m + 1's layout and standardized on its column
    axes, mode m's tensor becomes mode m + 1's, which is scored at mode
    m + 1's own levels.  A mode of dimension 1 is carried but not scored.
    Lag 0 sets each mode's denominators in denoms; later lags read them.
    The tensors are written into buffers, flat arrays of (prod dims)^2
    entries that no other call uses meanwhile: two, and a third when some
    mode is thresholded.
    """
    order = len(dims)
    held, work = buffers[:2]
    tensor, _ = _pair_lag_products(centered, h, out=held)
    scores = [None] * order
    for mode, maps in enumerate(stages, start=1):
        shape = _pair_shape(mode, dims)
        with _mode_stage(mode):
            if mode > 1:
                # carried sits in held, which is spent once it is re-indexed
                held, work = work, held
                tensor = _relayout(carried, mode - 1, mode, dims, out=held.reshape(shape))
                tensor = _sandwich(tensor, maps.standardizer, tensor, work.reshape(shape))
            if dims[mode - 1] == 1:
                carried = tensor  # its gamma is the identity
                continue
            v = None if maps.v_per_lag is None else maps.v_per_lag[h]
            # a thresholded tensor is rotated in the third buffer: the carry needs the raw one
            out = held if v is None else buffers[2]
            scores[mode - 1], denom, rotated = _lag_score(
                tensor, maps.gamma, v, h, denoms[mode - 1], out.reshape(shape), work.reshape(shape)
            )
            if h == 0:
                denoms[mode - 1] = denom
            # the next mode carries the unthresholded tensor, rotated
            if v is None:
                carried = rotated
            elif mode < order:
                carried = _sandwich(tensor, maps.gamma, held.reshape(shape), work.reshape(shape))
    return scores


_WORKERS = 2


def _shared_scores(
    centered: np.ndarray, stages: list[_Maps], dims: tuple[int, ...], m: int
) -> list[np.ndarray]:
    """Pair score matrix of every mode from one row-pair product per lag.

    centered is the centred mode-1 standardized series, and its lag-h
    product is mode 1's (rows, rows, cols, cols) pair tensor; see
    :func:`_lag_mode_scores`.  Lag 0 runs here: it fixes every mode's
    denominators and raises the data errors.  Lags 1..m then run on
    two threads, each of which takes one buffer set when it starts and
    scores every lag it is handed in that set.  The scores are folded in
    by maximum, which is exact, so the result does not depend on the
    scheduling.
    """
    size = int(np.prod(dims)) ** 2
    count = 2 if all(maps.v_per_lag is None for maps in stages) else 3
    # every thread writes into buffers allocated here: glibc keeps the blocks
    # a thread frees in that thread's own arena, which would raise the peak
    free = [[np.empty(size) for _ in range(count)] for _ in range(_WORKERS)]
    denoms = [None] * len(dims)
    best = [np.zeros((q, q)) for q in dims]
    own = threading.local()

    def take():
        own.buffers = free.pop()

    def score(h):
        return _lag_mode_scores(centered, stages, dims, h, denoms, own.buffers)

    def fold(scores):
        for matrix, lag in zip(best, scores):
            if lag is not None:
                np.maximum(matrix, lag, out=matrix)

    fold(_lag_mode_scores(centered, stages, dims, 0, denoms, free[-1]))
    lags = range(1, m + 1)
    # each task runs in a copy of this context, so numpy's errstate holds there
    runs = [contextvars.copy_context().run for _ in lags]
    with ThreadPoolExecutor(_WORKERS, initializer=take) as pool:
        for scores in pool.map(lambda run, h: run(score, h), runs, lags):
            fold(scores)
    for matrix in best:
        if not np.all(np.isfinite(matrix)):
            raise InvalidInput("pair scores are not finite")
    return best


def sequential_segment(
    series: TensorSeries, cfg: SegmentationConfig | None = None
) -> tuple[list[SegmentationResult], TensorSeries]:
    """Segment every mode of a tensor series, one mode at a time.

    Each sweep unfolds the current series into the matrix series whose
    columns are the mode-m indices (see :func:`_unfold_series`), finds the
    matrix segmentation's maps and folds the transformed series back before
    moving to the next mode.
    Every mode unfolding re-indexes the same vectorised tensor, so the pair
    scores of all modes then come from one row-pair product per lag (see
    :func:`_shared_scores`) rather than one per lag and mode.  A mode of
    dimension 1 yields the trivial single-column result.

    Parameters
    ----------
    series : TensorSeries
        Raw observed series of order r >= 2 tensors.
    cfg : SegmentationConfig, optional

    Returns
    -------
    results : list of SegmentationResult
        One result per mode, in mode order.
    transformed : TensorSeries
        The series after all r mode transformations.
    """
    if cfg is None:
        cfg = SegmentationConfig()
    data = series.data
    dims = series.dims
    scored = any(q > 1 for q in dims)
    if scored:
        # every mode's scores come from one product of the whole tensor
        with _mode_stage(1):
            _check_pair_size(int(np.prod(dims)), "row-pair covariance tensor")
        _check_window(cfg.k0, series.n, "k0", 1, 2)
        _check_window(cfg.m, series.n, "m", 0, 2)
    # segment chooses its v levels while scoring; the shared scores need them first
    rule = _level_rule(cfg.threshold, 1)
    stages, transformed = [], []
    for mode in range(1, series.order + 1):
        with _mode_stage(mode):
            maps, standardized, own = _maps(_unfold_series(data, mode), cfg)
            if dims[mode - 1] > 1 and rule is not None:
                maps.v_per_lag = [rule(own, h) for h in range(cfg.m + 1)]
        if mode == 1:
            centered = own
        del own
        stages.append(maps)
        transformed.append(MatrixSeries(standardized @ maps.gamma))
        del standardized
        data = _fold_series(transformed[-1].data, mode, dims)
    matrices = _shared_scores(centered, stages, dims, cfg.m) if scored else [None] * len(dims)
    del centered
    results = [_grouped(*step, cfg) for step in zip(stages, matrices, transformed)]
    return results, TensorSeries(data)
