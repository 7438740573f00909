"""Mode unfoldings and sequential segmentation for tensor-valued series."""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .errors import DegenerateColumn, DegenerateVariance, InvalidInput, ResourceLimit
from .estimators import _center, _check_pair_size, _pair_lag_products
from .segmentation import (
    SegmentationConfig,
    SegmentationResult,
    _Maps,
    _check_score_window,
    _grouped,
    _lag_score,
    _maps,
    _sandwich,
)
from .series import MatrixSeries, TensorSeries


def _unfold_series(data: np.ndarray, mode: int) -> np.ndarray:
    """Mode-m unfolding of every tensor in an (n, p1, ..., pr) array, 1-based mode.

    Each tensor becomes a (p_mode, prod of the other dims) matrix whose
    columns are its mode-m fibers, the other indices running over the
    columns with the lowest-numbered mode fastest.
    """
    n = data.shape[0]
    order = data.ndim - 1
    moved = np.moveaxis(data, mode, 1)
    # reversing the trailing axes before a C-order reshape flattens them in
    # Fortran order, i.e. lowest-numbered remaining mode fastest
    rest = list(range(2, order + 1))
    arranged = moved.transpose(0, 1, *rest[::-1])
    return arranged.reshape(n, data.shape[mode], -1)


def _fold_series(mat: np.ndarray, mode: int, dims: tuple[int, ...]) -> np.ndarray:
    """Inverse of :func:`_unfold_series`."""
    n = mat.shape[0]
    order = len(dims)
    rest = dims[: mode - 1] + dims[mode:]
    arranged = mat.reshape((n, dims[mode - 1]) + rest[::-1])
    moved = arranged.transpose(0, 1, *range(order, 1, -1))
    return np.moveaxis(moved, 1, mode)


def _layout_axes(mode: int, order: int) -> list[int]:
    """Axes of a (rows, rows, cols, cols) mode-m pair tensor, as tensor axes.

    Lead tensor axis a is labelled a and base axis a is labelled order + a.
    The rows run over the other modes, lowest fastest, as in
    :func:`_unfold_series`; the columns are mode m.
    """
    rest = [a for a in range(order) if a != mode - 1][::-1]
    return rest + [order + a for a in rest] + [mode - 1, order + mode - 1]


def _relayout(tensor: np.ndarray, src: int, dst: int, dims: tuple[int, ...]) -> np.ndarray:
    """A pair tensor in mode src's layout re-indexed into mode dst's."""
    order = len(dims)
    src_axes, dst_axes = _layout_axes(src, order), _layout_axes(dst, order)
    full = tensor.reshape([dims[a % order] for a in src_axes])
    moved = full.transpose([src_axes.index(a) for a in dst_axes])
    cols = dims[dst - 1]
    rows = int(np.prod(dims)) // cols
    return moved.reshape(rows, rows, cols, cols)


@contextmanager
def _mode_stage(mode: int):
    """Name the mode in the message of a data error raised inside its stage."""
    try:
        yield
    except (DegenerateColumn, DegenerateVariance, ResourceLimit) as exc:
        exc.args = (f"mode {mode}: {exc}",)
        raise


def _shared_scores(
    centered: np.ndarray, stages: list[_Maps], dims: tuple[int, ...], m: int
) -> list[np.ndarray]:
    """Pair score matrix of every mode from one row-pair product per lag.

    centered is the centred mode-1 standardized series, and its lag-h
    product is mode 1's (rows, rows, cols, cols) pair tensor.  Rotated by
    mode m's gamma, re-indexed into mode m + 1's layout and standardized on
    its column axes, mode m's tensor becomes mode m + 1's, which is scored
    at mode m + 1's own levels.  Only one lag's tensors are held at a time.
    """
    order = len(dims)
    _check_score_window(m, centered.shape[0])
    best = [np.zeros((q, q)) for q in dims]
    denoms = [None] * order
    for h in range(m + 1):
        tensor = _pair_lag_products(centered, h)
        for mode, maps in enumerate(stages, start=1):
            with _mode_stage(mode):
                if mode > 1:
                    tensor = _sandwich(_relayout(carried, mode - 1, mode, dims), maps.standardizer)
                if dims[mode - 1] == 1:
                    carried = tensor  # its gamma is the identity
                    continue
                v = None if maps.v_per_lag is None else maps.v_per_lag[h]
                scores, denoms[mode - 1], rotated = _lag_score(
                    tensor, maps.gamma, v, h, denoms[mode - 1]
                )
                np.maximum(best[mode - 1], scores, out=best[mode - 1])
                # the next mode carries the unthresholded tensor, rotated
                if v is None:
                    carried = rotated
                elif mode < order:
                    carried = _sandwich(tensor, maps.gamma)
    for matrix in best:
        if not np.all(np.isfinite(matrix)):
            raise InvalidInput("pair scores are not finite")
    return best


def sequential_segment(
    series: TensorSeries, cfg: SegmentationConfig | None = None
) -> tuple[list[SegmentationResult], TensorSeries]:
    """Segment every mode of a tensor series, one mode at a time.

    Each sweep unfolds the current series at mode m, transposes so the
    mode-m indices are the columns, finds the matrix segmentation's maps
    and folds the transformed series back before moving to the next mode.
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
    stages, transformed = [], []
    for mode in range(1, series.order + 1):
        with _mode_stage(mode):
            maps, standardized = _maps(
                MatrixSeries(np.swapaxes(_unfold_series(data, mode), 1, 2)), cfg
            )
        if mode == 1:
            centered = _center(standardized.data)
        stages.append(maps)
        transformed.append(MatrixSeries(standardized.data @ maps.gamma))
        del standardized
        data = _fold_series(np.swapaxes(transformed[-1].data, 1, 2), mode, dims)
    matrices = _shared_scores(centered, stages, dims, cfg.m) if scored else [None] * len(dims)
    del centered
    results = [_grouped(*step, cfg) for step in zip(stages, matrices, transformed)]
    return results, TensorSeries(data)
