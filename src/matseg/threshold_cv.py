"""Cross-validated choice of hard-threshold levels for the covariance estimators."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .estimators import (
    _center,
    _check_pair_size,
    _check_window,
    _lag_product,
    row_autocov,  # noqa: F401  unused here; bench/selftest.py probes this binding
)
from .series import MatrixSeries

MIN_CV_LENGTH = 8


@dataclass(frozen=True)
class CvThreshold:
    """Per-lag thresholds chosen by subsample cross-validation.

    n_splits random subsample splits are drawn; each keeps a fraction
    1 - 1/log(n) of the time points (ascending) as the first part and the
    complement as the second part.  Each level is the best of grid_size
    candidates.  The pipeline derives the seed of each lag's splits from
    seed, which must be nonnegative.
    """

    n_splits: int = 20
    grid_size: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.n_splits < 1:
            raise InvalidInput(f"n_splits must be positive, got {self.n_splits}")
        if self.grid_size < 3:
            raise InvalidInput(f"grid_size must be at least 3, got {self.grid_size}")
        if self.seed < 0:
            raise InvalidInput(f"seed must be nonnegative, got {self.seed}")


def split_sizes(n: int) -> tuple[int, int]:
    """First- and second-part sizes for a series of length n."""
    if n < MIN_CV_LENGTH:
        raise InvalidInput(f"cross-validation needs n >= {MIN_CV_LENGTH}, got {n}")
    n1 = int(np.floor(n * (1.0 - 1.0 / np.log(n))))
    return n1, n - n1


def split_indices(mode: CvThreshold, n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Deterministic subsample splits as (first, second) sorted 0-based index arrays."""
    n1, _ = split_sizes(n)
    out = []
    for s in range(mode.n_splits):
        rng = np.random.default_rng((int(mode.seed), s))
        in_first = np.zeros(n, dtype=bool)
        in_first[rng.choice(n, size=n1, replace=False, shuffle=False)] = True
        out.append((np.flatnonzero(in_first), np.flatnonzero(~in_first)))
    return out


def threshold_grid(values, grid_size: int = 32) -> np.ndarray:
    """Candidate thresholds from the magnitudes of an estimate's entries.

    Returns 0, then grid_size - 2 empirical quantiles of the magnitudes at
    levels spaced evenly from 0.10 to 0.99, then the maximum magnitude.
    """
    mags = np.abs(np.asarray(values, dtype=float)).ravel()
    if mags.size == 0:
        raise InvalidInput("cannot build a threshold grid from an empty estimate")
    if grid_size < 3:
        raise InvalidInput(f"grid_size must be at least 3, got {grid_size}")
    levels = np.linspace(0.10, 0.99, grid_size - 2)
    return np.concatenate(([0.0], np.quantile(mags, levels), [mags.max()]))


def split_row_autocov(series: MatrixSeries, indices: np.ndarray, k: int) -> np.ndarray:
    """Row-averaged autocovariance at lag k over a time subsample, shape (q, q).

    The part estimate that cv_threshold_autocov risks: the series'
    _lag_product at width q, centred by the full-sample mean, summed over
    the given t (a term whose lead index t + k falls past the end counts
    as zero) and divided by the subsample size times p.  Over every time
    point it is row_autocov.
    """
    idx = np.asarray(indices, dtype=int)
    return _lag_product(_center(series.data), k, series.q, idx) / (idx.size * series.p)


def split_pair_product(series: MatrixSeries, indices: np.ndarray, h: int) -> np.ndarray:
    """Row-pair cross-covariances at lag h over a time subsample, shape (p q, p q).

    The part estimate that cv_threshold_pair risks: as split_row_autocov,
    at width p q and divided by the subsample size.  Entry [(i, a), (j, b)]
    averages c_{t+h}[i, a] * c_t[j, b] over the subsample; over every time
    point it is pair_autocov_all flattened to rows (i, a) and columns (j, b).
    """
    idx = np.asarray(indices, dtype=int)
    return _lag_product(_center(series.data), h, series.p * series.q, idx) / idx.size


def _grid_risk(first: np.ndarray, second: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Squared Frobenius distance between T_u(first) and second for every grid value.

    The grid must be non-decreasing, as threshold_grid returns it.  Keeping
    an entry a instead of zeroing it changes its squared error from b**2 to
    (a - b)**2, so risk(u) = sum(b**2) + sum over |a| >= u of a * (a - 2b).
    Each |a| is binned by the number of levels it reaches, counted exactly
    from a table of |a| >= level comparisons in the smallest unsigned type
    that holds grid.size; the table is built over blocks of 2**22 //
    grid.size entries, so it stays near 4 MiB whatever the sizes.  A
    reverse cumulative sum of the per-bin terms gives every level in one
    pass.  Equal levels bound an empty bin, which adds exactly 0.0, so
    they tie.
    """
    a = first.ravel()
    b = second.ravel()
    mags = np.abs(a)
    bins = np.empty(a.size, dtype=np.min_scalar_type(grid.size))
    step = max(1, 2**22 // grid.size)
    for start in range(0, a.size, step):
        block = slice(start, start + step)
        (mags[block] >= grid[:, None]).sum(axis=0, dtype=bins.dtype, out=bins[block])
    gains = np.bincount(bins, weights=a * (a - 2.0 * b), minlength=grid.size + 1)
    return b @ b + np.cumsum(gains[::-1])[::-1][1:]


def _cv_level(
    centered: np.ndarray, lag: int, mode: CvThreshold, width: int, total: np.ndarray
) -> float:
    """Cross-validated threshold for the lag covariances of width-entry rows.

    Minimizes the average squared Frobenius distance between the
    thresholded first-part estimate and the raw second-part estimate over a
    grid of candidate levels drawn from the full-sample estimate.  Ties
    resolve to the smallest candidate.  centered is the series centred by
    its full-sample mean and total its full-sample _lag_product at lag and
    width, both formed by the caller; every estimate is the _lag_product
    of centered divided by its time-point count times the row count
    p q / width, as split_row_autocov and split_pair_product define it.
    The product is a sum over time points and the two parts of a split
    partition them, so only the second part's product is formed per split;
    the first part's is total minus it.  lag is not checked.
    """
    n, p, q = centered.shape
    rows = p * q // width
    grid = threshold_grid(total / (n * rows), mode.grid_size)
    risks = np.zeros(grid.size)
    for first, second in split_indices(mode, n):
        part = _lag_product(centered, lag, width, second)
        risks += _grid_risk((total - part) / (first.size * rows), part / (second.size * rows), grid)
    risks /= mode.n_splits
    return float(grid[int(np.argmin(risks))])


def _formed_level(series: MatrixSeries, lag: int, mode: CvThreshold, width: int) -> float:
    """_cv_level on the series, centring it and forming its full-sample product here."""
    centered = _center(series.data)
    return _cv_level(centered, lag, mode, width, _lag_product(centered, lag, width))


def cv_threshold_autocov(series: MatrixSeries, k: int, mode: CvThreshold) -> float:
    """Cross-validated threshold for the row-averaged autocovariance at lag k.

    The split estimates are split_row_autocov of each part; see _cv_level.

    Parameters
    ----------
    series : MatrixSeries
        Observed series.
    k : int
        Lag, 0 <= k <= n - 1.
    mode : CvThreshold
        Split scheme; identical series and mode give identical output.

    Returns
    -------
    float
        Selected threshold, >= 0.
    """
    return _formed_level(series, _check_window(int(k), series.n, "k"), mode, series.q)


def cv_threshold_pair(series: MatrixSeries, h: int, mode: CvThreshold) -> float:
    """Cross-validated threshold for the row-pair cross-covariances at lag h.

    The split estimates are split_pair_product of each part, the centred
    row-pair cross-covariances that the threshold is applied to; see
    _cv_level.

    Parameters
    ----------
    series : MatrixSeries
        Observed series.
    h : int
        Lag, 0 <= h <= n - 1.
    mode : CvThreshold
        Split scheme; identical series and mode give identical output.

    Returns
    -------
    float
        Selected threshold, >= 0.
    """
    h = _check_window(int(h), series.n, "h")
    _check_pair_size(series.p * series.q, "row-pair covariance matrix")
    return _formed_level(series, h, mode, series.p * series.q)
