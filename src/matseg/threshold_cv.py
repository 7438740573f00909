"""Cross-validated choice of hard-threshold levels for the covariance estimators."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .estimators import (
    _center,
    _check_lag,
    _check_pair_size,
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
        in_first[rng.choice(n, size=n1, replace=False)] = True
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
    """Row-averaged autocovariance at lag k over a time subsample.

    The mean is taken over the subsampled matrices; any term whose lead
    index t + k falls past the end of the series contributes zero while the
    divisor stays the subsample size.
    """
    n, p, q = series.n, series.p, series.q
    idx = np.asarray(indices, dtype=int)
    centered = series.data - series.data[idx].mean(axis=0)
    valid = idx + k <= n - 1
    lead = centered[idx[valid] + k].reshape(valid.sum() * p, q)
    base = centered[idx[valid]].reshape(valid.sum() * p, q)
    return (lead.T @ base) / (idx.size * p)


def split_pair_product(series: MatrixSeries, indices: np.ndarray, h: int) -> np.ndarray:
    """Uncentered entry-pair second moments at lag h over a time subsample.

    Entry [(i, j), (k, l)] equals the subsample average of
    Y_t[i, j] * Y_{t+h}[k, l]; terms with t + h past the series end
    contribute zero.  The flattened (p*q, p*q) layout carries the same
    entry multiset as the corresponding Kronecker-product average.
    """
    idx = np.asarray(indices, dtype=int)
    return _lag_product(series.data, h, series.p * series.q, idx).T / idx.size


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


def _part_row_autocov(product, sum_lead, sum_base, count, mean_sum, size, p):
    """split_row_autocov from sums over a part's valid terms of full-mean-centred data.

    product, sum_lead and sum_base are the sums of c_{t+k}' c_t, c_{t+k}
    and c_t over the part's count valid t, and mean_sum the sum of c_t
    over all size of its t.  With d = mean_sum / size the part's mean of c,
    sum (c_{t+k} - d)' (c_t - d) expands to
    product - sum_lead' d - d' sum_base + count d' d.
    """
    d = mean_sum / size
    return (product - sum_lead.T @ d - d.T @ sum_base + count * (d.T @ d)) / (size * p)


def _split_row_autocovs(centered: np.ndarray, k: int, total: np.ndarray, splits):
    """Yield split_row_autocov of the first and of the second part of each split.

    centered is the series centred by _center and total its row-averaged
    _lag_product at lag k.  The product and sums behind each estimate
    are additive over time points and the two parts of a split partition
    them, so only the second part's (small) sums are gathered; the first
    part's are the full-sample sums minus them.
    """
    n, p, q = centered.shape
    lead_total = centered[k:].sum(axis=0)
    base_total = centered[: n - k].sum(axis=0)
    mean_total = centered.sum(axis=0)
    for first, second in splits:
        valid = second[second + k <= n - 1]
        product = _lag_product(centered, k, q, valid)
        lead_sum = centered[valid + k].sum(axis=0)
        base_sum = centered[valid].sum(axis=0)
        mean_sum = centered[second].sum(axis=0)
        yield (
            _part_row_autocov(
                total - product,
                lead_total - lead_sum,
                base_total - base_sum,
                n - k - valid.size,
                mean_total - mean_sum,
                first.size,
                p,
            ),
            _part_row_autocov(product, lead_sum, base_sum, valid.size, mean_sum, second.size, p),
        )


def cv_threshold_autocov(series: MatrixSeries, k: int, mode: CvThreshold) -> float:
    """Cross-validated threshold for the row-averaged autocovariance at lag k.

    Minimizes the average squared Frobenius distance between the
    thresholded first-part estimate and the raw second-part estimate over a
    grid of candidate levels drawn from the full-sample estimate.  Ties
    resolve to the smallest candidate.

    Each part's estimate is split_row_autocov (centred by the part's own
    mean), formed from the series centred once by its full-sample mean:
    per split only the second part's terms are gathered, and the first
    part's sums are their complement in the full-sample sums.

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
    n, p, q = series.n, series.p, series.q
    k = _check_lag(k, n, "k")
    centered = _center(series.data)
    total = _lag_product(centered, k, q)
    grid = threshold_grid(total / (n * p), mode.grid_size)
    risks = np.zeros(grid.size)
    for a, b in _split_row_autocovs(centered, k, total, split_indices(mode, n)):
        risks += _grid_risk(a, b, grid)
    risks /= mode.n_splits
    return float(grid[int(np.argmin(risks))])


def cv_threshold_pair(series: MatrixSeries, h: int, mode: CvThreshold) -> float:
    """Cross-validated threshold for the row-pair cross-covariances at lag h.

    The split estimates are uncentered entry-pair second moments at lag h,
    whose entries live on the same scale as the row-pair cross-covariance
    entries the threshold is applied to.  These moments are sums over time
    points and the two parts of a split partition the time points, so only
    the second-part product is formed per split; the first-part sum is the
    full-sample sum minus it.

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
    n, p, q = series.n, series.p, series.q
    h = _check_lag(h, n, "h")
    _check_pair_size(p * q, "entry-pair moment matrix")
    # transposed, the products keep split_pair_product's layout: entry
    # [a, b] sums Y_t[a] * Y_{t+h}[b]
    total = _lag_product(series.data, h, p * q).T
    grid = threshold_grid(total / n, mode.grid_size)
    risks = np.zeros(grid.size)
    for first, second in split_indices(mode, n):
        part = _lag_product(series.data, h, p * q, second).T
        risks += _grid_risk((total - part) / first.size, part / second.size, grid)
    risks /= mode.n_splits
    return float(grid[int(np.argmin(risks))])
