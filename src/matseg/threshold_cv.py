"""Cross-validated choice of hard-threshold levels for the covariance estimators."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, ResourceLimit
from .estimators import PAIR_TENSOR_ENTRY_LIMIT, _check_lag, row_autocov
from .series import MatrixSeries

MIN_CV_LENGTH = 8


@dataclass(frozen=True)
class CvPlan:
    """Split scheme for threshold cross-validation.

    n_splits random subsample splits are drawn; each keeps a fraction
    1 - 1/log(n) of the time points (ascending) as the first part and the
    complement as the second part.
    """

    n_splits: int = 20
    grid_size: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.n_splits < 1:
            raise InvalidInput(f"n_splits must be positive, got {self.n_splits}")
        if self.grid_size < 3:
            raise InvalidInput(f"grid_size must be at least 3, got {self.grid_size}")


def split_sizes(n: int) -> tuple[int, int]:
    """First- and second-part sizes for a series of length n."""
    if n < MIN_CV_LENGTH:
        raise InvalidInput(f"cross-validation needs n >= {MIN_CV_LENGTH}, got {n}")
    n1 = int(np.floor(n * (1.0 - 1.0 / np.log(n))))
    return n1, n - n1


def split_indices(plan: CvPlan, n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Deterministic subsample splits as (first, second) sorted 0-based index arrays."""
    n1, _ = split_sizes(n)
    out = []
    for s in range(plan.n_splits):
        rng = np.random.default_rng((int(plan.seed), s))
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


def _pair_moment_sum(series: MatrixSeries, indices: np.ndarray, h: int) -> np.ndarray:
    """Sum over the subsample of vec(Y_t) vec(Y_{t+h})', skipping t + h past the end."""
    n, p, q = series.n, series.p, series.q
    idx = np.asarray(indices, dtype=int)
    valid = idx[idx + h <= n - 1]
    base = series.data[valid].reshape(valid.size, p * q)
    lead = series.data[valid + h].reshape(valid.size, p * q)
    return base.T @ lead


def split_pair_product(series: MatrixSeries, indices: np.ndarray, h: int) -> np.ndarray:
    """Uncentered entry-pair second moments at lag h over a time subsample.

    Entry [(i, j), (k, l)] equals the subsample average of
    Y_t[i, j] * Y_{t+h}[k, l]; terms with t + h past the series end
    contribute zero.  The flattened (p*q, p*q) layout carries the same
    entry multiset as the corresponding Kronecker-product average.
    """
    return _pair_moment_sum(series, indices, h) / np.asarray(indices).size


def _grid_risk(first: np.ndarray, second: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Squared Frobenius distance between T_u(first) and second for every grid value.

    The grid must be non-decreasing, as threshold_grid returns it.  Keeping
    an entry a instead of zeroing it changes its squared error from b**2 to
    (a - b)**2, so risk(u) = sum(b**2) + sum over |a| >= u of a * (a - 2b).
    Binning |a| by the number of levels it reaches and taking a reverse
    cumulative sum of the per-bin terms gives every level in one pass.
    Equal levels bound an empty bin, which adds exactly 0.0, so they tie.
    """
    a = first.ravel()
    b = second.ravel()
    bins = np.searchsorted(grid, np.abs(a), side="right")
    gains = np.bincount(bins, weights=a * (a - 2.0 * b), minlength=grid.size + 1)
    return b @ b + np.cumsum(gains[::-1])[::-1][1:]


def cv_threshold_autocov(series: MatrixSeries, k: int, plan: CvPlan) -> float:
    """Cross-validated threshold for the row-averaged autocovariance at lag k.

    Minimizes the average squared Frobenius distance between the
    thresholded first-part estimate and the raw second-part estimate over a
    grid of candidate levels drawn from the full-sample estimate.  Ties
    resolve to the smallest candidate.

    Parameters
    ----------
    series : MatrixSeries
        Observed series.
    k : int
        Lag, 0 <= k <= n - 1.
    plan : CvPlan
        Split scheme; identical series and plan give identical output.

    Returns
    -------
    float
        Selected threshold, >= 0.
    """
    n = series.n
    k = _check_lag(k, n, "k")
    full = row_autocov(series, k)
    grid = threshold_grid(full, plan.grid_size)
    risks = np.zeros(grid.size)
    for first, second in split_indices(plan, n):
        a = split_row_autocov(series, first, k)
        b = split_row_autocov(series, second, k)
        risks += _grid_risk(a, b, grid)
    risks /= plan.n_splits
    return float(grid[int(np.argmin(risks))])


def cv_threshold_pair(series: MatrixSeries, h: int, plan: CvPlan) -> float:
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
    plan : CvPlan
        Split scheme; identical series and plan give identical output.

    Returns
    -------
    float
        Selected threshold, >= 0.
    """
    n, p, q = series.n, series.p, series.q
    h = _check_lag(h, n, "h")
    if p * p * q * q > PAIR_TENSOR_ENTRY_LIMIT:
        raise ResourceLimit(
            f"entry-pair moment matrix would hold {p * p * q * q} entries"
        )
    base = series.data[: n - h].reshape(n - h, p * q)
    lead = series.data[h:].reshape(n - h, p * q)
    total = base.T @ lead
    grid = threshold_grid(total / n, plan.grid_size)
    risks = np.zeros(grid.size)
    for first, second in split_indices(plan, n):
        part = _pair_moment_sum(series, second, h)
        risks += _grid_risk((total - part) / first.size, part / second.size, grid)
    risks /= plan.n_splits
    return float(grid[int(np.argmin(risks))])
