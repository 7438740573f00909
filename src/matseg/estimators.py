"""Sample autocovariance estimators for matrix-valued series and their thresholded forms."""

from __future__ import annotations

import numpy as np

from .errors import InvalidInput, ResourceLimit
from .series import MatrixSeries

PAIR_TENSOR_ENTRY_LIMIT = 10**8


def _check_window(value, n: int, name: str, low: int = 0, gap: int = 1):
    """value, refused unless low <= value <= n - gap: the one lag-window rule.

    A lag runs over 0..n - 1 (lag n - 1 leaves one overlapping term), k0
    over 1..n - 2 and the scoring window m over 0..n - 2.
    """
    if not low <= value <= n - gap:
        raise InvalidInput(
            f"{name} must satisfy {low} <= {name} <= n - {gap}, got {value} with n = {n}"
        )
    return value


def row_autocov(series: MatrixSeries, k: int) -> np.ndarray:
    """Row-averaged sample autocovariance of the series columns at lag k.

    Returns (1 / (n p)) * sum_t (Y_{t+k} - Ybar)' (Y_t - Ybar) where Ybar
    is the full-sample mean matrix and the sum runs over t = 1..n-k.

    Parameters
    ----------
    series : MatrixSeries
        Observed series of p x q matrices.
    k : int
        Lag, 0 <= k <= n - 1.

    Returns
    -------
    ndarray, shape (q, q)
    """
    n, p, q = series.n, series.p, series.q
    k = _check_window(int(k), n, "k")
    return _lag_product(_center(series.data), k, q) / (n * p)


def _center(data: np.ndarray) -> np.ndarray:
    """data minus its full-sample mean, in a fresh C-ordered buffer.

    The buffer is C-ordered even when data is a strided view a caller
    passed in, so the reshapes in _lag_product are views.  Every
    estimator and its cross-validation centres here.
    """
    return np.subtract(data, data.mean(axis=0), out=np.empty(data.shape))


def _lag_product(x: np.ndarray, k: int, width: int, t=None, out=None) -> np.ndarray:
    """Sum over t of x[t + k]' x[t], each time slice flattened to rows of width entries.

    Width q gives n p times the row-averaged autocovariance of centred
    data, width p q the (p q, p q) row-pair product.  t runs over every
    valid time point 0..n-k-1, or over the given index array, whose points
    with t + k past the end are skipped.  k is not checked.  This is the
    one lag product behind the estimators and their cross-validation.
    out, if given, is a C-ordered (width, width) array that receives it.
    """
    n = x.shape[0]
    if t is None:
        lead, base = x[k:], x[: n - k]
    else:
        t = t[t + k <= n - 1]
        lead, base = x[t + k], x[t]
    return np.matmul(lead.reshape(-1, width).T, base.reshape(-1, width), out=out)


def pair_autocov_all(series: MatrixSeries, h: int) -> np.ndarray:
    """All row-pair sample cross-covariances at lag h in one array.

    Entry [i-1, j-1] is (1 / n) * sum_t (y_i^{t+h} - ybar_i)' (y_j^t - ybar_j)
    for 1-based rows i and j, treated as 1 x q vectors, with full-sample
    row means and the sum over t = 1..n-h.

    Returns
    -------
    ndarray, shape (p, p, q, q)
    """
    h = _check_window(int(h), series.n, "h")
    return _pair_lag_products(_center(series.data), h)[0]


def _check_pair_size(width: int, what: str) -> None:
    """Refuse a (width, width) product of more than PAIR_TENSOR_ENTRY_LIMIT entries."""
    if width * width > PAIR_TENSOR_ENTRY_LIMIT:
        raise ResourceLimit(f"{what} would hold {width * width} entries")


def _pair_lag_products(centered: np.ndarray, h: int, level=None, out=None):
    """pair_autocov_all at lag h from data already centred by its full-sample mean, and its level.

    Scoring passes centre once and call this per lag; h is not checked.
    The level is None, or the kind-1 rule level (see _level_rule in
    segmentation) read on the undivided (p q, p q) product, since
    (x / n) * n is not x in floating point.  out, if given, is a C-ordered
    buffer of (p q)^2 entries that receives the product; the tensor is a
    view of it.
    """
    n, p, q = centered.shape
    _check_pair_size(p * q, "row-pair covariance tensor")
    flat = _lag_product(centered, h, p * q, out=None if out is None else out.reshape(p * q, p * q))
    v = None if level is None else level(centered, h, flat)
    flat /= n
    return flat.reshape(p, q, p, q).transpose(0, 2, 1, 3), v


def hard_threshold(matrix, u: float, keep_diagonal: bool = False, out=None) -> np.ndarray:
    """Zero all entries with magnitude strictly below u.

    Parameters
    ----------
    matrix : array_like
        Input array; thresholding acts entrywise on the last two axes.
    u : float
        Threshold, u >= 0.
    keep_diagonal : bool
        When True, diagonal entries of the trailing two axes are kept
        regardless of magnitude.
    out : ndarray, optional
        Float array of the input's shape, sharing no memory with it, that
        receives the result.

    Returns
    -------
    ndarray
        Thresholded copy of the input.
    """
    arr = np.asarray(matrix, dtype=float)
    if not np.isfinite(u) or u < 0:
        raise InvalidInput(f"threshold must be finite and nonnegative, got {u}")
    if out is None:
        out = np.empty(arr.shape)
    # |arr| is formed in out, so no second array of the input's size is allocated
    small = np.abs(arr, out=out) < u
    np.copyto(out, arr)
    out[small] = 0.0
    if keep_diagonal:
        if arr.ndim < 2:
            raise InvalidInput("keep_diagonal requires at least a 2-dimensional input")
        rows, cols = np.diag_indices(min(arr.shape[-2], arr.shape[-1]))
        out[..., rows, cols] = arr[..., rows, cols]
    return out


def w_stat(series: MatrixSeries, k0: int, u_per_lag=None) -> np.ndarray:
    """Accumulated lag-covariance statistic whose eigenvectors drive segmentation.

    Returns I_q + sum_{k=1..k0} T_k @ T_k' with T_k the (optionally
    thresholded) row_autocov at lag k.  The series is expected to be
    standardized so its lag-0 row covariance is the identity.

    Parameters
    ----------
    series : MatrixSeries
        Standardized series.
    k0 : int
        Number of lags, 1 <= k0 <= n - 2.
    u_per_lag : sequence of float or None
        Per-lag thresholds (entry k-1 applies to lag k); None disables
        thresholding.

    Returns
    -------
    ndarray, shape (q, q)
        Symmetric matrix with every eigenvalue >= 1.
    """
    if u_per_lag is not None and len(u_per_lag) != k0:
        raise InvalidInput(f"u_per_lag must have length {k0}, got {len(u_per_lag)}")
    level = None if u_per_lag is None else lambda centered, k, total: u_per_lag[k - 1]
    return _w_and_levels(_center(series.data), k0, level)[0]


def _w_and_levels(centered: np.ndarray, k0: int, level=None) -> tuple[np.ndarray, list | None]:
    """w_stat of data centred by its full-sample mean, and the levels of its T_k.

    One pass over k = 1..k0 forms each lag's product, T_k and its term
    T_k @ T_k' of the sum.  T_k is the row-averaged autocovariance at lag
    k, hard-thresholded at level(centered, k, total) unless level is None;
    total is the lag's full-sample _lag_product at width q, which a
    cross-validated level reads before it is divided.  Returns W and the
    levels (None when level is).
    """
    n, p, q = centered.shape
    _check_window(k0, n, "k0", 1, 2)
    w, levels = np.eye(q), None if level is None else []
    for k in range(1, k0 + 1):
        total = _lag_product(centered, k, q)
        cov = total / (n * p)
        if level is not None:
            levels.append(level(centered, k, total))
            cov = hard_threshold(cov, levels[-1])
        # numpy forms cov @ cov.T from one triangle, so w stays exactly symmetric
        w += cov @ cov.T
    return w, levels
