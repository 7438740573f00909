"""Segmentation of matrix-series columns into groups uncorrelated at all lags.

The pipeline standardizes the series so its row-averaged lag-0 covariance
is the identity, extracts an orthogonal transformation from the
eigenvectors of an accumulated lag-covariance statistic, scores every pair
of transformed columns by its maximal absolute cross-correlation over a lag
window, keeps the strongest pairs chosen by a ratio rule, and reads the
groups off the resulting graph as connected components.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DegenerateColumn, DegenerateVariance, InvalidInput
from .estimators import (
    _center,
    _check_window,
    _lag_product,
    _pair_lag_products,
    _w_and_levels,
    hard_threshold,
    row_autocov,
)
from .linalg import inv_sqrt_psd, sym_eig
from .series import MatrixSeries
from .threshold_cv import CvThreshold, _cv_level


@dataclass(frozen=True)
class NoThreshold:
    """Raw sample estimators, no thresholding."""


@dataclass(frozen=True)
class FixedThreshold:
    """One fixed level u for all row-autocovariances and v for all row-pair covariances."""

    u: float
    v: float

    def __post_init__(self):
        if not (np.isfinite(self.u) and self.u >= 0):
            raise InvalidInput(f"u must be finite and nonnegative, got {self.u}")
        if not (np.isfinite(self.v) and self.v >= 0):
            raise InvalidInput(f"v must be finite and nonnegative, got {self.v}")


ThresholdMode = NoThreshold | FixedThreshold | CvThreshold


@dataclass(frozen=True)
class SegmentationConfig:
    """Tuning constants for the segmentation pipeline.

    k0 is the number of lags accumulated in the eigen-analysis statistic, m
    the largest lag used when scoring pairs of transformed columns, c0 the
    fraction of the score list searched by the ratio rule, and ratio_shift
    an optional finite, positive additive stabilizer that widens the
    search to the whole list.  eps is the relative eigenvalue floor of the
    standardizer.
    """

    k0: int = 2
    m: int = 10
    c0: float = 0.75
    ratio_shift: float | None = None
    threshold: ThresholdMode = field(default_factory=NoThreshold)
    eps: float = 1e-10

    def __post_init__(self):
        if self.k0 < 1:
            raise InvalidInput(f"k0 must be at least 1, got {self.k0}")
        if self.m < 0:
            raise InvalidInput(f"m must be nonnegative, got {self.m}")
        if not 0 < self.c0 < 1:
            raise InvalidInput(f"c0 must lie in (0, 1), got {self.c0}")
        if self.ratio_shift is not None and not 0 < self.ratio_shift < np.inf:
            raise InvalidInput(f"ratio_shift must be finite and positive, got {self.ratio_shift}")
        if not 0 < self.eps < 1:
            raise InvalidInput(f"eps must lie in (0, 1), got {self.eps}")
        if not isinstance(self.threshold, ThresholdMode):
            raise InvalidInput(f"unknown threshold mode {self.threshold!r}")


@dataclass
class SegmentationResult:
    """Everything produced by one segmentation run.

    gamma holds the orthogonal transformation as columns, standardizer the
    inverse square root applied to the raw series, and transformed the
    standardized series rotated by gamma.  scores lists every column pair
    (1-based, i < j) with its maximal absolute cross-correlation, sorted
    descending; the first selected_edges entries are the retained pairs and
    groups is the resulting partition sorted by smallest member.  a_hat
    contains the gamma columns of each group, in group order.
    w_eigenvalues are the eigenvalues of the statistic whose eigenvectors
    are gamma, descending; None for a single column.
    """

    gamma: np.ndarray
    standardizer: np.ndarray
    transformed: MatrixSeries
    scores: list[tuple[int, int, float]]
    selected_edges: int
    groups: list[list[int]]
    a_hat: list[np.ndarray]
    u_lag0: float | None = None
    u_per_lag: list[float] | None = None
    v_per_lag: list[float] | None = None
    w_eigenvalues: np.ndarray | None = None


def _reseeded(threshold: ThresholdMode, *key: int) -> ThresholdMode:
    """threshold, or under cross-validation a copy seeded from SeedSequence(key).

    The one derivation of a cross-validation seed: _level_rule keys
    it by (seed, kind, lag), run_replication by (seed, example, n, rep, 7).
    """
    if not isinstance(threshold, CvThreshold):
        return threshold
    derived = int(np.random.SeedSequence(tuple(int(k) for k in key)).generate_state(1)[0])
    return replace(threshold, seed=derived)


def _level_rule(threshold: ThresholdMode, kind: int):
    """The level of one covariance estimate of a series, as a function of the series.

    kind 0 selects the row-averaged autocovariances (levels u), kind 1 the
    row-pair cross-covariances (levels v).  Returns None under
    NoThreshold, refuses an object that is no threshold mode, and else
    returns level(centered, lag, total=None): the level at the lag of the
    series centred by its full-sample mean, given, optionally, the lag's
    full-sample _lag_product of centered at the estimate's width (q for
    kind 0, p q for kind 1).  A cross-validated level reads that product
    when it is given and forms it when it is not; the lag is not checked.
    The pipeline reads the threshold mode here and in _reseeded only.
    """
    if isinstance(threshold, NoThreshold):
        return None
    if isinstance(threshold, FixedThreshold):
        fixed = threshold.v if kind else threshold.u
        return lambda centered, lag, total=None: fixed
    if not isinstance(threshold, CvThreshold):
        raise InvalidInput(f"unknown threshold mode {threshold!r}")

    def level(centered, lag, total=None):
        _, p, q = centered.shape
        width = p * q if kind else q
        if total is None:
            total = _lag_product(centered, lag, width)
        plan = _reseeded(threshold, threshold.seed, kind, lag)
        return _cv_level(centered, lag, plan, width, total)

    return level


def standardize(
    series: MatrixSeries,
    u0: float | None = None,
    eps: float = 1e-10,
) -> tuple[MatrixSeries, np.ndarray]:
    """Rescale the series so its row-averaged lag-0 covariance is the identity.

    Given a level u0 the lag-0 covariance is hard-thresholded with its
    diagonal kept before the inverse square root is taken.  u0 is applied
    as given; :func:`segment` first raises its level until the thresholded
    matrix is positive definite and keeps the level used as ``u_lag0``.

    Parameters
    ----------
    series : MatrixSeries
        Raw observed series.
    u0 : float or None
        Threshold level for the lag-0 covariance; None leaves it raw.
    eps : float
        Relative eigenvalue floor for the inverse square root.

    Returns
    -------
    standardized : MatrixSeries
    standardizer : ndarray, shape (q, q)
        Symmetric matrix right-multiplied into every observation.
    """
    standardized, standardizer = _standardize(series.data, u0, eps, row_autocov(series, 0), 3)
    return MatrixSeries(standardized), standardizer


def _standardize(
    data: np.ndarray, u0: float | None, eps: float, cov0: np.ndarray, stacklevel: int
) -> tuple[np.ndarray, np.ndarray]:
    """standardize of an (n, p, q) array, given its raw lag-0 row covariance cov0.

    stacklevel is the short-series warning's, chosen by the caller so that
    the warning names the user's call.
    """
    n, _, q = data.shape
    if n <= q:
        warnings.warn(
            f"series length {n} does not exceed column count {q}; "
            "the lag-0 covariance estimate is unreliable",
            stacklevel=stacklevel,
        )
    variances = np.diag(cov0)
    for idx in range(q):
        if variances[idx] <= 0:
            raise DegenerateColumn(idx + 1)
    if u0 is not None:
        cov0 = hard_threshold(cov0, u0, keep_diagonal=True)
    standardizer = inv_sqrt_psd(cov0, eps)
    return data @ standardizer, standardizer


def _definite_level(cov0: np.ndarray, u0: float, eps: float) -> float:
    """u0, raised if need be so cov0 thresholded there (diagonal kept) is positive definite.

    An indefinite matrix would have inv_sqrt_psd floor its negative
    eigenvalue and blow the standardized series up along it.  Positive
    definite means lambda_min > eps * lambda_max.  If u0 fails, the
    candidates are the levels just above each off-diagonal magnitude >= u0,
    and the level is the smallest one from which every higher one passes
    (after Fan, Liao and Mincheva, 2013); the top candidate keeps only the
    diagonal.  A non-finite cov0 keeps u0, for standardize to refuse.
    """
    if not np.all(np.isfinite(cov0)):
        return u0
    off = np.abs(cov0[~np.eye(cov0.shape[0], dtype=bool)])
    candidates = np.nextafter(np.unique(off[off >= u0]), np.inf)

    def definite(level):
        vals = np.linalg.eigvalsh(hard_threshold(cov0, level, keep_diagonal=True))
        return vals[0] > eps * vals[-1]

    if not candidates.size or definite(u0):
        return u0
    k = candidates.size - 1
    while k and definite(candidates[k - 1]):
        k -= 1
    return float(candidates[k])


def _component_scales(tensor0: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Standard deviations of the transformed components.

    Entry [k, i] is the square root of gamma_i' S_kk(0) gamma_i where
    S_kk(0) is the unthresholded lag-0 covariance of row k, so each entry
    is a sample variance and never negative.
    """
    p = tensor0.shape[0]
    diag_blocks = tensor0[np.arange(p), np.arange(p)]
    var = np.einsum("kab,ai,bi->ki", diag_blocks, gamma, gamma)
    if not np.all(np.isfinite(var)):
        raise InvalidInput("transformed-component variances are not finite")
    bad = np.argwhere(var <= 0)
    if bad.size:
        k, i = bad[0]
        raise DegenerateVariance(int(i) + 1, int(k) + 1)
    return np.sqrt(var)


def _sandwich(tensor: np.ndarray, mat: np.ndarray, out=None, work=None) -> np.ndarray:
    """mat applied to both column axes of a (p, p, q, q) row-pair tensor.

    Entry (k, l, i, j) is the sum over a, b of tensor[k, l, a, b] mat[a, i]
    mat[b, j]: the row-pair covariances of the series right-multiplied by mat.
    One stacked product per axis, a before b, with no transposed copy.
    work and out, if given, are C-ordered (p, p, q, q) arrays that receive
    the first product and the result; out may hold tensor itself, which is
    spent once work is formed.
    """
    return np.matmul(np.matmul(mat.T, tensor, out=work), mat, out=out)


def _lag_score(
    tensor: np.ndarray,
    gamma: np.ndarray,
    v: float | None,
    h: int,
    denom: np.ndarray | None,
    out=None,
    work=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pair scores at lag h from that lag's (p, p, q, q) row-pair tensor.

    The one per-lag step of every scoring pass: threshold the tensor at
    level v, rotate its column axes by gamma, and take each column pair's
    largest absolute correlation over row pairs, symmetrised over lags h
    and -h.  The correlation denominators are the transformed components'
    standard deviations from the lag-0 tensor before it is thresholded: at
    h = 0 they are computed here and denom is ignored; later lags pass on
    the denom that lag 0 returned.  out and work, if given, are C-ordered
    (p, p, q, q) arrays: out receives the thresholded and then the rotated
    tensor, work the temporaries.  Under v = None out may hold tensor itself.

    Returns
    -------
    scores : ndarray, shape (q, q)
    denom : ndarray, shape (p, p, q, q)
    rotated : ndarray, shape (p, p, q, q)
        The thresholded tensor rotated by gamma.
    """
    if h == 0:
        scales = _component_scales(tensor, gamma)
        denom = np.einsum("ki,lj->klij", scales, scales)
    if v is not None:
        tensor = hard_threshold(tensor, v, out=out)
    rotated = _sandwich(tensor, gamma, out, work)
    # a pass holds one lag's tensors at a time, so each is freed once spent
    del tensor
    ratio = np.divide(rotated, denom, out=work)
    corr = np.abs(ratio, out=ratio).max(axis=(0, 1))
    return np.maximum(corr, corr.T), denom, rotated


def lag_scores(
    standardized: MatrixSeries,
    gamma: np.ndarray,
    m: int,
    threshold: ThresholdMode = NoThreshold(),
) -> np.ndarray:
    """Maximal absolute cross-correlation of every pair of transformed columns, per lag.

    Entry (h, i, j) is the largest absolute correlation between any
    component of column i and any component of column j at lags h and -h;
    the lag -h sample cross-covariances are the transposes of the lag h
    ones, so each lag's matrix is symmetric.  The threshold mode's v
    level of lag h, chosen on the standardized series as segment chooses
    it, thresholds the lag-h covariances; the correlation denominators
    come from the unthresholded lag-0 covariances.

    Returns
    -------
    ndarray, shape (m + 1, q, q)
    """
    level = _level_rule(threshold, 1)
    return _lag_scores(_center(standardized.data), np.asarray(gamma, dtype=float), m, level)[0]


def _lag_scores(centered: np.ndarray, gamma: np.ndarray, m: int, level=None):
    """lag_scores of a centred standardized series, and the level of each lag.

    The one matrix scoring loop.  level, if given, is a level rule of kind
    1; _pair_lag_products applies it, so a cross-validated level reads
    the product that the lag is scored on.  Returns the scores and the
    levels (None when level is).
    """
    _check_window(m, centered.shape[0], "m", 0, 2)
    q = centered.shape[2]
    scores = np.empty((m + 1, q, q))
    levels = []
    denom = None
    for h in range(m + 1):
        tensor, v = _pair_lag_products(centered, h, level)
        levels.append(v)
        scores[h], denom, _ = _lag_score(tensor, gamma, v, h, denom)
        # the next lag's product and level are formed with this lag's tensors freed
        del tensor, _
    if not np.all(np.isfinite(scores)):
        raise InvalidInput("pair scores are not finite")
    return scores, None if level is None else levels


def pair_score_matrix(
    standardized: MatrixSeries,
    gamma: np.ndarray,
    m: int,
    threshold: ThresholdMode = NoThreshold(),
) -> np.ndarray:
    """Maximal absolute cross-correlation for every pair of transformed columns.

    Entry (i, j) is the largest absolute correlation between any component
    of column i and any component of column j over lags -m..m: the maximum
    over h of :func:`lag_scores`.

    Returns
    -------
    ndarray, shape (q, q)
        Symmetric matrix; the diagonal holds each column's own score and is
        not used by the segmentation.
    """
    return lag_scores(standardized, gamma, m, threshold).max(axis=0)


def ratio_select(scores, c0: float = 0.75, shift: float | None = None) -> int:
    """Number of column pairs to retain, chosen by the score-ratio rule.

    Without a shift the rule maximizes scores[j-1] / scores[j] over
    1 <= j < c0 * len(scores); a zero denominator counts as an infinite
    ratio at the first index where it occurs.  With a positive shift s the
    rule maximizes (scores[j-1] + s) / (scores[j] + s) over the whole list.
    Ties resolve to the smallest index.

    Parameters
    ----------
    scores : sequence of float
        Pair scores sorted descending.
    c0 : float
        Search fraction in (0, 1); ignored when shift is given.
    shift : float or None
        Additive stabilizer, finite and > 0.

    Returns
    -------
    int
        Retained pair count, >= 1.
    """
    arr = np.asarray(scores, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise InvalidInput(f"scores must be a sequence of at least 2 values, got {arr.size}")
    if np.any(np.diff(arr) > 0):
        raise InvalidInput("scores must be sorted in descending order")
    if np.any(arr < 0) or not np.all(np.isfinite(arr)):
        raise InvalidInput("scores must be finite and nonnegative")
    q0 = arr.size
    if shift is None:
        if not 0 < c0 < 1:
            raise InvalidInput(f"c0 must lie in (0, 1), got {c0}")
        # j runs over 1..j_count with j < c0 * q0 strict
        j_count = int(np.ceil(c0 * q0)) - 1
        if j_count < 1:
            raise InvalidInput(f"no admissible index: c0 * q0 = {c0 * q0} leaves an empty range")
        lead = arr[:j_count]
        lag = arr[1 : j_count + 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(lag == 0.0, np.inf, lead / lag)
        return int(np.argmax(ratios)) + 1
    if not 0 < shift < np.inf:
        raise InvalidInput(f"shift must be finite and positive, got {shift}")
    lead = arr[:-1] + shift
    lag = arr[1:] + shift
    return int(np.argmax(lead / lag)) + 1


def group_columns(edges, q: int) -> list[list[int]]:
    """Connected components of the pair graph over columns 1..q.

    Parameters
    ----------
    edges : iterable of (int, int)
        Retained pairs, 1-based, distinct endpoints.
    q : int
        Column count.

    Returns
    -------
    list of list of int
        Groups sorted by smallest member, members ascending; isolated
        columns appear as singletons.
    """
    if q < 1:
        raise InvalidInput(f"q must be positive, got {q}")
    parent = list(range(q + 1))

    def root(x: int) -> int:
        # path halving: each visited node skips to its grandparent
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    for edge in edges:
        i, j = int(edge[0]), int(edge[1])
        if not (1 <= i <= q and 1 <= j <= q):
            raise InvalidInput(f"edge ({i}, {j}) falls outside 1..{q}")
        if i == j:
            raise InvalidInput(f"edge ({i}, {j}) must join two distinct columns")
        parent[root(i)] = root(j)
    # columns are visited in ascending order, so each group is ascending and
    # the groups are met by smallest member
    members: dict[int, list[int]] = {}
    for col in range(1, q + 1):
        members.setdefault(root(col), []).append(col)
    return list(members.values())


@dataclass
class _Maps:
    """The maps of one run, W's spectrum and the levels, each a SegmentationResult field."""

    standardizer: np.ndarray
    gamma: np.ndarray
    w_eigenvalues: np.ndarray | None = None
    u_lag0: float | None = None
    u_per_lag: list[float] | None = None
    v_per_lag: list[float] | None = None


def _maps(data: np.ndarray, cfg: SegmentationConfig) -> tuple[_Maps, np.ndarray, np.ndarray]:
    """First step of segment: the u levels, standardizer, gamma and W's spectrum.

    data is the raw (n, p, q) series of the user's call to a driver, whose
    lag windows the driver has checked.  Returns the maps, the standardized
    (n, p, q) series that the pair scores are taken on and that series
    centred.  The raw series is centred once, and its lag-0 product gives
    both the covariance and its level; each lag-k product of the
    standardized series gives T_k, its level and its term of W.  The v
    levels are left to the scoring: segment chooses each from the product
    it scores, sequential_segment from the centred series returned here.
    A single column gets the identity rotation, no spectrum and no levels.
    """
    n, p, q = data.shape
    raw = _center(data)
    total0 = _lag_product(raw, 0, q)
    cov0 = total0 / (n * p)
    # thresholding leaves the variance of a lone column as it is
    level = None if q == 1 else _level_rule(cfg.threshold, 0)
    u_lag0 = None if level is None else _definite_level(cov0, level(raw, 0, total0), cfg.eps)
    del raw
    standardized, standardizer = _standardize(data, u_lag0, cfg.eps, cov0, 4)
    centered = _center(standardized)
    if q == 1:
        return _Maps(standardizer, np.eye(1)), standardized, centered
    w, u_per_lag = _w_and_levels(centered, cfg.k0, level)
    eigenvalues, gamma = sym_eig(w)
    return _Maps(standardizer, gamma, eigenvalues, u_lag0, u_per_lag), standardized, centered


def _grouped(
    maps: _Maps, matrix: np.ndarray | None, transformed: MatrixSeries, cfg: SegmentationConfig
) -> SegmentationResult:
    """Last step of segment: sort the pairs of the (q, q) score matrix and group them.

    matrix is not read when q = 1.  transformed is the standardized series
    rotated by gamma.
    """
    q = maps.gamma.shape[0]
    pairs = [(i + 1, j + 1, float(matrix[i, j])) for i in range(q) for j in range(i + 1, q)]
    pairs.sort(key=lambda t: (-t[2], t[0], t[1]))
    # fewer than two pairs leave the ratio rule nothing to compare
    d_hat = ratio_select([s for _, _, s in pairs], cfg.c0, cfg.ratio_shift) if len(pairs) > 1 else 0
    edges = [(i, j) for i, j, _ in pairs[:d_hat]]
    groups = group_columns(edges, q)
    a_hat = [maps.gamma[:, [c - 1 for c in g]] for g in groups]
    return SegmentationResult(
        **vars(maps),
        transformed=transformed,
        scores=pairs,
        selected_edges=d_hat,
        groups=groups,
        a_hat=a_hat,
    )


def segment(series: MatrixSeries, cfg: SegmentationConfig | None = None) -> SegmentationResult:
    """Segment the columns of a matrix series into uncorrelated groups.

    Parameters
    ----------
    series : MatrixSeries
        Raw observed series.
    cfg : SegmentationConfig, optional
        Tuning constants; defaults apply when omitted.

    Returns
    -------
    SegmentationResult
        A single-column series yields the trivial result with one group.
    """
    if cfg is None:
        cfg = SegmentationConfig()
    if series.q > 1:
        # refused before any estimate, as sequential_segment refuses them
        _check_window(cfg.k0, series.n, "k0", 1, 2)
        _check_window(cfg.m, series.n, "m", 0, 2)
    maps, standardized, centered = _maps(series.data, cfg)
    matrix = None
    if series.q > 1:
        level = _level_rule(cfg.threshold, 1)
        scores, maps.v_per_lag = _lag_scores(centered, maps.gamma, cfg.m, level)
        matrix = scores.max(axis=0)
    del centered
    # formed after scoring, so the scoring pass runs beside one series less
    return _grouped(maps, matrix, MatrixSeries(standardized @ maps.gamma), cfg)
