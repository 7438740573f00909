"""Synthetic data generators and the replication harness for the segmentation pipeline."""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidInput, InvalidState, MatsegError
from .linalg import subspace_distance
from .segmentation import SegmentationConfig, SegmentationResult, _reseeded, segment
from .series import MatrixSeries

BURN_IN = 200
# steps per stacked moving-average product; bounds its transient memory
_MA_BLOCK = 64

_EXAMPLE_PARTITIONS = {
    1: [[1, 2, 3], [4, 5], [6]],
    2: [[1, 2, 3], [4, 5], [6]],
    3: [[1, 2, 3, 4], [5, 6, 7], [8, 9], [10]],
}
_EXAMPLE_ROWS = {1: 3, 2: 6, 3: 10}

CORRECT = "correct"
NEAR_COMPLETE = "near_complete"
INCORRECT = "incorrect"


@dataclass(frozen=True)
class GroundTruth:
    """The transformation and column partition a generator used."""

    example: int
    a: np.ndarray
    partition: list[list[int]]

    @property
    def q1(self) -> int:
        return len(self.partition)

    @property
    def sizes(self) -> list[int]:
        return sorted(len(g) for g in self.partition)


def _varma_paths(dim: int, lengths: list[int], rng: np.random.Generator) -> list[np.ndarray]:
    """Independent VARMA(1, 1) paths of one dimension, run as one recursion.

    Path i reads the stream exactly as a lone call of
    gen_factor_varma(dim, lengths[i], rng) would, and paths read it in the
    order of `lengths`.  Every step runs one stacked matrix-vector product
    over all paths; shorter paths run zero-padded tail steps whose rows are
    discarded.  Each product is the same BLAS matrix-vector call as a
    per-path loop makes, and the sum keeps the order (phi eta + eps) -
    theta eps_prev, so the output is bit-identical to that loop.

    The recursion runs on a time-major (step, path, dim, 1) array, so each
    step's rows are contiguous and its add and subtract run on contiguous
    memory.  For a lone path the time-major array is a view of the drawn
    block, not a copy.  Row views are made one moving-average block at a
    time, so the Python objects stay bounded whatever the length.
    """
    steps = [BURN_IN + n for n in lengths]
    g, t_max = len(steps), max(steps)
    phis, thetas = [], []
    buf = np.zeros((g, t_max + 2, dim))
    for i, total in enumerate(steps):
        phi = rng.uniform(-3.0, 3.0, (dim, dim))
        phi *= 0.9 / np.linalg.norm(phi, ord=2)
        phis.append(phi)
        thetas.append(rng.uniform(-1.0, 1.0, (dim, dim)))
        rng.standard_normal(out=buf[i, : total + 2])
    # a lone path uses its matrices in place: no copy at large dims
    phis = phis[0][None] if g == 1 else np.stack(phis)
    thetas = (thetas[0][None] if g == 1 else np.stack(thetas))[:, None]
    # row 0 holds eta_0, row t + 1 holds eps_t; step t overwrites row t
    # (eps_{t-1}, already consumed by the moving-average block) with eta_t
    rows = np.ascontiguousarray(buf.transpose(1, 0, 2))[..., None]
    del buf  # for several paths rows is a copy; free the drawn block now
    ma = np.empty((_MA_BLOCK, g, dim, 1))
    ma_rows = list(ma)
    ar = np.empty((g, dim, 1))
    matmul, add, subtract = np.matmul, np.add, np.subtract
    for start in range(1, t_max + 1, _MA_BLOCK):
        stop = min(start + _MA_BLOCK, t_max + 1)
        matmul(thetas, rows[start:stop].swapaxes(0, 1), out=ma[: stop - start].swapaxes(0, 1))
        # block[b] is row start - 1 + b, so step start + b reads block[b],
        # adds block[b + 2] and writes block[b + 1]
        block = list(rows[start - 1 : stop + 1])
        for b in range(stop - start):
            matmul(phis, block[b], ar)
            add(ar, block[b + 2], ar)
            subtract(ar, ma_rows[b], block[b + 1])
    return [rows[BURN_IN + 1 : total + 1, i, :, 0] for i, total in enumerate(steps)]


def gen_factor_varma(dim: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """A stationary VARMA(1, 1) path with randomized coefficients.

    The autoregressive matrix has independent U(-3, 3) entries rescaled to
    operator norm 0.9; the moving-average matrix has U(-1, 1) entries; the
    innovations are standard normal.  The first 200 steps are discarded.

    The path reads the stream in a fixed order: the autoregressive matrix,
    the moving-average matrix, then eta_0, eps_0, eps_1, ..., eps_{200+n}
    as one (202 + n, dim) block of standard normals.

    Parameters
    ----------
    dim : int
        Process dimension.
    n : int
        Number of returned time points.
    rng : numpy.random.Generator

    Returns
    -------
    ndarray, shape (n, dim)
    """
    if dim < 1:
        raise InvalidInput(f"dim must be positive, got {dim}")
    if n < 1:
        raise InvalidInput(f"n must be positive, got {n}")
    return _varma_paths(dim, [n], rng)[0]


def _example3_transform() -> np.ndarray:
    """Five 2x2 rotation blocks on the diagonal, block b by angle pi^2 / (b + 5)."""
    a = np.zeros((10, 10))
    for b in range(5):
        angle = (math.pi / (b + 5)) * math.pi
        cos, sin = math.cos(angle), math.sin(angle)
        a[2 * b : 2 * b + 2, 2 * b : 2 * b + 2] = [[cos, sin], [-sin, cos]]
    return a


def _latent_series(partition: list[list[int]], p: int, n: int, rng: np.random.Generator) -> np.ndarray:
    # a separate frame, so the path buffer is freed before gen_example
    # allocates the observed series
    x = np.empty((n, p, sum(len(g) for g in partition)))
    paths = _varma_paths(p, [n + len(g) - 1 for g in partition], rng)
    for group, path in zip(partition, paths):
        for shift, col in enumerate(group):
            x[:, :, col - 1] = path[shift : shift + n]
    return x


def gen_example(example: int, n: int, rng: np.random.Generator) -> tuple[MatrixSeries, GroundTruth]:
    """One replication of a benchmark scenario.

    Latent columns sharing a group are lag-shifted copies of one
    VARMA(1, 1) factor path; distinct groups use independent paths.  The
    observed series is Y_t = X_t A' with A drawn with U(-3, 3) entries for
    examples 1 and 2 and a fixed sparse orthogonal block-rotation matrix
    for example 3.

    The stream is read group by group in partition order, each group's
    path exactly as gen_factor_varma(p, n + len(group) - 1, rng) reads it,
    and then, for examples 1 and 2, the entries of A.

    Parameters
    ----------
    example : int
        Scenario 1 (3 x 6, groups 3/2/1), 2 (6 x 6, groups 3/2/1) or
        3 (10 x 10, groups 4/3/2/1).
    n : int
        Series length, n >= 50.
    rng : numpy.random.Generator

    Returns
    -------
    (MatrixSeries, GroundTruth)
    """
    if example not in _EXAMPLE_PARTITIONS:
        raise InvalidInput(f"unknown example {example}; choose 1, 2 or 3")
    if n < 50:
        raise InvalidInput(f"n must be at least 50, got {n}")
    partition = [list(g) for g in _EXAMPLE_PARTITIONS[example]]
    q = sum(len(g) for g in partition)
    x = _latent_series(partition, _EXAMPLE_ROWS[example], n, rng)
    if example == 3:
        a = _example3_transform()
    else:
        a = rng.uniform(-3.0, 3.0, (q, q))
    series = MatrixSeries(x @ a.T)
    return series, GroundTruth(example=example, a=a, partition=partition)


def classify_segmentation(result: SegmentationResult, truth: GroundTruth) -> str:
    """Compare an estimated partition with the generating one.

    Returns "correct" when the group count and the multiset of group sizes
    both match, "near_complete" when the estimated count is exactly one
    short, and "incorrect" otherwise.
    """
    found = len(result.groups)
    if found == truth.q1 and sorted(len(g) for g in result.groups) == truth.sizes:
        return CORRECT
    if found == truth.q1 - 1:
        return NEAR_COMPLETE
    return INCORRECT


def mean_subspace_error(
    a_hat: list[np.ndarray], truth: GroundTruth, standardizer: np.ndarray
) -> float:
    """Average subspace distance between estimated and generating column blocks.

    The generating transformation is mapped through the standardizer so
    both sets of blocks live in the standardized coordinates.  Blocks are
    matched within each group-size class by the assignment minimizing the
    summed distance, found by exhaustive search: k! orderings for a class
    of k equal-size blocks.  The built-in examples have one block per size.

    Parameters
    ----------
    a_hat : list of ndarray
        Estimated blocks from a run classified as correct.
    truth : GroundTruth
    standardizer : ndarray, shape (q, q)

    Returns
    -------
    float
        Mean distance over the groups, in [0, 1].
    """
    est_sizes = sorted(b.shape[1] for b in a_hat)
    if len(a_hat) != truth.q1 or est_sizes != truth.sizes:
        raise InvalidState(
            "block pairing requires a correct run: group sizes "
            f"{est_sizes} do not match {truth.sizes}"
        )
    mapped = np.asarray(standardizer, dtype=float) @ truth.a
    true_blocks = [mapped[:, [c - 1 for c in group]] for group in truth.partition]
    total = 0.0
    for size in set(truth.sizes):
        est_idx = [i for i, b in enumerate(a_hat) if b.shape[1] == size]
        true_idx = [i for i, b in enumerate(true_blocks) if b.shape[1] == size]
        cost = np.array(
            [
                [subspace_distance(a_hat[e], true_blocks[t]) for t in true_idx]
                for e in est_idx
            ]
        )
        rows = range(len(est_idx))
        total += min(float(cost[rows, perm].sum()) for perm in itertools.permutations(rows))
    return total / truth.q1


@dataclass(frozen=True)
class ExperimentRow:
    """Aggregated outcomes for one (example, n) cell."""

    example: int
    n: int
    reps: int
    n_correct: int
    n_near_complete: int
    n_incorrect: int
    n_failed: int
    d_bar_mean: float
    d_bar_q1: float
    d_bar_median: float
    d_bar_q3: float

    @property
    def correct_prop(self) -> float:
        return self.n_correct / self.reps

    @property
    def incorrect_prop(self) -> float:
        return self.n_incorrect / self.reps

    @property
    def near_complete_prop(self) -> float:
        return self.n_near_complete / self.reps


@dataclass(frozen=True)
class ExperimentReport:
    """Replication outcomes for every requested series length."""

    example: int
    seed: int
    config: SegmentationConfig
    rows: list[ExperimentRow]


def run_replication(
    example: int, n: int, rep: int, cfg: SegmentationConfig, seed: int
) -> tuple[int, str, float]:
    """Generate, segment and classify one replication.

    The random stream depends only on (seed, example, n, rep), so results
    do not depend on scheduling.  Segmentation errors are reported as the
    outcome "failed" rather than raised.

    Returns
    -------
    (rep, outcome, d_bar)
        d_bar is NaN unless the outcome is "correct".
    """
    rng = np.random.default_rng((int(seed), example, n, rep))
    series, truth = gen_example(example, n, rng)
    try:
        cfg = replace(cfg, threshold=_reseeded(cfg.threshold, seed, example, n, rep, 7))
        result = segment(series, cfg)
    except MatsegError:
        return rep, "failed", float("nan")
    label = classify_segmentation(result, truth)
    if label != CORRECT:
        return rep, label, float("nan")
    return rep, label, mean_subspace_error(result.a_hat, truth, result.standardizer)


def run_experiment(
    example: int,
    n_values,
    reps: int,
    cfg: SegmentationConfig | None = None,
    seed: int = 0,
    threads: int = 1,
) -> ExperimentReport:
    """Replicated segmentation of a benchmark scenario over several lengths.

    Failed replications count as incorrect; near-complete outcomes are a
    sub-count of incorrect, so the correct and incorrect proportions add to
    one.  Distance statistics summarize the correct replications only.

    Parameters
    ----------
    example : int
        Scenario index.
    n_values : iterable of int
        Series lengths.
    reps : int
        Replications per length, >= 1.
    cfg : SegmentationConfig, optional
    seed : int
        Root seed, >= 0; replication streams derive from (seed, example, n, rep).
    threads : int
        Worker processes, one pool for all lengths; any value gives the same results.

    Returns
    -------
    ExperimentReport
    """
    if cfg is None:
        cfg = SegmentationConfig()
    if reps < 1:
        raise InvalidInput(f"reps must be at least 1, got {reps}")
    if seed < 0:
        raise InvalidInput(f"seed must be nonnegative, got {seed}")
    n_values = [int(n) for n in n_values]
    if not n_values:
        raise InvalidInput("n_values must not be empty")
    threads = max(1, int(threads))
    tasks = [(example, n, rep, cfg, seed) for n in n_values for rep in range(reps)]
    if threads == 1:
        outcomes = [run_replication(*t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(run_replication, *zip(*tasks)))
    rows = []
    for i, n in enumerate(n_values):
        cell = outcomes[i * reps : (i + 1) * reps]
        labels = [label for _, label, _ in cell]
        d_bars = np.array([d for _, label, d in cell if label == CORRECT])
        n_correct = labels.count(CORRECT)
        n_near = labels.count(NEAR_COMPLETE)
        if d_bars.size:
            stats = [float(d_bars.mean()), *np.quantile(d_bars, [0.25, 0.5, 0.75]).tolist()]
        else:
            stats = [float("nan")] * 4
        rows.append(
            ExperimentRow(
                example=example,
                n=n,
                reps=reps,
                n_correct=n_correct,
                n_near_complete=n_near,
                n_incorrect=reps - n_correct,
                n_failed=labels.count("failed"),
                d_bar_mean=stats[0],
                d_bar_q1=stats[1],
                d_bar_median=stats[2],
                d_bar_q3=stats[3],
            )
        )
    return ExperimentReport(example=example, seed=seed, config=cfg, rows=rows)
