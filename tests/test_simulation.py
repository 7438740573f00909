"""Tests for the benchmark generators, classification and the experiment runner."""

import dataclasses
import functools
import math
import tracemalloc

import numpy as np
import pytest
from oracles import population_w, replay_generator

from matseg import (
    InvalidInput,
    InvalidState,
    MatrixSeries,
    SegmentationConfig,
    gen_example,
)
from matseg.estimators import row_autocov
from matseg.linalg import sym_eig
from matseg.segmentation import SegmentationResult
from matseg.simulation import (
    _MA_BLOCK,
    BURN_IN,
    GroundTruth,
    _varma_paths,
    classify_segmentation,
    gen_factor_varma,
    mean_subspace_error,
    run_experiment,
)

RT2 = np.sqrt(2.0)


def _mirror_factor_varma(dim, n, rng):
    # independent reimplementation of the documented construction
    phi = rng.uniform(-3.0, 3.0, (dim, dim))
    phi *= 0.9 / np.linalg.norm(phi, ord=2)
    theta = rng.uniform(-1.0, 1.0, (dim, dim))
    eta = rng.standard_normal(dim)
    eps_prev = rng.standard_normal(dim)
    out = np.empty((BURN_IN + n, dim))
    for t in range(BURN_IN + n):
        eps = rng.standard_normal(dim)
        eta = phi @ eta + eps - theta @ eps_prev
        eps_prev = eps
        out[t] = eta
    return out[BURN_IN:], phi


def test_gen_factor_varma_matches_documented_construction():
    # bit for bit, including the stream position after the call; BURN_IN +
    # edge steps end exactly on a moving-average block boundary
    edge = (BURN_IN // _MA_BLOCK + 1) * _MA_BLOCK - BURN_IN
    cases = [(77, 3, 50), (78, 3, 50)] + [
        ((79, dim, n), dim, n)
        for dim in (1, 10, 480)
        for n in [1, 50, edge, edge + 1] + ([1500] if dim < 480 else [])
    ]
    for seed, dim, n in cases:
        got_rng = np.random.default_rng(seed)
        want_rng = np.random.default_rng(seed)
        got = gen_factor_varma(dim, n, got_rng)
        want, phi = _mirror_factor_varma(dim, n, want_rng)
        assert got.shape == want.shape == (n, dim)
        assert got.tobytes() == want.tobytes(), (dim, n)
        assert got_rng.standard_normal() == want_rng.standard_normal()
        assert abs(np.linalg.norm(phi, ord=2) - 0.9) <= 1e-10


def test_varma_paths_of_unequal_lengths_match_lone_calls():
    # lengths in no order: short paths run zero-padded tails beside longer
    # ones, and paths end mid-block and on a moving-average block edge
    edge = (BURN_IN // _MA_BLOCK + 1) * _MA_BLOCK - BURN_IN
    lengths = [3, 70, edge, 1, 130]
    for dim in (1, 3, 10):
        got_rng = np.random.default_rng((81, dim))
        want_rng = np.random.default_rng((81, dim))
        paths = _varma_paths(dim, lengths, got_rng)
        assert len(paths) == len(lengths)
        for n, path in zip(lengths, paths):
            want = gen_factor_varma(dim, n, want_rng)
            assert path.shape == (n, dim)
            assert path.tobytes() == want.tobytes(), (dim, n)
        assert got_rng.standard_normal() == want_rng.standard_normal()


def test_lone_varma_path_costs_no_extra_copy():
    # the recursion buffer is the only (steps, dim) allocation: the returned
    # path is C-contiguous, so a reshape of it stays a view
    dim, n = 480, 1500
    rng = np.random.default_rng(82)
    tracemalloc.start()
    try:
        path = gen_factor_varma(dim, n, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert path.flags.c_contiguous
    assert np.shares_memory(path, path.reshape(n, 6, 8, 10))
    assert peak < 2 * (BURN_IN + n + 2) * dim * 8, peak


def _mirror_example(example, n, rng, a3):
    # the one-path-at-a-time construction: groups in partition order, then A
    p, partition = {
        1: (3, [[1, 2, 3], [4, 5], [6]]),
        2: (6, [[1, 2, 3], [4, 5], [6]]),
        3: (10, [[1, 2, 3, 4], [5, 6, 7], [8, 9], [10]]),
    }[example]
    q = sum(len(g) for g in partition)
    x = np.empty((n, p, q))
    for group in partition:
        path, _ = _mirror_factor_varma(p, n + len(group) - 1, rng)
        for shift, col in enumerate(group):
            x[:, :, col - 1] = path[shift : shift + n]
    a = a3 if example == 3 else rng.uniform(-3.0, 3.0, (q, q))
    return x @ a.T, a


def test_gen_example_bit_identical_to_sequential_mirror():
    for example in (1, 2, 3):
        for n in (50, 57, 1500):
            got_rng = np.random.default_rng((80, example, n))
            want_rng = np.random.default_rng((80, example, n))
            series, truth = gen_example(example, n, got_rng)
            want_y, want_a = _mirror_example(example, n, want_rng, truth.a)
            assert series.data.tobytes() == want_y.tobytes(), (example, n)
            assert truth.a.tobytes() == want_a.tobytes()
            assert got_rng.standard_normal() == want_rng.standard_normal()


def test_gen_factor_varma_deterministic_and_shaped():
    a = gen_factor_varma(2, 40, np.random.default_rng(5))
    b = gen_factor_varma(2, 40, np.random.default_rng(5))
    assert np.array_equal(a, b)
    assert a.shape == (40, 2)
    with pytest.raises(InvalidInput):
        gen_factor_varma(0, 10, np.random.default_rng(0))
    with pytest.raises(InvalidInput):
        gen_factor_varma(2, 0, np.random.default_rng(0))


def test_gen_factor_varma_long_run_covariance_is_stable():
    for seed in ((800, 0), (800, 1)):
        path = gen_factor_varma(2, 20000, np.random.default_rng(seed))
        c1 = np.cov(path[:10000].T, bias=True)
        c2 = np.cov(path[10000:].T, bias=True)
        assert np.max(np.abs(c1 - c2)) < 0.1


def test_gen_example_shapes_and_partitions():
    rng = np.random.default_rng(6)
    series, truth = gen_example(1, 60, rng)
    assert (series.p, series.q) == (3, 6)
    assert truth.partition == [[1, 2, 3], [4, 5], [6]]
    assert truth.sizes == [1, 2, 3]
    assert truth.q1 == 3

    series, truth = gen_example(2, 60, rng)
    assert (series.p, series.q) == (6, 6)
    assert truth.sizes == [1, 2, 3]

    series, truth = gen_example(3, 60, rng)
    assert (series.p, series.q) == (10, 10)
    assert truth.partition == [[1, 2, 3, 4], [5, 6, 7], [8, 9], [10]]
    assert truth.sizes == [1, 2, 3, 4]
    assert truth.q1 == 4


def test_gen_example_three_has_sparse_orthogonal_transform():
    _, truth = gen_example(3, 60, np.random.default_rng(7))
    a = truth.a
    assert np.max(np.abs(a.T @ a - np.eye(10))) <= 1e-12
    # block-diagonal of 2x2 rotations; everything off the blocks is zero
    mask = np.zeros((10, 10), dtype=bool)
    for b in range(5):
        mask[2 * b : 2 * b + 2, 2 * b : 2 * b + 2] = True
    assert np.all(a[~mask] == 0.0)
    angle = (math.pi / 5.0) * math.pi
    first = np.array(
        [[math.cos(angle), math.sin(angle)], [-math.sin(angle), math.cos(angle)]]
    )
    assert np.max(np.abs(a[:2, :2] - first)) <= 1e-12


def test_gen_example_deterministic():
    a1, t1 = gen_example(1, 80, np.random.default_rng(9))
    a2, t2 = gen_example(1, 80, np.random.default_rng(9))
    assert np.array_equal(a1.data, a2.data)
    assert np.array_equal(t1.a, t2.a)


def test_gen_example_rejects_bad_arguments():
    with pytest.raises(InvalidInput):
        gen_example(4, 100, np.random.default_rng(0))
    with pytest.raises(InvalidInput):
        gen_example(1, 49, np.random.default_rng(0))


def test_gen_example_latent_groups_are_uncorrelated():
    rng = np.random.default_rng((810, 0))
    series, truth = gen_example(1, 10000, rng)
    x = MatrixSeries(series.data @ np.linalg.inv(truth.a).T)
    for k in (0, 1, 2):
        cov = row_autocov(x, k)
        for gi, ga in enumerate(truth.partition):
            for gj, gb in enumerate(truth.partition):
                if gi == gj:
                    continue
                block = cov[np.ix_([c - 1 for c in ga], [c - 1 for c in gb])]
                assert np.max(np.abs(block)) < 0.1


@functools.lru_cache(maxsize=None)
def _population(example, n, rep):
    """(truth, w, sigma_x, standardizer) of replication (0, example, n, rep), exactly."""
    coefficients, a = replay_generator(0, example, n, rep)
    _, truth = gen_example(example, n, np.random.default_rng((0, example, n, rep)))
    if example != 3:
        assert a.tobytes() == truth.a.tobytes()
    return (truth, *population_w(coefficients, example, truth.a))


@pytest.mark.parametrize("example, multiplicity", [(1, 1), (2, 1), (3, 3)])
def test_population_w_ties_across_groups_only_in_example_3(example, multiplicity):
    # W's eigenvalue 3 comes from the exact lag-1 and lag-2 shifts in a group of
    # three or more columns; example 3 has two such groups, so the eigenspace
    # spans both and the eigen method cannot identify them even from exact moments
    for rep in range(10):
        _, w, _, _ = _population(example, 1500, rep)
        vals = np.linalg.eigvalsh(w)
        assert np.sum(np.abs(vals - 3.0) < 1e-6) == multiplicity


def _least_group_share(w, sigma_x0, standardizer, truth):
    """Over the columns transformed by W's eigenvectors, the least share of
    variance that a column keeps in its largest true group.

    Column j is x A' S gamma_j, so its latent loadings are b = A' S gamma_j
    and group G holds b_G' Sigma_x(0)_GG b_G of its variance: Sigma_x(0) is
    block diagonal over the groups.  Below 0.9 the column is mixed.
    """
    _, gamma = sym_eig(w)
    loadings = truth.a.T @ standardizer @ gamma
    shares = []
    for group in truth.partition:
        idx = [c - 1 for c in group]
        b = loadings[idx]
        shares.append(np.einsum("ij,ik,kj->j", b, sigma_x0[np.ix_(idx, idx)], b))
    shares = np.array(shares)
    return float((shares.max(axis=0) / shares.sum(axis=0)).min())


@pytest.mark.parametrize("example", [1, 2, 3])
def test_population_eigenvectors_keep_every_column_in_one_group(example):
    # on the exact W, the eigen step's basis of example 3's tied eigenspace
    # happens to follow its groups (every share measured at 1.0), so exact
    # moments alone do not mix it; a perturbation does (next test)
    for rep in range(10):
        truth, w, sigma_x, standardizer = _population(example, 1500, rep)
        assert _least_group_share(w, sigma_x[0], standardizer, truth) >= 0.9


def _perturbed_shares(example, rep, eps):
    """The least group share of W plus eps times each of 10 seeded symmetric
    matrices with entries in [-1, 1]."""
    truth, w, sigma_x, standardizer = _population(example, 1500, rep)
    shares = []
    for k in range(10):
        u = np.random.default_rng((rep, k)).uniform(-1.0, 1.0, w.shape)
        shares.append(_least_group_share(w + eps * (u + u.T) / 2, sigma_x[0], standardizer, truth))
    return shares


def test_perturbed_population_w_mixes_example_3_only():
    # example 3's three-fold eigenvalue 3 spans two groups, so a perturbation
    # of any size picks the basis: measured, 78-96% of 50 directions per rep
    # mix it at 1e-12.  Examples 1 and 2 have only near-ties below a simple
    # leading eigenvalue: on these reps the smallest level that mixes either
    # is 1e-4 (example 1 rep 1, example 2 rep 5)
    for rep in range(10):
        mixed = [share < 0.9 for share in _perturbed_shares(3, rep, 1e-12)]
        assert sum(mixed) >= 5
        for example in (1, 2):
            for eps in (1e-12, 1e-8, 1e-5):
                assert min(_perturbed_shares(example, rep, eps)) >= 0.9


@pytest.mark.parametrize("example", [1, 2, 3])
def test_row_autocov_is_within_clt_tolerance_of_population(example):
    # Tolerance: 6 batch-means standard errors per entry.  The VARMA(1, 1)
    # autocovariances decay like 0.9^h, so the path's 20 blocks of 1000 steps
    # are close to independent, and their estimates' spread over sqrt(20)
    # estimates the standard error of the full-path estimate (a CLT for the
    # mean of the lag products).  The ratio is then about t with 19 degrees of
    # freedom: a true entry is outside 6 of them with probability below 1e-5,
    # below 0.3% over an example's 3 q^2 entries.  Measured largest ratios: 2.0,
    # 1.9 and 4.3 for examples 1-3, and at most 4.5 over reps 0-7.
    n, blocks = 20000, 20
    truth, _, sigma_x, _ = _population(example, n, 0)
    series, _ = gen_example(example, n, np.random.default_rng((0, example, n, 0)))
    for k in (0, 1, 2):
        population = truth.a @ sigma_x[k] @ truth.a.T
        parts = [row_autocov(MatrixSeries(part), k) for part in np.split(series.data, blocks)]
        stderr = np.std(parts, axis=0, ddof=1) / math.sqrt(blocks)
        assert np.all(np.abs(row_autocov(series, k) - population) <= 6 * stderr)


def _result_with_groups(groups, q):
    gamma = np.eye(q)
    return SegmentationResult(
        gamma=gamma,
        standardizer=np.eye(q),
        transformed=MatrixSeries(np.zeros((2, 1, q))),
        scores=[],
        selected_edges=0,
        groups=groups,
        a_hat=[gamma[:, [c - 1 for c in g]] for g in groups],
    )


def test_classify_segmentation_rules():
    truth = GroundTruth(example=1, a=np.eye(6), partition=[[1, 2, 3], [4, 5], [6]])
    exact = _result_with_groups([[1, 2, 3], [4, 5], [6]], 6)
    assert classify_segmentation(exact, truth) == "correct"
    relabeled = _result_with_groups([[2, 4, 6], [1], [3, 5]], 6)
    assert classify_segmentation(relabeled, truth) == "correct"
    merged = _result_with_groups([[1, 2, 3, 6], [4, 5]], 6)
    assert classify_segmentation(merged, truth) == "near_complete"
    too_many = _result_with_groups([[1], [2], [3], [4], [5], [6]], 6)
    assert classify_segmentation(too_many, truth) == "incorrect"
    wrong_sizes = _result_with_groups([[1, 2], [3, 4], [5, 6]], 6)
    assert classify_segmentation(wrong_sizes, truth) == "incorrect"


def test_mean_subspace_error_exact_blocks_give_zero():
    rng = np.random.default_rng(10)
    a = rng.uniform(-3.0, 3.0, (6, 6))
    truth = GroundTruth(example=1, a=a, partition=[[1, 2, 3], [4, 5], [6]])
    standardizer = np.diag(rng.uniform(0.5, 2.0, 6))
    mapped = standardizer @ a
    blocks = [mapped[:, [0, 1, 2]], mapped[:, [3, 4]], mapped[:, [5]]]
    # identical spans: only square-root amplified rounding noise remains
    assert mean_subspace_error(blocks, truth, standardizer) <= 1e-6


def test_mean_subspace_error_pairs_blocks_optimally():
    truth = GroundTruth(example=1, a=np.eye(2), partition=[[1], [2]])
    swapped = [np.array([[0.0], [1.0]]), np.array([[1.0], [0.0]])]
    assert mean_subspace_error(swapped, truth, np.eye(2)) <= 1e-12

    # three one-column blocks: matching each estimate to its nearest truth in
    # turn costs 0.7667; the best of the 3! orderings costs less
    truth = GroundTruth(example=1, a=np.eye(3), partition=[[1], [2], [3]])
    blocks = [
        np.array([[0.8], [0.6], [0.0]]),
        np.array([[0.9], [0.0], [np.sqrt(0.19)]]),
        np.array([[0.0], [0.6], [0.8]]),
    ]
    expected = (1.4 + np.sqrt(0.19)) / 3
    assert abs(mean_subspace_error(blocks, truth, np.eye(3)) - expected) <= 1e-12


def test_mean_subspace_error_known_value():
    truth = GroundTruth(example=1, a=np.eye(2), partition=[[1], [2]])
    mixed = [
        np.array([[1.0], [1.0]]) / RT2,
        np.array([[1.0], [-1.0]]) / RT2,
    ]
    got = mean_subspace_error(mixed, truth, np.eye(2))
    assert abs(got - np.sqrt(0.5)) <= 1e-12


def test_mean_subspace_error_rejects_size_mismatch():
    truth = GroundTruth(example=1, a=np.eye(2), partition=[[1], [2]])
    with pytest.raises(InvalidState):
        mean_subspace_error([np.eye(2)], truth, np.eye(2))


def test_run_experiment_deterministic_and_consistent():
    first = run_experiment(1, [100], 10, seed=3)
    second = run_experiment(1, [100], 10, seed=3)
    assert first.rows == second.rows
    row = first.rows[0]
    assert row.reps == 10
    assert row.n_correct + row.n_incorrect == row.reps
    assert row.n_near_complete <= row.n_incorrect
    assert 0.0 <= row.correct_prop <= 1.0
    assert row.correct_prop + row.incorrect_prop == 1.0


def _row_fields(row):
    # repr is exact for floats and equal for NaN, so it compares every field byte for byte
    return {field.name: repr(getattr(row, field.name)) for field in dataclasses.fields(row)}


def test_run_experiment_threads_do_not_change_results():
    serial = run_experiment(1, [60, 100], 8, seed=3, threads=1)
    pooled = run_experiment(1, [60, 100], 8, seed=3, threads=2)
    assert [row.n for row in pooled.rows] == [60, 100]
    for a, b in zip(serial.rows, pooled.rows):
        assert _row_fields(a) == _row_fields(b)
    # the one pool groups its outcomes by length as one run per length would
    for row in pooled.rows:
        alone = run_experiment(1, [row.n], 8, seed=3, threads=1).rows[0]
        assert _row_fields(row) == _row_fields(alone)


def test_run_experiment_single_rep_proportions_are_binary():
    report = run_experiment(1, [100], 1, seed=0)
    row = report.rows[0]
    assert row.correct_prop in (0.0, 1.0)


def test_run_experiment_counts_failures_as_incorrect():
    report = run_experiment(1, [50], 4, cfg=SegmentationConfig(k0=49), seed=0)
    row = report.rows[0]
    assert row.n_failed == 4
    assert row.n_correct == 0
    assert row.n_incorrect == 4
    assert math.isnan(row.d_bar_median)


def test_run_experiment_rejects_bad_reps():
    with pytest.raises(InvalidInput):
        run_experiment(1, [100], 0, seed=0)
