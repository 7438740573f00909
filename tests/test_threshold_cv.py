"""Tests for cross-validated threshold selection."""

import numpy as np
import pytest

from matseg import InvalidInput, MatrixSeries, ResourceLimit
from matseg.estimators import hard_threshold, row_autocov
from matseg.threshold_cv import (
    MIN_CV_LENGTH,
    CvThreshold,
    _grid_risk,
    cv_threshold_autocov,
    cv_threshold_pair,
    split_indices,
    split_pair_product,
    split_row_autocov,
    split_sizes,
    threshold_grid,
)
from oracles import (
    brute_split_pair_product,
    brute_split_row_autocov,
    brute_threshold_risk,
)


def test_split_sizes_hand_values():
    n1, n2 = split_sizes(100)
    assert (n1, n2) == (78, 22)
    n1, n2 = split_sizes(20)
    assert (n1, n2) == (13, 7)


def test_split_sizes_always_partition():
    for n in range(MIN_CV_LENGTH, 200, 7):
        n1, n2 = split_sizes(n)
        assert n1 + n2 == n
        assert 1 <= n2 <= n1 < n


def test_split_indices_shape_and_determinism():
    plan = CvThreshold(n_splits=6, grid_size=8, seed=9)
    n = 40
    splits = split_indices(plan, n)
    assert len(splits) == 6
    n1, n2 = split_sizes(n)
    everything = np.arange(n)
    for first, second in splits:
        assert len(first) == n1 and len(second) == n2
        assert np.all(np.diff(first) > 0) and np.all(np.diff(second) > 0)
        assert np.array_equal(np.sort(np.concatenate([first, second])), everything)
    again = split_indices(plan, n)
    for (a1, a2), (b1, b2) in zip(splits, again):
        assert np.array_equal(a1, b1) and np.array_equal(a2, b2)
    other = split_indices(CvThreshold(n_splits=6, grid_size=8, seed=10), n)
    assert any(not np.array_equal(a[0], b[0]) for a, b in zip(splits, other))


def test_split_indices_match_sort_and_setdiff_construction():
    # the mask construction must reproduce the sorted draw and its complement
    for seed, n in [(0, 8), (3, 40), (17, 100), (2**40 + 5, 257), (9, 1500), (5, 12000)]:
        plan = CvThreshold(n_splits=4, grid_size=8, seed=seed)
        n1, _ = split_sizes(n)
        for s, (first, second) in enumerate(split_indices(plan, n)):
            rng = np.random.default_rng((seed, s))
            want_first = np.sort(rng.choice(n, size=n1, replace=False))
            want_second = np.setdiff1d(np.arange(n), want_first)
            assert first.dtype == want_first.dtype and second.dtype == want_second.dtype
            assert np.array_equal(first, want_first)
            assert np.array_equal(second, want_second)


def test_threshold_grid_structure():
    rng = np.random.default_rng(50)
    values = np.abs(rng.standard_normal((4, 4)))
    grid = threshold_grid(values, 12)
    assert len(grid) == 12
    assert grid[0] == 0.0
    assert grid[-1] == values.max()
    assert np.all(np.diff(grid) >= 0)
    flat = threshold_grid(np.full((3, 3), 0.7), 5)
    assert flat[0] == 0.0 and flat[-1] == 0.7


def test_threshold_grid_rejects_tiny_size():
    with pytest.raises(InvalidInput):
        threshold_grid(np.ones((2, 2)), 2)


def test_split_row_autocov_matches_brute_force():
    rng = np.random.default_rng(51)
    for _ in range(20):
        n = int(rng.integers(10, 20))
        series = MatrixSeries(rng.standard_normal((n, 2, 3)))
        size = int(rng.integers(3, n - 2))
        indices = np.sort(rng.choice(n, size=size, replace=False))
        for k in (0, 1, 2):
            got = split_row_autocov(series, indices, k)
            want = brute_split_row_autocov(series.data, indices, k)
            assert np.max(np.abs(got - want)) <= 1e-12


def test_split_row_autocov_out_of_range_terms_are_zero():
    # the lone index n-1 at lag 1 leads past the end, so the estimate is zero
    series = MatrixSeries(np.random.default_rng(52).standard_normal((10, 2, 2)))
    out = split_row_autocov(series, np.array([9]), 1)
    assert np.array_equal(out, np.zeros((2, 2)))


def test_split_pair_product_matches_brute_force():
    rng = np.random.default_rng(53)
    for _ in range(20):
        n = int(rng.integers(10, 18))
        p = int(rng.integers(1, 4))
        q = int(rng.integers(1, 4))
        series = MatrixSeries(rng.standard_normal((n, p, q)))
        size = int(rng.integers(3, n - 2))
        indices = np.sort(rng.choice(n, size=size, replace=False))
        for h in (0, 1, 2):
            got = split_pair_product(series, indices, h)
            want = brute_split_pair_product(series.data, indices, h)
            assert got.shape == (p * q, p * q)
            assert np.max(np.abs(got - want)) <= 1e-12


def _per_level_risk(first, second, grid):
    # the direct definition: one full pass over the entries per level
    mags = np.abs(first)
    return np.array([np.sum((np.where(mags < u, 0.0, first) - second) ** 2) for u in grid])


def test_grid_risk_matches_per_level_loop():
    rng = np.random.default_rng(59)
    for trial in range(200):
        shape = (int(rng.integers(1, 12)), int(rng.integers(1, 12)))
        first = rng.standard_normal(shape) * rng.choice([1e-3, 1.0, 1e3])
        second = rng.standard_normal(shape) * rng.choice([1e-3, 1.0, 1e3])
        if trial % 4 == 1:
            first[rng.random(shape) < 0.4] = 0.0
        if trial % 4 == 2:
            first = np.zeros(shape)
        size = int(rng.integers(3, 40))
        if trial % 2:
            # levels drawn from the magnitudes themselves, so some |a| equal a level
            levels = rng.choice(np.abs(first).ravel(), size=size - 2)
        else:
            levels = np.abs(rng.standard_normal(size - 2)) * np.abs(first).max()
        # duplicate a run of levels as well
        grid = np.sort(np.concatenate(([0.0], levels, levels[:2], [np.abs(first).max()])))
        got = _grid_risk(first, second, grid)
        want = _per_level_risk(first, second, grid)
        assert got.shape == want.shape
        assert int(np.argmin(got)) == int(np.argmin(want))
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)
        # equal levels give equal risks, exactly
        same = np.diff(grid) == 0
        assert np.array_equal(got[1:][same], got[:-1][same])


def _searchsorted_risk(first, second, grid):
    # the binary-search binning that the level table replaced
    a = first.ravel()
    b = second.ravel()
    bins = np.searchsorted(grid, np.abs(a), side="right")
    gains = np.bincount(bins, weights=a * (a - 2.0 * b), minlength=grid.size + 1)
    return b @ b + np.cumsum(gains[::-1])[::-1][1:]


def test_grid_risk_matches_searchsorted_bins_exactly():
    rng = np.random.default_rng(62)
    # 140000 entries span two blocks at 32 levels; 30000 span three at 300,
    # where the counts (up to 300) need a 16-bit accumulator
    for grid_size, size in [(3, 1), (8, 50), (32, 1000), (32, 140000), (300, 30000), (300, 7)]:
        first = rng.standard_normal(size) * rng.choice([1e-3, 1.0, 1e3])
        second = rng.standard_normal(size)
        first[rng.random(size) < 0.2] = 0.0
        grid = threshold_grid(first, grid_size)
        # duplicated levels, and levels equal to some |a|
        grid[1 : grid_size // 2] = grid[grid_size // 2]
        grid[-2] = np.abs(first[0])
        grid = np.sort(grid)
        ties = min(3, size)
        first[-ties:] = -grid[-ties:]
        got = _grid_risk(first, second, grid)
        assert np.array_equal(got, _searchsorted_risk(first, second, grid))
    # every entry above every level: all 300 counts in one bin
    first = rng.uniform(2.0, 3.0, 600)
    second = rng.standard_normal(600)
    grid = np.linspace(0.0, 1.0, 300)
    assert np.array_equal(_grid_risk(first, second, grid), _searchsorted_risk(first, second, grid))


def test_cv_threshold_autocov_zero_series_returns_zero():
    series = MatrixSeries(np.zeros((40, 2, 3)))
    assert cv_threshold_autocov(series, 1, CvThreshold(n_splits=4, grid_size=8, seed=0)) == 0.0


def test_cv_threshold_autocov_zeroes_noise_entries():
    for seed in (0, 1):
        rng = np.random.default_rng((600, seed))
        series = MatrixSeries(rng.standard_normal((400, 2, 3)))
        u = cv_threshold_autocov(series, 1, CvThreshold(seed=0))
        est = row_autocov(series, 1)
        after = np.count_nonzero(hard_threshold(est, u))
        assert u > 0.0
        assert after < np.count_nonzero(est)
        assert u >= np.quantile(np.abs(est), 0.5)


def _oracle_level(series, lag, plan, full, brute_split):
    """Grid level of smallest brute-force split risk, the grid built from full."""
    grid = threshold_grid(np.abs(full), plan.grid_size)
    risks = np.zeros(len(grid))
    for first_idx, second_idx in split_indices(plan, series.n):
        first = brute_split(series.data, first_idx, lag)
        second = brute_split(series.data, second_idx, lag)
        for gi, u in enumerate(grid):
            risks[gi] += brute_threshold_risk(first, second, float(u))
    return grid[int(np.argmin(risks / plan.n_splits))]


def test_cv_threshold_autocov_matches_argmin_oracle():
    rng = np.random.default_rng(601)
    for _ in range(5):
        series = MatrixSeries(rng.standard_normal((60, 2, 3)))
        plan = CvThreshold(n_splits=5, grid_size=8, seed=3)
        u_hat = cv_threshold_autocov(series, 1, plan)
        want = _oracle_level(series, 1, plan, row_autocov(series, 1), brute_split_row_autocov)
        assert np.isclose(u_hat, want, atol=1e-12)


def test_cv_threshold_autocov_finer_grid_does_not_hurt():
    rng = np.random.default_rng(54)
    series = MatrixSeries(rng.standard_normal((60, 2, 3)))
    coarse = CvThreshold(n_splits=5, grid_size=4, seed=3)
    fine = CvThreshold(n_splits=5, grid_size=32, seed=3)
    u_coarse = cv_threshold_autocov(series, 1, coarse)
    u_fine = cv_threshold_autocov(series, 1, fine)

    def risk(u):
        total = 0.0
        for first_idx, second_idx in split_indices(coarse, series.n):
            first = brute_split_row_autocov(series.data, first_idx, 1)
            second = brute_split_row_autocov(series.data, second_idx, 1)
            total += brute_threshold_risk(first, second, u)
        return total / coarse.n_splits

    assert risk(u_fine) <= risk(u_coarse) + 1e-12


def test_cv_threshold_autocov_deterministic():
    rng = np.random.default_rng(55)
    series = MatrixSeries(rng.standard_normal((50, 2, 2)))
    plan = CvThreshold(n_splits=7, grid_size=10, seed=21)
    assert cv_threshold_autocov(series, 1, plan) == cv_threshold_autocov(series, 1, plan)


def test_cv_threshold_autocov_selected_value_is_on_grid():
    rng = np.random.default_rng(56)
    series = MatrixSeries(rng.standard_normal((50, 2, 2)))
    plan = CvThreshold(n_splits=4, grid_size=9, seed=2)
    u = cv_threshold_autocov(series, 1, plan)
    grid = threshold_grid(np.abs(row_autocov(series, 1)), plan.grid_size)
    assert any(np.isclose(u, g, atol=0) for g in grid)


def test_cv_threshold_rejects_short_series():
    series = MatrixSeries(np.random.default_rng(0).standard_normal((MIN_CV_LENGTH - 1, 1, 2)))
    with pytest.raises(InvalidInput):
        cv_threshold_autocov(series, 1, CvThreshold(n_splits=3, grid_size=4, seed=0))


def test_cv_threshold_pair_scalar_matches_argmin_oracle():
    rng = np.random.default_rng(57)
    for _ in range(5):
        series = MatrixSeries(rng.standard_normal((50, 1, 1)))
        plan = CvThreshold(n_splits=6, grid_size=8, seed=5)
        v_hat = cv_threshold_pair(series, 1, plan)
        full = split_pair_product(series, np.arange(series.n), 1)
        want = _oracle_level(series, 1, plan, full, brute_split_pair_product)
        assert np.isclose(v_hat, want, atol=1e-12)


def _pair_oracle_level(series, h, plan):
    full = brute_split_pair_product(series.data, np.arange(series.n), h)
    return _oracle_level(series, h, plan, full, brute_split_pair_product)


def test_cv_threshold_pair_multi_entry_matches_argmin_oracle():
    rng = np.random.default_rng(60)
    n = 30
    plan = CvThreshold(n_splits=6, grid_size=10, seed=11)
    # at lag n - 2 only t = 0, 1 are valid; some split must hold neither in
    # its second part, so that part's product is empty
    assert any(second[0] > 1 for _, second in split_indices(plan, n))
    for _ in range(3):
        series = MatrixSeries(rng.standard_normal((n, 2, 3)))
        for h in (0, 1, n - 2, n - 1):
            got = cv_threshold_pair(series, h, plan)
            assert np.isclose(got, _pair_oracle_level(series, h, plan), rtol=1e-12, atol=1e-15)


def test_cv_threshold_at_last_lag_matches_argmin_oracle():
    rng = np.random.default_rng(61)
    n = 20
    plan = CvThreshold(n_splits=8, grid_size=6, seed=4)
    # only t = 0 is valid at lag n - 1; it must fall in each part in some split
    assert {bool(first[0] == 0) for first, _ in split_indices(plan, n)} == {True, False}
    for _ in range(3):
        series = MatrixSeries(rng.standard_normal((n, 2, 2)))
        v_hat = cv_threshold_pair(series, n - 1, plan)
        assert np.isclose(v_hat, _pair_oracle_level(series, n - 1, plan), rtol=1e-12, atol=1e-15)
        u_hat = cv_threshold_autocov(series, n - 1, plan)
        full = row_autocov(series, n - 1)
        want = _oracle_level(series, n - 1, plan, full, brute_split_row_autocov)
        assert np.isclose(u_hat, want, rtol=1e-12, atol=1e-15)


def test_cv_threshold_pair_zero_series_returns_zero():
    series = MatrixSeries(np.zeros((40, 2, 2)))
    assert cv_threshold_pair(series, 1, CvThreshold(n_splits=4, grid_size=8, seed=0)) == 0.0


def test_cv_threshold_pair_deterministic():
    rng = np.random.default_rng(58)
    series = MatrixSeries(rng.standard_normal((50, 1, 1)))
    plan = CvThreshold(n_splits=6, grid_size=8, seed=5)
    assert cv_threshold_pair(series, 1, plan) == cv_threshold_pair(series, 1, plan)


def test_cv_threshold_pair_resource_guard():
    series = MatrixSeries(np.zeros((10, 101, 101)))
    with pytest.raises(ResourceLimit):
        cv_threshold_pair(series, 1, CvThreshold(n_splits=2, grid_size=4, seed=0))


def test_cv_plan_validation():
    with pytest.raises(InvalidInput):
        CvThreshold(n_splits=0)
    with pytest.raises(InvalidInput):
        CvThreshold(grid_size=2)
    with pytest.raises(InvalidInput):
        CvThreshold(seed=-1)
