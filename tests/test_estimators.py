"""Tests for the autocovariance estimators and the thresholded W statistic."""

import tracemalloc

import numpy as np
import pytest

from matseg import InvalidInput, MatrixSeries, ResourceLimit
from matseg.estimators import (
    _center,
    _lag_product,
    hard_threshold,
    pair_autocov_all,
    row_autocov,
    w_stat,
)
from oracles import brute_pair_autocov, brute_row_autocov, brute_w_stat


def _random_series(rng, n, p, q):
    return MatrixSeries(rng.standard_normal((n, p, q)))


def test_row_autocov_scalar_hand_case():
    series = MatrixSeries(np.array([[[1.0]], [[3.0]]]))
    assert row_autocov(series, 0) == pytest.approx(1.0, abs=1e-15)
    assert row_autocov(series, 1) == pytest.approx(-0.5, abs=1e-15)


def test_row_autocov_constant_series_is_zero():
    series = MatrixSeries(np.full((5, 2, 3), 4.0))
    for k in range(3):
        assert np.max(np.abs(row_autocov(series, k))) == 0.0


def test_row_autocov_matches_brute_force():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(3, 11))
        p = int(rng.integers(1, 5))
        q = int(rng.integers(1, 5))
        series = _random_series(rng, n, p, q)
        for k in range(0, n):
            got = row_autocov(series, k)
            want = brute_row_autocov(series.data, k)
            assert got.shape == (q, q)
            assert np.max(np.abs(got - want)) <= 1e-12


def test_row_autocov_strided_view_matches_contiguous_copy_in_one_buffer():
    rng = np.random.default_rng(12)
    raw = rng.standard_normal((300, 10, 48))
    view = MatrixSeries(np.swapaxes(raw, 1, 2))
    assert not view.data.flags.c_contiguous
    copy = MatrixSeries(np.ascontiguousarray(view.data))
    strided = MatrixSeries(raw[::2, :, ::3])
    strided_copy = MatrixSeries(np.ascontiguousarray(strided.data))
    for k in (0, 1, 2, 7):
        assert row_autocov(view, k).tobytes() == row_autocov(copy, k).tobytes()
        assert row_autocov(strided, k).tobytes() == row_autocov(strided_copy, k).tobytes()
    # the centred data is the only data-sized array formed
    tracemalloc.start()
    row_autocov(view, 0)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < 2 * view.data.nbytes


def test_row_autocov_lag_bounds():
    series = _random_series(np.random.default_rng(0), 4, 2, 2)
    with pytest.raises(InvalidInput, match=r"^k must satisfy 0 <= k <= n - 1, got -1 with n = 4$"):
        row_autocov(series, -1)
    with pytest.raises(InvalidInput, match=r"^k must satisfy 0 <= k <= n - 1, got 4 with n = 4$"):
        row_autocov(series, 4)


def test_pair_autocov_hand_case():
    data = np.zeros((3, 2, 2))
    data[0] = [[1.0, 0.0], [0.0, 2.0]]
    data[1] = [[0.0, 1.0], [1.0, 0.0]]
    data[2] = [[2.0, 0.0], [0.0, 1.0]]
    series = MatrixSeries(data)
    got = pair_autocov_all(series, 1)[0, 1]
    want = brute_pair_autocov(data, 1, 2, 1)
    assert np.max(np.abs(got - want)) <= 1e-15


def test_pair_autocov_matches_brute_force():
    rng = np.random.default_rng(12)
    for _ in range(20):
        n = int(rng.integers(3, 11))
        p = int(rng.integers(1, 5))
        q = int(rng.integers(1, 5))
        series = _random_series(rng, n, p, q)
        i = int(rng.integers(1, p + 1))
        j = int(rng.integers(1, p + 1))
        for h in range(0, n):
            got = pair_autocov_all(series, h)[i - 1, j - 1]
            want = brute_pair_autocov(series.data, i, j, h)
            assert got.shape == (q, q)
            assert np.max(np.abs(got - want)) <= 1e-12


def test_pair_autocov_all_stacks_every_row_pair():
    rng = np.random.default_rng(13)
    series = _random_series(rng, 8, 3, 2)
    for h in range(3):
        stack = pair_autocov_all(series, h)
        assert stack.shape == (3, 3, 2, 2)
        for i in range(1, 4):
            for j in range(1, 4):
                single = brute_pair_autocov(series.data, i, j, h)
                assert np.max(np.abs(stack[i - 1, j - 1] - single)) <= 1e-12


def test_lag_product_row_width_sums_the_diagonal_row_blocks():
    # row_autocov(k) is (1 / p) times the sum over r of S_rr(k)
    rng = np.random.default_rng(14)
    for n, p, q in [(12, 3, 4), (30, 1, 5), (9, 4, 1)]:
        centered = _center(rng.standard_normal((n, p, q)))
        for k in (0, 1, n - 1):
            rows = _lag_product(centered, k, q)
            pairs = _lag_product(centered, k, p * q).reshape(p, q, p, q)
            blocks = sum(pairs[r, :, r, :] for r in range(p))
            assert rows.shape == (q, q)
            assert np.max(np.abs(rows - blocks)) <= 1e-12 * np.abs(blocks).max()


def test_lag_product_over_given_time_points_matches_loop():
    rng = np.random.default_rng(15)
    n, p, q = 10, 2, 3
    x = rng.standard_normal((n, p, q))
    for width in (q, p * q):
        for t in (np.array([0, 3, 4, 9]), np.array([], dtype=int), np.arange(n)):
            for k in (0, 1, n - 1):
                want = np.zeros((width, width))
                for s in t:
                    if s + k <= n - 1:
                        want += x[s + k].reshape(-1, width).T @ x[s].reshape(-1, width)
                got = _lag_product(x, k, width, t)
                assert got.shape == (width, width)
                assert np.max(np.abs(got - want)) <= 1e-12
    # every valid time point is the default
    assert np.array_equal(_lag_product(x, 2, q, np.arange(n)), _lag_product(x, 2, q))


def test_lag_product_pair_width_matches_pair_autocov():
    rng = np.random.default_rng(16)
    n, p, q = 11, 3, 2
    series = _random_series(rng, n, p, q)
    for h in (0, 1, n - 1):
        pairs = _lag_product(_center(series.data), h, p * q).reshape(p, q, p, q) / n
        for i in range(1, p + 1):
            for j in range(1, p + 1):
                want = brute_pair_autocov(series.data, i, j, h)
                assert np.max(np.abs(pairs[i - 1, :, j - 1, :] - want)) <= 1e-12


def test_pair_autocov_index_and_lag_errors():
    series = _random_series(np.random.default_rng(0), 5, 2, 2)
    with pytest.raises(InvalidInput):
        pair_autocov_all(series, -1)
    with pytest.raises(InvalidInput):
        pair_autocov_all(series, 5)


def test_pair_autocov_all_resource_guard():
    series = MatrixSeries(np.zeros((2, 101, 101)))
    with pytest.raises(ResourceLimit):
        pair_autocov_all(series, 0)


def test_hard_threshold_hand_cases():
    m = np.array([[0.5, -0.2], [0.05, -0.6]])
    assert np.array_equal(hard_threshold(m, 0.3), [[0.5, 0.0], [0.0, -0.6]])
    assert np.array_equal(hard_threshold(m, 0.0), m)
    kept = hard_threshold(m, 10.0, keep_diagonal=True)
    assert np.array_equal(kept, [[0.5, 0.0], [0.0, -0.6]])
    assert np.array_equal(hard_threshold(m, 10.0), np.zeros((2, 2)))


def test_hard_threshold_boundary_is_kept():
    m = np.array([[0.3, -0.3], [0.1, 0.0]])
    out = hard_threshold(m, 0.3)
    assert np.array_equal(out, [[0.3, -0.3], [0.0, 0.0]])


def test_hard_threshold_idempotent_and_monotone():
    rng = np.random.default_rng(14)
    for _ in range(120):
        shape = (int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        m = rng.standard_normal(shape)
        u = float(rng.uniform(0.0, 2.0))
        keep = bool(rng.integers(0, 2)) and shape[0] == shape[1]
        once = hard_threshold(m, u, keep_diagonal=keep)
        twice = hard_threshold(once, u, keep_diagonal=keep)
        assert np.array_equal(once, twice)
        zeroed = np.abs(m) < u
        if keep:
            zeroed &= ~np.eye(shape[0], dtype=bool)
        assert np.array_equal(once == 0.0, zeroed | (m == 0.0))
        assert np.array_equal(once[once != 0.0], m[once != 0.0])


def test_hard_threshold_applies_to_trailing_axes():
    rng = np.random.default_rng(15)
    stack = rng.standard_normal((2, 3, 4, 4))
    u = 0.8
    out = hard_threshold(stack, u, keep_diagonal=True)
    for a in range(2):
        for b in range(3):
            single = hard_threshold(stack[a, b], u, keep_diagonal=True)
            assert np.array_equal(out[a, b], single)


def test_hard_threshold_allocating_and_out_forms_are_bit_identical():
    rng = np.random.default_rng(16)
    stack = rng.standard_normal((2, 3, 4, 4))
    stack[0, 0, 0, 1], stack[0, 0, 1, 1], stack[0, 1, 2, 2] = np.nan, -0.0, 0.0
    stack[1, 2, 3, 0], stack[1, 2, 0, 3] = 0.5, -0.5
    flat = np.array([[np.nan, -0.0, 0.0], [0.5, -0.5, 1e-300]])
    for m in (stack, flat):
        for u in (0.0, 0.5, 2.0):
            for keep in (False, True):
                got = hard_threshold(m, u, keep_diagonal=keep)
                into = hard_threshold(m, u, keep_diagonal=keep, out=np.full(m.shape, 7.0))
                assert not np.shares_memory(got, m)
                assert got.tobytes() == into.tobytes()
                # the masked definition, with the sign of every zero and NaN kept
                want = np.where(np.abs(m) < u, 0.0, m)
                if keep:
                    diag = np.eye(m.shape[-2], m.shape[-1], dtype=bool)
                    want = np.where(diag, m, want)
                assert got.tobytes() == want.tobytes()


def test_hard_threshold_rejects_bad_threshold():
    with pytest.raises(InvalidInput):
        hard_threshold(np.eye(2), -0.1)
    with pytest.raises(InvalidInput):
        hard_threshold(np.eye(2), np.nan)
    with pytest.raises(InvalidInput):
        hard_threshold(np.array([1.0, 2.0]), 0.5, keep_diagonal=True)


def test_w_stat_matches_brute_force():
    rng = np.random.default_rng(16)
    for _ in range(20):
        n = int(rng.integers(4, 11))
        p = int(rng.integers(1, 5))
        q = int(rng.integers(1, 5))
        series = _random_series(rng, n, p, q)
        k0 = int(rng.integers(1, min(3, n - 2) + 1))
        u = [float(v) for v in rng.uniform(0.0, 0.5, size=k0)]
        for u_per_lag in (None, u):
            got = w_stat(series, k0, u_per_lag=u_per_lag)
            want = brute_w_stat(series.data, k0, u_per_lag)
            assert np.max(np.abs(got - want)) <= 1e-12
            assert np.max(np.abs(got - got.T)) <= 1e-14


def test_w_stat_centres_once_bit_identical_to_per_lag_row_autocov():
    rng = np.random.default_rng(20)
    raw = rng.standard_normal((60, 4, 3)) + 5.0
    view = MatrixSeries(np.swapaxes(raw, 1, 2))
    assert not view.data.flags.c_contiguous
    k0 = 4
    for series in (MatrixSeries(raw), view):
        for levels in (None, [0.05, 0.0, 0.2, 0.1]):
            want = np.eye(series.q)
            for k in range(1, k0 + 1):
                cov = row_autocov(series, k)
                if levels is not None:
                    cov = hard_threshold(cov, levels[k - 1])
                want += cov @ cov.T
            want = 0.5 * (want + want.T)
            assert np.array_equal(w_stat(series, k0, levels), want)


def test_w_stat_zero_thresholds_match_none():
    rng = np.random.default_rng(17)
    series = _random_series(rng, 9, 2, 3)
    plain = w_stat(series, 2)
    zeroed = w_stat(series, 2, u_per_lag=[0.0, 0.0])
    assert np.array_equal(plain, zeroed)


def test_w_stat_huge_threshold_gives_identity():
    rng = np.random.default_rng(18)
    series = _random_series(rng, 9, 2, 3)
    out = w_stat(series, 2, u_per_lag=[1e9, 1e9])
    assert np.array_equal(out, np.eye(3))


def test_w_stat_eigenvalues_at_least_one():
    rng = np.random.default_rng(19)
    for _ in range(10):
        series = _random_series(rng, 12, 2, 4)
        out = w_stat(series, 3)
        values = np.linalg.eigvalsh(out)
        assert values.min() >= 1.0 - 1e-10


def test_w_stat_k0_bounds():
    series = _random_series(np.random.default_rng(0), 5, 2, 2)
    with pytest.raises(InvalidInput, match=r"^k0 must satisfy 1 <= k0 <= n - 2, got 0 with n = 5$"):
        w_stat(series, 0)
    with pytest.raises(InvalidInput, match=r"^k0 must satisfy 1 <= k0 <= n - 2, got 4 with n = 5$"):
        w_stat(series, 4)
    with pytest.raises(InvalidInput):
        w_stat(series, 2, u_per_lag=[0.1])


def test_time_reversal_transposes_row_autocov():
    rng = np.random.default_rng(21)
    for _ in range(20):
        n = int(rng.integers(3, 12))
        series = _random_series(rng, n, 2, 3)
        reversed_series = MatrixSeries(series.data[::-1].copy())
        for k in range(0, n):
            forward = row_autocov(series, k)
            backward = row_autocov(reversed_series, k)
            assert np.max(np.abs(backward - forward.T)) <= 1e-12
