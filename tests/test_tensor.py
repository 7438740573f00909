"""Tests for mode unfoldings and the sequential multi-mode segmentation."""

import numpy as np
import pytest

from matseg import (
    InvalidInput,
    MatrixSeries,
    SegmentationConfig,
    TensorSeries,
    segment,
    sequential_segment,
)
from matseg.tensor import matricize, tensorize
from matseg.simulation import gen_factor_varma
from oracles import brute_matricize


def _counting_tensor():
    # entry (i1, i2, i3) = i1 + 2 (i2 - 1) + 4 (i3 - 1), 1-based indices
    t = np.zeros((2, 2, 2))
    for i1 in range(2):
        for i2 in range(2):
            for i3 in range(2):
                t[i1, i2, i3] = (i1 + 1) + 2 * i2 + 4 * i3
    return t


def test_matricize_counting_hand_case():
    t = _counting_tensor()
    assert np.array_equal(matricize(t, 1), [[1, 3, 5, 7], [2, 4, 6, 8]])
    assert np.array_equal(matricize(t, 2), [[1, 2, 5, 6], [3, 4, 7, 8]])
    assert np.array_equal(matricize(t, 3), [[1, 2, 3, 4], [5, 6, 7, 8]])


def test_matricize_matrix_modes_are_identity_and_transpose():
    m = np.arange(12.0).reshape(3, 4)
    assert np.array_equal(matricize(m, 1), m)
    assert np.array_equal(matricize(m, 2), m.T)


def test_tensorize_inverts_hand_case():
    t = _counting_tensor()
    for mode in (1, 2, 3):
        assert np.array_equal(tensorize(matricize(t, mode), mode, (2, 2, 2)), t)
    m = np.arange(12.0).reshape(3, 4)
    assert np.array_equal(tensorize(m.T, 2, (3, 4)), m)


def test_matricize_round_trip_and_oracle():
    rng = np.random.default_rng(60)
    for _ in range(120):
        r = int(rng.integers(2, 5))
        dims = tuple(int(rng.integers(1, 5)) for _ in range(r))
        t = rng.standard_normal(dims)
        mode = int(rng.integers(1, r + 1))
        unfolded = matricize(t, mode)
        other = int(np.prod(dims)) // dims[mode - 1]
        assert unfolded.shape == (dims[mode - 1], other)
        assert np.array_equal(unfolded, brute_matricize(t, mode))
        assert np.array_equal(tensorize(unfolded, mode, dims), t)


def test_matricize_errors():
    t = np.zeros((2, 3, 4))
    with pytest.raises(InvalidInput):
        matricize(t, 0)
    with pytest.raises(InvalidInput):
        matricize(t, 4)
    with pytest.raises(InvalidInput):
        matricize(np.zeros(5), 1)


def test_tensorize_errors():
    with pytest.raises(InvalidInput):
        tensorize(np.zeros((2, 12)), 1, (2, 3))
    with pytest.raises(InvalidInput):
        tensorize(np.zeros((2, 12)), 1, (2, 3, 3))
    with pytest.raises(InvalidInput):
        tensorize(np.zeros((2, 12)), 1, (2,))


def test_tensor_series_validation():
    with pytest.raises(InvalidInput):
        TensorSeries(np.zeros((5, 4)))
    with pytest.raises(InvalidInput):
        TensorSeries(np.full((5, 2, 2, 2), np.nan))
    series = TensorSeries(np.zeros((5, 2, 3, 4)))
    assert series.n == 5
    assert series.order == 3
    assert series.dims == (2, 3, 4)


def test_sequential_segment_returns_one_result_per_mode():
    rng = np.random.default_rng(61)
    series = TensorSeries(rng.standard_normal((30, 2, 3, 2)))
    results, final = sequential_segment(series)
    assert len(results) == 3
    assert final.dims == series.dims
    assert final.n == series.n
    for res, dim in zip(results, series.dims):
        assert res.gamma.shape == (dim, dim)
        assert np.max(np.abs(res.gamma.T @ res.gamma - np.eye(dim))) <= 1e-8


def test_sequential_segment_matrix_case_matches_manual_composition():
    rng = np.random.default_rng(62)
    y = rng.standard_normal((40, 3, 4))
    results, final = sequential_segment(TensorSeries(y))

    # mode 1 segments the first tensor dimension, i.e. the transposed matrices
    manual1 = segment(MatrixSeries(np.swapaxes(y, 1, 2)))
    assert np.array_equal(results[0].gamma, manual1.gamma)
    assert results[0].scores == manual1.scores
    assert results[0].groups == manual1.groups

    # mode 2 consumes the mode-1 transformed series, transposed back
    carried = np.swapaxes(manual1.transformed.data, 1, 2)
    manual2 = segment(MatrixSeries(carried))
    assert np.array_equal(results[1].gamma, manual2.gamma)
    assert results[1].scores == manual2.scores
    assert results[1].groups == manual2.groups
    assert np.max(np.abs(final.data - manual2.transformed.data)) <= 1e-10


def test_sequential_segment_mode_of_dimension_one_is_trivial():
    rng = np.random.default_rng(63)
    series = TensorSeries(rng.standard_normal((25, 1, 4)))
    results, _ = sequential_segment(series)
    assert results[0].groups == [[1]]
    assert results[0].selected_edges == 0
    assert len(results[1].groups) >= 1


def _gen_mode_blocked_tensor(n, rng):
    # each mode of size 3 splits into groups {1,2} and {3}; one independent
    # factor path drives each cell of the three-way partition product, with
    # a one-step time shift separating members inside a group
    parts = [[0, 1], [2]]
    x = np.zeros((n, 3, 3, 3))
    for ga in parts:
        for gb in parts:
            for gc in parts:
                extra = (len(ga) - 1) + (len(gb) - 1) + (len(gc) - 1)
                path = gen_factor_varma(1, n + extra, rng)[:, 0]
                for ii, i in enumerate(ga):
                    for jj, j in enumerate(gb):
                        for kk, k in enumerate(gc):
                            off = ii + jj + kk
                            x[:, i, j, k] = path[off : off + n]
    mixers = [rng.uniform(-3.0, 3.0, (3, 3)) for _ in range(3)]
    y = np.einsum("tijk,ai,bj,ck->tabc", x, *mixers)
    return TensorSeries(y)


def test_sequential_segment_recovers_blocks_along_every_mode():
    hits = 0
    for rep in range(50):
        rng = np.random.default_rng((700, 0, rep))
        series = _gen_mode_blocked_tensor(2000, rng)
        results, _ = sequential_segment(series)
        if all(sorted(len(g) for g in res.groups) == [1, 2] for res in results):
            hits += 1
    assert hits / 50 >= 0.8


def test_sequential_segment_deterministic():
    rng = np.random.default_rng(64)
    data = rng.standard_normal((20, 2, 3))
    first, final_a = sequential_segment(TensorSeries(data.copy()))
    second, final_b = sequential_segment(TensorSeries(data.copy()))
    for a, b in zip(first, second):
        assert np.array_equal(a.gamma, b.gamma)
        assert a.scores == b.scores
        assert a.groups == b.groups
    assert np.array_equal(final_a.data, final_b.data)
