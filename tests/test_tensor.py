"""Tests for mode unfoldings and the sequential multi-mode segmentation."""

import sys
import threading
import warnings

import numpy as np
import pytest

from matseg import (
    CvThreshold,
    DegenerateColumn,
    DegenerateVariance,
    FixedThreshold,
    InvalidInput,
    MatrixSeries,
    NoThreshold,
    ResourceLimit,
    SegmentationConfig,
    TensorSeries,
    segment,
    sequential_segment,
)
from matseg import estimators, tensor, threshold_cv
from matseg import series as containers
from matseg.estimators import _pair_lag_products, w_stat
from matseg.linalg import sym_eig
from matseg.segmentation import _lag_score, _level_rule, _maps, _sandwich, standardize
from matseg.tensor import (
    _fold_series,
    _pair_shape,
    _relayout,
    _shared_scores,
    _unfold_series,
)
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


def _unfold(tensor, mode):
    # the mode unfolding of a single tensor: the series layout's transpose
    return _unfold_series(tensor[None], mode)[0].T


def test_matricize_counting_hand_case():
    t = _counting_tensor()
    assert np.array_equal(_unfold(t, 1), [[1, 3, 5, 7], [2, 4, 6, 8]])
    assert np.array_equal(_unfold(t, 2), [[1, 2, 5, 6], [3, 4, 7, 8]])
    assert np.array_equal(_unfold(t, 3), [[1, 2, 3, 4], [5, 6, 7, 8]])


def test_matricize_matrix_modes_are_identity_and_transpose():
    m = np.arange(12.0).reshape(3, 4)
    assert np.array_equal(_unfold(m, 1), m)
    assert np.array_equal(_unfold(m, 2), m.T)


def test_tensorize_inverts_hand_case():
    t = _counting_tensor()
    for mode in (1, 2, 3):
        assert np.array_equal(_fold_series(_unfold_series(t[None], mode), mode, (2, 2, 2))[0], t)
    m = np.arange(12.0).reshape(3, 4)
    assert np.array_equal(_fold_series(m[None], 2, (3, 4))[0], m)


def test_matricize_round_trip_and_oracle():
    rng = np.random.default_rng(60)
    for _ in range(120):
        r = int(rng.integers(2, 5))
        dims = tuple(int(rng.integers(1, 5)) for _ in range(r))
        data = rng.standard_normal((int(rng.integers(2, 5)),) + dims)
        mode = int(rng.integers(1, r + 1))
        unfolded = _unfold_series(data, mode)
        other = int(np.prod(dims)) // dims[mode - 1]
        assert unfolded.shape == (data.shape[0], other, dims[mode - 1])
        assert unfolded.flags.c_contiguous
        for t in range(data.shape[0]):
            assert np.array_equal(unfolded[t].T, brute_matricize(data[t], mode))
        assert np.array_equal(_fold_series(unfolded, mode, dims), data)


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
        assert res.gamma.flags.c_contiguous


def test_sequential_segment_matrix_case_matches_manual_composition():
    rng = np.random.default_rng(62)
    y = rng.standard_normal((40, 3, 4))
    results, final = sequential_segment(TensorSeries(y))

    # mode 1 segments the first tensor dimension, i.e. the transposed matrices
    manual1 = segment(MatrixSeries(np.swapaxes(y, 1, 2)))
    assert np.array_equal(results[0].gamma, manual1.gamma)
    assert results[0].scores == manual1.scores
    assert results[0].groups == manual1.groups

    # mode 2 consumes the mode-1 transformed series, transposed back; its
    # scores come from mode 1's carried products, so they agree to rounding
    carried = np.swapaxes(manual1.transformed.data, 1, 2)
    manual2 = segment(MatrixSeries(carried))
    assert np.array_equal(results[1].gamma, manual2.gamma)
    assert [s[:2] for s in results[1].scores] == [s[:2] for s in manual2.scores]
    assert np.allclose(
        [s[2] for s in results[1].scores], [s[2] for s in manual2.scores], rtol=0, atol=1e-13
    )
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


def _ar1_tensor(dims, n, seed):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((n,) + dims)
    for t in range(1, n):
        data[t] += 0.6 * data[t - 1]
    return TensorSeries(data)


def _per_mode_segment(series, cfg):
    # the driver before the modes shared their lag products: a full matrix
    # segmentation of each mode's unfolding of the carried series
    data, dims, results = series.data, series.dims, []
    for mode in range(1, series.order + 1):
        result = segment(MatrixSeries(_unfold_series(data, mode)), cfg)
        results.append(result)
        data = _fold_series(result.transformed.data, mode, dims)
    return results, data


@pytest.mark.parametrize(
    "threshold", [NoThreshold(), FixedThreshold(0.05, 0.03), CvThreshold(n_splits=3)]
)
@pytest.mark.parametrize("dims, n", [((3, 4, 5), 200), ((2, 1, 3, 2), 150)])
def test_sequential_segment_matches_per_mode_segment(threshold, dims, n):
    series = _ar1_tensor(dims, n, (65, n))
    cfg = SegmentationConfig(threshold=threshold)
    results, final = sequential_segment(series, cfg)
    expected, expected_final = _per_mode_segment(series, cfg)
    assert np.array_equal(final.data, expected_final)
    for mode, (got, want) in enumerate(zip(results, expected), start=1):
        assert np.array_equal(got.gamma, want.gamma)
        assert got.gamma.flags.c_contiguous
        assert np.array_equal(got.standardizer, want.standardizer)
        assert np.array_equal(got.transformed.data, want.transformed.data)
        assert (got.u_lag0, got.u_per_lag, got.v_per_lag) == (
            want.u_lag0,
            want.u_per_lag,
            want.v_per_lag,
        )
        assert [s[:2] for s in got.scores] == [s[:2] for s in want.scores]
        assert got.selected_edges == want.selected_edges
        assert got.groups == want.groups
        if mode == 1:
            assert got.scores == want.scores
        else:
            got_values = np.array([s[2] for s in got.scores])
            want_values = np.array([s[2] for s in want.scores])
            assert np.max(np.abs(got_values - want_values), initial=0.0) <= 1e-13


def test_sequential_segment_forms_one_row_pair_product_per_lag(monkeypatch):
    series = _ar1_tensor((3, 4, 5), 120, 66)
    full_width = []
    lag_product = estimators._lag_product

    def counting(x, k, width, t=None, out=None):
        if t is None and width == 60:
            full_width.append(k)
        return lag_product(x, k, width, t, out)

    monkeypatch.setattr(estimators, "_lag_product", counting)
    sequential_segment(series, SegmentationConfig(m=10))
    # lags 1..10 are formed concurrently, so only their order may vary
    assert sorted(full_width) == list(range(11))


def test_sequential_segment_cv_centres_each_mode_twice(count_calls):
    # each mode centres its raw and its standardized series once; every
    # level, and the shared scores, read those
    series = _ar1_tensor((3, 4, 5), 120, 67)
    centred = count_calls(estimators, "_center")
    sequential_segment(series, SegmentationConfig(m=10, threshold=CvThreshold(n_splits=3)))
    assert centred == {"_center": 2 * series.order}


def test_sequential_segment_cv_refuses_its_lag_window_before_any_level(count_calls):
    series = _ar1_tensor((3, 4, 5), 40, 68)
    levels = count_calls(threshold_cv, "_cv_level")
    cfg = SegmentationConfig(m=series.n, threshold=CvThreshold(n_splits=3))
    with pytest.raises(InvalidInput, match=r"^m must satisfy 0 <= m <= n - 2, got 40 with n = 40$"):
        sequential_segment(series, cfg)
    assert not levels


# each driver, on a raw (n, p, q) array read as its own series type
_DRIVERS = {
    "segment": lambda data, cfg: segment(MatrixSeries(data), cfg),
    "sequential_segment": lambda data, cfg: sequential_segment(TensorSeries(data), cfg),
}


@pytest.mark.parametrize("driver", _DRIVERS)
def test_drivers_refuse_their_lag_windows_before_any_estimate(count_calls, driver):
    # a 5x2x6 series is too short for the default m = 10: it is refused
    # before it is centred or warned about as shorter than its column count
    data = np.random.default_rng(69).standard_normal((5, 2, 6))
    centred = count_calls(estimators, "_center")
    refusal = r"^m must satisfy 0 <= m <= n - 2, got 10 with n = 5$"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(InvalidInput, match=refusal):
            _DRIVERS[driver](data, SegmentationConfig())
    assert not caught
    assert not centred
    # a window refusal wins over a constant column, which only estimation finds
    data = data[:3].copy()
    data[:, :, 1] = 7.0
    with pytest.raises(InvalidInput, match=r"^k0 must satisfy 1 <= k0 <= n - 2, got 2 with n = 3$"):
        _DRIVERS[driver](data, SegmentationConfig(m=1))


@pytest.mark.parametrize("call", ["standardize", *_DRIVERS])
def test_short_series_warning_names_the_line_of_the_call(call):
    data = np.random.default_rng(70).standard_normal((5, 2, 6))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if call == "standardize":
            standardize(MatrixSeries(data))
        else:
            _DRIVERS[call](data, SegmentationConfig(k0=1, m=2))
    short = [w for w in caught if "does not exceed column count" in str(w.message)]
    assert short
    assert all(w.filename == __file__ for w in short)


def _score_inputs(series, cfg):
    # the centred mode-1 series and every mode's maps, as sequential_segment
    # hands them to _shared_scores
    data, dims, stages = series.data, series.dims, []
    rule = _level_rule(cfg.threshold, 1)
    for mode in range(1, series.order + 1):
        maps, standardized, own = _maps(_unfold_series(data, mode), cfg)
        if dims[mode - 1] > 1 and rule is not None:
            maps.v_per_lag = [rule(own, h) for h in range(cfg.m + 1)]
        if mode == 1:
            centered = own
        stages.append(maps)
        data = _fold_series(standardized @ maps.gamma, mode, dims)
    return centered, stages


def _serial_scores(centered, stages, dims, m):
    # one lag after another, every tensor freshly allocated
    best = [np.zeros((q, q)) for q in dims]
    denoms = [None] * len(dims)
    for h in range(m + 1):
        product, _ = _pair_lag_products(centered, h)
        for mode, maps in enumerate(stages, start=1):
            if mode > 1:
                fresh = np.empty(_pair_shape(mode, dims))
                product = _relayout(carried, mode - 1, mode, dims, fresh)
                product = _sandwich(product, maps.standardizer)
            if dims[mode - 1] == 1:
                carried = product
                continue
            v = None if maps.v_per_lag is None else maps.v_per_lag[h]
            scores, denoms[mode - 1], rotated = _lag_score(
                product, maps.gamma, v, h, denoms[mode - 1]
            )
            np.maximum(best[mode - 1], scores, out=best[mode - 1])
            carried = rotated if v is None else _sandwich(product, maps.gamma)
    return best


@pytest.mark.parametrize("m", [0, 1, 10])
@pytest.mark.parametrize(
    "threshold", [NoThreshold(), FixedThreshold(0.05, 0.03), CvThreshold(n_splits=3)]
)
@pytest.mark.parametrize("dims, n", [((3, 4, 5), 200), ((2, 1, 3, 2), 150)])
def test_pooled_scores_equal_a_serial_pass(threshold, dims, n, m):
    series = _ar1_tensor(dims, n, (71, n))
    centered, stages = _score_inputs(series, SegmentationConfig(m=m, threshold=threshold))
    pooled = _shared_scores(centered, stages, dims, m)
    serial = _serial_scores(centered, stages, dims, m)
    for got, want in zip(pooled, serial):
        assert np.array_equal(got, want)


def test_pooled_scores_hold_with_more_workers_than_cores(monkeypatch):
    # four workers, threads switched as often as the interpreter allows: two
    # lags running in one set of buffers would change some lag's scores
    series = _ar1_tensor((3, 4, 5), 200, 75)
    cfg = SegmentationConfig(threshold=FixedThreshold(0.05, 0.03))
    centered, stages = _score_inputs(series, cfg)
    monkeypatch.setattr(tensor, "_WORKERS", 4)
    used = []
    lag_mode_scores = tensor._lag_mode_scores

    def recording(centered, stages, dims, h, denoms, buffers):
        used.append((h, threading.get_ident(), id(buffers[0])))
        return lag_mode_scores(centered, stages, dims, h, denoms, buffers)

    monkeypatch.setattr(tensor, "_lag_mode_scores", recording)
    pooled = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        caller = threading.Thread(
            target=lambda: pooled.append(_shared_scores(centered, stages, series.dims, cfg.m))
        )
        caller.start()
        caller.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not caller.is_alive()
    serial = _serial_scores(centered, stages, series.dims, cfg.m)
    for got, want in zip(pooled[0], serial):
        assert np.array_equal(got, want)
    # each pool thread scores every lag it runs in one buffer set of its own
    assert sorted(h for h, _, _ in used) == list(range(cfg.m + 1))
    pairs = {(thread, buffers) for h, thread, buffers in used if h > 0}
    assert len({thread for thread, _ in pairs}) == len(pairs)
    assert len({buffers for _, buffers in pairs}) == len(pairs)


def test_pooled_lags_see_the_callers_errstate(monkeypatch):
    series = _ar1_tensor((3, 4, 5), 120, 72)
    seen = []
    lag_score = tensor._lag_score

    def recording(product, gamma, v, h, *rest):
        seen.append((h, np.geterr()))
        return lag_score(product, gamma, v, h, *rest)

    monkeypatch.setattr(tensor, "_lag_score", recording)
    with np.errstate(over="ignore", invalid="ignore"):
        expected = np.geterr()
        sequential_segment(series, SegmentationConfig(m=10))
    assert expected["over"] == expected["invalid"] == "ignore"
    # three scored modes at each of the 11 lags
    assert sorted(h for h, _ in seen) == sorted(list(range(11)) * 3)
    assert all(state == expected for _, state in seen)


def test_error_in_a_pooled_lag_names_its_mode_and_ends_every_thread(monkeypatch):
    series = _ar1_tensor((3, 4, 5), 120, 73)
    lag_score = tensor._lag_score

    def failing(product, gamma, v, h, *rest):
        if h == 3 and gamma.shape[0] == 4:
            raise DegenerateVariance(2, 1)
        return lag_score(product, gamma, v, h, *rest)

    monkeypatch.setattr(tensor, "_lag_score", failing)
    before = threading.active_count()
    with pytest.raises(DegenerateVariance, match=r"^mode 2: "):
        sequential_segment(series, SegmentationConfig(m=10))
    assert threading.active_count() == before


def test_relayout_reindexes_one_lag_product_into_every_mode():
    # one time point makes every product entry a single multiplication, so
    # the re-indexed mode-src product equals the mode-dst product exactly
    rng = np.random.default_rng(67)
    for dims in [(2, 3), (3, 4, 5), (2, 1, 3, 2)]:
        x = rng.standard_normal((1,) + dims)
        products = {
            mode: _pair_lag_products(_unfold_series(x, mode), 0)[0]
            for mode in range(1, len(dims) + 1)
        }
        for src in products:
            for dst in products:
                out = np.empty(products[dst].shape)
                assert _relayout(products[src], src, dst, dims, out) is out
                assert np.array_equal(out, products[dst])


def test_mode_stage_errors_name_the_mode(monkeypatch):
    # a zero mode-2 slice stays zero under the mode-1 map
    data = _ar1_tensor((3, 4, 5), 80, 68).data.copy()
    data[:, :, 1, :] = 0.0
    with pytest.raises(DegenerateColumn, match=r"^mode 2: column 2 has zero sample variance$"):
        sequential_segment(TensorSeries(data))

    # a zero mode-1 row: every mode-1 fibre at (i2, i3) = (1, 1)
    data = _ar1_tensor((3, 4, 5), 80, 69).data.copy()
    data[:, :, 0, 0] = 0.0
    with pytest.raises(DegenerateVariance, match=r"^mode 1: nonpositive variance"):
        sequential_segment(TensorSeries(data))

    # the one product every mode shares holds (3 * 4 * 5)^2 = 3600 entries
    series = _ar1_tensor((3, 4, 5), 40, 70)
    monkeypatch.setattr(estimators, "PAIR_TENSOR_ENTRY_LIMIT", 3599)
    with pytest.raises(ResourceLimit, match=r"^mode 1: row-pair covariance tensor would hold 3600"):
        sequential_segment(series)
    monkeypatch.setattr(estimators, "PAIR_TENSOR_ENTRY_LIMIT", 3600)
    sequential_segment(series)


@pytest.mark.parametrize("threshold", [NoThreshold(), CvThreshold(n_splits=3)], ids=["none", "cv"])
def test_sequential_segment_keeps_the_w_spectrum_of_every_scored_mode(threshold):
    dims = (2, 1, 3, 2)
    series = _ar1_tensor(dims, 150, 69)
    cfg = SegmentationConfig(m=3, threshold=threshold)
    results, _ = sequential_segment(series, cfg)
    data = series.data
    for mode, result in enumerate(results, start=1):
        if dims[mode - 1] == 1:
            assert result.w_eigenvalues is None
        else:
            unfolded = MatrixSeries(_unfold_series(data, mode))
            standardized, _ = standardize(unfolded, result.u_lag0, cfg.eps)
            w = w_stat(standardized, cfg.k0, result.u_per_lag)
            assert np.array_equal(result.w_eigenvalues, sym_eig(w)[0])
        data = _fold_series(result.transformed.data, mode, dims)


@pytest.mark.parametrize("threshold", [NoThreshold(), CvThreshold(n_splits=3)], ids=["none", "cv"])
def test_sequential_segment_checks_only_the_series_it_returns(count_calls, threshold):
    # each mode's transformed series and the final tensor; the unfoldings and
    # standardized series stay plain arrays
    series = _ar1_tensor((3, 4, 5), 120, 70)
    checks = count_calls(containers, "_series_array")
    sequential_segment(series, SegmentationConfig(m=3, threshold=threshold))
    assert checks == {"_series_array": series.order + 1}
