"""Tests for standardization, the transformation, pair scoring and grouping."""

import tracemalloc
from collections import Counter

import numpy as np
import pytest

from matseg import (
    DegenerateColumn,
    DegenerateVariance,
    FixedThreshold,
    InvalidInput,
    MatrixSeries,
    NoThreshold,
    ResourceLimit,
    SegmentationConfig,
    gen_example,
    pair_score_matrix,
    segment,
)
from matseg import segmentation
from matseg import series as containers
from matseg.estimators import _center, hard_threshold, pair_autocov_all, row_autocov, w_stat
from matseg.linalg import sym_eig
from matseg.segmentation import (
    CvThreshold,
    _component_scales,
    _definite_level,
    _level_rule,
    _reseeded,
    group_columns,
    lag_scores,
    ratio_select,
    standardize,
)
from matseg.simulation import (
    classify_segmentation,
    mean_subspace_error,
    run_experiment,
    run_replication,
)
from matseg.threshold_cv import cv_threshold_autocov, cv_threshold_pair
from oracles import brute_pair_scores, brute_univariate_corr, dfs_components


def _random_series(rng, n, p, q):
    return MatrixSeries(rng.standard_normal((n, p, q)))


def _levels(threshold, series, kind, lags):
    # each lag's level as the pipeline chooses it on the series, forming
    # the lag's product; None under NoThreshold
    rule, centered = _level_rule(threshold, kind), _center(series.data)
    return None if rule is None else [rule(centered, lag) for lag in lags]


def _gamma(standardized):
    # the transformation segment takes from a standardized series, unthresholded
    return sym_eig(w_stat(standardized, SegmentationConfig().k0))[1]


def test_standardize_identity_covariance_is_noop():
    root2 = np.sqrt(2.0)
    data = np.array([[[root2, 0.0]], [[-root2, 0.0]], [[0.0, root2]], [[0.0, -root2]]])
    series = MatrixSeries(data)
    assert np.max(np.abs(row_autocov(series, 0) - np.eye(2))) <= 1e-12
    out, standardizer = standardize(series)
    assert np.max(np.abs(out.data - data)) <= 1e-10
    assert np.max(np.abs(standardizer - np.eye(2))) <= 1e-10


def test_standardize_scalar_variance_four_halves_values():
    series = MatrixSeries(np.array([[[0.0]], [[4.0]]]))
    out, standardizer = standardize(series)
    assert np.allclose(standardizer, [[0.5]], atol=1e-12)
    assert np.allclose(out.data.ravel(), [0.0, 2.0], atol=1e-12)


def test_standardize_output_has_identity_lag0_covariance():
    rng = np.random.default_rng(30)
    for _ in range(20):
        n = int(rng.integers(8, 40))
        p = int(rng.integers(1, 4))
        q = int(rng.integers(1, min(5, n)))
        series = _random_series(rng, n, p, q)
        out, standardizer = standardize(series)
        assert np.max(np.abs(row_autocov(out, 0) - np.eye(q))) <= 1e-8
        assert np.max(np.abs(series.data @ standardizer - out.data)) == 0.0


def test_standardize_warns_when_series_is_short():
    series = MatrixSeries(np.random.default_rng(0).standard_normal((3, 2, 4)))
    with pytest.warns(UserWarning):
        standardize(series)


def test_standardize_zero_variance_column():
    data = np.random.default_rng(0).standard_normal((10, 2, 3))
    data[:, :, 1] = 7.0
    with pytest.raises(DegenerateColumn):
        standardize(MatrixSeries(data))


def test_standardize_threshold_keeps_diagonal():
    rng = np.random.default_rng(31)
    series = _random_series(rng, 50, 2, 3)
    out, standardizer = standardize(series, u0=1e9)
    cov = row_autocov(series, 0)
    expected = np.diag(1.0 / np.sqrt(np.diag(cov)))
    assert np.max(np.abs(standardizer - expected)) <= 1e-10
    assert np.max(np.abs(np.diag(row_autocov(out, 0)) - 1.0)) <= 1e-10


def test_estimate_gamma_is_orthogonal():
    rng = np.random.default_rng(32)
    for _ in range(110):
        n = int(rng.integers(8, 30))
        p = int(rng.integers(1, 4))
        q = int(rng.integers(2, 6))
        std, _ = standardize(_random_series(rng, n, p, q))
        gamma = _gamma(std)
        assert np.max(np.abs(gamma.T @ gamma - np.eye(q))) <= 1e-8


def test_estimate_gamma_recovers_permutation_when_mixing_is_identity():
    rng = np.random.default_rng((100, 1))
    series, truth = gen_example(1, 5000, rng)
    unmixed = MatrixSeries(series.data @ np.linalg.inv(truth.a).T)
    std, _ = standardize(unmixed)
    gamma = _gamma(std)
    # every transformed column concentrates on one original column
    assert np.min(np.max(np.abs(gamma), axis=0)) > 0.95


def test_cross_corr_self_pair_lag0_has_unit_diagonal():
    rng = np.random.default_rng(33)
    std, _ = standardize(_random_series(rng, 25, 3, 4))
    gamma = _gamma(std)
    lag0 = lag_scores(std, gamma, 0)[0]
    for i in (1, 3):
        # a component correlates with itself at lag 0 exactly
        assert abs(lag0[i - 1, i - 1] - 1.0) <= 1e-10


def test_cross_corr_p1_matches_univariate_correlation():
    rng = np.random.default_rng(34)
    for _ in range(20):
        n = int(rng.integers(10, 30))
        q = int(rng.integers(2, 5))
        std, _ = standardize(_random_series(rng, n, 1, q))
        gamma = _gamma(std)
        z = std.data[:, 0, :] @ gamma
        scores = lag_scores(std, gamma, 2)
        for h in range(3):
            # the score of a pair at lag h covers lags h and -h
            want = max(
                abs(brute_univariate_corr(z[:, 0], z[:, 1], h)),
                abs(brute_univariate_corr(z[:, 1], z[:, 0], h)),
            )
            assert abs(scores[h, 0, 1] - want) <= 1e-12


def test_cross_corr_entries_bounded_without_threshold():
    rng = np.random.default_rng(35)
    for _ in range(100):
        n = int(rng.integers(6, 25))
        p = int(rng.integers(1, 4))
        q = int(rng.integers(2, 5))
        std, _ = standardize(_random_series(rng, n, p, q))
        gamma = _gamma(std)
        i = int(rng.integers(1, q + 1))
        j = int(rng.integers(1, q + 1))
        h = int(rng.integers(0, 3))
        assert lag_scores(std, gamma, h)[h, i - 1, j - 1] <= 1.0 + 1e-6


def test_cross_corr_white_noise_entries_are_small():
    rng = np.random.default_rng((200, 0))
    std, _ = standardize(MatrixSeries(rng.standard_normal((10000, 2, 3))))
    scores = lag_scores(std, np.eye(3), 5)
    off_diagonal = ~np.eye(3, dtype=bool)
    assert np.all(scores[:, off_diagonal] < 0.05)


def test_cross_corr_huge_threshold_zeroes_lagged_numerator():
    rng = np.random.default_rng(36)
    std, _ = standardize(_random_series(rng, 40, 2, 3))
    scores = lag_scores(std, np.eye(3), 1, FixedThreshold(0.0, 1e9))
    assert np.array_equal(scores[1], np.zeros((3, 3)))


def test_cross_corr_zero_threshold_matches_none():
    rng = np.random.default_rng(37)
    std, _ = standardize(_random_series(rng, 40, 2, 3))
    gamma = _gamma(std)
    a = lag_scores(std, gamma, 2)
    b = lag_scores(std, gamma, 2, FixedThreshold(0.0, 0.0))
    assert np.array_equal(a, b)


def test_cross_corr_degenerate_variance():
    series = MatrixSeries(np.zeros((10, 2, 2)))
    with pytest.raises(DegenerateVariance):
        lag_scores(series, np.eye(2), 0)


def test_pair_score_matrix_matches_brute_force():
    rng = np.random.default_rng(38)
    for _ in range(20):
        n = int(rng.integers(8, 16))
        p = int(rng.integers(1, 4))
        q = int(rng.integers(2, 5))
        std, _ = standardize(_random_series(rng, n, p, q))
        gamma = _gamma(std)
        m = int(rng.integers(0, 4))
        got = pair_score_matrix(std, gamma, m)
        want = brute_pair_scores(std.data, gamma, m)
        assert np.max(np.abs(got - want)) <= 1e-12
        assert np.array_equal(got, got.T)


def _per_lag_tensors(series, m, v_per_lag):
    # one pair_autocov_all call, and so one centring, per lag; returned
    # beside the unthresholded lag-0 tensor behind the denominators
    raw = [pair_autocov_all(series, h) for h in range(m + 1)]
    if v_per_lag is None:
        return raw, raw[0]
    return [hard_threshold(t, v) for t, v in zip(raw, v_per_lag)], raw[0]


def test_scoring_centres_once_bit_identical_to_per_lag_construction():
    rng = np.random.default_rng(41)
    data = rng.standard_normal((60, 3, 4))
    data[1:] += 0.6 * data[:-1]
    std = MatrixSeries(data)
    gamma, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    m = 5
    for threshold in (NoThreshold(), FixedThreshold(0.0, 0.05)):
        v_per_lag = _levels(threshold, std, 1, range(m + 1))
        tensors, lag0 = _per_lag_tensors(std, m, v_per_lag)
        scales = _component_scales(lag0, gamma)
        denom = np.einsum("ki,lj->klij", scales, scales)
        best = np.zeros((4, 4))
        for h in range(m + 1):
            sandwich = np.tensordot(tensors[h], gamma, axes=([2], [0]))
            sandwich = np.tensordot(sandwich, gamma, axes=([2], [0]))
            corr = np.abs(sandwich / denom).max(axis=(0, 1))
            best = np.maximum(best, np.maximum(corr, corr.T))
            if h in (0, 1, m):
                got = lag_scores(std, gamma, h, threshold)[h]
                assert np.array_equal(got, np.maximum(corr, corr.T))
                assert np.array_equal(pair_score_matrix(std, gamma, h, threshold), best)

        # the correlogram is lag_scores on the series itself: gamma = I, and
        # at every lag each score is a symmetrised peak of the per-lag tensor
        eye = np.eye(4)
        scores = lag_scores(std, eye, m, threshold)
        scale = _component_scales(lag0, eye)
        denom = np.einsum("ki,lj->klij", scale, scale)
        for h in range(m + 1):
            corr = np.abs(tensors[h] / denom).max(axis=(0, 1))
            assert np.array_equal(scores[h], np.maximum(corr, corr.T))

        # the rows-as-components construction on the transposed data agrees
        # to rounding: its lag-0 product is formed in the other orientation
        transposed = MatrixSeries(np.swapaxes(data, 1, 2))
        tensors, lag0 = _per_lag_tensors(transposed, m, v_per_lag)
        scale = np.sqrt(lag0[np.arange(4), np.arange(4)][:, np.arange(3), np.arange(3)])
        for h in range(m + 1):
            peak = np.abs(tensors[h] / np.einsum("ia,jb->ijab", scale, scale)).max(axis=(2, 3))
            assert np.max(np.abs(np.maximum(peak, peak.T) - scores[h])) <= 1e-12


def test_pair_score_matrix_is_max_over_lags_of_lag_scores():
    rng = np.random.default_rng(48)
    for _ in range(20):
        n = int(rng.integers(8, 40))
        p = int(rng.integers(1, 4))
        q = int(rng.integers(2, 6))
        std, _ = standardize(_random_series(rng, n, p, q))
        gamma = _gamma(std)
        m = int(rng.integers(0, min(6, n - 1)))
        for threshold in (NoThreshold(), FixedThreshold(0.0, float(rng.uniform(0.0, 0.2)))):
            per_lag = lag_scores(std, gamma, m, threshold)
            assert per_lag.shape == (m + 1, q, q)
            assert np.array_equal(per_lag, per_lag.transpose(0, 2, 1))
            assert np.array_equal(per_lag.max(axis=0), pair_score_matrix(std, gamma, m, threshold))


def test_lag_scores_rejects_non_finite_variances_and_scores(monkeypatch):
    rng = np.random.default_rng(50)
    # the lag-0 sums of squares overflow, so the component variances are not finite
    huge = MatrixSeries(rng.standard_normal((200, 3, 4)) * 1e200)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(InvalidInput, match="variances"):
            lag_scores(huge, np.eye(4), 2)
    series = _random_series(rng, 40, 2, 3)
    assert np.all(np.isfinite(lag_scores(series, np.eye(3), 2)))
    products = segmentation._pair_lag_products

    def overflow_at_lag_2(centered, h, level):
        tensor, v = products(centered, h, level)
        return (tensor * np.inf if h == 2 else tensor), v

    monkeypatch.setattr(segmentation, "_pair_lag_products", overflow_at_lag_2)
    with np.errstate(invalid="ignore"), pytest.raises(InvalidInput, match="scores"):
        lag_scores(series, np.eye(3), 2)


def test_level_rule_per_mode_and_kind():
    rng = np.random.default_rng(49)
    series = _random_series(rng, 40, 2, 3)
    lags = [0, 2, 5]
    assert _levels(NoThreshold(), series, 0, lags) is None
    assert _levels(NoThreshold(), series, 1, lags) is None
    fixed = FixedThreshold(u=0.3, v=0.1)
    assert _levels(fixed, series, 0, lags) == [0.3, 0.3, 0.3]
    assert _levels(fixed, series, 1, range(4)) == [0.1] * 4
    assert _levels(fixed, series, 0, []) == []
    mode = CvThreshold(n_splits=3, grid_size=8, seed=11)
    autocov = [cv_threshold_autocov(series, k, _reseeded(mode, mode.seed, 0, k)) for k in lags]
    pair = [cv_threshold_pair(series, h, _reseeded(mode, mode.seed, 1, h)) for h in lags]
    assert _levels(mode, series, 0, lags) == autocov
    assert _levels(mode, series, 1, lags) == pair
    # the kind and the lag both enter the split seed
    assert _reseeded(mode, mode.seed, 0, 2).seed != _reseeded(mode, mode.seed, 1, 2).seed
    assert _reseeded(mode, mode.seed, 0, 2).seed != _reseeded(mode, mode.seed, 0, 5).seed


def test_level_rule_refuses_what_is_no_threshold_mode():
    # a list of levels is refused, not read as "no threshold" and scored raw
    for kind in (0, 1):
        for threshold in ([0.1, 0.2], None, "cv:3"):
            with pytest.raises(InvalidInput, match=r"^unknown threshold mode "):
                _level_rule(threshold, kind)


def _derived_seed(*key):
    return int(np.random.SeedSequence(key).generate_state(1)[0])


def test_cv_reseed_keys_are_pinned():
    # _level_rule keys each lag's splits by (seed, kind, lag)
    rng = np.random.default_rng(48)
    series = _random_series(rng, 40, 2, 3)
    mode = CvThreshold(n_splits=3, grid_size=8, seed=11)
    for kind, estimate in ((0, cv_threshold_autocov), (1, cv_threshold_pair)):
        plans = [CvThreshold(3, 8, _derived_seed(11, kind, lag)) for lag in (1, 3)]
        want = [estimate(series, lag, plan) for lag, plan in zip((1, 3), plans)]
        assert _levels(mode, series, kind, [1, 3]) == want
    # run_replication keys its configuration by (seed, example, n, rep, 7)
    seed, example, n, rep = 5, 1, 150, 3
    cfg = SegmentationConfig(threshold=CvThreshold(n_splits=3, grid_size=8, seed=99))
    series, truth = gen_example(example, n, np.random.default_rng((seed, example, n, rep)))
    reseeded = CvThreshold(3, 8, _derived_seed(seed, example, n, rep, 7))
    result = segment(series, SegmentationConfig(threshold=reseeded))
    assert classify_segmentation(result, truth) == "correct"
    d_bar = mean_subspace_error(result.a_hat, truth, result.standardizer)
    assert run_replication(example, n, rep, cfg, seed) == (rep, "correct", d_bar)
    # the other modes pass through as the same objects
    for other in (NoThreshold(), FixedThreshold(u=0.3, v=0.1)):
        assert _reseeded(other, seed, example, n, rep, 7) is other


def _ar1_series(shift):
    rng = np.random.default_rng((70, 1))
    data = rng.standard_normal((200, 3, 4))
    for t in range(1, 200):
        data[t] += 0.5 * data[t - 1]
    return MatrixSeries(data + shift)


def _cv_levels_with_and_without_shift(kind):
    mode = CvThreshold(n_splits=5)
    return [_levels(mode, _ar1_series(shift), kind, range(4)) for shift in (0.0, 5.0)]


def test_cv_autocov_levels_invariant_under_constant_shift():
    # the row autocovariances are centred, so a constant added to every
    # entry leaves their cross-validated levels as they are; the shift
    # rounds the data, and with them the levels, in the last bits
    base, shifted = _cv_levels_with_and_without_shift(0)
    assert np.allclose(shifted, base, rtol=1e-12, atol=0.0)


def test_cv_pair_levels_invariant_under_constant_shift():
    # the row-pair split estimates are centred by the full-sample mean too
    base, shifted = _cv_levels_with_and_without_shift(1)
    assert np.allclose(shifted, base, rtol=1e-12, atol=0.0)


def test_cv_segment_of_valid_example_1_series():
    # the series of `matseg simulate --example 1 --n 300 --seed 11`
    series, _ = gen_example(1, 300, np.random.default_rng((11, 1, 300)))
    result = segment(series, SegmentationConfig(threshold=CvThreshold(n_splits=5)))
    assert sorted(g for group in result.groups for g in group) == list(range(1, 7))


def test_cv_standardized_example_1_series_has_bounded_covariance():
    # the series of test_cv_segment_of_valid_example_1_series; under
    # NoThreshold every eigenvalue of this covariance is 1
    series, _ = gen_example(1, 300, np.random.default_rng((11, 1, 300)))
    result = segment(series, SegmentationConfig(threshold=CvThreshold(n_splits=5)))
    assert np.linalg.eigvalsh(row_autocov(result.transformed, 0)).max() <= 10.0


def _definite(cov0, level, eps):
    vals = np.linalg.eigvalsh(hard_threshold(cov0, level, keep_diagonal=True))
    return vals[0] > eps * vals[-1]


def test_lag0_level_is_raised_until_every_higher_level_is_definite():
    # cross-validation picks u0 = 4.49 here, where the thresholded lag-0
    # covariance has eigenvalue -0.63
    series, _ = gen_example(1, 300, np.random.default_rng((11, 1, 300)))
    eps = SegmentationConfig().eps
    cov0 = row_autocov(series, 0)
    u0 = _levels(CvThreshold(n_splits=5), series, 0, [0])[0]
    assert not _definite(cov0, u0, eps)
    for threshold in (CvThreshold(n_splits=5), FixedThreshold(u=u0, v=0.0)):
        result = segment(series, SegmentationConfig(threshold=threshold))
        assert np.linalg.eigvalsh(row_autocov(result.transformed, 0)).max() <= 10.0
        level = result.u_lag0
        assert level > u0
        assert level == _definite_level(cov0, u0, eps)
        # the levels just above each off-diagonal magnitude >= u0
        off = np.abs(cov0[~np.eye(series.q, dtype=bool)])
        candidates = np.nextafter(off[off >= u0], np.inf)
        assert level in candidates
        assert all(_definite(cov0, c, eps) for c in candidates[candidates >= level])
        # the next candidate down is indefinite, so no lower level would do
        assert not _definite(cov0, candidates[candidates < level].max(), eps)


def test_definite_lag0_level_stands():
    rng = np.random.default_rng(41)
    for _ in range(20):
        series = _random_series(rng, 60, 2, 4)
        cov0 = row_autocov(series, 0)
        u0 = float(rng.uniform(0.0, 0.5))
        assert _definite(cov0, u0, 1e-10)
        assert _definite_level(cov0, u0, 1e-10) == u0
        result = segment(series, SegmentationConfig(threshold=FixedThreshold(u=u0, v=0.0)))
        assert result.u_lag0 == u0


def test_segment_cross_validates_lag0_level_once(monkeypatch):
    calls = []
    cv_level = segmentation._cv_level

    def counting(centered, lag, plan, width, total):
        if width == centered.shape[2]:
            calls.append(lag)
        return cv_level(centered, lag, plan, width, total)

    monkeypatch.setattr(segmentation, "_cv_level", counting)
    rng = np.random.default_rng(50)
    cfg = SegmentationConfig(k0=3, m=2, threshold=CvThreshold(n_splits=3, grid_size=8))
    res = segment(_random_series(rng, 40, 2, 3), cfg)
    assert calls == [0, 1, 2, 3]
    assert len(res.u_per_lag) == 3 and len(res.v_per_lag) == 3
    calls.clear()
    segment(_random_series(rng, 40, 2, 1), cfg)
    assert calls == []


def test_scoring_refuses_a_level_list():
    # the scores take a threshold mode; a list of levels, even one per lag, is not one
    rng = np.random.default_rng(39)
    std, _ = standardize(_random_series(rng, 20, 2, 3))
    for score in (lag_scores, pair_score_matrix):
        for levels in ([0.1, 0.1, 0.1], None, "cv:3"):
            with pytest.raises(InvalidInput, match="threshold mode"):
                score(std, np.eye(3), 2, levels)


def test_max_cross_corr_exact_copy_scores_one():
    rng = np.random.default_rng(40)
    data = rng.standard_normal((30, 2, 4))
    data[:, :, 3] = data[:, :, 0]
    series = MatrixSeries(data)
    score = pair_score_matrix(series, np.eye(4), SegmentationConfig().m)[0, 3]
    assert abs(score - 1.0) <= 1e-8


def test_max_cross_corr_symmetric_in_pair_order():
    rng = np.random.default_rng(41)
    std, _ = standardize(_random_series(rng, 30, 2, 4))
    gamma = _gamma(std)
    matrix = pair_score_matrix(std, gamma, 10)
    assert np.array_equal(matrix, matrix.T)


def test_max_cross_corr_independent_columns_stay_small():
    rng = np.random.default_rng((300, 1))
    std, _ = standardize(MatrixSeries(rng.standard_normal((10000, 2, 4))))
    matrix = pair_score_matrix(std, np.eye(4), SegmentationConfig().m)
    for i in range(1, 5):
        for j in range(i + 1, 5):
            assert matrix[i - 1, j - 1] < 0.06


def test_ratio_select_hand_cases():
    assert ratio_select([0.9, 0.8, 0.5, 0.05, 0.04, 0.03], c0=0.75) == 3
    assert ratio_select([0.5, 0.5, 0.5, 0.5], c0=0.75) == 1
    assert ratio_select([0.8, 0.4, 0.2, 0.1], shift=0.2) == 1


def test_ratio_select_zero_tail_is_infinite_ratio():
    assert ratio_select([0.6, 0.3, 0.0, 0.0], c0=0.9) == 2


def test_ratio_select_errors():
    with pytest.raises(InvalidInput):
        ratio_select([0.5])
    with pytest.raises(InvalidInput):
        ratio_select([0.3, 0.5, 0.1])
    with pytest.raises(InvalidInput):
        ratio_select([0.5, -0.1])
    with pytest.raises(InvalidInput):
        ratio_select([0.5, 0.4], c0=1.5)
    # c0 * q0 <= 1 leaves no admissible index
    with pytest.raises(InvalidInput):
        ratio_select([0.5, 0.4], c0=0.4)
    # inf / inf would leave every ratio undefined
    for shift in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(InvalidInput):
            ratio_select([0.5, 0.4, 0.1], shift=shift)


def _plain_ratio_oracle(scores, c0):
    q0 = len(scores)
    j_count = int(np.ceil(c0 * q0)) - 1
    best_j, best_ratio = 1, -np.inf
    for j in range(1, j_count + 1):
        if scores[j] == 0.0:
            return j
        ratio = scores[j - 1] / scores[j]
        if ratio > best_ratio:
            best_j, best_ratio = j, ratio
    return best_j


def _shift_ratio_oracle(scores, s):
    best_j, best_ratio = 1, -np.inf
    for j in range(1, len(scores)):
        ratio = (scores[j - 1] + s) / (scores[j] + s)
        if ratio > best_ratio:
            best_j, best_ratio = j, ratio
    return best_j


def test_ratio_select_matches_loop_oracle():
    rng = np.random.default_rng(42)
    for _ in range(120):
        q0 = int(rng.integers(2, 12))
        scores = np.sort(rng.uniform(0.0, 1.0, size=q0))[::-1].tolist()
        c0 = float(rng.uniform(0.55, 0.95))
        assert ratio_select(scores, c0=c0) == _plain_ratio_oracle(scores, c0)
        s = float(rng.uniform(0.01, 0.5))
        assert ratio_select(scores, shift=s) == _shift_ratio_oracle(scores, s)


def test_group_columns_hand_cases():
    assert group_columns([(1, 3), (3, 6), (2, 4)], 6) == [[1, 3, 6], [2, 4], [5]]
    assert group_columns([], 4) == [[1], [2], [3], [4]]
    clique = [(i, j) for i in range(1, 5) for j in range(i + 1, 5)]
    assert group_columns(clique, 4) == [[1, 2, 3, 4]]


def test_group_columns_index_errors():
    with pytest.raises(InvalidInput):
        group_columns([(0, 1)], 3)
    with pytest.raises(InvalidInput):
        group_columns([(1, 4)], 3)
    with pytest.raises(InvalidInput):
        group_columns([(2, 2)], 3)


def test_group_columns_matches_dfs_oracle():
    rng = np.random.default_rng(43)
    cases = []
    for _ in range(120):
        q = int(rng.integers(2, 10))
        n_edges = int(rng.integers(0, 12))
        edges = []
        for _ in range(n_edges):
            i = int(rng.integers(1, q + 1))
            j = int(rng.integers(1, q + 1))
            if i != j:
                edges.append((i, j))
        cases.append((edges, q))
    # deep trees: a reversed chain and a star over 3000 columns
    big = 3000
    cases.append(([(c + 1, c) for c in range(big - 1, 0, -1)], big))
    cases.append(([(c, 1) for c in range(2, big + 1)], big))
    for edges, q in cases:
        assert group_columns(edges, q) == dfs_components(edges, q)


def test_segment_single_column_is_trivial():
    rng = np.random.default_rng(44)
    res = segment(MatrixSeries(rng.standard_normal((20, 3, 1))))
    assert res.groups == [[1]]
    assert res.scores == []
    assert res.selected_edges == 0
    assert res.gamma.shape == (1, 1)


def test_segment_two_independent_columns_stay_apart():
    hits = 0
    for rep in range(20):
        rng = np.random.default_rng((400, rep))
        res = segment(MatrixSeries(rng.standard_normal((5000, 3, 2))))
        if res.groups == [[1], [2]]:
            hits += 1
    assert hits >= 18


def test_segment_result_internal_consistency():
    rng = np.random.default_rng(45)
    for _ in range(10):
        n = int(rng.integers(20, 40))
        series = _random_series(rng, n, 2, int(rng.integers(3, 6)))
        res = segment(series)
        q = series.q
        assert np.max(np.abs(res.gamma.T @ res.gamma - np.eye(q))) <= 1e-8
        assert res.gamma.flags.c_contiguous
        assert len(res.scores) == q * (q - 1) // 2
        values = [s for (_, _, s) in res.scores]
        assert values == sorted(values, reverse=True)
        pairs = {(i, j) for (i, j, _) in res.scores}
        assert pairs == {(i, j) for i in range(1, q + 1) for j in range(i + 1, q + 1)}
        top = [(i, j) for (i, j, _) in res.scores[: res.selected_edges]]
        assert res.groups == dfs_components(top, q)
        flat = sorted(c for g in res.groups for c in g)
        assert flat == list(range(1, q + 1))
        # transformed series is the standardized series rotated by gamma
        rebuilt = series.data @ res.standardizer @ res.gamma
        assert np.max(np.abs(rebuilt - res.transformed.data)) <= 1e-12
        # a_hat blocks collect gamma columns group by group
        assert len(res.a_hat) == len(res.groups)
        for block, group in zip(res.a_hat, res.groups):
            cols = [c - 1 for c in group]
            assert np.array_equal(block, res.gamma[:, cols])


def test_segment_scores_recompute_bit_stably():
    rng = np.random.default_rng(46)
    series = _random_series(rng, 30, 2, 4)
    for threshold in (NoThreshold(), FixedThreshold(u=0.1, v=0.05), CvThreshold(n_splits=3)):
        cfg = SegmentationConfig(threshold=threshold)
        res = segment(series, cfg)
        std = MatrixSeries(series.data @ res.standardizer)
        # the scores choose the v levels on the standardized series, as segment does
        matrix = pair_score_matrix(std, res.gamma, cfg.m, threshold)
        for i, j, score in res.scores:
            assert matrix[i - 1, j - 1] == score


def test_segment_recovers_known_grouping():
    rng = np.random.default_rng((500, 1))
    series, truth = gen_example(1, 1500, rng)
    res = segment(series)
    assert classify_segmentation(res, truth) == "correct"
    assert sorted(len(g) for g in res.groups) == [1, 2, 3]


def test_segment_permutation_equivariance():
    rng = np.random.default_rng(47)
    for _ in range(100):
        n = int(rng.integers(15, 35))
        q = int(rng.integers(3, 6))
        series = _random_series(rng, n, 2, q)
        perm = rng.permutation(q)
        permuted = MatrixSeries(series.data[:, :, perm])
        res = segment(series)
        res_p = segment(permuted)
        sizes = sorted(len(g) for g in res.groups)
        sizes_p = sorted(len(g) for g in res_p.groups)
        assert sizes == sizes_p
        values = np.array([s for (_, _, s) in res.scores])
        values_p = np.array([s for (_, _, s) in res_p.scores])
        assert np.max(np.abs(values - values_p)) <= 1e-8


def test_segment_error_estimate_shrinks_with_sample_size():
    report = run_experiment(1, [200, 1500], 30, seed=0)
    medians = [row.d_bar_median for row in report.rows]
    assert medians[0] > medians[1]


def test_config_validation():
    with pytest.raises(InvalidInput):
        SegmentationConfig(k0=0)
    with pytest.raises(InvalidInput):
        SegmentationConfig(c0=1.0)
    with pytest.raises(InvalidInput):
        SegmentationConfig(m=-1)
    for shift in (0.0, np.inf, np.nan):
        with pytest.raises(InvalidInput):
            SegmentationConfig(ratio_shift=shift)
    with pytest.raises(InvalidInput):
        FixedThreshold(u=-0.5, v=0.1)
    # a threshold spec string is not a mode
    with pytest.raises(InvalidInput, match="threshold mode"):
        SegmentationConfig(threshold="cv:5")


@pytest.mark.parametrize(
    "threshold", [NoThreshold(), FixedThreshold(0.05, 0.03), CvThreshold(n_splits=3)]
)
def test_segment_forms_the_raw_lag0_covariance_once(monkeypatch, threshold):
    series, _ = gen_example(1, 300, np.random.default_rng(74))
    lags = []
    lag_product = segmentation._lag_product

    def counting(x, k, width, t=None, out=None):
        lags.append(k)
        return lag_product(x, k, width, t, out)

    monkeypatch.setattr(segmentation, "_lag_product", counting)
    segment(series, SegmentationConfig(threshold=threshold))
    assert lags == [0]


@pytest.mark.parametrize(
    "threshold", [NoThreshold(), FixedThreshold(0.05, 0.03), CvThreshold(n_splits=3)]
)
def test_segment_forms_each_full_sample_product_once(full_products, threshold):
    series, _ = gen_example(1, 300, np.random.default_rng(75))
    p, q = series.p, series.q
    formed = full_products()
    cfg = SegmentationConfig(k0=2, m=3, threshold=threshold)
    segment(series, cfg)
    # the raw lag-0 product, T_1..T_k0 of the standardized series, and each scored lag
    want = Counter([(q, 0)] + [(q, k) for k in range(1, cfg.k0 + 1)])
    want.update((p * q, h) for h in range(cfg.m + 1))
    assert formed == want


def test_segment_cv_refuses_a_wide_pair_product_before_forming_it(full_products):
    # p q = 10002, so one (p q)^2 product would hold about 10^8 entries (800 MB)
    series = _random_series(np.random.default_rng(76), 12, 5001, 2)
    formed = full_products()
    cfg = SegmentationConfig(m=2, threshold=CvThreshold(n_splits=3, grid_size=8))
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimit, match="would hold 100040004 entries"):
            segment(series, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not [key for key in formed if key[0] == series.p * series.q]
    assert peak < 50e6


@pytest.mark.parametrize("threshold", [NoThreshold(), CvThreshold(n_splits=3)], ids=["none", "cv"])
def test_segment_keeps_the_spectrum_of_w(threshold):
    series, _ = gen_example(1, 300, np.random.default_rng(77))
    cfg = SegmentationConfig(threshold=threshold)
    result = segment(series, cfg)
    standardized, _ = standardize(series, result.u_lag0, cfg.eps)
    w = w_stat(standardized, cfg.k0, result.u_per_lag)
    assert np.array_equal(result.w_eigenvalues, sym_eig(w)[0])
    assert np.max(np.abs(result.w_eigenvalues - np.linalg.eigvalsh(w)[::-1])) <= 1e-12
    # a lone column has no statistic to decompose
    lone = segment(_random_series(np.random.default_rng(78), 50, 3, 1), cfg)
    assert lone.w_eigenvalues is None


@pytest.mark.parametrize("threshold", [NoThreshold(), CvThreshold(n_splits=3)], ids=["none", "cv"])
def test_segment_checks_only_the_series_it_returns(count_calls, threshold):
    # the input was checked when it was built; of the pipeline's own arrays
    # only the transformed series leaves it as a MatrixSeries
    series, _ = gen_example(1, 300, np.random.default_rng(79))
    checks = count_calls(containers, "_series_array")
    segment(series, SegmentationConfig(threshold=threshold))
    assert checks == {"_series_array": 1}
