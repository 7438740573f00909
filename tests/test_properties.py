"""Metamorphic properties of segment, checked over hypothesis-drawn series.

Each property compares two segmentations whose scores agree only to
rounding.  A rounding-level change can move the ratio rule's cut only when
the chosen ratio barely beats the runner-up, so groups are compared only
when that margin, recomputed from result.scores, exceeds 1e-6 relative.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from matseg import CvThreshold, MatrixSeries, SegmentationConfig, segment
from matseg.linalg import subspace_distance

CFG = SegmentationConfig()
CV_CFG = SegmentationConfig(threshold=CvThreshold(n_splits=5))
MIN_MARGIN = 1e-6

shapes = st.tuples(
    st.integers(0, 2**32 - 1),  # seed
    st.integers(20, 60),  # n
    st.integers(1, 3),  # p
    st.integers(3, 6),  # q
)


def _series(seed, n, p, q):
    data = np.random.default_rng(seed).standard_normal((n, p, q))
    data[1:] += 0.5 * data[:-1]
    return data


def _ratio_margin(result, cfg) -> float:
    """Relative lead of the chosen score ratio over the runner-up under cfg.

    A zero score (thresholding can zero every entry of a pair) is an
    infinite ratio to ratio_select, which then cuts at the first zero
    whatever rounding does to the positive scores.
    """
    scores = np.array([s for _, _, s in result.scores])
    j_count = int(np.ceil(cfg.c0 * scores.size)) - 1
    lag = scores[1 : j_count + 1]
    if np.any(lag == 0.0):
        return np.inf
    ratios = np.sort(scores[:j_count] / lag)[::-1]
    if ratios.size < 2:
        return np.inf
    return (ratios[0] - ratios[1]) / ratios[0]


def _segment_pair(data, other, cfg=CFG):
    res = segment(MatrixSeries(data), cfg)
    res_other = segment(MatrixSeries(other), cfg)
    assume(min(_ratio_margin(res, cfg), _ratio_margin(res_other, cfg)) > MIN_MARGIN)
    return res, res_other


@settings(derandomize=True, deadline=None)
@given(shape=shapes, data=st.data())
def test_groups_invariant_under_row_permutation(shape, data):
    raw = _series(*shape)
    perm = data.draw(st.permutations(range(shape[2])))
    res, res_perm = _segment_pair(raw, raw[:, perm, :])
    assert res_perm.groups == res.groups


@settings(derandomize=True, deadline=None)
@given(shape=shapes, scale=st.floats(1e-3, 1e3))
def test_groups_invariant_under_positive_rescaling(shape, scale):
    raw = _series(*shape)
    res, res_scaled = _segment_pair(raw, scale * raw)
    assert res_scaled.groups == res.groups


@settings(derandomize=True, deadline=None)
@given(shape=shapes, data=st.data())
def test_column_permutation_carries_the_partition(shape, data):
    # permuting the columns permutes the rows of gamma, so the transformed
    # columns, and with them the groups, stay as they are, while each
    # group's loadings follow the columns to their new places
    raw = _series(*shape)
    perm = data.draw(st.permutations(range(shape[3])))
    res, res_perm = _segment_pair(raw, raw[:, :, perm])
    assert res_perm.groups == res.groups
    for block, block_perm in zip(res.a_hat, res_perm.a_hat):
        assert subspace_distance(block_perm, block[perm]) <= 1e-6


@pytest.mark.parametrize("cfg", [CFG, CV_CFG], ids=["none", "cv"])
@settings(derandomize=True, deadline=None)
@given(shape=shapes, shift=st.floats(-1e2, 1e2))
def test_groups_invariant_under_constant_shift(cfg, shape, shift):
    # every estimator, cross-validation splits included, centres by the
    # sample mean, so a constant added to every entry changes the scores
    # only by rounding
    raw = _series(*shape)
    res, res_shifted = _segment_pair(raw, raw + shift, cfg)
    assert res_shifted.groups == res.groups
