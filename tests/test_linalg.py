"""Tests for the deterministic eigen-decomposition and subspace distance."""

import numpy as np
import pytest

from matseg import DegenerateCovariance, InvalidInput
from matseg.linalg import inv_sqrt_psd, subspace_distance, sym_eig
from oracles import brute_subspace_distance, brute_sym_eig

RT2 = np.sqrt(2.0)


def test_sym_eig_diagonal_ordering():
    values, vectors = sym_eig(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(values, [3.0, 2.0, 1.0])
    expected = np.column_stack([[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    assert np.allclose(vectors, expected)


def test_sym_eig_two_by_two_hand_case():
    values, vectors = sym_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(values, [3.0, 1.0])
    assert np.allclose(np.abs(vectors[:, 0]), [1 / RT2, 1 / RT2], atol=1e-12)
    assert np.allclose(np.abs(vectors[:, 1]), [1 / RT2, 1 / RT2], atol=1e-12)
    # sign convention: the largest-magnitude entry (ties at the lowest row) is positive
    assert vectors[0, 0] > 0 and vectors[0, 1] > 0


def test_sym_eig_reconstruction_orthogonality_and_eigen_equation():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        base = rng.standard_normal((8, 8))
        s = base + base.T
        values, vectors = sym_eig(s)
        assert np.all(np.diff(values) <= 0)
        assert np.max(np.abs(vectors.T @ vectors - np.eye(8))) <= 1e-10
        recon = vectors @ np.diag(values) @ vectors.T
        assert np.max(np.abs(recon - s)) <= 1e-8
        scale = np.linalg.norm(s)
        assert np.max(np.abs(s @ vectors - vectors * values)) <= 1e-8 * scale
        for k in range(8):
            idx = int(np.argmax(np.abs(vectors[:, k])))
            assert vectors[idx, k] > 0


def test_sym_eig_deterministic_for_identical_bytes():
    rng = np.random.default_rng(7)
    base = rng.standard_normal((6, 6))
    s = base + base.T
    first = sym_eig(s.copy())
    second = sym_eig(s.copy())
    assert np.array_equal(first[0], second[0])
    assert np.array_equal(first[1], second[1])


def _tie_family(rng, q):
    """A random symmetric matrix and three with tied eigenvalues, zeros among them."""
    base = rng.standard_normal((q, q))
    basis, _ = np.linalg.qr(rng.standard_normal((q, q)))
    repeated = rng.choice([-1.0, 0.0, 2.0], size=q)
    diagonal = rng.permutation(rng.integers(-2, 3, size=q)).astype(float)
    return [
        base + base.T,
        float(rng.integers(-3, 4)) * np.eye(q),
        basis @ np.diag(repeated) @ basis.T,
        np.diag(diagonal),
    ]


def test_sym_eig_equal_eigenvalue_ties_are_canonical():
    values, vectors = sym_eig(np.eye(4))
    assert np.allclose(values, np.ones(4))
    assert np.array_equal(vectors, np.eye(4))
    zero_ties = 0
    for seed in range(40):
        rng = np.random.default_rng((seed, 19))
        for q in range(1, 12):
            for matrix in _tie_family(rng, q):
                values, vectors = sym_eig(matrix)
                want_values, want_vectors = brute_sym_eig(matrix)
                assert values.tobytes() == want_values.tobytes()
                assert vectors.tobytes() == want_vectors.tobytes()
                assert vectors.flags.c_contiguous
                zero_ties += int(np.sum(values == 0.0) > 1)
    assert zero_ties > 100


def test_sym_eig_of_the_empty_matrix_is_empty():
    values, vectors = sym_eig(np.zeros((0, 0)))
    assert values.shape == (0,)
    assert vectors.shape == (0, 0)


def test_sym_eig_rejects_bad_input():
    with pytest.raises(InvalidInput):
        sym_eig(np.array([[1.0, np.nan], [np.nan, 1.0]]))
    with pytest.raises(InvalidInput):
        sym_eig(np.ones((2, 3)))


def test_inv_sqrt_psd_identity_and_diagonal():
    assert np.allclose(inv_sqrt_psd(np.eye(3)), np.eye(3), atol=1e-12)
    out = inv_sqrt_psd(np.diag([4.0, 9.0]))
    assert np.allclose(out, np.diag([0.5, 1.0 / 3.0]), atol=1e-12)


def test_inv_sqrt_psd_clamps_tiny_eigenvalues():
    s = np.diag([1.0, 1e-18])
    out = inv_sqrt_psd(s, eps=1e-10)
    assert np.allclose(out, out.T)
    # the clamped direction is damped, so out @ s @ out approximates the
    # projector onto the unclamped eigenspace
    projector = out @ s @ out
    assert np.allclose(projector, np.diag([1.0, 0.0]), atol=1e-7)


def test_inv_sqrt_psd_inverts_on_clean_spectrum():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        base = rng.standard_normal((5, 5))
        s = base @ base.T + 0.5 * np.eye(5)
        out = inv_sqrt_psd(s)
        assert np.max(np.abs(out @ s @ out - np.eye(5))) <= 1e-8


def test_inv_sqrt_psd_errors():
    with pytest.raises(DegenerateCovariance):
        inv_sqrt_psd(np.zeros((3, 3)))
    with pytest.raises(DegenerateCovariance):
        inv_sqrt_psd(-np.eye(2))
    with pytest.raises(InvalidInput):
        inv_sqrt_psd(np.eye(2), eps=0.0)


def test_inv_sqrt_psd_of_the_empty_matrix_is_invalid_input():
    # sym_eig returns an empty spectrum here; inv_sqrt_psd has no largest eigenvalue
    with pytest.raises(InvalidInput, match="empty"):
        inv_sqrt_psd(np.zeros((0, 0)))


def test_subspace_distance_hand_cases():
    e1 = np.array([[1.0], [0.0]])
    e2 = np.array([[0.0], [1.0]])
    mixed = np.array([[1.0], [1.0]]) / RT2
    assert subspace_distance(e1, e1) == 0.0
    assert subspace_distance(e1, e2) == 1.0
    assert abs(subspace_distance(e1, mixed) - np.sqrt(0.5)) <= 1e-12
    nested = np.eye(3)[:, :2]
    inner = np.eye(3)[:, :1]
    assert subspace_distance(nested, inner) <= 1e-12
    assert subspace_distance(inner, nested) <= 1e-12


def test_subspace_distance_metric_properties():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 7))
        r1 = int(rng.integers(1, d + 1))
        r2 = int(rng.integers(1, d + 1))
        h1 = rng.standard_normal((d, r1))
        h2 = rng.standard_normal((d, r2))
        value = subspace_distance(h1, h2)
        assert 0.0 <= value <= 1.0
        # compare squared distances because the square root amplifies noise near 0
        assert abs(value**2 - subspace_distance(h2, h1) ** 2) <= 1e-10
        assert abs(value**2 - brute_subspace_distance(h1, h2) ** 2) <= 1e-10
        # invariance under right-multiplication by an invertible matrix
        mix = rng.standard_normal((r1, r1)) + 3.0 * np.eye(r1)
        assert abs(value**2 - subspace_distance(h1 @ mix, h2) ** 2) <= 1e-8


def test_subspace_distance_errors():
    with pytest.raises(InvalidInput):
        subspace_distance(np.zeros((3, 2)), np.eye(3))
    with pytest.raises(InvalidInput):
        subspace_distance(np.eye(3), np.eye(4))
    with pytest.raises(InvalidInput):
        subspace_distance(np.ones((2, 3)), np.eye(2))
