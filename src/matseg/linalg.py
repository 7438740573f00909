"""Deterministic symmetric eigen-decompositions and subspace comparison."""

from __future__ import annotations

import numpy as np

from .errors import DegenerateCovariance, InvalidInput, NumericalFailure

RANK_RTOL = 1e-10


def _validate_square(S, name: str = "matrix") -> np.ndarray:
    arr = np.asarray(S, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise InvalidInput(f"{name} must be square, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInput(f"{name} contains non-finite entries")
    return arr


def sym_eig(S) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-decomposition of a symmetric matrix with a fixed output convention.

    The input is symmetrized as (S + S.T) / 2 before factorization.  Each
    eigenvector is flipped so that its largest-magnitude entry (the first
    one, under a magnitude tie) is positive.  The columns are then ordered
    by one sort key: descending eigenvalue, and within a run of exactly
    equal eigenvalues descending lexicographic order of the sign-fixed
    eigenvectors.  The output is therefore deterministic for identical
    input bytes.

    Parameters
    ----------
    S : array_like, shape (q, q)
        Symmetric matrix.

    Returns
    -------
    values : ndarray, shape (q,)
        Eigenvalues, descending.
    vectors : ndarray, shape (q, q)
        Orthonormal eigenvectors as columns, aligned with ``values``,
        C-ordered.
    """
    arr = _validate_square(S)
    sym = 0.5 * (arr + arr.T)
    try:
        vals, vecs = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigen-decomposition failed: {exc}") from exc
    if vals.size == 0:
        return vals, vecs
    peak = vecs[np.abs(vecs).argmax(axis=0), np.arange(vals.size)]
    vecs = np.where(peak < 0, -vecs, vecs)
    # lexsort's last key is the primary one: -vals, then -vecs row by row
    order = np.lexsort((*-vecs[::-1], -vals))
    return vals[order], vecs.take(order, axis=1)


def inv_sqrt_psd(S, eps: float = 1e-10) -> np.ndarray:
    """Inverse square root of a positive semi-definite symmetric matrix.

    Eigenvalues below ``eps`` times the largest eigenvalue are clamped to
    that floor before inversion, so near-null directions are damped rather
    than amplified without bound.

    Parameters
    ----------
    S : array_like, shape (q, q)
        Symmetric positive semi-definite matrix.
    eps : float
        Relative eigenvalue floor.

    Returns
    -------
    ndarray, shape (q, q)
        Symmetric matrix M with M @ S @ M close to the identity on the
        unclamped eigenspace.
    """
    if not 0 < eps < 1:
        raise InvalidInput(f"eps must be in (0, 1), got {eps}")
    vals, vecs = sym_eig(S)
    if vals.size == 0:
        raise InvalidInput("matrix is empty")
    lam_max = vals[0]
    if lam_max <= 0:
        raise DegenerateCovariance("matrix has no positive eigenvalue")
    clamped = np.maximum(vals, eps * lam_max)
    out = (vecs * (1.0 / np.sqrt(clamped))) @ vecs.T
    return 0.5 * (out + out.T)


def orthonormal_basis(H, name: str = "basis") -> np.ndarray:
    """Orthonormal basis of the column span of a full-column-rank matrix."""
    arr = np.asarray(H, dtype=float)
    if arr.ndim != 2:
        raise InvalidInput(f"{name} must be 2-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInput(f"{name} contains non-finite entries")
    d, r = arr.shape
    if r < 1 or d < r:
        raise InvalidInput(f"{name} must have shape (d, r) with 1 <= r <= d, got {arr.shape}")
    u, s, _ = np.linalg.svd(arr, full_matrices=False)
    if s[-1] <= RANK_RTOL * s[0] or s[0] == 0.0:
        raise InvalidInput(f"{name} is rank deficient")
    return u


def subspace_distance(H1, H2) -> float:
    """Distance between the column spans of two full-column-rank matrices.

    Computed as sqrt(1 - tr(P1 @ P2) / min(r1, r2)) where P_i is the
    orthogonal projector onto the span of H_i.  The value is 0 exactly when
    one span contains the other and 1 exactly when the spans are orthogonal.

    Parameters
    ----------
    H1, H2 : array_like, shape (d, r1) and (d, r2)
        Matrices with full column rank sharing the ambient dimension d.

    Returns
    -------
    float
        Distance in [0, 1].
    """
    q1 = orthonormal_basis(H1, "H1")
    q2 = orthonormal_basis(H2, "H2")
    if q1.shape[0] != q2.shape[0]:
        raise InvalidInput(
            f"bases live in different ambient dimensions: {q1.shape[0]} vs {q2.shape[0]}"
        )
    overlap = float(np.sum((q1.T @ q2) ** 2))
    rmin = min(q1.shape[1], q2.shape[1])
    radicand = 1.0 - overlap / rmin
    if radicand < 0.0:
        # Round-off can push tr(P1 P2) marginally past its bound.
        radicand = 0.0
    return float(np.sqrt(radicand))
