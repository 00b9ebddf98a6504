"""Dense reference computations that the tests check the banded code against."""

import numpy as np
import scipy.linalg

from lagprod.ensemble import BidiagonalFactor, SymmetricBanded

DENSE_ORACLE_MAX_N = 64


def dense_bidiagonal(B: BidiagonalFactor) -> np.ndarray:
    """The lower-bidiagonal factor B as a dense n x n array."""
    A = np.zeros((B.n, B.n))
    np.fill_diagonal(A, B.diag)
    A[np.arange(1, B.n), np.arange(B.n - 1)] = B.subdiag
    return A


def dense_tridiagonal(T: SymmetricBanded) -> np.ndarray:
    """The symmetric tridiagonal T as a dense n x n array."""
    diag, offdiag = T.bands
    A = np.diag(np.asarray(diag, dtype=float))
    idx = np.arange(T.n - 1)
    A[idx, idx + 1] = offdiag
    A[idx + 1, idx] = offdiag
    return A


def dense_product_eigs(X_p: SymmetricBanded, X_q: SymmetricBanded) -> np.ndarray:
    """All eigenvalues of the dense nonsymmetric product X_p X_q, sorted.

    Restricted to n <= 64.  The product of two PSD matrices has real
    spectrum; a residual imaginary part above 1e-8 indicates a bad input.
    """
    if X_p.n != X_q.n:
        raise ValueError("size mismatch between factors")
    if X_p.n > DENSE_ORACLE_MAX_N:
        raise ValueError(f"dense oracle limited to n <= {DENSE_ORACLE_MAX_N}, got {X_p.n}")
    w = scipy.linalg.eig(dense_tridiagonal(X_p) @ dense_tridiagonal(X_q), right=False)
    if np.abs(w.imag).max(initial=0.0) > 1e-8:
        raise ValueError("product spectrum is not numerically real")
    return np.sort(w.real)


def ecdf_eval(values: np.ndarray, x: float) -> float:
    """Fraction of the values <= x."""
    return float(np.count_nonzero(np.asarray(values) <= x)) / len(values)
