"""Dense reference computations that the tests check the banded code against,
and the linear-response oracle of the product's edge (:func:`linear_response`)."""

import math
from functools import cache

import numpy as np
import scipy.linalg
from scipy.special import gammaln

from lagprod.airy import _noiseless_bands
from lagprod.ensemble import BidiagonalFactor, SymmetricBanded, laguerre_matrix
from lagprod.product import product_similarity
from lagprod.scaling import coupled_scaling

DENSE_ORACLE_MAX_N = 64
EPS = np.finfo(float).eps


def dense_bidiagonal(B: BidiagonalFactor) -> np.ndarray:
    """The lower-bidiagonal factor B as a dense n x n array."""
    n = len(B.diag)
    A = np.zeros((n, n))
    np.fill_diagonal(A, B.diag)
    A[np.arange(1, n), np.arange(n - 1)] = B.subdiag
    return A


def stack(matrices) -> SymmetricBanded:
    """One SymmetricBanded stacking the given matrices' bands along a leading axis."""
    return SymmetricBanded(tuple(np.array(bands) for bands in zip(*(S.bands for S in matrices))))


def row(S: SymmetricBanded, i: int = 0) -> SymmetricBanded:
    """Matrix i of the stack S, as one matrix."""
    return SymmetricBanded(tuple(band[i] for band in S.bands))


def dense_tridiagonal(T: SymmetricBanded) -> np.ndarray:
    """The symmetric tridiagonal T as a dense n x n array."""
    diag, offdiag = T.bands
    A = np.diag(np.asarray(diag, dtype=float))
    idx = np.arange(T.n - 1)
    A[idx, idx + 1] = offdiag
    A[idx + 1, idx] = offdiag
    return A


def allowed_error(A: np.ndarray, rel_tol: float) -> float:
    """Solver certificate rel_tol * Gershgorin diameter, plus 4 n eps ||A||_1 of rounding
    and n subnormal units of underflow (a matrix of subnormal entries).

    Computed from the dense matrix A, independently of the solvers' own bounds.
    """
    d = np.diag(A)
    r = np.abs(A).sum(axis=1) - np.abs(d)
    diameter = (d + r).max() - (d - r).min()
    rounding = 4 * len(A) * EPS * np.abs(A).sum(axis=0).max() + len(A) * np.finfo(float).smallest_subnormal
    return rel_tol * diameter + rounding


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


def airy_ground_state(h: float, N: int) -> np.ndarray:
    """Unit eigenvector of the noiseless Airy operator's smallest eigenvalue, by scipy's wrapper."""
    return scipy.linalg.eigh_tridiagonal(*_noiseless_bands(h, N), select="i", select_range=(0, 0))[1][:, 0]


def ecdf_eval(values: np.ndarray, x: float) -> float:
    """Fraction of the values <= x."""
    return float(np.count_nonzero(np.asarray(values) <= x)) / len(values)


def chi_mean(alpha):
    """E chi_alpha elementwise, from the gamma-function ratio (0 at alpha = 0)."""
    alpha = np.asarray(alpha, dtype=float)
    out = np.zeros_like(alpha)
    pos = alpha > 0
    a = alpha[pos]
    out[pos] = np.sqrt(2.0) * np.exp(gammaln((a + 1) / 2) - gammaln(a / 2))
    return out


def chi_var(alpha):
    """Var chi_alpha = alpha - (E chi_alpha)^2 elementwise, for alpha > 0; above 1e4, where that
    difference cancels, its series 1/2 - 1/(8 alpha) - 1/(16 alpha^2)."""
    alpha = np.asarray(alpha, dtype=float)
    return np.where(alpha > 1e4, 0.5 - 1 / (8 * alpha) - 1 / (16 * alpha**2), alpha - chi_mean(alpha) ** 2)


@cache
def airy_quartic_moment() -> float:
    """4 int psi^4 over [0, inf), psi(x) = Ai(x + a_1) / |Ai'(a_1)| the unit ground state of
    -d^2/dx^2 + x on the half-line; to first order in 1/beta, Var TW_beta = 4 int psi^4 / beta."""
    from scipy.integrate import quad
    from scipy.special import ai_zeros, airy

    a1, _, _, slope = (z[0] for z in ai_zeros(1))
    return 4 * quad(lambda x: airy(x + a1)[0] ** 4, 0, np.inf, epsabs=0, epsrel=1e-12)[0] / slope**4


def linear_response(n: int, p: int, q: int, beta: float) -> tuple[float, float]:
    """The product statistic's linear-response beta0, and T, at the chi means of both factors.

    Every chi entry sits at its mean.  lambda and its unit eigenvector v are the top
    eigenpair of the leading K x K block of S, K = min(n - 1, ceil(40 m_n)), built from
    factors of K + 1 rows so that X_p[K-1, K-1] keeps its subdiagonal term.  By
    Hellmann-Feynman, with u = B_q^T v and w = B_p u, d lambda / d(B_p)_ij = 2 w_i u_j / beta^2
    and d lambda / d(B_q)_ij = 2 v_i (X_p u)_j / beta over the bidiagonal entries, so to
    first order Var T = sum_e (d lambda / d chi_e)^2 Var chi_e / stat_denom^2, and
    beta0 = 4 int psi^4 / Var T (:func:`airy_quartic_moment`).  T = (lambda - mu_n) / stat_denom.

    At beta = inf the entries are sqrt(alpha), the limit of chi_(beta a) / sqrt(beta): T is
    the deterministic T_inf(n), and beta0 is inf.
    """
    sc = coupled_scaling(n, p, q, 1.0)  # every constant but beta0 is free of beta
    K = min(n - 1, math.ceil(40 * sc.m_n))
    finite = math.isfinite(beta)
    b = beta if finite else 1.0

    def factor(kappa):
        # the chi parameters of the diagonal's and the subdiagonal's first K + 1 rows
        alpha = b * (kappa - np.arange(K + 1)), b * (n - 1 - np.arange(K))
        diag, subdiag = (chi_mean(a) if finite else np.sqrt(a) for a in alpha)
        return BidiagonalFactor(beta=b, diag=diag, subdiag=subdiag), alpha

    (B_p, alpha_p), (B_q, alpha_q) = factor(p), factor(q)
    X_p = laguerre_matrix(B_p)
    S = product_similarity(B_q, X_p)
    lower = np.array([np.pad(band[:K - k], (0, k)) for k, band in enumerate(S.bands)])
    (lam,), vec = scipy.linalg.eig_banded(lower, lower=True, select="i", select_range=(K - 1, K - 1))
    T = (lam - sc.mu_n) / sc.stat_denom
    if not finite:
        return math.inf, T
    v = np.append(vec[:, 0], 0.0)  # row K of the factors is outside the block
    u = B_q.diag * v
    u[:-1] += B_q.subdiag * v[1:]
    w = B_p.diag * u
    w[1:] += B_p.subdiag * u[:-1]
    a, off = X_p.bands
    Xu = a * u
    Xu[:-1] += off * u[1:]
    Xu[1:] += off * u[:-1]
    # diagonal, then subdiagonal entries (i+1, i), of B_p, then of B_q
    grads = 2 * w * u / b**2, 2 * w[1:] * u[:-1] / b**2, 2 * v * Xu / b, 2 * v[1:] * Xu[:-1] / b
    var_lam = sum(g**2 @ chi_var(al) for g, al in zip(grads, (*alpha_p, *alpha_q)))
    return airy_quartic_moment() * sc.stat_denom**2 / var_lam, T
