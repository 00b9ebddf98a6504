"""Extremal eigenvalue solvers for symmetric banded matrices.

Tridiagonal extremes come from LAPACK dstebz (Sturm-count bisection), called
directly, which stops once its bracket is below rel_tol times the Gershgorin
spectral diameter D; the final bracket is the certificate.  A non-finite
entry gives nan, without a LAPACK call.

The pentadiagonal largest eigenvalue uses
``lambda_max(S) = inf{x : xI - S positive definite}``, tested by whether the
banded Cholesky factorization (LAPACK dpbtrf) of xI - S succeeds.  The top
eigenvector of a product matrix S lives in its leading O(n^(1/3)) rows (the
soft edge), so the solver first takes the top eigenvalue theta of the leading
k x k block (LAPACK dsbevx) and certifies it with two factorizations at
h = rel_tol * D / 2: the block of (theta - h)I - S must fail, and the full
(theta + h)I - S must succeed.  If either test fails, k doubles; at k = n
the solver bisects the Gershgorin interval of the full matrix instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpbtrf, dsbevx, dstebz

from .ensemble import SymmetricTridiagonal
from .product import SymmetricPentadiagonal

# leading block of the edge solve: ceil(EDGE_ROWS * n^(1/3)) rows, at least
# EDGE_ROWS grid scales m_n < n^(1/3) of the product statistic
EDGE_ROWS = 10

EPS = np.finfo(float).eps


@dataclass(frozen=True)
class EigConfig:
    """Tolerance for the eigenvalue solvers.

    ``rel_tol`` is relative to the Gershgorin spectral diameter D of the
    matrix: a tridiagonal extreme lies within rel_tol * D of the true one,
    and the pentadiagonal largest eigenvalue within rel_tol * D / 2 (both up
    to floating-point rounding of order n * eps times the matrix 1-norm).
    """

    rel_tol: float = 1e-10

    def __post_init__(self):
        if not 0.0 < self.rel_tol <= 1e-2:
            raise ValueError(f"rel_tol must lie in (0, 1e-2], got {self.rel_tol}")


def gershgorin_bounds(diag: np.ndarray, *offdiags: np.ndarray) -> tuple[float, float]:
    """Enclosing interval [lo, hi] for the spectrum of the symmetric banded
    matrix with main diagonal ``diag`` and k-th off-diagonals ``offdiags[k-1]``."""
    r = np.zeros(len(diag))
    for k, band in enumerate(offdiags, start=1):
        a = np.abs(band)
        r[:-k] += a
        r[k:] += a
    return float((diag - r).min()), float((diag + r).max())


def tridiag_extreme_eig(T: SymmetricTridiagonal, which: str, cfg: EigConfig | None = None) -> float:
    """Smallest or largest eigenvalue of T by LAPACK Sturm bisection (dstebz).

    ``which`` is "smallest" or "largest".  The absolute error is at most
    rel_tol times the Gershgorin spectral diameter of T; nan if T has a
    non-finite entry.
    """
    if which not in ("smallest", "largest"):
        raise ValueError(f'which must be "smallest" or "largest", got {which!r}')
    cfg = cfg or EigConfig()
    m = float(np.maximum(np.abs(T.diag).max(), np.abs(T.offdiag).max(initial=0.0)))  # keeps nan
    if not math.isfinite(m):
        return math.nan
    if T.n == 1:  # dstebz takes no empty off-diagonal
        return float(T.diag[0])
    # dstebz squares the off-diagonal; dividing by a power of two near the
    # largest entry (exact) keeps those squares from underflowing to zero
    s = math.ldexp(1.0, math.frexp(m)[1]) if m > 0 else 1.0
    diag, offdiag = T.diag / s, T.offdiag / s
    lo, hi = gershgorin_bounds(diag, offdiag)
    k = 1 if which == "smallest" else T.n
    # a zero diameter (T = cI) gives tol = 0, for which dstebz uses ulp * ||T||_1
    _, w, _, _, info = dstebz(diag, offdiag, 2, 0.0, 0.0, k, k, cfg.rel_tol * (hi - lo), "E")
    if info != 0:
        raise np.linalg.LinAlgError(f"dstebz failed with info={info}")
    return s * float(w[0])


def banded_largest_eig(S: SymmetricPentadiagonal, cfg: EigConfig | None = None) -> float:
    """Largest eigenvalue of a symmetric pentadiagonal matrix.

    With [lo, hi] the Gershgorin interval of S and h = rel_tol * (hi - lo) / 2,
    the edge solve takes the top eigenvalue theta of the leading k x k block
    S_k, starting at k = ceil(EDGE_ROWS * n^(1/3)), and returns it once
    (theta - h)I - S_k fails to factor (so lambda_max(S) >= lambda_max(S_k) >=
    theta - h, by interlacing) and (theta + h)I - S factors (so
    lambda_max(S) < theta + h); otherwise k doubles.  Once k >= n, or when h
    is below the rounding n * eps * max(|lo|, |hi|) of the factorizations,
    it bisects [lo, hi] on whether xI - S factors: ceil(log2(1/rel_tol))
    halvings bring the bracket below 2h, and its midpoint is returned.
    Either way the value is within h of lambda_max(S).  Cholesky is backward
    stable, so the certificate holds up to rounding of order
    n * eps * ||S||_1.
    """
    cfg = cfg or EigConfig()
    n = S.n
    lo, hi = gershgorin_bounds(S.diag, S.off1, S.off2)
    h = 0.5 * cfg.rel_tol * (hi - lo)
    # lower band storage of xI - S: row 0 diagonal, rows 1-2 sub-diagonals;
    # its first k columns hold the leading k x k block
    ab = np.zeros((3, n))
    ab[1, :-1] = -S.off1
    ab[2, :-2] = -S.off2

    def factors(x: float, k: int) -> bool:
        ab[0, :k] = x - S.diag[:k]
        return dpbtrf(ab[:, :k], lower=1)[1] == 0

    k = math.ceil(EDGE_ROWS * n ** (1 / 3))
    while k < n and h > n * EPS * max(abs(lo), abs(hi)):
        # at x = 0 the block is -S_k, whose smallest eigenvalue is -lambda_max(S_k)
        ab[0, :k] = -S.diag[:k]
        w = dsbevx(ab[:, :k], 0.0, 0.0, 1, 1, compute_v=0, range=2, lower=1, overwrite_ab=0)[0]
        theta = -float(w[0])
        if not factors(theta - h, k) and factors(theta + h, n):
            return theta
        k *= 2
    for _ in range(math.ceil(-math.log2(cfg.rel_tol))):
        mid = 0.5 * (lo + hi)
        if factors(mid, n):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
