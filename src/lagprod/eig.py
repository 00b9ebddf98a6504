"""Extremal eigenvalue solvers for symmetric banded matrices.

Both solvers are bisections that start from the Gershgorin bounds and stop
once the bracket is below rel_tol times the Gershgorin spectral diameter; the
final bracket is the certificate.  Tridiagonal extremes come from LAPACK
dstebz (Sturm-count bisection).  The pentadiagonal largest eigenvalue uses
``lambda_max(S) = inf{x : xI - S positive definite}`` and bisects on whether
the banded Cholesky factorization (LAPACK dpbtrf) of xI - S succeeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dpbtrf

from .ensemble import SymmetricTridiagonal
from .product import SymmetricPentadiagonal


@dataclass(frozen=True)
class EigConfig:
    """Tolerance for the eigenvalue solvers.

    ``rel_tol`` is relative to the Gershgorin spectral diameter D of the
    matrix: every returned eigenvalue lies within rel_tol * D of the true one
    (up to floating-point rounding of order n * eps times the matrix 1-norm).
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


def tridiag_extreme_eig(
    T: SymmetricTridiagonal, which: str, cfg: EigConfig | None = None
) -> float:
    """Smallest or largest eigenvalue of T by LAPACK Sturm bisection (dstebz).

    ``which`` is "smallest" or "largest".  The absolute error is at most
    rel_tol times the Gershgorin spectral diameter of T.
    """
    if which not in ("smallest", "largest"):
        raise ValueError(f'which must be "smallest" or "largest", got {which!r}')
    cfg = cfg or EigConfig()
    # dstebz squares the off-diagonal; dividing by a power of two near the
    # largest entry (exact) keeps those squares from underflowing to zero
    m = max(float(np.abs(T.diag).max()), float(np.abs(T.offdiag).max(initial=0.0)))
    s = math.ldexp(1.0, math.frexp(m)[1]) if m > 0 else 1.0
    diag, offdiag = T.diag / s, T.offdiag / s
    lo, hi = gershgorin_bounds(diag, offdiag)
    k = 0 if which == "smallest" else T.n - 1
    # a zero diameter (T = cI) gives tol = 0, for which scipy uses eps * ||T||_1
    w = scipy.linalg.eigvalsh_tridiagonal(
        diag, offdiag, select="i", select_range=(k, k), tol=cfg.rel_tol * (hi - lo)
    )
    return s * float(w[0])


def banded_largest_eig(S: SymmetricPentadiagonal, cfg: EigConfig | None = None) -> float:
    """Largest eigenvalue of a symmetric pentadiagonal matrix.

    Bisects the Gershgorin interval [lo, hi] on whether xI - S has a banded
    Cholesky factorization, i.e. whether x lies above lambda_max(S).  Each
    step halves the bracket, so ceil(log2(1/rel_tol)) steps bring it below
    rel_tol * (hi - lo); the midpoint of the final bracket is returned.
    Cholesky is backward stable, so the certificate holds up to rounding of
    order n * eps * ||S||_1.
    """
    cfg = cfg or EigConfig()
    lo, hi = gershgorin_bounds(S.diag, S.off1, S.off2)
    # lower band storage of xI - S: row 0 diagonal, rows 1-2 sub-diagonals
    ab = np.zeros((3, S.n))
    ab[1, :-1] = -S.off1
    ab[2, :-2] = -S.off2
    for _ in range(math.ceil(-math.log2(cfg.rel_tol))):
        mid = 0.5 * (lo + hi)
        ab[0] = mid - S.diag
        _, info = dpbtrf(ab, lower=1)
        if info == 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
