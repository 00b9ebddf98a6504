"""Tridiagonal beta-Laguerre matrices built from bidiagonal chi factors.

A factor B is lower bidiagonal with independent chi entries
``diag[j] ~ chi_{beta*(kappa-j+1)}`` (j = 1..n) and
``subdiag[j] ~ chi_{beta*(n-j)}`` (j = 1..n-1).  The ensemble matrix is the
scaled Gram matrix X = B^T B / beta, which is symmetric tridiagonal and
positive semidefinite; the 1/beta makes (sqrt(n)+sqrt(kappa))^2 the correct
centering for its largest eigenvalue.  It is stored as a
:class:`SymmetricBanded`, the band type of every matrix model here.

Factors and band matrices stack along a leading axis: a factor's entries,
and each band, are either 1-D (one matrix) or 2-D with one row per matrix,
and every function here works row by row with the same floating-point
operations, so a row's values do not depend on the rest of its stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .variates import chi


@dataclass(frozen=True)
class EnsembleParams:
    """Size n, chi ladder parameter kappa >= n, and inverse-temperature beta > 0."""

    n: int
    kappa: int
    beta: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.kappa < self.n:
            raise ValueError(f"kappa must be >= n, got kappa={self.kappa}, n={self.n}")
        if not self.beta > 0:
            raise ValueError(f"beta must be positive, got {self.beta}")


@dataclass(frozen=True)
class BidiagonalFactor:
    """Realized chi entries of one lower-bidiagonal factor, or of a stack of them.

    ``diag`` has shape (n,) and ``subdiag`` (n-1,), or (B, n) and (B, n-1)
    for a stack of B factors sharing (n, kappa, beta)."""

    n: int
    kappa: int
    beta: float
    diag: np.ndarray
    subdiag: np.ndarray

    def __post_init__(self):
        if self.diag.shape[-1] != self.n or self.subdiag.shape[-1] != self.n - 1:
            raise ValueError("factor entry lengths do not match n")


@dataclass(frozen=True)
class SymmetricBanded:
    """Symmetric band matrix stored as its main diagonal, then off-diagonals 1..kd.

    Band k has shape (n-k,) for one matrix, or (B, n-k) for a stack of B
    matrices, one per row.  :meth:`dense` and :meth:`one_norm` take one matrix.
    """

    bands: tuple[np.ndarray, ...]

    def __post_init__(self):
        shapes = [b.shape for b in self.bands]
        *stack, n = shapes[0]
        if shapes != [(*stack, max(n - k, 0)) for k in range(len(shapes))]:
            raise ValueError("band lengths must be n, n-1, ..., n-kd, in stacks of one length")

    @property
    def n(self) -> int:
        return self.bands[0].shape[-1]

    def dense(self) -> np.ndarray:
        A = np.diag(np.asarray(self.bands[0], dtype=float))
        for off, band in enumerate(self.bands[1:], start=1):
            idx = np.arange(len(band))
            A[idx, idx + off] = band
            A[idx + off, idx] = band
        return A

    def one_norm(self) -> float:
        """Max column absolute sum, from the bands."""
        col = np.abs(self.bands[0])
        for off, band in enumerate(self.bands[1:], start=1):
            a = np.abs(band)
            col[: len(a)] += a
            col[off:] += a
        return float(col.max()) if self.n else 0.0


@lru_cache(maxsize=8)
def _chi_params(n: int, kappa: int, beta: float) -> np.ndarray:
    """Read-only chi parameters of one factor: the diagonal's, then the subdiagonal's."""
    alpha = beta * np.concatenate([kappa - np.arange(n), n - 1 - np.arange(n - 1)])
    alpha.flags.writeable = False
    return alpha


def sample_bidiagonal(params: EnsembleParams, stream: np.random.Generator) -> BidiagonalFactor:
    """Draw one bidiagonal factor from its own generator.

    Tape discipline (tape 2): all n diagonal entries in order, then all n-1
    subdiagonal entries, in one vectorized chi draw that fills them in that
    order.  The entries are independent, so the order does not affect the law.
    """
    n, kappa, beta = params.n, params.kappa, params.beta
    x = chi(stream, _chi_params(n, kappa, beta))
    return BidiagonalFactor(n=n, kappa=kappa, beta=beta, diag=x[:n], subdiag=x[n:])


def laguerre_matrix(factor: BidiagonalFactor) -> SymmetricBanded:
    """Form X = B^T B / beta without densifying, for one factor or a stack.

    Bands (n,) and (n-1,) for one factor, (B, n) and (B, n-1) for a stack of B.
    Entrywise, ``X[j,j] = (diag[j]^2 + subdiag[j]^2)/beta`` (the last
    subdiagonal term is the degenerate chi_0 = 0, never a sampled value) and
    ``X[j,j+1] = diag[j+1]*subdiag[j]/beta``.
    """
    d, s, beta = factor.diag, factor.subdiag, factor.beta
    diag = d * d
    diag[..., :-1] += s * s
    off = d[..., 1:] * s
    return SymmetricBanded((diag / beta, off / beta))


def potential_path(factor: BidiagonalFactor, scaling) -> np.ndarray:
    """Realized potential path y_1(x) + y_2(x) of one sampled matrix, or of a stack.

    Returns its values at x_k = k/m (k = 1..n-1), shape (n-1,) for one factor
    and (B, n-1) for a stack of B; each is the cumulative sum of
    the diagonal deviations ``(n + i) - beta^{-1}(chi^2 + chi~^2)`` plus the
    off-diagonal deviations ``2(sqrt(n i) - beta^{-1} chi chi~)``, scaled by
    m/sqrt(n i).  Its empirical mean approaches x^2/2 as n grows; the noise
    about the mean approaches Brownian motion scaled by 2/sqrt(beta).

    ``scaling`` is the single-matrix constants record for the same (n, i);
    see :func:`lagprod.scaling.single_scaling`.
    """
    if scaling.n != factor.n or scaling.i != factor.kappa:
        raise ValueError(
            f"scaling record (n={scaling.n}, i={scaling.i}) does not match "
            f"factor (n={factor.n}, kappa={factor.kappa})"
        )
    n, i = factor.n, factor.kappa
    diag, offdiag = laguerre_matrix(factor).bands
    terms = scaling.mu - (diag[..., :-1] + 2.0 * offdiag)
    return np.cumsum(terms, axis=-1) * (scaling.m / np.sqrt(float(n) * float(i)))
