"""Tridiagonal beta-Laguerre matrices built from bidiagonal chi factors.

A factor B is lower bidiagonal with independent chi entries
``diag[j] ~ chi_{beta*(kappa-j+1)}`` (j = 1..n) and
``subdiag[j] ~ chi_{beta*(n-j)}`` (j = 1..n-1).  That law is an
:class:`EnsembleParams`; a :class:`BidiagonalFactor` holds only the entries
and beta.  The ensemble matrix X = B^T B / beta is symmetric tridiagonal and
positive semidefinite; the 1/beta makes (sqrt(n)+sqrt(kappa))^2 the correct
centering for its largest eigenvalue.  X is a :class:`SymmetricBanded`, the
band type of every matrix model here, read by the solvers and the potential path.

Factors and band matrices stack along a leading axis: a factor's entries,
and each band, are either 1-D (one matrix) or 2-D with one row per matrix,
and every function here works row by row with the same floating-point
operations, so a row's values do not depend on the rest of its stack.
The solvers of :mod:`lagprod.eig` take only stacks; the one-matrix forms
serve the benchmark's dense-oracle gate, which rebuilds single replicates.
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
    """Realized chi entries of one lower-bidiagonal factor, or of a stack of them, and their beta.

    ``diag`` has shape (n,) and ``subdiag`` (n-1,), or (B, n) and (B, n-1)
    for a stack of B factors."""

    beta: float
    diag: np.ndarray
    subdiag: np.ndarray

    def __post_init__(self):
        if self.subdiag.shape[-1] != self.diag.shape[-1] - 1:
            raise ValueError("a factor has one subdiagonal entry fewer than diagonal entries")


@dataclass(frozen=True)
class SymmetricBanded:
    """Symmetric band matrix stored as its main diagonal, then off-diagonals 1..kd.

    Band k has shape (n-k,) for one matrix, or (B, n-k) for a stack of B
    matrices, one per row.  The solvers take a stack; :meth:`dense` and
    :meth:`one_norm` take one matrix, for the benchmark's dense-oracle gate.
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


def sample_bidiagonal(params: EnsembleParams, streams) -> BidiagonalFactor:
    """Draw one bidiagonal factor from one generator, or a stack of B from a sequence of B.

    Tape discipline (tape 2): each generator fills its row with all n diagonal
    entries in order, then all n-1 subdiagonal entries, in one vectorized
    :func:`lagprod.variates.chi` draw.  The entries are independent, so the
    order does not affect the law.
    """
    n, kappa, beta = params.n, params.kappa, params.beta
    alpha = _chi_params(n, kappa, beta)
    single = isinstance(streams, np.random.Generator)
    x = np.empty((1 if single else len(streams), 2 * n - 1))
    for row, stream in zip(x, [streams] if single else streams):
        chi(stream, alpha, out=row)
    x = x[0] if single else x
    return BidiagonalFactor(beta=beta, diag=x[..., :n], subdiag=x[..., n:])


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


def potential_path(X: SymmetricBanded, scaling) -> np.ndarray:
    """Realized potential path y_1(x) + y_2(x) of one Laguerre matrix X, or of a stack.

    Returns its values at x_k = k/m (k = 1..n-1), shape (n-1,) for one matrix
    and (B, n-1) for a stack of B: the cumulative sums of the diagonal
    deviations ``(n + i) - X[j,j]`` plus the off-diagonal deviations
    ``2(sqrt(n i) - X[j,j+1])``, scaled by m/sqrt(n i).  Their empirical mean
    approaches x^2/2 as n grows; the noise about it, Brownian motion scaled by 2/sqrt(beta).

    ``scaling`` is the single-matrix constants record of the (n, i) that X
    was drawn with; see :func:`lagprod.scaling.single_scaling`.
    """
    diag, offdiag = X.bands
    return np.cumsum(scaling.mu - (diag[..., :-1] + 2.0 * offdiag), axis=-1) * (
        scaling.m / np.sqrt(float(scaling.n) * float(scaling.i)))
