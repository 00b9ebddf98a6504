"""Symmetric pentadiagonal similarity transform of the matrix product X_p X_q.

The product of two ensemble matrices is nonsymmetric, but conjugating by the
second factor symmetrizes it without changing the spectrum:

    B_q (X_p X_q) B_q^{-1} = B_q X_p B_q^T / beta =: S,

using X_q = B_q^T B_q / beta.  S has bandwidth 2 and is assembled entrywise
in O(n); no inverse of B_q is ever formed, and the spectra agree even when
B_q is singular (see :func:`product_similarity`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensemble import BidiagonalFactor, SymmetricTridiagonal


@dataclass(frozen=True)
class SymmetricPentadiagonal:
    """Symmetric matrix with bands at offsets 0, 1, 2."""

    diag: np.ndarray
    off1: np.ndarray
    off2: np.ndarray

    def __post_init__(self):
        n = len(self.diag)
        if len(self.off1) != max(n - 1, 0) or len(self.off2) != max(n - 2, 0):
            raise ValueError("band lengths must be n, n-1, n-2")

    @property
    def n(self) -> int:
        return len(self.diag)

    def dense(self) -> np.ndarray:
        A = np.diag(np.asarray(self.diag, dtype=float))
        for off, band in ((1, self.off1), (2, self.off2)):
            idx = np.arange(self.n - off)
            A[idx, idx + off] = band
            A[idx + off, idx] = band
        return A

    def one_norm(self) -> float:
        """Max column absolute sum, from the bands."""
        col = np.abs(self.diag).copy()
        for off, band in ((1, self.off1), (2, self.off2)):
            a = np.abs(band)
            col[:-off] += a
            col[off:] += a
        return float(col.max()) if self.n else 0.0


def product_similarity(B_q: BidiagonalFactor, X_p: SymmetricTridiagonal) -> SymmetricPentadiagonal:
    """Assemble S = B_q X_p B_q^T / beta, sharing the spectrum of X_p X_q.

    The single 1/beta carries X_q's scaling convention; X_p is passed already
    scaled.  No entry of B_q needs to be positive: with A = X_p B_q^T and
    B = B_q / beta, S = BA and X_p X_q = AB, and AB and BA share their
    characteristic polynomial for any square A and B.
    """
    n = B_q.n
    if X_p.n != n:
        raise ValueError(f"size mismatch: B_q has n={n}, X_p has n={X_p.n}")
    d, s = B_q.diag, B_q.subdiag
    a, b = X_p.diag, X_p.offdiag
    beta = B_q.beta

    diag = d * d * a
    if n > 1:
        diag[1:] += 2.0 * d[1:] * s * b + s * s * a[:-1]
    off1 = d[:-1] * (d[1:] * b + s * a[:-1])
    if n > 2:
        off1[1:] += s[:-1] * s[1:] * b[:-1]
    off2 = d[:-2] * s[1:] * b[:-1] if n > 2 else np.zeros(max(n - 2, 0))
    return SymmetricPentadiagonal(diag=diag / beta, off1=off1 / beta, off2=off2 / beta)
