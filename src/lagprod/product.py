"""Symmetric pentadiagonal similarity transform of the matrix product X_p X_q.

The product of two ensemble matrices is nonsymmetric, but conjugating by the
second factor symmetrizes it without changing the spectrum:

    B_q (X_p X_q) B_q^{-1} = B_q X_p B_q^T / beta =: S,

using X_q = B_q^T B_q / beta.  S has bandwidth 2 and is assembled entrywise
in O(n); no inverse of B_q is ever formed, and the spectra agree even when
B_q is singular (see :func:`product_similarity`).
"""

from __future__ import annotations

from .ensemble import BidiagonalFactor, SymmetricBanded


def product_similarity(B_q: BidiagonalFactor, X_p: SymmetricBanded) -> SymmetricBanded:
    """Assemble S = B_q X_p B_q^T / beta, sharing the spectrum of X_p X_q.

    Takes one factor and matrix, giving bands of shapes (n,), (n-1,) and
    (n-2,), or stacks of B of each, row r of one paired with row r of the
    other, giving (B, n), (B, n-1) and (B, n-2).

    The single 1/beta carries X_q's scaling convention; X_p is passed already
    scaled.  No entry of B_q needs to be positive: with A = X_p B_q^T and
    B = B_q / beta, S = BA and X_p X_q = AB, and AB and BA share their
    characteristic polynomial for any square A and B.
    """
    d, s, beta = B_q.diag, B_q.subdiag, B_q.beta
    if d.shape[-1] != X_p.n:
        raise ValueError(f"size mismatch: B_q has n={d.shape[-1]}, X_p has n={X_p.n}")
    a, b = X_p.bands

    # at n <= 2 the slices past the matrix are empty, so no size needs a branch
    diag = d * d * a
    diag[..., 1:] += 2.0 * d[..., 1:] * s * b + s * s * a[..., :-1]
    off1 = d[..., :-1] * (d[..., 1:] * b + s * a[..., :-1])
    off1[..., 1:] += s[..., :-1] * s[..., 1:] * b[..., :-1]
    off2 = d[..., :-2] * s[..., 1:] * b[..., :-1]
    return SymmetricBanded((diag / beta, off1 / beta, off2 / beta))
