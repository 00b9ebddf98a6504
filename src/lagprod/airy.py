"""Reference Tracy-Widom(beta) samples from the stochastic Airy operator.

The operator -d^2/dx^2 + x + (2/sqrt(beta)) B'(x) on [0, L] with a Dirichlet
condition at 0 is discretized on a uniform mesh of step h:

    A[k,k]   = 2/h^2 + x_k + (2/sqrt(beta)) g_k / sqrt(h),   x_k = k h,
    A[k,k+1] = -1/h^2,

with g_k i.i.d. standard normal (the integrated white noise over cell k,
scaled to unit variance).  Minus the smallest eigenvalue of A is one
Tracy-Widom(beta) sample.  The noiseless bands are built once per (h, N),
read-only, and each sample adds its noise to a copy of the diagonal; with
``noise=None``, :func:`airy_tridiagonal` gives the deterministic operator,
with ground state 2.3381... as h -> 0.

The cell noise is realized by summing a fixed micro-mesh Brownian tape, so
runs at different h (or L) from the same stream share one underlying noise
path; mesh-refinement comparisons then see pure discretization bias instead
of independent sampling noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .eig import EigConfig, tridiag_extreme_eig
from .ensemble import SymmetricBanded

# Micro-mesh used to realize the Brownian tape; each cell of width h sums
# about h/MICRO_STEP micro-increments (exactly standard normal after
# scaling, for any h).
MICRO_STEP = 0.005

DEFAULT_MESH = 0.02
DEFAULT_CUTOFF = 12.0


@dataclass(frozen=True)
class AiryDiscretization:
    """Mesh step h, domain cutoff L, and noise parameter 0 < beta < inf."""

    beta: float
    h: float = DEFAULT_MESH
    L: float = DEFAULT_CUTOFF

    def __post_init__(self):
        if not 0 < self.beta < math.inf:
            raise ValueError(f"beta must be positive and finite, got {self.beta}")
        if not 0 < self.h <= 0.1:
            raise ValueError(f"mesh step must lie in (0, 0.1], got {self.h}")
        if not math.isfinite(self.L):
            raise ValueError(f"domain cutoff must be finite, got {self.L}")
        if self.L < 8:
            raise ValueError(f"domain cutoff must be >= 8, got {self.L}")
        if self.N < 80:
            raise ValueError(f"need at least 80 mesh points, got {self.N}")

    @property
    def N(self) -> int:
        return int(round(self.L / self.h))


@lru_cache(maxsize=8)
def _noiseless_bands(h: float, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only diagonal 2/h^2 + k h and off-diagonal -1/h^2 of the noiseless operator."""
    diag = 2.0 / h**2 + np.arange(1, N + 1, dtype=float) * h
    offdiag = np.full(N - 1, -1.0 / h**2)
    diag.flags.writeable = offdiag.flags.writeable = False
    return diag, offdiag


def airy_tridiagonal(beta: float, h: float, N: int, noise: np.ndarray | None) -> SymmetricBanded:
    """Discretized operator matrix for given noise realization (None = noiseless)."""
    diag, offdiag = _noiseless_bands(h, N)
    if noise is not None:
        diag = diag + (2.0 / math.sqrt(beta)) * noise / math.sqrt(h)
    return SymmetricBanded((diag, offdiag))


def cell_noise(disc: AiryDiscretization, stream: np.random.Generator) -> np.ndarray:
    """Per-cell unit normals from the stream's micro-mesh Brownian tape.

    Cell k aggregates micro-increments mc*(k-1)..mc*k-1 of the tape, where
    mc = round(h / MICRO_STEP) (at least 1); the normalized sums are exactly
    i.i.d. standard normal for any h.
    """
    mc = max(1, int(round(disc.h / MICRO_STEP)))
    micro = stream.standard_normal(disc.N * mc)
    return micro.reshape(disc.N, mc).sum(axis=1) / math.sqrt(mc)


def sample_tw(
    disc: AiryDiscretization, stream: np.random.Generator, cfg: EigConfig | None = None
) -> float:
    """One Tracy-Widom(beta) sample: minus the smallest eigenvalue of A.

    Pure function of (disc, stream state); the smallest eigenvalue is found
    by LAPACK bisection (dstebz).
    """
    A = airy_tridiagonal(disc.beta, disc.h, disc.N, cell_noise(disc, stream))
    return -tridiag_extreme_eig(A, cfg)

