"""Reference Tracy-Widom(beta) samples from the stochastic Airy operator.

The operator -d^2/dx^2 + x + (2/sqrt(beta)) B'(x) on [0, L] with a Dirichlet
condition at 0 is discretized on a uniform mesh of step h:

    A[k,k]   = 2/h^2 + x_k + (2/sqrt(beta)) g_k / sqrt(h),   x_k = k h,
    A[k,k+1] = -1/h^2,

with g_k i.i.d. standard normal (the integrated white noise over cell k,
scaled to unit variance).  Minus the smallest eigenvalue of A is one
Tracy-Widom(beta) sample; samples from several streams are drawn as one
stack of matrices along a leading axis.  The noiseless bands (the
deterministic operator, with ground state 2.3381... as h -> 0) are built
once per (h, N), read-only, and each sample adds its noise to a copy of the
diagonal.  That operator's ground-state eigenvector is also computed once
per (h, N), read-only: every sample's solve starts from it, so dstebz
bisects only a window around the noisy ground state (see
:func:`lagprod.eig.tridiag_extreme_eig`).

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
from scipy.linalg import eigh_tridiagonal

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

    @property
    def mc(self) -> int:
        """Micro-increments per cell: round(h / MICRO_STEP), at least 1."""
        return max(1, int(round(self.h / MICRO_STEP)))


@lru_cache(maxsize=8)
def _noiseless_bands(h: float, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only diagonal 2/h^2 + k h and off-diagonal -1/h^2 of the noiseless operator."""
    diag = 2.0 / h**2 + np.arange(1, N + 1, dtype=float) * h
    offdiag = np.full(N - 1, -1.0 / h**2)
    diag.flags.writeable = offdiag.flags.writeable = False
    return diag, offdiag


@lru_cache(maxsize=8)
def _ground_state(h: float, N: int) -> np.ndarray:
    """Read-only unit eigenvector of the noiseless operator's smallest eigenvalue."""
    vector = eigh_tridiagonal(*_noiseless_bands(h, N), select="i", select_range=(0, 0))[1][:, 0]
    vector.flags.writeable = False
    return vector


def airy_tridiagonal(beta: float, h: float, N: int, noise: np.ndarray) -> SymmetricBanded:
    """Discretized operator matrix for the given per-cell noise realization.

    ``noise`` of shape (N,) gives one matrix; (B, N) gives a stack of B, whose
    rows share one read-only off-diagonal.
    """
    diag, offdiag = _noiseless_bands(h, N)
    if np.ndim(noise) > 1:
        offdiag = np.broadcast_to(offdiag, (len(noise), N - 1))
    return SymmetricBanded((diag + (2.0 / math.sqrt(beta)) * noise / math.sqrt(h), offdiag))


def cell_noise(disc: AiryDiscretization, streams) -> np.ndarray:
    """Per-cell unit normals from each stream's micro-mesh Brownian tape.

    ``streams`` is one generator, giving shape (N,), or a sequence of B
    generators, giving (B, N), row b drawn from stream b alone.  Cell k
    aggregates micro-increments mc*(k-1)..mc*k-1 of the tape, where
    mc = :attr:`AiryDiscretization.mc`; the normalized sums are exactly
    i.i.d. standard normal for any h.
    """
    mc = disc.mc
    single = isinstance(streams, np.random.Generator)
    if single:
        streams = [streams]
    micro = np.empty((len(streams), disc.N * mc))
    for row, stream in zip(micro, streams):
        stream.standard_normal(out=row)
    noise = micro.reshape(len(streams), disc.N, mc).sum(axis=-1) / math.sqrt(mc)
    return noise[0] if single else noise


def sample_tw(disc: AiryDiscretization, streams, cfg: EigConfig | None = None):
    """Tracy-Widom(beta) samples: minus the smallest eigenvalue of A.

    One sample (a float) from one generator, or an array of B samples from a
    sequence of B generators, sample b a pure function of (disc, the state
    of stream b).  The smallest eigenvalue is found by LAPACK bisection
    (dstebz), within rel_tol * D / 2 of the true one, over a window
    certified from the noiseless ground state (nan if the window holds no
    eigenvalue).
    """
    A = airy_tridiagonal(disc.beta, disc.h, disc.N, cell_noise(disc, streams))
    return -tridiag_extreme_eig(A, cfg, _ground_state(disc.h, disc.N))
