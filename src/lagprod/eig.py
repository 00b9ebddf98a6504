"""Extremal eigenvalue solvers for symmetric banded matrices.

The largest eigenvalue of a Laguerre matrix (bandwidth 1) or a product
matrix (bandwidth 2) uses ``lambda_max(S) = inf{x : xI - S positive
definite}``, tested by whether the banded Cholesky factorization (LAPACK
dpbtrf) of xI - S succeeds.  The top eigenvector of either lives in its
leading O(n^(1/3)) rows (the soft edge), so the solver first takes the top
eigenvalue theta of the leading k x k block (LAPACK dsbevx) and certifies it
with two factorizations at h = rel_tol * D / 2, with D the Gershgorin
spectral diameter: the block of (theta - h)I - S must fail, and the full
(theta + h)I - S must succeed.  If either test fails, k doubles; at k = n
the solver bisects the Gershgorin interval of the full matrix instead.

The smallest eigenvalue of the stochastic Airy matrix, whose ground state
spans most of the mesh, comes from LAPACK dstebz (Sturm-count bisection),
called directly over a value window around lambda_min, each end of it
certified by inertia (Parlett, The Symmetric Eigenvalue Problem, section 3)
from a start vector near the ground state.  dstebz stops once its bracket
is below rel_tol * D and returns the bracket's midpoint, so this value too
lies within rel_tol * D / 2 of the true one: every solver has that bound.

Either solver gives nan for a matrix with a non-finite entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpbtrf, dpttrf, dsbevx, dstebz

from .ensemble import SymmetricBanded

# leading block of the edge solve: ceil(EDGE_ROWS * n^(1/3)) rows, at least
# EDGE_ROWS grid scales (m < n^(1/3) for either statistic, single or product)
EDGE_ROWS = 10

EPS = np.finfo(float).eps

# the ground-state window tries its lower end 1/WINDOW_STEP of the way from
# the start vector's Rayleigh quotient down to the Gershgorin bound
WINDOW_STEP = 32


@dataclass(frozen=True)
class EigConfig:
    """Tolerance for the eigenvalue solvers.

    ``rel_tol`` is relative to the Gershgorin spectral diameter D of the
    matrix: a largest eigenvalue (Laguerre or product) and the Airy smallest
    eigenvalue each lie within rel_tol * D / 2 of the true one (up to
    floating-point rounding of order n * eps times the matrix 1-norm).
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


def tridiag_extreme_eig(T: SymmetricBanded, cfg: EigConfig | None, start: np.ndarray) -> float:
    """Smallest eigenvalue of the tridiagonal T by LAPACK Sturm bisection (dstebz).

    dstebz bisects only the window of :func:`_ground_window`, built from the
    unit vector ``start``, until each bracket is narrower than rel_tol times
    the Gershgorin spectral diameter D of T, and returns the midpoint of the
    lowest one: within rel_tol * D / 2 of the true eigenvalue.  It resolves
    every eigenvalue in the window, so pass a start near the ground state.
    A non-finite entry, or a window holding no eigenvalue, gives nan.  Only
    the Airy sampler calls this; the name is the one ``benchmark/runner.py``
    traces.
    """
    cfg = cfg or EigConfig()
    diag, offdiag = T.bands
    lo, hi = gershgorin_bounds(diag, offdiag)
    if not math.isfinite(hi - lo):  # a non-finite entry
        return math.nan
    if lo == hi:  # T = cI, n = 1 included (dstebz takes no empty off-diagonal)
        return lo
    # dstebz squares the off-diagonal; dividing by the power of two just
    # above max(-lo, hi) >= every |entry| (exact) keeps those squares from
    # underflowing to zero
    s = math.ldexp(1.0, math.frexp(max(-lo, hi))[1])
    diag, offdiag, lo, hi = diag / s, offdiag / s, lo / s, hi / s
    vl, vu = _ground_window(diag, offdiag, start, lo, hi)
    if not vl < vu:  # dstebz rejects an empty window (and prints so); a nan start gives one
        return math.nan
    count, w, _, _, info = dstebz(diag, offdiag, 1, vl, vu, 0, 0, cfg.rel_tol * (hi - lo), "E")
    return s * float(w[0]) if count and info == 0 else math.nan


def _ground_window(
    diag: np.ndarray, offdiag: np.ndarray, start: np.ndarray, lo: float, hi: float
) -> tuple[float, float]:
    """Window (vl, vu] holding lambda_min of the tridiagonal with Gershgorin bounds [lo, hi].

    The Rayleigh quotient rho of the unit vector ``start`` bounds lambda_min
    from above.  At sigma = rho - (rho - lo) / WINDOW_STEP, a successful
    LDL^T factorization (LAPACK dpttrf) of T - sigma I proves
    lambda_min > sigma; a failed one proves lambda_min <= sigma, and lo is
    the lower end instead.  Each end is widened by 4 n eps ||T||_1 (with
    ||T||_1 = max(|lo|, |hi|)) for the rounding of rho, of the factorization
    and of dstebz's Sturm counts.
    """
    rho = float(np.dot(diag, start * start) + 2.0 * np.dot(offdiag, start[:-1] * start[1:]))
    margin = 4 * len(diag) * EPS * max(-lo, hi)
    sigma = rho - (rho - lo) / WINDOW_STEP
    if dpttrf(diag - sigma, offdiag)[2] == 0:
        return sigma - margin, rho + margin
    return lo - margin, min(rho, sigma) + margin


def banded_largest_eig(S: SymmetricBanded, cfg: EigConfig | None = None) -> float:
    """Largest eigenvalue of a symmetric band matrix of any bandwidth kd.

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
    n * eps * ||S||_1.  A non-finite entry gives nan.
    """
    cfg = cfg or EigConfig()
    n, diag = S.n, S.bands[0]
    lo, hi = gershgorin_bounds(*S.bands)
    if not math.isfinite(hi - lo):  # a non-finite entry
        return math.nan
    h = 0.5 * cfg.rel_tol * (hi - lo)
    # lower band storage of xI - S: row 0 diagonal, rows 1..kd sub-diagonals;
    # its first k columns hold the leading k x k block
    ab = np.zeros((len(S.bands), n))
    for off, band in enumerate(S.bands[1:], start=1):
        ab[off, : len(band)] = -band

    def factors(x: float, k: int) -> bool:
        ab[0, :k] = x - diag[:k]
        return dpbtrf(ab[:, :k], lower=1)[1] == 0

    k = math.ceil(EDGE_ROWS * n ** (1 / 3))
    while k < n and h > n * EPS * max(abs(lo), abs(hi)):
        # at x = 0 the block is -S_k, whose smallest eigenvalue is -lambda_max(S_k)
        ab[0, :k] = -diag[:k]
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
