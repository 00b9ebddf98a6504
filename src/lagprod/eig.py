"""Extremal eigenvalue solvers for symmetric banded matrices.

The largest eigenvalue of a Laguerre matrix (bandwidth 1) or a product
matrix (bandwidth 2) uses ``lambda_max(S) = inf{x : xI - S positive
definite}``, tested by whether the banded Cholesky factorization (LAPACK
dpbtrf) of xI - S succeeds.  The top eigenvector of either lives in its
leading rows (the soft edge), a few grid scales m of its statistic, where
row j sits at x = j / m.  So the solver first takes the top eigenvalue
theta of the leading k x k block (LAPACK dsbevx), k = ceil(EDGE_ROWS * m)
rows (see :func:`edge_block`), and certifies it with two factorizations at
h = rel_tol * D / 2, with D the Gershgorin spectral diameter: the block of
(theta - h)I - S must fail, and the full (theta + h)I - S must succeed.  If
either test fails, k doubles; at k = n the solver bisects the Gershgorin
interval of the full matrix instead.

The smallest eigenvalue of the stochastic Airy matrix, whose ground state
spans most of the mesh, comes from LAPACK dstebz (Sturm-count bisection),
called directly over a value window around lambda_min, each end of it
certified by inertia (Parlett, The Symmetric Eigenvalue Problem, section 3)
from a start vector near the ground state.  dstebz stops once its bracket
is below rel_tol * D and returns the bracket's midpoint, so this value too
lies within rel_tol * D / 2 of the true one: every solver has that bound.

Either solver takes a stack of B matrices along a leading axis (see
:class:`lagprod.ensemble.SymmetricBanded`) and returns B values.  The band
arithmetic runs once per stack; the LAPACK calls run once per matrix, so
each matrix gets the value it would get in a stack of one.  Either solver
gives nan for a matrix with a non-finite entry, and only for that matrix.
"""

from __future__ import annotations

import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder

import numpy as np

from .ensemble import SymmetricBanded


# scipy's package directory, found without importing scipy
SCIPY_DIR = importlib.util.find_spec("scipy").submodule_search_locations[0]


def _flapack():
    """scipy's compiled LAPACK module, ``scipy.linalg._flapack``, loaded from its file.

    ``import scipy.linalg`` first builds scipy's array-API layer (numpy.f2py,
    numpy.ma, numpy.testing): 0.23-0.25 s and 27 MB of every command's
    start-up on a 2-vCPU host, for the five routines below.  The module goes
    into ``sys.modules`` under its own name, so a later ``import
    scipy.linalg`` (whose ``lapack`` re-exports it) reuses this very module.
    """
    name = "scipy.linalg._flapack"
    if name not in sys.modules:
        linalg = os.path.join(SCIPY_DIR, "linalg")
        spec = FileFinder(linalg, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(name)
        if spec is None:
            raise ImportError(f"no LAPACK extension {name} in {linalg}")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


_lapack = _flapack()
dpbtrf, dpttrf, dsbevx, dstebz, dstein = (
    _lapack.dpbtrf, _lapack.dpttrf, _lapack.dsbevx, _lapack.dstebz, _lapack.dstein)

# grid scales of the statistic in the first leading block of the edge solve
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


def gershgorin_bounds(diag: np.ndarray, *offdiags: np.ndarray) -> tuple:
    """Enclosing interval [lo, hi] for the spectrum of the symmetric banded
    matrix with main diagonal ``diag`` and k-th off-diagonals ``offdiags[k-1]``.

    Bands of shape (n-k,) give two floats; bands of shape (B, n-k), a stack
    of B matrices, give two arrays of shape (B,), one bound per matrix."""
    r = np.zeros(np.shape(diag))
    for k, band in enumerate(offdiags, start=1):
        a = np.abs(band)
        r[..., :-k] += a
        r[..., k:] += a
    return (diag - r).min(axis=-1), (diag + r).max(axis=-1)


def edge_block(scale: float) -> int:
    """Rows of the first leading block of the edge solve: ceil(EDGE_ROWS * scale).

    That is EDGE_ROWS grid scales of a statistic read on the grid
    x = j / scale, as m_n for the product and m for a single matrix.
    """
    if not scale > 0:
        raise ValueError(f"scale must be positive, got {scale}")
    return math.ceil(EDGE_ROWS * scale)


def tridiag_extreme_eig(T: SymmetricBanded, cfg: EigConfig, start: np.ndarray) -> np.ndarray:
    """Smallest eigenvalues of a stack of tridiagonals T by LAPACK Sturm bisection (dstebz).

    T's bands have shapes (B, n) and (B, n-1); the result has shape (B,).
    For each matrix, dstebz bisects only the window of :func:`_ground_window`,
    built from the unit vector ``start`` (shape (n,), shared by the stack),
    until each bracket is narrower than rel_tol times the Gershgorin spectral
    diameter D of that matrix, and returns the midpoint of the lowest one:
    within rel_tol * D / 2 of the true eigenvalue.  It resolves every
    eigenvalue in the window, so pass a start near the ground state.  A
    non-finite entry, or a window holding no eigenvalue, gives nan for that
    matrix alone.  Only the Airy sampler calls this; the name is the one
    ``benchmark/runner.py`` traces.
    """
    diag, offdiag = T.bands
    lo, hi = gershgorin_bounds(diag, offdiag)
    # dstebz squares the off-diagonal; dividing each matrix by the power of
    # two just above max(-lo, hi) >= every |entry| (exact) keeps those
    # squares from underflowing to zero
    s = np.ldexp(1.0, np.frexp(np.maximum(-lo, hi))[1])
    diag, offdiag = diag / s[:, None], offdiag / s[:, None]
    squares = (start * start, start[:-1] * start[1:])
    values = []
    for i, (lo_i, hi_i, s_i) in enumerate(zip(lo.tolist(), hi.tolist(), s.tolist())):
        values.append(math.nan)
        if not math.isfinite(hi_i - lo_i):  # a non-finite entry
            continue
        if lo_i == hi_i:  # T = cI, n = 1 included (dstebz takes no empty off-diagonal)
            values[i] = lo_i
            continue
        lo_i, hi_i = lo_i / s_i, hi_i / s_i
        vl, vu = _ground_window(diag[i], offdiag[i], squares, lo_i, hi_i)
        if not vl < vu:  # dstebz rejects an empty window (and prints so); a nan start gives one
            continue
        count, w, _, _, info = dstebz(diag[i], offdiag[i], 1, vl, vu, 0, 0,
                                      cfg.rel_tol * (hi_i - lo_i), "E")
        if count and info == 0:
            values[i] = s_i * float(w[0])
    return np.array(values)


def _ground_window(
    diag: np.ndarray, offdiag: np.ndarray, squares: tuple[np.ndarray, np.ndarray],
    lo: float, hi: float,
) -> tuple[float, float]:
    """Window (vl, vu] holding lambda_min of the tridiagonal with Gershgorin bounds [lo, hi].

    ``squares`` are v * v and v[:-1] * v[1:] of the unit start vector v,
    whose Rayleigh quotient rho bounds lambda_min from above.  At
    sigma = rho - (rho - lo) / WINDOW_STEP, a successful LDL^T factorization
    (LAPACK dpttrf) of T - sigma I proves lambda_min > sigma; a failed one
    proves lambda_min <= sigma, and lo is the lower end instead.  Each end is
    widened by 4 n eps ||T||_1 (with ||T||_1 = max(|lo|, |hi|)) for the
    rounding of rho, of the factorization and of dstebz's Sturm counts.
    """
    rho = float(np.dot(diag, squares[0]) + 2.0 * np.dot(offdiag, squares[1]))
    margin = 4 * len(diag) * EPS * max(-lo, hi)
    sigma = rho - (rho - lo) / WINDOW_STEP
    if dpttrf(diag - sigma, offdiag)[2] == 0:
        return sigma - margin, rho + margin
    return lo - margin, min(rho, sigma) + margin


def banded_largest_eig(S: SymmetricBanded, cfg: EigConfig, scale: float) -> np.ndarray:
    """Largest eigenvalues of a stack of symmetric band matrices of any bandwidth kd.

    S's band k has shape (B, n-k); the result has shape (B,), each matrix
    solved on its own by the LAPACK calls below in one band workspace.
    ``scale`` is the grid scale of the statistic S carries, in rows per unit
    of x (m_n for a product, m for a single matrix).  With [lo, hi] the
    Gershgorin interval of a matrix S and h = rel_tol * (hi - lo) / 2, the
    edge solve takes the top eigenvalue theta of the leading k x k block
    S_k, starting at k = edge_block(scale), and returns it once
    (theta - h)I - S_k fails to factor (so lambda_max(S) >= lambda_max(S_k) >=
    theta - h, by interlacing) and (theta + h)I - S factors (so
    lambda_max(S) < theta + h); otherwise k doubles.  Once k >= n, or when h
    is below the rounding n * eps * max(|lo|, |hi|) of the factorizations,
    it bisects [lo, hi] on whether xI - S factors: ceil(log2(1/rel_tol))
    halvings bring the bracket below 2h, and its midpoint is returned.
    Either way the value is within h of lambda_max(S).  Cholesky is backward
    stable, so the certificate holds up to rounding of order
    n * eps * ||S||_1.  A non-finite entry gives nan for that matrix alone.
    """
    lo, hi = gershgorin_bounds(*S.bands)
    # minus the off-diagonals, as they sit in the lower band storage of xI - S
    negated = [-band for band in S.bands[1:]]
    # that storage for one matrix at a time: row 0 diagonal, rows 1..kd
    # sub-diagonals; its first k columns hold the leading k x k block, which
    # Fortran order keeps contiguous, so LAPACK gets it without a transposing copy
    n = S.n
    k = edge_block(scale)
    ab = np.zeros((len(S.bands), n), order="F")
    values = []
    for i, (lo_i, hi_i) in enumerate(zip(lo.tolist(), hi.tolist())):
        if not math.isfinite(hi_i - lo_i):  # a non-finite entry
            values.append(math.nan)
            continue
        for off, band in enumerate(negated, start=1):
            ab[off, : band.shape[1]] = band[i]
        values.append(_edge_solve(ab, S.bands[0][i], lo_i, hi_i, cfg.rel_tol, k))
    return np.array(values)


def _edge_solve(ab: np.ndarray, diag: np.ndarray, lo: float, hi: float, rel_tol: float, k: int) -> float:
    """The certified solve of :func:`banded_largest_eig` for one matrix with
    Gershgorin interval [lo, hi], whose off-diagonals ``ab`` already holds,
    from a first block of k rows."""
    n = len(diag)
    h = 0.5 * rel_tol * (hi - lo)

    def factors(x: float, k: int) -> bool:
        np.subtract(x, diag[:k], out=ab[0, :k])
        return dpbtrf(ab[:, :k], lower=1)[1] == 0

    while k < n and h > n * EPS * max(abs(lo), abs(hi)):
        # at x = 0 the block is -S_k, whose smallest eigenvalue is -lambda_max(S_k)
        np.negative(diag[:k], out=ab[0, :k])
        w = dsbevx(ab[:, :k], 0.0, 0.0, 1, 1, compute_v=0, range=2, lower=1, overwrite_ab=0)[0]
        theta = -float(w[0])
        if not factors(theta - h, k) and factors(theta + h, n):
            return theta
        k *= 2
    for _ in range(math.ceil(-math.log2(rel_tol))):
        mid = 0.5 * (lo + hi)
        if factors(mid, n):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
