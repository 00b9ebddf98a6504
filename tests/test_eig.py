import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lagprod import eig
from lagprod.eig import EigConfig, banded_largest_eig, gershgorin_bounds, tridiag_extreme_eig
from lagprod.ensemble import EnsembleParams, SymmetricBanded, laguerre_matrix, sample_bidiagonal
from lagprod.product import product_similarity
from lagprod.variates import split_stream
from oracles import allowed_error, dense_product_eigs, dense_tridiagonal

FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def _diag_matrix(values):
    values = np.asarray(values, dtype=float)
    return SymmetricBanded((values, np.zeros(len(values) - 1)))


def _random_tridiag(rng, n):
    return SymmetricBanded((rng.normal(size=n), rng.normal(size=n - 1)))


def _unit(n):
    """A unit vector of length n: a valid start for any tridiagonal of order n."""
    return np.full(n, 1.0 / np.sqrt(n))


def _bottom_vector(T):
    return np.linalg.eigh(dense_tridiagonal(T))[1][:, 0]


def test_bisection_examples():
    cfg = EigConfig()
    assert tridiag_extreme_eig(_diag_matrix([1.0, 2.0, 3.0]), cfg, _unit(3)) == pytest.approx(1.0, abs=1e-9)
    T = SymmetricBanded((np.array([2.0, 2.0]), np.array([1.0])))
    # 2x2 characteristic polynomial: eigenvalues 2 +- 1
    assert tridiag_extreme_eig(T, cfg, _bottom_vector(T)) == pytest.approx(1.0, abs=1e-9)
    assert tridiag_extreme_eig(_diag_matrix(np.ones(50)), cfg, _unit(50)) == 1.0
    assert tridiag_extreme_eig(_diag_matrix(np.zeros(4)), cfg, _unit(4)) == 0.0
    assert tridiag_extreme_eig(_diag_matrix([-4.5]), cfg, _unit(1)) == -4.5


def test_bisection_matches_dense_oracle():
    rng = np.random.default_rng(4)
    for _ in range(100):
        T = _random_tridiag(rng, int(rng.integers(2, 33)))
        ev = np.linalg.eigvalsh(dense_tridiagonal(T))
        scale = max(1.0, abs(ev).max())
        assert abs(tridiag_extreme_eig(T, None, _bottom_vector(T)) - ev[0]) < 1e-8 * scale


def test_bisection_nonfinite_entry_gives_nan():
    T = SymmetricBanded((np.array([1.0, np.nan, 3.0]), np.array([0.5, 0.5])))
    U = SymmetricBanded((np.array([1.0, 2.0, 3.0]), np.array([0.5, np.inf])))
    for A in (T, U, _diag_matrix([np.inf])):
        assert np.isnan(tridiag_extreme_eig(A, None, _unit(A.n)))


def test_bisection_within_half_tol_of_scipy_wrapper():
    # eigvalsh_tridiagonal(select="i") at its default tolerance (ulp * ||T||_1)
    # is the reference; scales 10^-5..10^5 exercise the underflow guard
    from scipy.linalg import eigvalsh_tridiagonal

    rng = np.random.default_rng(8)
    cfg = EigConfig(rel_tol=1e-10)
    for _ in range(300):
        n = int(rng.integers(1, 40))
        T = SymmetricBanded((rng.normal(size=n) * 10.0 ** rng.integers(-5, 6), rng.normal(size=n - 1)))
        A = dense_tridiagonal(T)
        reference = eigvalsh_tridiagonal(*T.bands, select="i", select_range=(0, 0))[0]
        assert abs(tridiag_extreme_eig(T, cfg, _bottom_vector(T)) - reference) <= allowed_error(A, cfg.rel_tol / 2)


def test_eig_config_validation():
    with pytest.raises(ValueError):
        EigConfig(rel_tol=0.5)
    with pytest.raises(ValueError):
        EigConfig(rel_tol=0.0)


def test_banded_identity_and_diagonal():
    n = 20
    I = SymmetricBanded((np.ones(n), np.zeros(n - 1), np.zeros(n - 2)))
    assert banded_largest_eig(I) == pytest.approx(1.0, abs=1e-9)
    D = SymmetricBanded((np.arange(1.0, 6.0), np.zeros(4), np.zeros(3)))
    assert banded_largest_eig(D) == pytest.approx(5.0, abs=1e-9)
    scalar = SymmetricBanded((np.array([3.0]), np.zeros(0), np.zeros(0)))
    assert banded_largest_eig(scalar) == 3.0
    pair = SymmetricBanded((np.array([2.0, 2.0]), np.array([1.0]), np.zeros(0)))
    assert banded_largest_eig(pair) == pytest.approx(3.0, abs=1e-9)


def test_banded_matches_dense_oracle_on_product():
    B_p = sample_bidiagonal(EnsembleParams(n=8, kappa=10, beta=2.0), split_stream(21, 0))
    B_q = sample_bidiagonal(EnsembleParams(n=8, kappa=12, beta=2.0), split_stream(21, 1))
    X_p, X_q = laguerre_matrix(B_p), laguerre_matrix(B_q)
    S = product_similarity(B_q, X_p)
    lam = banded_largest_eig(S)
    oracle = dense_product_eigs(X_p, X_q)[-1]
    assert lam == pytest.approx(oracle, abs=1e-8 * max(1.0, oracle))


def _bands(*offsets):
    """Random symmetric band arrays of one size n in [1, 48], at any magnitude."""
    entries = st.floats(-1e3, 1e3)
    return st.integers(1, 48).flatmap(
        lambda n: st.tuples(*(arrays(np.float64, max(n - k, 0), elements=entries) for k in offsets))
    )


@FUZZ
@given(bands=_bands(0, 1, 2), rel_tol=st.sampled_from([1e-12, 1e-10, 1e-6, 1e-2]))
def test_banded_gershgorin_consistency(bands, rel_tol):
    # indefinite matrices: the largest eigenvalue dominates the largest
    # diagonal entry (a Rayleigh quotient) and matches the dense oracle
    S = SymmetricBanded(bands)
    A = S.dense()
    lam = banded_largest_eig(S, EigConfig(rel_tol=rel_tol))
    assert lam >= bands[0].max() - allowed_error(A, rel_tol)
    assert abs(lam - np.linalg.eigvalsh(A)[-1]) <= allowed_error(A, rel_tol)


@FUZZ
@given(
    n=st.integers(1, 48),
    dp=st.integers(0, 16),
    dq=st.integers(1, 16),
    beta=st.floats(0.05, 4.0),
    rel_tol=st.sampled_from([1e-12, 1e-10, 1e-6, 1e-2]),
    seed=st.integers(0, 2**32),
)
def test_banded_certificate_on_sampled_products(n, dp, dq, beta, rel_tol, seed):
    # p != q and (mostly) non-integer beta, including beta < 1
    p, q = n + dp, n + dp + dq
    B_p = sample_bidiagonal(EnsembleParams(n=n, kappa=p, beta=beta), split_stream(seed, 0))
    B_q = sample_bidiagonal(EnsembleParams(n=n, kappa=q, beta=beta), split_stream(seed, 1))
    X_p, X_q = laguerre_matrix(B_p), laguerre_matrix(B_q)
    S = product_similarity(B_q, X_p)
    lam = banded_largest_eig(S, EigConfig(rel_tol=rel_tol))
    oracle = dense_product_eigs(X_p, X_q)[-1]
    assert abs(lam - oracle) <= allowed_error(S.dense(), rel_tol)


@pytest.fixture
def lapack_calls(monkeypatch):
    """Column counts of the band arrays that the eig module passes to dsbevx and dpbtrf."""
    calls = {"dsbevx": [], "dpbtrf": []}
    for name, log in calls.items():
        real = getattr(eig, name)

        def spy(ab, *args, _real=real, _log=log, **kwargs):
            _log.append(ab.shape[1])
            return _real(ab, *args, **kwargs)

        monkeypatch.setattr(eig, name, spy)
    return calls


def _first_block(n):
    return int(np.ceil(eig.EDGE_ROWS * n ** (1 / 3)))


@pytest.mark.parametrize("rel_tol", [1e-10, 1e-6])
@pytest.mark.parametrize("n,p,q,beta,reps", [(64, 80, 100, 0.7, 10), (256, 300, 512, 1.5, 4), (1024, 2048, 4096, 0.5, 2)])
def test_edge_solve_on_sampled_products(n, p, q, beta, reps, rel_tol, lapack_calls):
    # p != q, non-integer beta: the leading block certifies without bisection,
    # within rel_tol * D / 2 of the dense eigenvalue
    for r in range(reps):
        B_p = sample_bidiagonal(EnsembleParams(n=n, kappa=p, beta=beta), split_stream(6000 + n, 2 * r))
        B_q = sample_bidiagonal(EnsembleParams(n=n, kappa=q, beta=beta), split_stream(6000 + n, 2 * r + 1))
        S = product_similarity(B_q, laguerre_matrix(B_p))
        A = S.dense()
        for log in lapack_calls.values():
            log.clear()
        lam = banded_largest_eig(S, EigConfig(rel_tol=rel_tol))
        assert abs(lam - np.linalg.eigvalsh(A)[-1]) <= allowed_error(A, rel_tol / 2)
        assert lapack_calls["dsbevx"][0] == _first_block(n)
        assert len(lapack_calls["dpbtrf"]) <= 2 * len(lapack_calls["dsbevx"])


def test_edge_solve_doubles_block_up_to_n(lapack_calls):
    # increasing diagonal: the top eigenvector sits in the trailing rows, so
    # every leading block fails the certificate and the solver bisects
    n, rel_tol = 200, 1e-10
    rng = np.random.default_rng(61)
    S = SymmetricBanded((np.arange(float(n)), 0.1 * rng.normal(size=n - 1), 0.1 * rng.normal(size=n - 2)))
    A = S.dense()
    lam = banded_largest_eig(S, EigConfig(rel_tol=rel_tol))
    assert abs(lam - np.linalg.eigvalsh(A)[-1]) <= allowed_error(A, rel_tol / 2)
    k = _first_block(n)  # 59: blocks of 59 and 118 rows, then 236 >= n
    assert lapack_calls["dsbevx"] == [k, 2 * k]
    assert len(lapack_calls["dpbtrf"]) >= np.ceil(-np.log2(rel_tol))


def test_edge_solve_doubles_block_once(lapack_calls):
    # a diagonal spike just past the first block: one doubling certifies it
    n, rel_tol = 500, 1e-10
    k = _first_block(n)
    rng = np.random.default_rng(62)
    diag = rng.normal(size=n)
    diag[k + 5] = 20.0
    S = SymmetricBanded((diag, 0.1 * rng.normal(size=n - 1), 0.1 * rng.normal(size=n - 2)))
    A = S.dense()
    lam = banded_largest_eig(S, EigConfig(rel_tol=rel_tol))
    assert abs(lam - np.linalg.eigvalsh(A)[-1]) <= allowed_error(A, rel_tol / 2)
    assert lapack_calls["dsbevx"] == [k, 2 * k]
    assert len(lapack_calls["dpbtrf"]) <= 4


def test_edge_solve_bisects_when_h_is_below_rounding(lapack_calls):
    # rel_tol * D / 2 below n * eps * |S|: no block solve, the full bisection runs
    n, rel_tol = 256, 1e-16
    B_p = sample_bidiagonal(EnsembleParams(n=n, kappa=n, beta=1.0), split_stream(63, 0))
    B_q = sample_bidiagonal(EnsembleParams(n=n, kappa=n, beta=1.0), split_stream(63, 1))
    S = product_similarity(B_q, laguerre_matrix(B_p))
    A = S.dense()
    lam = banded_largest_eig(S, EigConfig(rel_tol=rel_tol))
    assert abs(lam - np.linalg.eigvalsh(A)[-1]) <= allowed_error(A, rel_tol / 2)
    assert lapack_calls["dsbevx"] == []
    assert lapack_calls["dpbtrf"] == [n] * int(np.ceil(-np.log2(rel_tol)))


@FUZZ
@given(bands=_bands(0, 1), rel_tol=st.sampled_from([1e-12, 1e-10, 1e-6, 1e-2]))
# rel_tol * D / 2 underflows to 0 here; pinned so it runs under every test selection and order
@example(bands=(np.array([0.0, 0.0]), np.array([5e-324])), rel_tol=1e-10)
# lowest eigenvalues within rel_tol * D of each other, where a Sturm search
# by index returned the wrong one of the cluster (0.69 and 0.51 rel_tol * D off)
@example(bands=(np.array([1.0, 0.0, 0.0, 0.0]), np.array([1.376e-7, -2.442e-8, 3.610e-7])), rel_tol=1e-6)
@example(bands=(np.array([89.0] + [0.0] * 7), np.full(7, 1e-10)), rel_tol=1e-12)
def test_tridiag_extremes_certificate(bands, rel_tol):
    T = SymmetricBanded(bands)
    A = dense_tridiagonal(T)
    ev = np.linalg.eigvalsh(A)
    lo, hi = gershgorin_bounds(*bands)
    slack = allowed_error(A, 0.0)  # rounding in eigvalsh and in the bounds
    assert lo - slack <= ev[0] and ev[-1] <= hi + slack
    cfg = EigConfig(rel_tol=rel_tol)
    assert abs(banded_largest_eig(T, cfg) - ev[-1]) <= allowed_error(A, rel_tol / 2)
    # the window, from a drawn unit vector (a poor start: its window holds
    # many eigenvalues), from the exact bottom eigenvector (whose Rayleigh
    # quotient can round below lambda_min), and from that eigenvector
    # disturbed by a tenth of the drawn one
    drawn = np.random.default_rng(len(A)).normal(size=len(A))
    bottom = np.linalg.eigh(A)[1][:, 0]
    for start in (drawn, bottom, bottom + 0.1 * drawn / np.linalg.norm(drawn)):
        start = start / np.linalg.norm(start)
        assert abs(tridiag_extreme_eig(T, cfg, start) - ev[0]) <= allowed_error(A, rel_tol / 2)


@pytest.mark.parametrize("rel_tol", [1e-10, 1e-6])
@pytest.mark.parametrize("n,p,beta,reps", [(6, 8, 2.0, 20), (50, 60, 0.37, 10), (400, 1600, 0.5, 4)])
def test_edge_solve_on_laguerre_matrices(n, p, beta, reps, rel_tol, lapack_calls):
    # bandwidth 1 (single mode), p != n, non-integer beta: within rel_tol * D / 2
    # of the dense eigenvalue, the first block certifying without bisection
    for r in range(reps):
        X = laguerre_matrix(sample_bidiagonal(EnsembleParams(n=n, kappa=p, beta=beta), split_stream(7000 + n, r)))
        A = dense_tridiagonal(X)
        for log in lapack_calls.values():
            log.clear()
        lam = banded_largest_eig(X, EigConfig(rel_tol=rel_tol))
        assert abs(lam - np.linalg.eigvalsh(A)[-1]) <= allowed_error(A, rel_tol / 2)
        if _first_block(n) < n:  # otherwise the solver bisects the whole matrix
            assert lapack_calls["dsbevx"][0] == _first_block(n)
            assert len(lapack_calls["dpbtrf"]) <= 2 * len(lapack_calls["dsbevx"])


def test_edge_solve_at_bandwidth_one_grows_the_block(lapack_calls):
    # tridiagonal with an increasing diagonal: the top eigenvector sits in the
    # trailing rows, below every leading block, so the solver ends in bisection
    n, rel_tol = 200, 1e-10
    rng = np.random.default_rng(64)
    T = SymmetricBanded((np.arange(float(n)), 0.1 * rng.normal(size=n - 1)))
    A = dense_tridiagonal(T)
    lam = banded_largest_eig(T, EigConfig(rel_tol=rel_tol))
    assert abs(lam - np.linalg.eigvalsh(A)[-1]) <= allowed_error(A, rel_tol / 2)
    k = _first_block(n)
    assert lapack_calls["dsbevx"] == [k, 2 * k]
    assert len(lapack_calls["dpbtrf"]) >= np.ceil(-np.log2(rel_tol))


def test_banded_subnormal_matrix_within_one_underflow_unit():
    # rel_tol * D / 2 underflows to 0 here; the bisection still lands within a subnormal
    tiny = np.finfo(float).smallest_subnormal
    for bands in ((np.zeros(2), np.array([tiny])), (np.zeros(3), np.array([tiny, 0.0]), np.zeros(1))):
        assert abs(banded_largest_eig(SymmetricBanded(bands), EigConfig(rel_tol=1e-12)) - tiny) <= tiny


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_banded_nonfinite_entry_gives_nan(bad):
    # a single sweep records such a matrix as a failed replicate, so no exception
    rng = np.random.default_rng(65)
    for kd in (1, 2):
        for band in range(kd + 1):
            bands = [rng.normal(size=30 - k) for k in range(kd + 1)]
            bands[band][7] = bad
            assert np.isnan(banded_largest_eig(SymmetricBanded(tuple(bands))))


def _stack(matrices):
    """One SymmetricBanded stacking the given matrices' bands along a leading axis."""
    return SymmetricBanded(tuple(np.array(bands) for bands in zip(*(S.bands for S in matrices))))


def test_stacked_banded_solve_equals_each_matrix_alone(lapack_calls):
    # sampled products, one with a spike just past the first block (the block
    # doubles once), one with an increasing diagonal (doubles, then bisects) and
    # one with a nan entry; every row is solved as it would be alone
    n, rel_tol = 500, 1e-10
    k = _first_block(n)
    rng = np.random.default_rng(63)
    matrices = []
    for r in range(6):
        B_p = sample_bidiagonal(EnsembleParams(n=n, kappa=600, beta=0.7), split_stream(64, 2 * r))
        B_q = sample_bidiagonal(EnsembleParams(n=n, kappa=900, beta=0.7), split_stream(64, 2 * r + 1))
        matrices.append(product_similarity(B_q, laguerre_matrix(B_p)))
    spike = rng.normal(size=n)
    spike[k + 5] = 1e4
    matrices[1] = SymmetricBanded((spike, rng.normal(size=n - 1), rng.normal(size=n - 2)))
    matrices[3] = SymmetricBanded((np.arange(float(n)) * 1e3, rng.normal(size=n - 1), rng.normal(size=n - 2)))
    poisoned = matrices[4].bands[1].copy()
    poisoned[17] = np.nan
    matrices[4] = SymmetricBanded((matrices[4].bands[0], poisoned, matrices[4].bands[2]))
    cfg = EigConfig(rel_tol=rel_tol)
    values = banded_largest_eig(_stack(matrices), cfg)
    assert values.shape == (6,)
    # one leading block per row, none for the nan row; row 1's doubles once,
    # row 3's until it passes n = 500 (80, 160, 320), then row 3 bisects
    assert lapack_calls["dsbevx"] == [k, k, 2 * k, k, k, 2 * k, 4 * k, k]
    assert np.isnan(values[4]) and np.isfinite(np.delete(values, 4)).all()
    for r, S in enumerate(matrices):
        alone = banded_largest_eig(S, cfg)
        assert isinstance(alone, float)
        assert np.array_equal(values[r], alone, equal_nan=True)
        if r != 4:
            A = S.dense()
            assert abs(alone - np.linalg.eigvalsh(A)[-1]) <= allowed_error(A, rel_tol / 2)


def test_stacked_tridiagonal_solve_equals_each_matrix_alone():
    from lagprod import airy
    from lagprod.airy import AiryDiscretization, airy_tridiagonal, cell_noise

    disc = AiryDiscretization(beta=2.0, h=0.1, L=8.0)
    streams = [split_stream(65, r) for r in range(5)]
    noise = cell_noise(disc, streams)
    noise[2, 40] = np.inf
    stacked = airy_tridiagonal(disc.beta, disc.h, disc.N, noise)
    start = airy._ground_state(disc.h, disc.N)
    cfg = EigConfig(rel_tol=1e-10)
    values = tridiag_extreme_eig(stacked, cfg, start)
    assert np.isnan(values[2]) and np.isfinite(np.delete(values, 2)).all()
    for r in range(5):
        alone = tridiag_extreme_eig(airy_tridiagonal(disc.beta, disc.h, disc.N, noise[r]), cfg, start)
        assert np.array_equal(values[r], alone, equal_nan=True)
