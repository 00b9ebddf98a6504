import time

import numpy as np
import pytest
import scipy.linalg

from lagprod.ensemble import BidiagonalFactor, EnsembleParams, SymmetricBanded, laguerre_matrix, sample_bidiagonal
from lagprod.product import product_similarity
from lagprod.variates import split_stream
from oracles import dense_bidiagonal, dense_product_eigs, dense_tridiagonal


def _sampled_pair(n, p, q, beta, seed):
    B_p = sample_bidiagonal(EnsembleParams(n=n, kappa=p, beta=beta), split_stream(seed, 0))
    B_q = sample_bidiagonal(EnsembleParams(n=n, kappa=q, beta=beta), split_stream(seed, 1))
    return B_p, B_q


def test_identity_factor_collapses_to_single_matrix():
    n = 6
    _, B_q = _sampled_pair(n, n + 2, n + 3, 2.0, 10)
    identity = SymmetricBanded((np.ones(n), np.zeros(n - 1)))
    S = product_similarity(B_q, identity)
    X_q = laguerre_matrix(B_q)
    ev_S = np.sort(np.linalg.eigvalsh(S.dense()))
    ev_q = np.sort(np.linalg.eigvalsh(dense_tridiagonal(X_q)))
    assert np.abs(ev_S - ev_q).max() < 1e-10 * max(1.0, ev_q.max())


def test_scalar_case_is_plain_product():
    B_p, B_q = _sampled_pair(1, 3, 5, 1.5, 11)
    X_p, X_q = laguerre_matrix(B_p), laguerre_matrix(B_q)
    S = product_similarity(B_q, X_p)
    assert S.bands[0][0] == pytest.approx(X_p.bands[0][0] * X_q.bands[0][0], rel=1e-14)


def test_similarity_matches_dense_product_oracle():
    B_p, B_q = _sampled_pair(4, 6, 7, 2.0, 12)
    X_p, X_q = laguerre_matrix(B_p), laguerre_matrix(B_q)
    S = product_similarity(B_q, X_p)
    ev_S = np.sort(np.linalg.eigvalsh(S.dense()))
    ev_prod = dense_product_eigs(X_p, X_q)
    assert np.abs(ev_S - ev_prod).max() < 1e-10 * max(1.0, abs(ev_prod).max())


def test_similarity_equals_banded_triple_product():
    B_p, B_q = _sampled_pair(7, 9, 12, 0.5, 13)
    X_p = laguerre_matrix(B_p)
    S = product_similarity(B_q, X_p)
    Bq = dense_bidiagonal(B_q)
    dense = Bq @ dense_tridiagonal(X_p) @ Bq.T / B_q.beta
    assert np.allclose(S.dense(), dense, atol=1e-12 * max(1.0, np.abs(dense).max()))


def test_spectrum_preservation_invariant():
    # sorted spectra of S and dense X_p X_q agree to 1e-9 (module-scale check;
    # the acceptance suite runs the full 100-seed sweep)
    for n in (2, 4, 8):
        for seed in range(20):
            B_p, B_q = _sampled_pair(n, n + 1, n + 2, 2.0, 100 * n + seed)
            X_p, X_q = laguerre_matrix(B_p), laguerre_matrix(B_q)
            S = product_similarity(B_q, X_p)
            ev_S = np.sort(np.linalg.eigvalsh(S.dense()))
            ev = dense_product_eigs(X_p, X_q)
            scale = max(1.0, abs(ev).max())
            assert np.abs(ev_S - ev).max() < 1e-9 * scale
            assert ev_S.min() > -1e-9 * scale


def test_dense_oracle_identity_and_diagonal():
    identity = SymmetricBanded((np.ones(3), np.zeros(2)))
    assert np.allclose(dense_product_eigs(identity, identity), 1.0)
    X_p = SymmetricBanded((np.array([1.0, 2.0]), np.zeros(1)))
    X_q = SymmetricBanded((np.array([3.0, 4.0]), np.zeros(1)))
    assert dense_product_eigs(X_p, X_q).tolist() == [3.0, 8.0]


def test_dense_oracle_real_spectrum_and_size_limit():
    B_p, B_q = _sampled_pair(5, 7, 8, 1.0, 14)
    X_p, X_q = laguerre_matrix(B_p), laguerre_matrix(B_q)
    w = scipy.linalg.eig(dense_tridiagonal(X_p) @ dense_tridiagonal(X_q), right=False)
    assert np.abs(w.imag).max() < 1e-8
    big = SymmetricBanded((np.ones(65), np.zeros(64)))
    with pytest.raises(ValueError):
        dense_product_eigs(big, big)


def test_degenerate_factor_keeps_product_spectrum():
    # a zero diagonal chi makes B_q singular, but S = BA and X_p X_q = AB
    # (A = X_p B_q^T, B = B_q / beta) still share their spectrum
    B_p, _ = _sampled_pair(3, 4, 5, 0.5, 18)
    B_q = BidiagonalFactor(beta=0.5, diag=np.array([1.0, 0.0, 1.5]), subdiag=np.array([0.5, 0.7]))
    X_p = laguerre_matrix(B_p)
    S = product_similarity(B_q, X_p)
    ev_S = np.sort(np.linalg.eigvalsh(S.dense()))
    ev = dense_product_eigs(X_p, laguerre_matrix(B_q))
    assert np.abs(ev_S - ev).max() < 1e-10 * max(1.0, abs(ev).max())


def test_size_mismatch_rejected():
    _, B_q = _sampled_pair(4, 5, 6, 1.0, 15)
    with pytest.raises(ValueError):
        product_similarity(B_q, SymmetricBanded((np.ones(5), np.zeros(4))))


def test_construction_touches_only_bands_and_stays_fast():
    # O(n) construction: band arrays have exact lengths and even n = 1e5
    # assembles in well under a second
    rng = np.random.default_rng(17)
    for n in (1_000, 10_000, 100_000):
        factor = BidiagonalFactor(
            beta=1.0,
            diag=rng.uniform(0.5, 2.0, size=n),
            subdiag=rng.uniform(0.5, 2.0, size=n - 1),
        )
        X = laguerre_matrix(factor)
        t0 = time.perf_counter()
        S = product_similarity(factor, X)
        elapsed = time.perf_counter() - t0
        assert [len(band) for band in S.bands] == [n, n - 1, n - 2]
        assert elapsed < 1.0
