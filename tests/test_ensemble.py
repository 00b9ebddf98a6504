import numpy as np
import pytest
from scipy.special import gammaln

from lagprod import ensemble
from lagprod.eig import EigConfig, banded_largest_eig, gershgorin_bounds, tridiag_extreme_eig
from lagprod.ensemble import (
    EnsembleParams,
    laguerre_matrix,
    potential_path,
    sample_bidiagonal,
)
from lagprod.harness import ExperimentConfig, mean_potential_path
from lagprod.scaling import single_scaling
from lagprod.variates import chi, split_stream
from oracles import dense_bidiagonal, dense_tridiagonal


def test_params_validation():
    with pytest.raises(ValueError):
        EnsembleParams(n=0, kappa=1, beta=1.0)
    with pytest.raises(ValueError):
        EnsembleParams(n=3, kappa=2, beta=1.0)
    with pytest.raises(ValueError):
        EnsembleParams(n=2, kappa=2, beta=0.0)


def test_sample_boundary_n1():
    factor = sample_bidiagonal(EnsembleParams(n=1, kappa=9, beta=2.0), split_stream(0, 0))
    assert len(factor.diag) == 1
    assert len(factor.subdiag) == 0


def test_sample_tape_v2_golden():
    # n=3, kappa=5, beta=2: diag parameters (10, 8, 6), subdiag (4, 2).  Tape 2
    # draws the whole diagonal, then the whole subdiagonal, from the factor's
    # own stream; these values pin that tape.
    factor = sample_bidiagonal(EnsembleParams(n=3, kappa=5, beta=2.0), split_stream(7, 0))
    assert factor.diag.tolist() == [2.6205360212158224, 2.4034024374465113, 2.9999673104703244]
    assert factor.subdiag.tolist() == [2.0334669047423124, 0.34155067645988996]
    stream = split_stream(7, 0)
    assert factor.diag.tolist() == chi(stream, np.array([10.0, 8.0, 6.0])).tolist()
    assert factor.subdiag.tolist() == chi(stream, np.array([4.0, 2.0])).tolist()


def test_sample_noninteger_beta_golden():
    # beta = 0.37: every gamma shape beta*(kappa-j)/2 and beta*(n-1-j)/2 is
    # below 1, numpy's small-shape branch; one draw over both bands must give
    # the values of a diagonal draw followed by a subdiagonal draw
    factor = sample_bidiagonal(EnsembleParams(n=3, kappa=5, beta=0.37), split_stream(7, 0))
    assert factor.diag.tolist() == [1.749155689893087, 1.1107159672908031, 1.2132407305058015]
    assert factor.subdiag.tolist() == [0.05322149949861075, 0.0007281741482494322]


def test_memoized_chi_parameters_are_read_only():
    alpha = ensemble._chi_params(3, 5, 2.0)
    assert alpha.tolist() == [10.0, 8.0, 6.0, 4.0, 2.0]
    assert not alpha.flags.writeable
    with pytest.raises(ValueError):
        alpha[0] = 1.0


def test_sample_determinism():
    params = EnsembleParams(n=6, kappa=8, beta=0.5)
    a = sample_bidiagonal(params, split_stream(3, 1))
    b = sample_bidiagonal(params, split_stream(3, 1))
    assert np.array_equal(a.diag, b.diag)
    assert np.array_equal(a.subdiag, b.subdiag)


def test_laguerre_n1_is_scalar_square():
    factor = sample_bidiagonal(EnsembleParams(n=1, kappa=4, beta=3.0), split_stream(1, 0))
    X = laguerre_matrix(factor)
    assert X.bands[0][0] == pytest.approx(factor.diag[0] ** 2 / 3.0, rel=1e-15)


@pytest.mark.parametrize("n,kappa,beta", [(4, 4, 1.0), (4, 7, 2.0), (8, 11, 0.5)])
def test_laguerre_matches_dense_gram_oracle(n, kappa, beta):
    factor = sample_bidiagonal(EnsembleParams(n=n, kappa=kappa, beta=beta), split_stream(5, n))
    X = laguerre_matrix(factor)
    B = dense_bidiagonal(factor)
    assert np.allclose(dense_tridiagonal(X), B.T @ B / beta, atol=1e-12)


def test_laguerre_dense_oracle_many_instances():
    for k in range(100):
        n = 2 + k % 7
        factor = sample_bidiagonal(
            EnsembleParams(n=n, kappa=n + k % 5, beta=(0.5, 1.0, 2.0, 4.0)[k % 4]),
            split_stream(888, k),
        )
        X = laguerre_matrix(factor)
        B = dense_bidiagonal(factor)
        assert np.abs(dense_tridiagonal(X) - B.T @ B / factor.beta).max() < 1e-12 * max(1.0, X.bands[0].max())


def test_laguerre_diagonal_means():
    # E[X_jj] = (kappa - j + 1) + (n - j), 1-based j; 5 theoretical SEs
    n, kappa, beta, M = 5, 8, 2.0, 2000
    acc = np.zeros(n)
    for r in range(M):
        factor = sample_bidiagonal(EnsembleParams(n=n, kappa=kappa, beta=beta), split_stream(1717, r))
        acc += laguerre_matrix(factor).bands[0]
    j = np.arange(1, n + 1)
    expected = (kappa - j + 1) + (n - j)
    se = np.sqrt(2.0 * expected / beta / M)
    assert np.all(np.abs(acc / M - expected) < 5.0 * se)


def test_ensemble_psd_sturm_invariant():
    # positive semidefiniteness: no eigenvalue below 0 on 1000 sampled instances
    rng = np.random.default_rng(0)
    for k in range(1000):
        n = int(rng.integers(1, 65))
        kappa = n + int(rng.integers(0, n + 1))
        beta = float(rng.choice([0.5, 1.0, 2.0, 4.0]))
        factor = sample_bidiagonal(EnsembleParams(n=n, kappa=kappa, beta=beta), split_stream(31337, k))
        X = laguerre_matrix(factor)
        lo, hi = gershgorin_bounds(*X.bands)
        # within the solver certificate of the Sturm bisection
        assert tridiag_extreme_eig(X) >= -EigConfig().rel_tol * (hi - lo)


def test_single_matrix_strong_law():
    # lambda_max / (sqrt(n)+sqrt(kappa))^2 -> 1; frozen Monte Carlo value 0.986
    n = 500
    ratios = []
    for r in range(200):
        factor = sample_bidiagonal(EnsembleParams(n=n, kappa=n, beta=1.0), split_stream(707, r))
        lam = banded_largest_eig(laguerre_matrix(factor))
        ratios.append(lam / (2.0 * np.sqrt(n)) ** 2)
    assert 0.9 < np.mean(ratios) < 1.02


def _chi_mean(alpha):
    alpha = np.asarray(alpha, dtype=float)
    out = np.zeros_like(alpha)
    pos = alpha > 0
    a = alpha[pos]
    out[pos] = np.sqrt(2.0) * np.exp(gammaln((a + 1) / 2) - gammaln(a / 2))
    return out


def _deterministic_path(n, i, beta):
    # noise terms replaced by their exact means (gamma-function chi moments)
    j = np.arange(1, n)
    terms = (2 * j - 1) + 2 * (
        np.sqrt(float(n) * i) - _chi_mean(beta * (n - j)) * _chi_mean(beta * (i - j)) / beta
    )
    m = single_scaling(n, i).m
    return j / m, np.cumsum(terms) * m / np.sqrt(float(n) * i)


def test_potential_path_starts_at_zero_and_first_increment():
    # the k=0 value of the cumulative construction is an empty sum: the first
    # stored value must equal exactly one increment
    n, i, beta = 2, 4, 2.0
    factor = sample_bidiagonal(EnsembleParams(n=n, kappa=i, beta=beta), split_stream(4, 0))
    s = single_scaling(n, i)
    path = potential_path(factor, s)
    diag, offdiag = laguerre_matrix(factor).bands
    first = (s.mu - (diag[0] + 2.0 * offdiag[0])) * s.m / np.sqrt(float(n) * i)
    assert path[0] == pytest.approx(first, rel=1e-15)
    grid = mean_potential_path(ExperimentConfig(mode="potential", n=n, p=i, beta=beta, reps=1, seed=4))["x"]
    assert grid[0] == pytest.approx(1.0 / s.m, rel=1e-15)
    assert np.all(np.diff(grid) > 0)


def test_potential_path_parameter_mismatch():
    factor = sample_bidiagonal(EnsembleParams(n=4, kappa=6, beta=1.0), split_stream(4, 1))
    with pytest.raises(ValueError):
        potential_path(factor, single_scaling(4, 7))


def test_deterministic_path_near_half_x_squared_at_x1():
    # frozen oracle: at n = i = 400 the noise-free path deviates from x^2/2
    # by 0.0870 at x ~ 1, within the O(1/m) = 0.215 discretization allowance
    x, det = _deterministic_path(400, 400, 2.0)
    k1 = np.argmin(np.abs(x - 1.0))
    dev = abs(det[k1] - x[k1] ** 2 / 2)
    assert dev == pytest.approx(0.0870, abs=5e-4)
    assert dev < 1.0 / single_scaling(400, 400).m


def test_potential_path_mean_matches_deterministic_oracle():
    # empirical mean over 300 replicates tracks the exact-mean path to 5 SE
    n, beta, M = 400, 2.0, 300
    s = single_scaling(n, n)
    acc = np.zeros(n - 1)
    for r in range(M):
        factor = sample_bidiagonal(EnsembleParams(n=n, kappa=n, beta=beta), split_stream(606, r))
        acc += potential_path(factor, s)
    x, det = _deterministic_path(n, n, beta)
    mask = x <= 3.0
    # limit-process variance (4/beta) x gives the per-point scale of the noise
    se = np.sqrt(4.0 / beta * x[mask]) / np.sqrt(M)
    assert np.all(np.abs(acc[mask] / M - det[mask]) < 5.0 * se)


def test_potential_path_noise_scale_shrinks_with_beta():
    # the stochastic part of the path scales like 2/sqrt(beta): at beta = 1e4
    # the mean path hugs the exact-mean oracle ~70x tighter than at beta = 2
    # (frozen values 0.122 vs 0.0017 at these seeds)
    n, M = 200, 200
    s = single_scaling(n, n)
    sups = {}
    for beta in (2.0, 1e4):
        acc = np.zeros(n - 1)
        for r in range(M):
            factor = sample_bidiagonal(EnsembleParams(n=n, kappa=n, beta=beta), split_stream(515, r))
            acc += potential_path(factor, s)
        x, det = _deterministic_path(n, n, beta)
        mask = x <= 3.0
        sups[beta] = np.abs(acc[mask] / M - det[mask]).max()
    assert sups[1e4] < sups[2.0] / 20.0
