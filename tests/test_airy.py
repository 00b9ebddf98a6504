import math

import numpy as np
import pytest

from lagprod import airy
from lagprod.airy import AiryDiscretization, airy_tridiagonal, cell_noise, sample_tw
from lagprod.eig import EigConfig, tridiag_extreme_eig
from lagprod.harness import ExperimentConfig, sweep
from lagprod.variates import split_stream

# first zero of the Airy function; ground state of -d^2/dx^2 + x on [0, inf)
AIRY_GROUND = 2.33810741045977


def _tw_rows(beta, M, seed, **disc):
    """Replicates 0..M-1 of a ``tw-reference`` sweep (``disc``: mesh, cutoff)."""
    return sweep(ExperimentConfig(mode="tw-reference", beta=beta, reps=M, seed=seed, **disc))


def _noiseless_ground(h, L, rel_tol=1e-12):
    N = int(round(L / h))
    A = airy_tridiagonal(math.inf, h, N, None)
    return tridiag_extreme_eig(A, EigConfig(rel_tol=rel_tol))


def test_two_by_two_hand_case():
    # h = 1, N = 2, noiseless: [[3, -1], [-1, 4]], smallest eigenvalue (7 - sqrt 5)/2
    A = airy_tridiagonal(math.inf, 1.0, 2, None)
    assert [band.tolist() for band in A.bands] == [[3.0, 4.0], [-1.0]]
    lam = tridiag_extreme_eig(A, EigConfig(rel_tol=1e-12))
    assert lam == pytest.approx((7.0 - math.sqrt(5.0)) / 2.0, abs=1e-10)


def test_noiseless_ground_state_refinement():
    # mesh-refinement oracle: halving h twice shows Cauchy O(h^2) behavior and
    # the h = 0.01 value sits within 5e-3 of the extrapolated limit
    lam_02 = _noiseless_ground(0.02, 12.0)
    lam_01 = _noiseless_ground(0.01, 12.0)
    lam_005 = _noiseless_ground(0.005, 12.0)
    assert abs(lam_005 - lam_01) < abs(lam_01 - lam_02)
    limit = lam_005 + (lam_005 - lam_01) / 3.0  # second-order extrapolation
    assert abs(-lam_01 - (-limit)) < 5e-3
    assert -lam_01 == pytest.approx(-AIRY_GROUND, abs=5e-3)


def test_noiseless_sample_decreases_toward_limit():
    values = [-_noiseless_ground(h, 12.0) for h in (0.08, 0.04, 0.02, 0.01)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] > -AIRY_GROUND - 5e-4


def test_sample_determinism():
    disc = AiryDiscretization(beta=2.0)
    a = sample_tw(disc, split_stream(5, 3))
    b = sample_tw(disc, split_stream(5, 3))
    assert a == b


def test_cell_noise_is_unit_normal_per_cell():
    disc = AiryDiscretization(beta=1.0, h=0.04, L=8.0)
    draws = np.concatenate([cell_noise(disc, split_stream(77, r)) for r in range(200)])
    assert abs(draws.mean()) < 5.0 / math.sqrt(draws.size)
    assert abs(draws.var(ddof=1) - 1.0) < 0.02


def test_mesh_refinement_shares_brownian_tape():
    # same stream at h and h/2 sees the same noise path: coarse cell noise is
    # the scaled sum of the two fine half-cells
    coarse = AiryDiscretization(beta=2.0, h=0.04, L=8.0)
    fine = AiryDiscretization(beta=2.0, h=0.02, L=8.0)
    g_coarse = cell_noise(coarse, split_stream(12, 0))
    g_fine = cell_noise(fine, split_stream(12, 0))
    rebuilt = (g_fine[0::2] + g_fine[1::2]) / math.sqrt(2.0)
    assert np.allclose(g_coarse, rebuilt, atol=1e-12)


def test_cell_noise_tape_golden():
    # the Airy sampler's normal tape is the same under RNG tapes 1 and 2
    g = cell_noise(AiryDiscretization(beta=2.0), split_stream(13015918, 0))
    assert g[:4].tolist() == [
        0.5364025547181924, -0.4079509992096393, 0.7995843268358135, 0.09634020616990857
    ]


@pytest.mark.parametrize("h,L,golden", [
    (0.04, 12.0, [-3.098404068443139, -2.1233813455818225, -1.4828977431726682]),  # 8 micro-steps
    (0.1, 8.0, [-3.0370116315839804, -2.1122572398616635, -1.39144000233628]),  # 20 micro-steps
])
def test_sample_tw_golden(h, L, golden):
    # pins every bit of the cell sums (numpy's pairwise sum from 8 micro-steps
    # a cell up), the band arithmetic and the solve
    disc = AiryDiscretization(beta=2.0, h=h, L=L)
    assert [sample_tw(disc, split_stream(29, r)) for r in range(3)] == golden


def test_memoized_bands_are_read_only():
    noise = cell_noise(AiryDiscretization(beta=2.0, h=0.1, L=8.0), split_stream(1, 0))
    A = airy_tridiagonal(2.0, 0.1, 80, noise)
    diag, offdiag = airy._noiseless_bands(0.1, 80)
    assert not diag.flags.writeable and not offdiag.flags.writeable
    assert A.bands[1] is offdiag
    assert A.bands[0].flags.writeable and not np.shares_memory(A.bands[0], diag)
    with pytest.raises(ValueError):
        diag[0] = 0.0


def test_batch_single_element_matches_sample():
    rows = _tw_rows(2.0, 6, 5)
    disc = AiryDiscretization(beta=2.0)
    for r in (0, 1, 5):
        assert rows[r] == sample_tw(disc, split_stream(5, r))


def test_tw2_moments_default_discretization():
    # oracle bracket from a finer-mesh run (h=0.01, L=14, M=2e4) of this
    # sampler: mean -1.7757 +- 0.0064, variance 0.8293
    rows = _tw_rows(2.0, 1000, 12345)
    assert -1.95 < rows.mean() < -1.60
    assert 0.65 < rows.var(ddof=1) < 1.00


def test_tw_mean_ordering_beta4_below_beta1():
    # TW means decrease toward -2.3381 as beta grows (fine-mesh oracle:
    # -1.211 at beta=1, -1.776 at beta=2, -2.059 at beta=4)
    assert _tw_rows(4.0, 800, 7).mean() < _tw_rows(1.0, 800, 7).mean()


def test_mesh_stability_same_seeds():
    h_coarse = _tw_rows(2.0, 1000, 99, mesh=0.04)
    h_fine = _tw_rows(2.0, 1000, 99, mesh=0.02)
    assert abs(h_coarse.mean() - h_fine.mean()) < 0.03


def test_cutoff_stability_same_seeds():
    near = _tw_rows(2.0, 800, 98, cutoff=10.0)
    far = _tw_rows(2.0, 800, 98, cutoff=14.0)
    assert abs(near.mean() - far.mean()) < 0.01


def test_discretization_validation():
    with pytest.raises(ValueError):
        AiryDiscretization(beta=0.0)
    with pytest.raises(ValueError):
        AiryDiscretization(beta=2.0, h=0.2)
    with pytest.raises(ValueError):
        AiryDiscretization(beta=2.0, L=6.0)
