import math

import numpy as np
import pytest
from scipy.linalg import eigvalsh_tridiagonal

from lagprod import airy, eig
from lagprod.airy import AiryDiscretization, airy_tridiagonal, cell_noise, sample_tw
from lagprod.eig import EPS, EigConfig, gershgorin_bounds, tridiag_extreme_eig
from lagprod.ensemble import SymmetricBanded
from lagprod.harness import ExperimentConfig, sweep
from lagprod.variates import split_stream
from oracles import airy_ground_state, allowed_error, dense_tridiagonal, row, stack

# first zero of the Airy function; ground state of -d^2/dx^2 + x on [0, inf)
AIRY_GROUND = 2.33810741045977


def _tw_rows(beta, M, seed, **disc):
    """Replicates 0..M-1 of a ``tw-reference`` sweep (``disc``: mesh, cutoff)."""
    return sweep(ExperimentConfig(mode="tw-reference", beta=beta, reps=M, seed=seed, **disc))


def _noiseless_ground(h, L, rel_tol=1e-12):
    N = int(round(L / h))
    A = SymmetricBanded(airy._noiseless_bands(h, N))
    return tridiag_extreme_eig(stack([A]), EigConfig(rel_tol=rel_tol), airy._ground_state(h, N))[0]


def test_two_by_two_hand_case():
    # h = 1, N = 2, noiseless: [[3, -1], [-1, 4]], smallest eigenvalue (7 - sqrt 5)/2
    A = SymmetricBanded(airy._noiseless_bands(1.0, 2))
    assert [band.tolist() for band in A.bands] == [[3.0, 4.0], [-1.0]]
    lam = tridiag_extreme_eig(stack([A]), EigConfig(rel_tol=1e-12), airy._ground_state(1.0, 2))[0]
    assert lam == pytest.approx((7.0 - math.sqrt(5.0)) / 2.0, abs=1e-10)


@pytest.mark.parametrize("h, N", [(0.1, 80), (0.02, 600)])
def test_ground_state_is_scipys_eigenvector_bit_for_bit(h, N):
    # the same dstebz and dstein calls that scipy.linalg.eigh_tridiagonal makes
    assert airy._ground_state(h, N).tobytes() == airy_ground_state(h, N).tobytes()


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
    a = sample_tw(disc, [split_stream(5, 3)], EigConfig())
    b = sample_tw(disc, [split_stream(5, 3)], EigConfig())
    assert a.shape == (1,) and a == b


def test_cell_noise_is_unit_normal_per_cell():
    disc = AiryDiscretization(beta=1.0, h=0.04, L=8.0)
    draws = np.concatenate([cell_noise(disc, [split_stream(77, r)])[0] for r in range(200)])
    assert abs(draws.mean()) < 5.0 / math.sqrt(draws.size)
    assert abs(draws.var(ddof=1) - 1.0) < 0.02


def test_mesh_refinement_shares_brownian_tape():
    # same stream at h and h/2 sees the same noise path: coarse cell noise is
    # the scaled sum of the two fine half-cells
    coarse = AiryDiscretization(beta=2.0, h=0.04, L=8.0)
    fine = AiryDiscretization(beta=2.0, h=0.02, L=8.0)
    g_coarse = cell_noise(coarse, [split_stream(12, 0)])[0]
    g_fine = cell_noise(fine, [split_stream(12, 0)])[0]
    rebuilt = (g_fine[0::2] + g_fine[1::2]) / math.sqrt(2.0)
    assert np.allclose(g_coarse, rebuilt, atol=1e-12)


def test_cell_noise_tape_golden():
    # the Airy sampler's normal tape is the same under RNG tapes 1 and 2
    g = cell_noise(AiryDiscretization(beta=2.0), [split_stream(13015918, 0)])[0]
    assert g[:4].tolist() == [
        0.5364025547181924, -0.4079509992096393, 0.7995843268358135, 0.09634020616990857
    ]


@pytest.mark.parametrize("h,L,golden", [
    (0.04, 12.0, [  # 8 micro-steps
        (-3.098404068443139, -3.098404187583081),
        (-2.1233813455818225, -2.1233812932118727),
        (-1.4828977431726682, -1.4828977127581946),
    ]),
    (0.1, 8.0, [  # 20 micro-steps
        (-3.0370116315839804, -3.0370116297914977),
        (-2.1122572398616635, -2.112257245312187),
        (-1.39144000233628, -1.3914400164351355),
    ]),
])
def test_sample_tw_golden(h, L, golden):
    # golden[r] = (index value, window value).  The window value pins every
    # bit of the cell sums (numpy's pairwise sum from 8 micro-steps a cell
    # up), the band arithmetic and the window solve, as sample_tw returned it
    # when the window became its solve.  The index value was recorded from a
    # Sturm search by index, certified to rel_tol * D, so the window lies
    # within 2 rel_tol * D (plus rounding) of it.
    disc = AiryDiscretization(beta=2.0, h=h, L=L)
    cfg = EigConfig()
    for r, (value, exact) in enumerate(golden):
        A = airy_tridiagonal(disc.beta, disc.h, disc.N, cell_noise(disc, [split_stream(29, r)]))
        assert sample_tw(disc, [split_stream(29, r)], cfg)[0] == exact
        assert abs(exact - value) <= allowed_error(dense_tridiagonal(row(A)), 2 * cfg.rel_tol)


@pytest.mark.parametrize("h", [0.1, 0.05, 0.02])
@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 4.0])
def test_windowed_sample_within_solver_bound_of_index_solve(beta, h):
    # scipy's index solve (dstebz by index, converged to ulp * ||A||_1) is the
    # reference; the windowed solve, which sample_tw returns, is certified to
    # rel_tol * D / 2 of it, up to the rounding of both
    disc = AiryDiscretization(beta=beta, h=h)
    start = airy._ground_state(h, disc.N)
    cfg = EigConfig()
    for r in range(500):
        A = row(airy_tridiagonal(beta, h, disc.N, cell_noise(disc, [split_stream(71, r)])))
        lo, hi = gershgorin_bounds(*A.bands)
        bound = cfg.rel_tol * (hi - lo) / 2 + 4 * disc.N * EPS * max(-lo, hi)
        windowed = tridiag_extreme_eig(stack([A]), cfg, start)[0]
        reference = eigvalsh_tridiagonal(*A.bands, select="i", select_range=(0, 0))[0]
        assert abs(windowed - reference) <= bound
        assert sample_tw(disc, [split_stream(71, r)], cfg)[0] == -windowed


@pytest.fixture
def tridiagonal_calls(monkeypatch):
    """The range argument of each dstebz call the eig module makes (1 = value
    window), and the order of each matrix it passes to dpttrf."""
    calls = {"dstebz": [], "dpttrf": []}
    real_dstebz, real_dpttrf = eig.dstebz, eig.dpttrf

    def dstebz(d, e, range_, *args):
        calls["dstebz"].append(range_)
        return real_dstebz(d, e, range_, *args)

    def dpttrf(d, e, *args):
        calls["dpttrf"].append(len(d))
        return real_dpttrf(d, e, *args)

    monkeypatch.setattr(eig, "dstebz", dstebz)
    monkeypatch.setattr(eig, "dpttrf", dpttrf)
    return calls


@pytest.mark.parametrize("beta", [0.5, 2.0, 4.0])
@pytest.mark.parametrize("mesh", [dict(h=0.1, L=8.0), dict()], ids=["tier1", "default"])
def test_default_mesh_sweep_solves_every_replicate_in_its_window(mesh, beta, tridiagonal_calls, capfd):
    # one value-mode dstebz call and one factorization per replicate, every
    # value finite; dstebz handed an empty window prints "parameter number 5
    # had an illegal value" from Fortran
    disc = AiryDiscretization(beta=beta, **mesh)
    rows = _tw_rows(beta, 64, 3, mesh=disc.h, cutoff=disc.L)
    assert np.isfinite(rows).all()
    assert tridiagonal_calls["dstebz"] == [1] * 64
    assert tridiagonal_calls["dpttrf"] == [disc.N] * 64
    assert capfd.readouterr() == ("", "")


def test_window_without_an_eigenvalue_gives_nan(tridiagonal_calls, capfd):
    noise = cell_noise(AiryDiscretization(beta=2.0, h=0.1, L=8.0), [split_stream(2, 0)])
    A = airy_tridiagonal(2.0, 0.1, 80, noise)
    start = airy._ground_state(0.1, 80)
    # a nan start gives an empty window, which never reaches dstebz
    assert math.isnan(tridiag_extreme_eig(A, EigConfig(), np.full(80, np.nan))[0])
    assert tridiagonal_calls["dstebz"] == []
    # half a unit vector: its Rayleigh quotient, a quarter of one, lies below
    # lambda_min > 0, so the window holds no eigenvalue
    assert math.isnan(tridiag_extreme_eig(A, EigConfig(), 0.5 * start)[0])
    assert tridiagonal_calls["dstebz"] == [1]
    # a non-finite entry is caught before any factorization
    noise = np.zeros((1, 80))
    noise[0, 40] = np.inf
    assert math.isnan(tridiag_extreme_eig(airy_tridiagonal(2.0, 0.1, 80, noise), EigConfig(), start)[0])
    assert tridiagonal_calls == {"dstebz": [1], "dpttrf": [80, 80]}
    assert capfd.readouterr() == ("", "")


def test_memoized_bands_are_read_only():
    noise = cell_noise(AiryDiscretization(beta=2.0, h=0.1, L=8.0), [split_stream(1, 0)])
    A = airy_tridiagonal(2.0, 0.1, 80, noise)
    diag, offdiag = airy._noiseless_bands(0.1, 80)
    assert not diag.flags.writeable and not offdiag.flags.writeable
    # every row reads the one memoized off-diagonal, through a read-only view
    assert A.bands[1].strides[0] == 0 and not A.bands[1].flags.writeable
    assert np.shares_memory(A.bands[1], offdiag) and np.array_equal(A.bands[1][0], offdiag)
    assert A.bands[0].flags.writeable and not np.shares_memory(A.bands[0], diag)
    with pytest.raises(ValueError):
        diag[0] = 0.0


def test_batch_single_element_matches_sample():
    rows = _tw_rows(2.0, 6, 5)
    disc = AiryDiscretization(beta=2.0)
    # row r of one stack of six equals the value of a stack of one
    for r in (0, 1, 5):
        assert rows[r] == sample_tw(disc, [split_stream(5, r)], EigConfig())[0]


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
