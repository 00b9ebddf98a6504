"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  Criterion 7 is expected to fail with the implementation as built;
see notes in the repository documentation about the finite-size drift of the
potential path.
"""

import math
import time

import numpy as np
import pytest
import scipy.linalg

from lagprod import airy
from lagprod.eig import EigConfig, tridiag_extreme_eig
from lagprod.ensemble import EnsembleParams, SymmetricBanded, laguerre_matrix, sample_bidiagonal
from lagprod.harness import ExperimentConfig, mean_potential_path, read_batch_csv, run_experiment, sweep
from lagprod.product import product_similarity
from lagprod.scaling import closed_form_cn, coupled_scaling, single_scaling
from lagprod.stats import ks_two_sample
from lagprod.variates import chi, split_stream
from oracles import dense_product_eigs, dense_tridiagonal, stack

GRID27 = [(n, n + dp, n + dp + dq) for n in (2, 16, 300) for dp in (0, 3, 40) for dq in (0, 5, 100)]

TW2_SEED = 333
TW2_M = 4000


def tw_batch(beta, M, seed, **disc):
    """Replicates 0..M-1 of a ``tw-reference`` sweep (``disc``: mesh, cutoff), at two workers."""
    rows = sweep(ExperimentConfig(mode="tw-reference", beta=beta, reps=M, seed=seed, workers=2, **disc))
    assert not np.isnan(rows).any()
    return rows


@pytest.fixture(scope="module")
def tw2_default_batch():
    # shared TW_2 reference at the default discretization (h=0.02, L=12)
    return tw_batch(2.0, TW2_M, TW2_SEED)


def _criterion(num: int, description: str, ok: bool, detail: str, t0: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {status}: {description} | {detail} | {time.perf_counter() - t0:.1f}s")
    assert ok, f"criterion {num} failed: {description} ({detail})"


def test_criterion_1_constants_suite():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (1, 2, 5, 13, 64, 256, 1000):
        for p in (n, n + 3, 2 * n, 5 * n):
            sc = coupled_scaling(n, p, p, 1.0)
            worst = max(worst, abs(sc.C_n - 2.0))
    for n, i in [(1, 1), (4, 9), (7, 13), (64, 100), (400, 400), (999, 2222)]:
        s = single_scaling(n, i)
        worst = max(worst, abs(s.sigma * s.m**2 / math.sqrt(n * i) - 1.0))
        worst = max(worst, abs(s.mu / s.sigma**2 / s.m - 1.0))
    for n, p, q in GRID27:
        sc = coupled_scaling(n, p, q, 1.0)
        ratio = math.sqrt(q / n) / (1.0 + math.sqrt(q / n)) ** 2
        worst = max(worst, abs(sc.d_n / sc.a_n * sc.m_n**2 / ratio - 1.0))
        assert ratio <= 0.25 + 1e-15
        worst = max(worst, abs(closed_form_cn(n, p, q) / sc.c_n**3 - 1.0))
    _criterion(
        1,
        "constants: C_n(p=q)=2, sigma*m^2=sqrt(ni), mu/sigma^2=m, d/a*m^2 identity, "
        "closed-form c_n = (a+b)^3 on 27-point grid",
        worst < 1e-12,
        f"max relative error {worst:.2e}",
        t0,
    )


def test_criterion_2_similarity_oracle():
    t0 = time.perf_counter()
    worst_gap = 0.0
    worst_imag = 0.0
    for n in (2, 4, 8):
        for seed in range(100):
            B_p = sample_bidiagonal(
                EnsembleParams(n=n, kappa=n + 1, beta=2.0), split_stream(9_000 + n, 2 * seed)
            )
            B_q = sample_bidiagonal(
                EnsembleParams(n=n, kappa=n + 3, beta=2.0), split_stream(9_000 + n, 2 * seed + 1)
            )
            X_p, X_q = laguerre_matrix(B_p), laguerre_matrix(B_q)
            S = product_similarity(B_q, X_p)
            w = scipy.linalg.eig(dense_tridiagonal(X_p) @ dense_tridiagonal(X_q), right=False)
            worst_imag = max(worst_imag, float(np.abs(w.imag).max()))
            ev = dense_product_eigs(X_p, X_q)
            ev_S = np.sort(np.linalg.eigvalsh(S.dense()))
            worst_gap = max(worst_gap, float(np.abs(ev_S - ev).max() / max(1.0, abs(ev).max())))
    _criterion(
        2,
        "similarity spectra match dense product (n in {2,4,8}, 100 seeds)",
        worst_gap < 1e-9 and worst_imag < 1e-8,
        f"max sorted-spectrum gap {worst_gap:.2e}, max imag part {worst_imag:.2e}",
        t0,
    )


def test_criterion_3_sampler_moments():
    t0 = time.perf_counter()
    M = 100_000
    worst_sigmas = 0.0
    for k, alpha in enumerate((0.5, 1.0, 2.0, 8.0, 64.0)):
        stream = split_stream(40_000, k)
        mean_sq = np.mean([chi(stream, alpha) ** 2 for _ in range(M)])
        worst_sigmas = max(worst_sigmas, abs(mean_sq - alpha) / math.sqrt(2.0 * alpha / M))

    n, kappa, beta, reps = 16, 20, 2.0, 10_000
    acc = np.zeros(n)
    for r in range(reps):
        factor = sample_bidiagonal(EnsembleParams(n=n, kappa=kappa, beta=beta), split_stream(40_001, r))
        acc += laguerre_matrix(factor).bands[0]
    j = np.arange(1, n + 1)
    expected = (kappa - j + 1) + (n - j)
    sigmas = np.abs(acc / reps - expected) / np.sqrt(2.0 * expected / beta / reps)
    worst_sigmas = max(worst_sigmas, float(sigmas.max()))
    _criterion(
        3,
        "chi second moments (alpha in {0.5,1,2,8,64}, 1e5 draws) and ensemble "
        "diagonal means (n=16, kappa=20, 1e4 replicates) within 5 SE",
        worst_sigmas < 5.0,
        f"worst deviation {worst_sigmas:.2f} SE",
        t0,
    )


def test_criterion_4_single_matrix_edge_law(tmp_path, tw2_default_batch):
    t0 = time.perf_counter()
    config = ExperimentConfig(
        mode="single", n=400, p=400, beta=2.0, reps=1000, seed=202, out=tmp_path
    )
    run_experiment(config)
    D = ks_two_sample(read_batch_csv(tmp_path / "single-samples.csv")["values"], tw2_default_batch)["D"]
    _criterion(
        4,
        "single-matrix edge law: (n=p=400, beta=2, 1000 reps) vs 4000 TW_2 reference, KS D < 0.12",
        D < 0.12,
        f"D = {D:.4f}",
        t0,
    )


def test_criterion_5_product_law_end_to_end(tmp_path):
    t0 = time.perf_counter()
    config = ExperimentConfig(
        mode="product", n=256, p=256, q=256, beta=1.0, reps=1000, seed=404, out=tmp_path
    )
    sc = coupled_scaling(256, 256, 256, 1.0)
    assert sc.beta0 == pytest.approx(2.0, abs=1e-12)
    _, report = run_experiment(config)
    assert report["failures"] == 0
    assert report["timing"]["wall_seconds"] < 600  # throughput sanity on a single core
    T = read_batch_csv(tmp_path / "product-samples.csv")["values"]
    D2 = ks_two_sample(T, tw_batch(2.0, 5000, 505))["D"]
    D1 = ks_two_sample(T, tw_batch(1.0, 5000, 505))["D"]
    _criterion(
        5,
        "product statistic (n=p=q=256, beta=1 so beta0=2, 1000 reps): "
        "KS vs TW_2 < 0.12 and closer to TW_2 than TW_1",
        D2 < 0.12 and D2 < D1,
        f"D(TW2) = {D2:.4f}, D(TW1) = {D1:.4f}",
        t0,
    )


def test_criterion_6_airy_self_consistency(tw2_default_batch):
    t0 = time.perf_counter()

    def noiseless(h):
        N = int(round(12.0 / h))
        A = SymmetricBanded(airy._noiseless_bands(h, N))
        return tridiag_extreme_eig(stack([A]), EigConfig(rel_tol=1e-12), airy._ground_state(h, N))[0]

    lam_01, lam_005 = noiseless(0.01), noiseless(0.005)
    limit = lam_005 + (lam_005 - lam_01) / 3.0
    ground_gap = abs(lam_01 - limit)

    mesh_coarse = tw_batch(2.0, TW2_M, TW2_SEED, mesh=0.04)
    mesh_gap = abs(mesh_coarse.mean() - tw2_default_batch.mean())
    near = tw_batch(2.0, TW2_M, TW2_SEED, cutoff=10.0)
    far = tw_batch(2.0, TW2_M, TW2_SEED, cutoff=14.0)
    cutoff_gap = abs(near.mean() - far.mean())
    _criterion(
        6,
        "stochastic-Airy self-consistency: noiseless ground state within 5e-3 of "
        "refinement limit at h=0.01; |mean(h=.04)-mean(h=.02)| < 0.03; "
        "|mean(L=10)-mean(L=14)| < 0.01 (beta=2, M=4000)",
        ground_gap < 5e-3 and mesh_gap < 0.03 and cutoff_gap < 0.01,
        f"ground gap {ground_gap:.2e}, mesh gap {mesh_gap:.4f}, cutoff gap {cutoff_gap:.5f}",
        t0,
    )


def test_criterion_7_potential_path_drift():
    # Expected to FAIL: the construction carries an intrinsic O(x/m) drift
    # (about 0.23 deterministic at n=400 on x <= 3) that the 0.1 tolerance
    # does not accommodate; see the documentation note on finite-size bias.
    t0 = time.perf_counter()
    result = mean_potential_path(ExperimentConfig(mode="single", n=400, p=400, beta=2.0, reps=2000, seed=606))
    mask = result["x"] <= 3.0
    sup = float(np.abs(result["mean"][mask] - result["reference"][mask]).max())
    _criterion(
        7,
        "potential-path drift: sup_{x<=3} |mean(y1+y2) - x^2/2| < 0.1 (n=i=400, beta=2, M=2000)",
        sup < 0.1,
        f"sup deviation = {sup:.4f}",
        t0,
    )


def test_criterion_8_determinism_across_worker_counts(tmp_path):
    t0 = time.perf_counter()
    identical = True
    for mode, kwargs in (
        ("product", dict(n=6, p=7, q=8, beta=2.0, reps=12)),
        ("tw-reference", dict(beta=2.0, reps=12, mesh=0.1, cutoff=8.0)),
    ):
        blobs = []
        for w in (1, 2, 8):
            out = tmp_path / f"{mode}-w{w}"
            run_experiment(ExperimentConfig(mode=mode, seed=11, workers=w, out=out, **kwargs))
            blobs.append((out / f"{mode}-samples.csv").read_bytes())
        identical = identical and blobs[0] == blobs[1] == blobs[2]
    _criterion(
        8,
        "byte-identical sample CSVs across worker counts {1, 2, 8} (product and tw modes)",
        identical,
        "compared raw bytes",
        t0,
    )
