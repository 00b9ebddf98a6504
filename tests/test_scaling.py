import math

import numpy as np
import pytest
from scipy.special import ai_zeros

from lagprod.harness import ExperimentConfig, sweep
from lagprod.scaling import (
    closed_form_Cn,
    closed_form_cn,
    coupled_scaling,
    product_statistic,
    single_scaling,
)
from lagprod.stats import moments
from oracles import airy_quartic_moment, linear_response

GRID = [(n, n + dp, n + dp + dq) for n in (2, 16, 300) for dp in (0, 3, 40) for dq in (0, 5, 100)]


def test_single_scaling_direct_substitution():
    s = single_scaling(4, 9)
    assert s.mu == pytest.approx(25.0, rel=1e-15)
    assert s.sigma == pytest.approx(5.0 ** (4 / 3) / 36.0 ** (1 / 6), rel=1e-14)
    assert s.m == pytest.approx((6.0 / 5.0) ** (2 / 3), rel=1e-14)

    s11 = single_scaling(1, 1)
    assert s11.m == pytest.approx(0.5 ** (2 / 3), rel=1e-14)
    assert s11.m == pytest.approx(0.6300, abs=5e-5)
    assert s11.mu == pytest.approx(4.0, rel=1e-15)


def test_single_scaling_identities():
    for n, i in [(7, 13), (1, 1), (4, 9), (100, 250), (999, 2000)]:
        s = single_scaling(n, i)
        assert s.sigma * s.m**2 == pytest.approx(math.sqrt(n * i), rel=1e-12)
        assert s.mu / s.sigma**2 == pytest.approx(s.m, rel=1e-12)


def test_single_scaling_ordering():
    with pytest.raises(ValueError):
        single_scaling(5, 4)
    with pytest.raises(ValueError):
        single_scaling(0, 4)


def test_coupled_equal_parameters():
    for n, p in [(1, 1), (4, 4), (7, 19), (256, 256)]:
        sc = coupled_scaling(n, p, p, 1.0)
        assert sc.C_n == pytest.approx(2.0, abs=1e-12)
    # n = p = q: a_n = b_n = 1/4, c_n = 1/2, m_n = m_{n,p}
    sc = coupled_scaling(9, 9, 9, 2.0)
    assert sc.a_n == pytest.approx(0.25, rel=1e-12)
    assert sc.b_n == pytest.approx(0.25, rel=1e-12)
    assert sc.c_n == pytest.approx(0.5, rel=1e-12)
    assert sc.m_n == pytest.approx(sc.sp.m, rel=1e-13)
    assert sc.beta0 == pytest.approx(4.0, rel=1e-12)


def test_coupled_positivity_and_dn_identity():
    for n, p, q in GRID:
        sc = coupled_scaling(n, p, q, 1.0)
        assert sc.a_n > 0 and sc.b_n > 0 and sc.d_n > 0
        assert sc.C_n > 1.0
        ratio = math.sqrt(q / n) / (1.0 + math.sqrt(q / n)) ** 2
        assert sc.d_n / sc.a_n * sc.m_n**2 == pytest.approx(ratio, rel=1e-12)
        assert ratio <= 0.25 + 1e-15


def test_closed_form_cn_examples():
    # n = p = q: printed form evaluates to 8(np)^{3/2}/(sqrt n + sqrt p)^6 = 1/8
    for n in (1, 5, 144):
        assert closed_form_cn(n, n, n) == pytest.approx(0.125, rel=1e-12)
    # (1,1,1): printed form 1/8 while the operative c_n = a_n + b_n = 1/2
    sc = coupled_scaling(1, 1, 1, 1.0)
    assert sc.c_n == pytest.approx(0.5, rel=1e-12)
    assert closed_form_cn(1, 1, 1) == pytest.approx(sc.c_n**3, rel=1e-12)


def test_closed_form_cn_is_cube_of_operative():
    for n, p, q in GRID:
        sc = coupled_scaling(n, p, q, 1.0)
        assert closed_form_cn(n, p, q) == pytest.approx(sc.c_n**3, rel=1e-12)


def test_closed_form_Cn_examples():
    for n, p in [(1, 1), (8, 20), (100, 150)]:
        assert closed_form_Cn(n, p, p) == pytest.approx(2.0, abs=1e-12)
    # direct substitution of the printed expression at (1,1,4):
    # 1 + (1*4 + 4*9) / (2*(4+9)) = 1 + 40/26 = 33/13
    assert closed_form_Cn(1, 1, 4) == pytest.approx(33.0 / 13.0, rel=1e-14)
    # the operative constant disagrees for p != q: C_n(1,1,4) = 1 + 25/26
    sc = coupled_scaling(1, 1, 4, 1.0)
    assert sc.C_n == pytest.approx(51.0 / 26.0, rel=1e-12)
    assert closed_form_Cn(1, 1, 4) != pytest.approx(sc.C_n, rel=1e-3)


def test_closed_form_Cn_matches_operative_iff_equal_parameters():
    for n, p, q in GRID:
        sc = coupled_scaling(n, p, q, 1.0)
        if p == q:
            assert closed_form_Cn(n, p, q) == pytest.approx(sc.C_n, rel=1e-12)


def test_scale_invariance_and_asymptotic_stability():
    # constants depend only on the ratios p/n, q/n; with ratios held fixed
    # they move by far less than 1e-3 between n = 1e4 and n = 1e5
    a = coupled_scaling(10_000, 20_000, 30_000, 1.0)
    b = coupled_scaling(100_000, 200_000, 300_000, 1.0)
    assert abs(a.C_n - b.C_n) < 1e-3
    assert abs(a.c_n - b.c_n) < 1e-3


def test_large_q_limit_operative_Cn_tends_to_one():
    # as q/n -> infinity, X_q/q -> I: the product is a scalar times one Laguerre
    # matrix, so beta0 -> beta; the printed closed form instead grows like sqrt(q/n)
    ratios = (10**3, 10**5, 10**7)
    C = [coupled_scaling(64, 64, 64 * r, 1.0).C_n for r in ratios]
    assert C == pytest.approx([1.1499, 1.01573, 1.00158], abs=5e-5)
    assert C[0] > C[1] > C[2] > 1.0
    assert C[1] - 1 < 0.02 and C[2] - 1 < 0.002
    printed = [closed_form_Cn(64, 64, 64 * r) / math.sqrt(r) for r in ratios]
    assert printed == pytest.approx([1.028, 1.0031, 1.0003], abs=5e-4)
    assert abs(printed[2] - 1) < 1e-3
    # both depend only on the ratios
    for n in (1, 4096):
        for r, c, f in zip(ratios, C, printed):
            sc = coupled_scaling(n, n, n * r, 1.0)
            assert sc.C_n == pytest.approx(c, rel=1e-12)
            assert sc.beta0 == pytest.approx(c, rel=1e-12)
            assert closed_form_Cn(n, n, n * r) / math.sqrt(r) == pytest.approx(f, rel=1e-12)


def test_product_statistic_centering_and_unit_scale():
    sc = coupled_scaling(16, 20, 30, 2.0)
    assert product_statistic(sc.mu_n, sc) == 0.0
    assert product_statistic(sc.mu_n + sc.stat_denom, sc) == pytest.approx(1.0, rel=1e-15)
    assert sc.mu_n == pytest.approx(sc.sp.mu * sc.sq.mu, rel=1e-15)
    assert sc.stat_denom == pytest.approx(sc.c_n * sc.sp.sigma**2 * sc.sq.sigma**2, rel=1e-15)


def test_coupled_ordering_validation():
    with pytest.raises(ValueError):
        coupled_scaling(4, 3, 5, 1.0)
    with pytest.raises(ValueError):
        coupled_scaling(4, 5, 4, 1.0)
    with pytest.raises(ValueError):
        coupled_scaling(4, 5, 6, 0.0)


# (p/n, q/n) of the linear-response checks: the paper's p = q point, and three where
# the printed C_n is 1.4 to 28 times the operative one
RESPONSE_RATIOS = [(1, 1), (1, 16), (4, 16), (1, 1000)]


def test_airy_ground_state_quartic_moment():
    assert abs(airy_quartic_moment() - 1.669734) <= 1e-6


def test_linear_response_beta0_is_the_operative_one_not_the_printed_one():
    # the eigenvalue's first-order noise strength sets beta0 = C_n beta with the
    # operative C_n; the printed closed form is far off wherever p != q
    n = 65536
    for a, b in RESPONSE_RATIOS:
        beta0_hat, _ = linear_response(n, a * n, b * n, 1.0)
        beta0 = coupled_scaling(n, a * n, b * n, 1.0).beta0
        assert abs(beta0_hat / beta0 - 1) < 0.005, (a, b, beta0_hat, beta0)
        if a != b:
            assert abs(beta0_hat - closed_form_Cn(n, a * n, b * n)) / beta0 > 0.30, (a, b, beta0_hat)


def test_linear_response_excess_and_edge_fall_with_n():
    # the finite-n excess of beta0 shrinks toward the operative value, and at beta = inf
    # the deterministic edge T_inf(n) approaches -|a_1|, where mu_n and stat_denom put it
    ns = (256, 1024, 4096)
    for a, b in RESPONSE_RATIOS:
        excess = [linear_response(n, a * n, b * n, 1.0)[0] - coupled_scaling(n, a * n, b * n, 1.0).beta0
                  for n in ns]
        assert excess[0] > excess[1] > excess[2], (a, b, excess)
    abs_a1 = -ai_zeros(1)[0][0]
    for a, b in RESPONSE_RATIOS[:2]:
        gap = [linear_response(n, a * n, b * n, math.inf)[1] + abs_a1 for n in ns]
        assert gap[0] > gap[1] > gap[2], (a, b, gap)


@pytest.mark.parametrize("p,q", [(1024, 16384), (1024, 1024)])
def test_sampled_variance_is_the_linear_response_one(p, q):
    # at beta = 64 the sampled Var T is the first-order 4 int psi^4 / beta0_hat of the
    # oracle, within 3 batch-means SE; n, beta, M, the seed and k = 3 were fixed before
    # the first run.  That run gave beta Var T = 0.9009 +- 0.0198 against 0.9215
    # (z = -1.04) at (1024, 16384) and 0.7839 +- 0.0190 against 0.8002 (z = -0.85)
    # at p = q: both about 1 SE low, as in the roadmap's pilot at beta = 16, 64, 256
    n, beta = 1024, 64.0
    T = sweep(ExperimentConfig(mode="product", n=n, p=p, q=q, beta=beta, reps=4000, seed=4242, workers=2))
    assert np.isfinite(T).all()
    m = moments(T)
    beta0_hat, _ = linear_response(n, p, q, beta)
    assert abs(m["variance"] - airy_quartic_moment() / beta0_hat) <= 3 * m["se_variance"]
