"""Deterministic centering and scaling constants for the edge statistics.

Single-matrix constants for size n and ladder parameter i >= n:

    m = (sqrt(n i) / (sqrt(n) + sqrt(i)))^(2/3)      grid scale
    mu = (sqrt(n) + sqrt(i))^2                        centering
    sigma = (sqrt(n) + sqrt(i))^(4/3) / (n i)^(1/6)   fluctuation scale

which satisfy sigma * m^2 = sqrt(n i) and mu / sigma^2 = m exactly.

For the product of two independent matrices with parameters p and q the
centered, scaled statistic

    T = (lambda_max - mu_p * mu_q) / (c_n * sigma_p^2 * sigma_q^2)

converges in law to the Tracy-Widom distribution with modified parameter
beta_0 = C_n * beta, where c_n = a_n + b_n and C_n are the coupling
constants computed in :func:`coupled_scaling`.  When p = q, C_n = 2
exactly: the product of two i.i.d. factors fluctuates with twice the
Tracy-Widom parameter of each factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class SingleScaling:
    """Edge constants of one matrix: grid scale m, centering mu, scale sigma."""

    n: int
    i: int
    m: float
    mu: float
    sigma: float


@dataclass(frozen=True)
class ScalingConstants:
    """Every constant of the product-statistic pipeline for (n, p, q, beta)."""

    n: int
    p: int
    q: int
    beta: float
    sp: SingleScaling
    sq: SingleScaling
    m_n: float
    a_n: float
    b_n: float
    d_n: float
    c_n: float
    C_n: float
    beta0: float
    mu_n: float
    stat_denom: float


def _check_ordering(n: int, *rest: int) -> None:
    vals = (n,) + rest
    if vals[0] < 1:
        raise ValueError(f"n must be >= 1, got {vals[0]}")
    for lo, hi, names in zip(vals, vals[1:], ("n <= p", "p <= q")):
        if lo > hi:
            raise ValueError(f"parameter ordering violated: need {names}, got {lo} > {hi}")


def single_scaling(n: int, i: int) -> SingleScaling:
    """Constants m, mu, sigma for a single matrix with 1 <= n <= i."""
    _check_ordering(n, i)
    rn, ri = math.sqrt(n), math.sqrt(i)
    m = (rn * ri / (rn + ri)) ** (2.0 / 3.0)
    mu = (rn + ri) ** 2
    sigma = (rn + ri) ** (4.0 / 3.0) / (n * i) ** (1.0 / 6.0)
    return SingleScaling(n=n, i=i, m=m, mu=mu, sigma=sigma)


def coupled_scaling(n: int, p: int, q: int, beta: float) -> ScalingConstants:
    """All product constants for 1 <= n <= p <= q and finite beta > 0.

    The coupled grid scale is

        m_n^3 = ((u m_p^2 + v m_q^2) m_p m_q) / (u m_q + v m_p),
        u = mu_q / (sigma_q^2 sigma_p),  v = mu_p / (sigma_p^2 sigma_q),

    the mixture weights are a_n = u m_p^2 / m_n^2 and b_n = v m_q^2 / m_n^2
    with c_n = a_n + b_n, the cross-term coefficient is
    d_n = m_p^2 m_q^2 / (m_n^4 sigma_p sigma_q), and the parameter
    modification factor is

        C_n = ((m_n^3/m_p^3)(a_n/c_n)^2 + (m_n^3/m_q^3)(b_n/c_n)^2)^(-1),

    all evaluated at finite n.  All quantities depend only on the ratios
    p/n and q/n.
    """
    _check_ordering(n, p, q)
    if not 0 < beta < math.inf:
        raise ValueError(f"beta must be positive and finite, got {beta}")
    sp = single_scaling(n, p)
    sq = single_scaling(n, q)

    u = sq.mu / (sq.sigma**2 * sp.sigma)
    v = sp.mu / (sp.sigma**2 * sq.sigma)
    m_n3 = (u * sp.m**2 + v * sq.m**2) * sp.m * sq.m / (u * sq.m + v * sp.m)
    m_n = m_n3 ** (1.0 / 3.0)

    a_n = sp.m**2 * sq.mu / (m_n**2 * sq.sigma**2 * sp.sigma)
    b_n = sq.m**2 * sp.mu / (m_n**2 * sp.sigma**2 * sq.sigma)
    d_n = sp.m**2 * sq.m**2 / (m_n**4 * sp.sigma * sq.sigma)
    c_n = a_n + b_n
    C_n = 1.0 / ((m_n3 / sp.m**3) * (a_n / c_n) ** 2 + (m_n3 / sq.m**3) * (b_n / c_n) ** 2)

    return ScalingConstants(
        n=n,
        p=p,
        q=q,
        beta=beta,
        sp=sp,
        sq=sq,
        m_n=m_n,
        a_n=a_n,
        b_n=b_n,
        d_n=d_n,
        c_n=c_n,
        C_n=C_n,
        beta0=C_n * beta,
        mu_n=sp.mu * sq.mu,
        stat_denom=c_n * sp.sigma**2 * sq.sigma**2,
    )


def closed_form_cn(n: int, p: int, q: int) -> float:
    """Printed closed form of the coupling constant:

        (sqrt(np)+sqrt(nq))^2 ((sqrt(n)+sqrt(q))^2 sqrt(np)
                               + (sqrt(n)+sqrt(p))^2 sqrt(nq))
        / ((sqrt(n)+sqrt(p))^4 (sqrt(n)+sqrt(q))^4).

    This expression equals (a_n + b_n)^3, the cube of the operative c_n; it
    is exposed verbatim as a cross-check, not used in the statistic.
    """
    _check_ordering(n, p, q)
    rn, rp, rq = math.sqrt(n), math.sqrt(p), math.sqrt(q)
    rnp, rnq = math.sqrt(n * p), math.sqrt(n * q)
    num = (rnp + rnq) ** 2 * ((rn + rq) ** 2 * rnp + (rn + rp) ** 2 * rnq)
    den = (rn + rp) ** 4 * (rn + rq) ** 4
    return num / den


def closed_form_Cn(n: int, p: int, q: int) -> float:
    """Printed closed form of the parameter modification factor:

        1 + (p (sqrt(n)+sqrt(p))^2 + q (sqrt(n)+sqrt(q))^2)
            / (sqrt(pq) ((sqrt(n)+sqrt(p))^2 + (sqrt(n)+sqrt(q))^2)),

    evaluated at finite n.  It agrees with the operative C_n when p = q but
    differs otherwise (the operative value instead pairs p with
    (sqrt(n)+sqrt(q))^2 and q with (sqrt(n)+sqrt(p))^2); both are exposed so
    the discrepancy is visible.
    """
    _check_ordering(n, p, q)
    rn, rp, rq = math.sqrt(n), math.sqrt(p), math.sqrt(q)
    tp, tq = (rn + rp) ** 2, (rn + rq) ** 2
    return 1.0 + (p * tp + q * tq) / (math.sqrt(p * q) * (tp + tq))


def product_statistic(lambda_max: float, sc: ScalingConstants) -> float:
    """Centered, scaled product statistic T = (lambda_max - mu_n) / stat_denom.

    T converges in law to Tracy-Widom with parameter sc.beta0 as n grows
    with p/n, q/n fixed.
    """
    return (lambda_max - sc.mu_n) / sc.stat_denom
