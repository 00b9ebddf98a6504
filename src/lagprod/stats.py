"""Empirical distribution machinery on sample arrays: two-sample KS and moment summaries."""

from __future__ import annotations

import math

import numpy as np


def ks_two_sample(a: np.ndarray, b: np.ndarray) -> dict:
    """Exact sup distance between the empirical CDFs of two 1-D samples.

    Both right-continuous ECDFs are evaluated at every pooled value, so at
    tied values the distance counts all equal values from both sides and ties
    never inflate D.  The p-value is the asymptotic Kolmogorov survival
    function at D * sqrt(n_a n_b / (n_a + n_b)).
    """
    from scipy.special import kolmogorov  # imported here to keep it out of the CLI's start-up

    a, b = np.sort(a), np.sort(b)
    n_a, n_b = a.size, b.size
    pooled = np.concatenate([a, b])
    d = float(np.max(np.abs(np.searchsorted(a, pooled, side="right") / n_a
                            - np.searchsorted(b, pooled, side="right") / n_b)))
    lam = d * math.sqrt(n_a * n_b / (n_a + n_b))
    return {"D": d, "p_value": float(kolmogorov(lam)), "n_a": n_a, "n_b": n_b}


_BLOCKS = 20


def moments(x: np.ndarray) -> dict:
    """Mean, unbiased variance and moment skewness, with batch-means errors.

    ``x`` holds finite values in generation (replicate) order.  The standard
    errors come from 20 equal contiguous blocks of it; they are None for
    fewer than 20 values.
    """
    M = len(x)
    mean = float(x.mean())
    centered = x - mean
    # the centred sum of squares that x.var and np.mean(centered**2) both form
    s2 = float((centered * centered).sum())
    variance = s2 / (M - 1) if M > 1 else 0.0
    m2 = s2 / M
    # float64 powers overflow to inf (skewness 0 or nan), quietly, where a float's raises
    with np.errstate(over="ignore", invalid="ignore"):
        m3 = float(np.mean(centered**3))
        skewness = float(m3 / np.float64(m2) ** 1.5) if m2 > 0 else 0.0

    se_mean = se_variance = None
    if M >= _BLOCKS:
        size = M // _BLOCKS
        blocks = x[: size * _BLOCKS].reshape(_BLOCKS, size)
        bmeans = blocks.mean(axis=1)
        se_mean = float(bmeans.std(ddof=1) / math.sqrt(_BLOCKS))
        if size > 1:
            bvars = blocks.var(axis=1, ddof=1)
            se_variance = float(bvars.std(ddof=1) / math.sqrt(_BLOCKS))
    return {"mean": mean, "variance": variance, "skewness": skewness,
            "se_mean": se_mean, "se_variance": se_variance}
