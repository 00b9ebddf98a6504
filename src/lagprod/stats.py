"""Empirical distribution machinery: ECDFs, two-sample KS, moment summaries."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class SampleBatch:
    """A labeled batch of Monte Carlo samples.

    ``values`` is the sorted sample (sorted on construction); ``order``
    optionally preserves the generation order, which the batch-means
    standard errors in :func:`moments` rely on.  ``params`` carries the
    generating configuration and round-trips through the CSV persistence
    layer bit-exactly.
    """

    label: str
    params: dict
    values: np.ndarray
    order: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
        values = np.sort(np.asarray(self.values, dtype=float))
        if values.size < 1:
            raise ValueError("a sample batch needs at least one value")
        if np.any(np.isnan(values)):
            raise ValueError("sample values must not contain NaN")
        object.__setattr__(self, "values", values)
        if self.order is not None:
            order = np.asarray(self.order, dtype=float)
            if order.shape != values.shape:
                raise ValueError("order must hold the same values as the batch")
            object.__setattr__(self, "order", order)

    @property
    def M(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class KSReport:
    """Two-sample Kolmogorov-Smirnov comparison result."""

    D: float
    n_a: int
    n_b: int
    p_value: float


@dataclass(frozen=True)
class MomentSummary:
    """Mean/variance/skewness with batch-means standard errors (20 blocks)."""

    mean: float
    variance: float
    skewness: float
    se_mean: float | None
    se_variance: float | None


def kolmogorov_sf(lam: float) -> float:
    """Asymptotic Kolmogorov survival function Q(lam) = 2 sum (-1)^(k-1) exp(-2 k^2 lam^2)."""
    if lam <= 0:
        return 1.0
    total = 0.0
    sign = 1.0
    for k in range(1, 101):
        term = math.exp(-2.0 * (k * lam) ** 2)
        total += sign * term
        if term < 1e-17 * max(total, 1e-300):
            break
        sign = -sign
    return min(1.0, max(0.0, 2.0 * total))


def ks_two_sample(a: SampleBatch, b: SampleBatch) -> KSReport:
    """Exact sup distance between the two empirical CDFs.

    Merge-scan over the sorted values; at tied values the distance is
    evaluated only after all equal values from both sides are consumed, so
    ties never inflate D.  The p-value is the asymptotic Kolmogorov survival
    function at D * sqrt(n_a n_b / (n_a + n_b)).
    """
    x, y = a.values, b.values
    n_a, n_b = len(x), len(y)
    i = j = 0
    d = 0.0
    while i < n_a or j < n_b:
        if j >= n_b or (i < n_a and x[i] < y[j]):
            v = x[i]
        else:
            v = y[j]
        while i < n_a and x[i] == v:
            i += 1
        while j < n_b and y[j] == v:
            j += 1
        d = max(d, abs(i / n_a - j / n_b))
    lam = d * math.sqrt(n_a * n_b / (n_a + n_b))
    return KSReport(D=d, n_a=n_a, n_b=n_b, p_value=kolmogorov_sf(lam))


_BLOCKS = 20


def moments(batch: SampleBatch) -> MomentSummary:
    """Mean (unbiased variance, moment skewness) with batch-means errors.

    Standard errors come from 20 equal contiguous blocks of the sample in
    generation order (``batch.order`` when present); they are omitted for
    batches smaller than 20.  Blocking a sorted sample would be meaningless,
    so batches without generation order fall back to the sorted values and
    the resulting errors should be treated as indicative only.
    """
    x = batch.order if batch.order is not None else batch.values
    M = len(x)
    mean = float(x.mean())
    variance = float(x.var(ddof=1)) if M > 1 else 0.0
    centered = x - mean
    m2 = float(np.mean(centered**2))
    m3 = float(np.mean(centered**3))
    skewness = m3 / m2**1.5 if m2 > 0 else 0.0

    se_mean = se_variance = None
    if M >= _BLOCKS:
        size = M // _BLOCKS
        blocks = x[: size * _BLOCKS].reshape(_BLOCKS, size)
        bmeans = blocks.mean(axis=1)
        se_mean = float(bmeans.std(ddof=1) / math.sqrt(_BLOCKS))
        if size > 1:
            bvars = blocks.var(axis=1, ddof=1)
            se_variance = float(bvars.std(ddof=1) / math.sqrt(_BLOCKS))
    return MomentSummary(
        mean=mean,
        variance=variance,
        skewness=skewness,
        se_mean=se_mean,
        se_variance=se_variance,
    )
