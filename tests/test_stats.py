import math

import numpy as np
import pytest
import scipy.special
import scipy.stats

from lagprod.harness import ExperimentConfig, sweep
from lagprod.stats import ks_two_sample, moments
from oracles import ecdf_eval


def _arr(values):
    return np.asarray(values, dtype=float)


def test_ks_identical_batches():
    a = _arr([0.3, 1.1, 2.2, 2.2, 5.0])
    assert ks_two_sample(a, _arr([5.0, 2.2, 0.3, 2.2, 1.1]))["D"] == 0.0


def test_ks_disjoint_supports():
    assert ks_two_sample(_arr([1, 2, 3]), _arr([10, 20, 30]))["D"] == 1.0


def test_ks_hand_enumeration():
    assert ks_two_sample(_arr([1, 2, 3]), _arr([1.5, 2.5, 3.5]))["D"] == pytest.approx(1 / 3, rel=1e-15)


def test_ks_symmetry_exact():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rng.normal(size=int(rng.integers(1, 50)))
        b = rng.normal(0.5, size=int(rng.integers(1, 50)))
        assert ks_two_sample(a, b)["D"] == ks_two_sample(b, a)["D"]


def test_ks_matches_scipy_with_ties():
    rng = np.random.default_rng(5)
    for _ in range(50):
        x = np.round(rng.normal(size=int(rng.integers(5, 60))), 1)
        y = np.round(rng.normal(0.3, size=int(rng.integers(5, 60))), 1)
        mine = ks_two_sample(x, y)
        ref = scipy.stats.ks_2samp(x, y)
        assert mine["D"] == pytest.approx(ref.statistic, abs=1e-13)
        assert (mine["n_a"], mine["n_b"]) == (x.size, y.size)


def test_kolmogorov_pvalue_against_scipy():
    rng = np.random.default_rng(8)
    for _ in range(20):
        x = rng.normal(size=int(rng.integers(1, 200)))
        y = rng.normal(0.3, size=int(rng.integers(1, 200)))
        r = ks_two_sample(x, y)
        lam = r["D"] * math.sqrt(r["n_a"] * r["n_b"] / (r["n_a"] + r["n_b"]))
        assert r["p_value"] == float(scipy.special.kolmogorov(lam))
        assert 0.0 <= r["p_value"] <= 1.0
    assert ks_two_sample(_arr([1, 2, 3]), _arr([1, 2, 3]))["p_value"] == 1.0


def test_ecdf_examples_and_range():
    b = _arr([1, 2, 3])
    assert ecdf_eval(b, 0.5) == 0.0
    assert ecdf_eval(b, 3.5) == 1.0
    assert ecdf_eval(b, 2.0) == pytest.approx(2 / 3, rel=1e-15)
    # right-continuous step through every level {0, 1/M, ..., 1}
    levels = {ecdf_eval(b, x) for x in (0.0, 1.0, 2.0, 3.0)}
    assert levels == {0.0, 1 / 3, 2 / 3, 1.0}


def test_ecdf_nondecreasing_and_right_continuous():
    rng = np.random.default_rng(9)
    b = np.sort(rng.normal(size=40))
    grid = np.linspace(b[0] - 1, b[-1] + 1, 500)
    vals = [ecdf_eval(b, x) for x in grid]
    assert all(u <= v for u, v in zip(vals, vals[1:]))
    for point in b[:5]:
        # jump happens at the sample point itself (right continuity)
        assert ecdf_eval(b, point) == ecdf_eval(b, point + 1e-12)
        assert ecdf_eval(b, point) == pytest.approx(ecdf_eval(b, point - 1e-12) + 1 / b.size, abs=1e-12)


def test_moments_match_numpy_var_and_mean_bit_for_bit():
    # variance and m2 come from one centred sum of squares; on every length
    # they equal x.var(ddof=1) and np.mean(centered**2), which form the same sum
    rng = np.random.default_rng(14)
    for M in range(1, 101):
        for x in (rng.normal(size=M), rng.normal(-1.77, 0.9, size=M), rng.exponential(size=M) * 1e3):
            mean = float(x.mean())
            variance = float(x.var(ddof=1)) if M > 1 else 0.0
            centered = x - mean
            m2 = float(np.mean(centered**2))
            skewness = float(np.mean(centered**3)) / m2**1.5 if m2 > 0 else 0.0
            got = moments(x)
            assert (got["mean"], got["variance"], got["skewness"]) == (mean, variance, skewness)


def test_moments_examples():
    assert moments(_arr([5, 5, 5, 5]))["mean"] == 5.0
    assert moments(_arr([5, 5, 5, 5]))["variance"] == 0.0
    two = moments(_arr([0, 1]))
    assert two["mean"] == 0.5
    assert two["variance"] == pytest.approx(0.5, rel=1e-15)  # unbiased
    assert moments(_arr([-1, 0, 1]))["skewness"] == 0.0
    # finite values whose third moment overflows: the moments still come back
    with np.errstate(over="ignore", invalid="ignore"):
        huge = moments(_arr([-1e120, 0.0, 1e120]))
    assert huge["mean"] == 0.0 and huge["variance"] == pytest.approx(1e240, rel=1e-15)
    assert math.isnan(huge["skewness"])


def test_moments_standard_errors():
    small = moments(np.arange(19.0))
    assert small["se_mean"] is None and small["se_variance"] is None

    rng = np.random.default_rng(3)
    draws = rng.normal(size=1000)
    m = moments(draws)
    # batch means over 20 blocks of iid normals: se_mean ~ 1/sqrt(1000)
    assert m["se_mean"] == pytest.approx(1.0 / math.sqrt(1000.0), rel=0.35)
    assert m["se_mean"] >= 0 and m["se_variance"] >= 0
    # the blocks are contiguous runs in the given order, so sorting changes the errors
    assert moments(np.sort(draws))["se_mean"] > 5 * m["se_mean"]


def test_ks_self_calibration_null_trials():
    # two disjoint 1000-sample batches from the same reference generator stay
    # below the alpha = 0.001 critical distance in at least 99 of 100 seeded
    # trials.  The null holds for any discretization, so the cheapest legal
    # mesh keeps this affordable.  Each trial is replicates 0..1999 of one
    # sweep, split at 1000; the rows are the same at any worker count.
    critical = 1.95 * math.sqrt(2.0 / 1000.0)
    below = 0
    for trial in range(100):
        config = ExperimentConfig(mode="tw-reference", beta=2.0, reps=2000, seed=60_000 + trial,
                                  mesh=0.1, cutoff=8.0, workers=2)
        rows = sweep(config)
        if ks_two_sample(rows[:1000], rows[1000:])["D"] < critical:
            below += 1
    assert below >= 99
