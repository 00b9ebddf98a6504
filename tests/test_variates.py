import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lagprod.variates import chi, split_stream, streams


def test_gaussian_moments():
    draws = split_stream(2024, 0).standard_normal(100_000)
    # standard normal: mean 0 within 5 standard errors, variance 1
    assert abs(draws.mean()) < 5.0 * math.sqrt(1e-5)
    assert abs(draws.var(ddof=1) - 1.0) < 0.03


def test_gaussian_determinism_replay():
    a = split_stream(42, 0)
    b = split_stream(42, 0)
    first = [a.standard_normal() for _ in range(3)]
    replay = [b.standard_normal() for _ in range(3)]
    assert first == replay
    # a vector draw replays the scalar draws in tape order
    assert split_stream(42, 0).standard_normal(3).tolist() == first


def test_chi_zero_is_degenerate():
    stream = split_stream(1, 0)
    assert chi(stream, 0.0) == 0.0
    assert chi(stream, np.zeros(5)).tolist() == [0.0] * 5
    # degenerate draws consume no tape
    assert stream.standard_normal() == split_stream(1, 0).standard_normal()


def test_chi_rejects_negative_alpha():
    with pytest.raises(ValueError):
        chi(split_stream(1, 0), -0.1)
    with pytest.raises(ValueError):
        chi(split_stream(1, 0), np.array([1.0, -0.1]))


@pytest.mark.parametrize("alpha,tol", [(3.0, 0.05), (0.5, 0.02)])
def test_chi_second_moment_examples(alpha, tol):
    # closed-form moment of the chi law in this convention: E[chi^2] = alpha
    stream = split_stream(99, int(alpha * 10))
    sq = chi(stream, np.full(100_000, alpha)) ** 2
    assert abs(sq.mean() - alpha) < tol


def test_chi_moment_invariant_all_alphas():
    M = 100_000
    for k, alpha in enumerate((0.5, 1.0, 2.0, 8.0, 64.0)):
        draws = chi(split_stream(7_000, k), np.full(M, alpha))
        assert np.all(draws > 0)
        se = math.sqrt(2.0 * alpha / M)  # Var(chi_alpha^2) = 2 alpha
        assert abs((draws**2).mean() - alpha) < 5.0 * se


def test_chi_vector_draw_replays_scalar_draws():
    alphas = [10.0, 0.5, 3.0, 64.0]
    a = split_stream(8, 2)
    scalars = [float(chi(a, alpha)) for alpha in alphas]
    assert chi(split_stream(8, 2), np.array(alphas)).tolist() == scalars


def test_split_streams_identical_for_identical_index():
    a = split_stream(7, 0).standard_normal(100)
    b = split_stream(7, 0).standard_normal(100)
    assert np.array_equal(a, b)


def test_split_streams_differ_everywhere_for_distinct_index():
    a = split_stream(7, 0).standard_normal(100)
    b = split_stream(7, 1).standard_normal(100)
    assert np.all(a != b)


def test_thousand_substreams_no_collision():
    firsts = {split_stream(7, k).standard_normal() for k in range(1000)}
    assert len(firsts) == 1000


_EDGES = (0, 2**32 - 1, 2**32, 2**64 - 1)  # the ends of one and of two 32-bit words


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**64 - 1), st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=6))
@example(0, list(_EDGES))
@example(2**32 - 1, list(_EDGES))
@example(2**32, list(_EDGES))
@example(2**64 - 1, list(_EDGES))
def test_streams_replay_numpys_seed_sequence_tape(seed, indices):
    # the tape is numpy's: a failure here means numpy's SeedSequence hash or
    # PCG64 seeding changed, and every sample CSV with it
    for index, gen in zip(indices, streams(seed, indices)):
        oracle = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(index,))))
        own = split_stream(seed, index)
        assert gen.bit_generator.state == own.bit_generator.state == oracle.bit_generator.state, \
            f"numpy's SeedSequence/PCG64 seeding changed at seed={seed}, index={index}"
        first = oracle.standard_normal(3).tolist()
        assert gen.standard_normal(3).tolist() == own.standard_normal(3).tolist() == first


def test_streams_are_generators_of_their_own():
    # each stream keeps its own tape: held together, zipped or drawn out of order
    drawn, again = streams(5, range(10, 13)), streams(5, range(10, 13))
    assert len(drawn) == 3 and len({id(g) for g in drawn + again}) == 6
    oracle = [split_stream(5, r).standard_normal(2).tolist() for r in range(10, 13)]
    firsts = [g.standard_normal() for g in reversed(drawn)][::-1]
    assert [[a, g.standard_normal()] for a, g in zip(firsts, drawn)] == oracle
    assert [g.standard_normal(2).tolist() for g in again] == oracle


def test_streams_raise_what_split_stream_raises():
    # test_seed_validation's cases
    for seed, index, error in [(-1, 0, ValueError), (2**64, 0, ValueError), (1.5, 0, TypeError),
                               (0, -1, ValueError), (0, 2**64, ValueError), (0, 1.0, TypeError)]:
        with pytest.raises(error):
            list(streams(seed, [index]))
    assert len(list(streams(2**64 - 1, [2**64 - 1]))) == 1


def test_seed_validation():
    with pytest.raises(ValueError):
        split_stream(-1, 0)
    with pytest.raises(ValueError):
        split_stream(2**64, 0)
    with pytest.raises(TypeError):
        split_stream(1.5, 0)
    with pytest.raises(ValueError):
        split_stream(0, -1)
    with pytest.raises(ValueError):
        split_stream(0, 2**64)
    with pytest.raises(TypeError):
        split_stream(0, 1.0)
    split_stream(2**64 - 1, 2**64 - 1)  # both ends of the range are valid
