import numpy as np
import pytest

from nullshadow.streams import GOLDEN, MASK64, draw_u64, mix64, uniform_at, uniforms_at


def test_mix64_is_deterministic_and_bounded():
    assert mix64(0) == mix64(0)
    assert 0 <= mix64(123456789) < 2**64
    assert mix64(2**64 + 5) == mix64(5)  # masked to 64 bits


def test_known_answers():
    # The first two outputs of the reference splitmix64 seeded with 0
    # (Steele, Lea & Flood, OOPSLA 2014): its state advances by GOLDEN and
    # each output is mix64 of the state, so a wrong constant shows here.
    assert mix64(GOLDEN) == 0xE220A8397B1DCDAF
    assert mix64(2 * GOLDEN & MASK64) == 0x6E789E6AA1B965F4
    # the first variate of seed 0, by both paths
    assert uniform_at(0, 0, 0) == uniforms_at(0, np.arange(1), 0)[0] == 0.6524484863740322


def test_scalar_and_vector_paths_agree():
    idx = np.arange(2000)
    for seed in (0, 42, 2**63 + 11):
        for slot in (0, 1, 5, 300):
            vec = uniforms_at(seed, idx, slot)
            sca = np.array([uniform_at(seed, i, slot) for i in range(2000)])
            assert np.array_equal(vec, sca)


def test_draws_are_addressed_not_sequential():
    # same triple always gives the same value; changing any coordinate
    # changes it
    base = draw_u64(7, 3, 1)
    assert draw_u64(7, 3, 1) == base
    assert draw_u64(8, 3, 1) != base
    assert draw_u64(7, 4, 1) != base
    assert draw_u64(7, 3, 2) != base


def test_uniform_range_and_moments():
    u = uniforms_at(99, np.arange(100_000), 0)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert u.mean() == pytest.approx(0.5, abs=0.005)
    assert u.var() == pytest.approx(1.0 / 12.0, abs=0.002)


def test_adjacent_substreams_uncorrelated():
    a = uniforms_at(5, np.arange(50_000), 0)
    b = uniforms_at(5, np.arange(1, 50_001), 0)
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 0.02
