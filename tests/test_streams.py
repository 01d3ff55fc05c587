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


# Known answers of draw_u64 and uniform_at by (seed, slot) at INDICES,
# recorded when streams still wrote its int and array paths separately, and
# checked on both.  Seeds -1 and 2**64 + 7 wrap mod 2**64.
INDICES = (0, 1, 2**32, 2**64 - 1)
WORDS = {
    (0, 0): (0xA706DD2F4D197E6F, 0x46B73E79F0C37C00, 0x618640D511EA0C16, 0xE220A8397B1DCDAF),
    (0, 1): (0xB382A305F4414F5E, 0x374327C63D0CC8A6, 0x8858072C497ACFB9, 0x6E789E6AA1B965F4),
    (0, 300): (0xD117907CE3C8A44A, 0xBFE2B277ADE328B9, 0x43DB69900A0070E7, 0xDAA5F80FE9D0F70D),
    (42, 0): (0x57E1FABA65107204, 0xFC991BCA1A1AA1AE, 0xD15D8CDBBC1E2AC9, 0x989B3F130A063869),
    (42, 1): (0xF4ABD143FEB24055, 0x4F0482A72B57EE7D, 0xFB03ECA0D47B380D, 0x290DB4BF2570DED7),
    (42, 300): (0x8043378E548F552C, 0xF31CF4043AF62702, 0x09D820FEAAE358E3, 0xE3B9A20BF40BB2A0),
    (2**63 + 11, 0): (0x996AA8250D998E03, 0x69C2D4213E055B62, 0x5D2E8CCF21522AAB, 0x73605D7AEADF15A2),
    (2**63 + 11, 1): (0x378CEE7DCA333DF7, 0xDA6DCE8FAA8892A3, 0xCB3C0703CC3361D3, 0x1F87AC2D63B397C6),
    (2**63 + 11, 300): (0x086FAC73FB63BE19, 0x83DA0D942BD31555, 0x1F6AD345AF170795, 0xBC8BD3B708D03E8E),
    (-1, 0): (0x5DC20AA7B2A27137, 0x7F46A57C92DBEE5F, 0x1CD3E85404DC688F, 0xA577782BC52A9F5A),
    (-1, 1): (0xBDA5668A01D7049C, 0x397992487F4B0305, 0x497EB4C7EF5767C4, 0xB485244380E590BE),
    (-1, 300): (0x58569E1D066C4999, 0x5C0E12893E7B7AFB, 0x618126941BEDFE25, 0x1392A62D6760391B),
    (2**64 + 7, 0): (0xB8B4C2977EABCE45, 0x8254FD5B2111DCE4, 0xCDAB4EC3606FA555, 0x863B891F4C0ABD4F),
    (2**64 + 7, 1): (0xA65305FD338EC8FE, 0xC052C5BC0D7F2360, 0x32A809FA9E10B9C7, 0x4D58FBD282EAF415),
    (2**64 + 7, 300): (0xB88B842DE9B8A12C, 0x1B65915D26ABED2C, 0x7FAF4BC1472F873C, 0x4BE87933EA3249CA),
}

UNIFORMS = {
    (0, 0): (0.6524484863740322, 0.27623358227789463, 0.3809547920408606, 0.8833108082136426),
    (0, 1): (0.7012121095215252, 0.21586845960432577, 0.5325932009813911, 0.43152799704850997),
    (0, 300): (0.816765814295453, 0.7495528738198912, 0.2650667168290981, 0.854094985852331),
    (42, 0): (0.34329192209867343, 0.9867112511075029, 0.8178337131940842, 0.5961188718302076),
    (42, 1): (0.9557467261317436, 0.30866257268220887, 0.9805286305095081, 0.1603653875985772),
    (42, 300): (0.5010256502615082, 0.9496605406120229, 0.03845411508053809, 0.8895512847121114),
    (2**63 + 11, 0): (0.59928370384805, 0.4131290990026363, 0.363991547173392, 0.4506891656009169),
    (2**63 + 11, 1): (0.2169941956619369, 0.8532380200145175, 0.7938846954604748, 0.12316394909039574),
    (2**63 + 11, 300): (0.03295400458900033, 0.5150459753748005, 0.1227237744452303, 0.7365085908757586),
    (-1, 0): (0.3662420901697574, 0.49717172900533024, 0.11260845233197048, 0.64635420864685),
    (-1, 1): (0.7408050620013817, 0.22451128263427833, 0.2870896328089123, 0.7051565804294084),
    (-1, 300): (0.34507168015117984, 0.35958972788510646, 0.380876933249901, 0.07645643814555647),
    (2**64 + 7, 0): (0.7215081806049702, 0.5091093394740435, 0.8033951975816636, 0.5243459416779314),
    (2**64 + 7, 1): (0.6497043364684557, 0.7512630066025818, 0.19787657135572345, 0.30213903321684277),
    (2**64 + 7, 300): (0.720878850182745, 0.10701855205722632, 0.49876855343535276, 0.29651601331188104),
}


@pytest.mark.parametrize("seed, slot", list(WORDS))
def test_known_answer_table_on_ints_and_arrays(seed, slot):
    assert tuple(draw_u64(seed, i, slot) for i in INDICES) == WORDS[seed, slot]
    assert tuple(uniform_at(seed, i, slot) for i in INDICES) == UNIFORMS[seed, slot]
    indices = np.array(INDICES, dtype=np.uint64)
    assert tuple(draw_u64(seed, indices, slot).tolist()) == WORDS[seed, slot]
    assert tuple(uniforms_at(seed, indices, slot).tolist()) == UNIFORMS[seed, slot]


def test_the_largest_word_maps_below_one():
    # the top 53 bits of any word, scaled, stay below 1: draws lie in [0, 1)
    assert (MASK64 >> 11) * 2**-53 == 1 - 2**-53


def test_mix64_mixes_an_array_in_place():
    z = np.array([GOLDEN, 2 * GOLDEN & MASK64], dtype=np.uint64)
    assert mix64(z) is z
    assert z.tolist() == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4]


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


# Seeds overlap along the golden-ratio direction: the substream of atom i
# is mix64(seed + GOLDEN * (i + 1)), so seed s + k * GOLDEN (mod 2**64)
# replays seed s shifted by k atoms.
@pytest.mark.parametrize("slot", [0, 1])
def test_a_golden_multiple_of_seed_replays_shifted_atoms(slot):
    idx = np.arange(1000)
    for seed in (0, 42, MASK64):
        for k in (1, 5, 1000):
            shifted = uniforms_at((seed + k * GOLDEN) & MASK64, idx, slot)
            assert np.array_equal(shifted, uniforms_at(seed, idx + k, slot))


def test_no_small_seed_difference_replays_shifted_atoms():
    # Seed s + d replays seed s shifted by k atoms where k * GOLDEN == d
    # (mod 2**64), and by -k in the other direction; no run of 10**12 atoms
    # or fewer reaches that far.
    inverse = pow(GOLDEN, -1, 1 << 64)
    for d in range(1, 1 << 16):
        k = d * inverse & MASK64
        assert min(k, (1 << 64) - k) >= 10**12, d


def test_an_atoms_two_slots_are_jointly_uniform():
    # premeasure collapses an atom by its slot-0 draw and times its jump by
    # its slot-1 draw, which must not depend on each other.  A chi-square of
    # the 16 x 16 table of their top 4 bits, 255 degrees of freedom: the
    # draws are fixed by the seed, so the statistic is too, and the bound is
    # its upper 1e-6 quantile, 377.08.  It read 244-271 at these seeds.
    n = 100_000
    for seed in (0, 1, 2, 7, 42):
        top = [(uniforms_at(seed, np.arange(n), slot) * 16).astype(np.int64) for slot in (0, 1)]
        counts = np.bincount(top[0] * 16 + top[1], minlength=256)
        expected = n / 256
        assert ((counts - expected) ** 2 / expected).sum() < 377.08, seed
