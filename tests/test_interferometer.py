import cmath
import math

import numpy as np
import pytest

from nullshadow.core import ConfigurationError
from nullshadow.interferometer import (
    EVConfig,
    ModeState,
    Outcome,
    apply_arm_phases,
    apply_blocker,
    beam_splitter,
    detection_probs,
    sample_photon,
)
from nullshadow.streams import uniforms_at

BALANCED = ModeState(1 / math.sqrt(2), 1j / math.sqrt(2))


def oracle_probs(cfg: EVConfig) -> tuple[float, float, float]:
    """Independent 2x2 matrix-composition oracle (numpy linear algebra)."""

    def bs(T):
        return np.array(
            [[math.sqrt(T), 1j * math.sqrt(1 - T)], [1j * math.sqrt(1 - T), math.sqrt(T)]]
        )

    v = np.array([0.0, 1.0], dtype=complex)  # photon enters rail b
    v = bs(cfg.splitter1_transmissivity) @ v
    v = np.diag([cmath.exp(1j * cfg.phase_a), cmath.exp(1j * cfg.phase_b)]) @ v
    absorbed = 0.0
    if cfg.blocker is not None:
        k = 0 if cfg.blocker == "a" else 1
        absorbed = abs(v[k]) ** 2
        v[k] = 0.0
    v = bs(cfg.splitter2_transmissivity) @ v
    return abs(v[0]) ** 2, abs(v[1]) ** 2, absorbed


class TestBeamSplitter:
    def test_full_transmission_is_identity(self):
        m = ModeState(0.6, 0.8j)
        out = beam_splitter(m, 1.0)
        assert out.amp_a == m.amp_a and out.amp_b == m.amp_b

    def test_balanced_split_with_i_on_reflection(self):
        out = beam_splitter(ModeState(1.0, 0.0), 0.5)
        assert out.amp_a == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert out.amp_b == pytest.approx(1j / math.sqrt(2), abs=1e-12)

    def test_two_balanced_splitters_swap_rails(self):
        out = beam_splitter(beam_splitter(ModeState(1.0, 0.0), 0.5), 0.5)
        assert abs(out.amp_a) < 1e-12
        assert abs(out.amp_b) == pytest.approx(1.0, abs=1e-12)

    def test_unitary_preserves_inner_products(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.normal(size=4)
            b = rng.normal(size=4)
            m1 = ModeState(a[0] + 1j * a[1], a[2] + 1j * a[3])
            m2 = ModeState(b[0] + 1j * b[1], b[2] + 1j * b[3])
            before = m1.amp_a.conjugate() * m2.amp_a + m1.amp_b.conjugate() * m2.amp_b
            t = rng.uniform()
            o1, o2 = beam_splitter(m1, t), beam_splitter(m2, t)
            after = o1.amp_a.conjugate() * o2.amp_a + o1.amp_b.conjugate() * o2.amp_b
            assert after == pytest.approx(before, abs=1e-12)

    def test_out_of_range_transmissivity(self):
        with pytest.raises(ConfigurationError):
            beam_splitter(BALANCED, 1.2)


class TestArmPhases:
    def test_zero_phases_are_identity(self):
        out = apply_arm_phases(BALANCED, 0.0, 0.0)
        assert out.amp_a == BALANCED.amp_a and out.amp_b == BALANCED.amp_b

    def test_common_phase_is_global(self):
        for theta in (0.4, 2.0):
            with_common = EVConfig(phase_a=theta, phase_b=theta)
            p = detection_probs(with_common)
            q = detection_probs(EVConfig())
            assert p.p_d1 == pytest.approx(q.p_d1, abs=1e-12)
            assert p.p_d2 == pytest.approx(q.p_d2, abs=1e-12)

    def test_pi_offset_flips_detectors(self):
        p = detection_probs(EVConfig(phase_a=math.pi, phase_b=0.0))
        assert p.p_d1 == pytest.approx(0.0, abs=1e-12)
        assert p.p_d2 == pytest.approx(1.0, abs=1e-12)

    def test_norms_unchanged(self):
        out = apply_arm_phases(BALANCED, 1.1, -0.3)
        assert out.total_probability == pytest.approx(1.0, abs=1e-12)


class TestBlocker:
    def test_blocking_empty_arm_is_noop(self):
        m = ModeState(0.0, 1.0)
        out = apply_blocker(m, "a")
        assert out.amp_b == 1.0 and out.p_absorbed == 0.0

    def test_blocking_balanced_arm_b(self):
        out = apply_blocker(BALANCED, "b")
        assert out.p_absorbed == pytest.approx(0.5, abs=1e-12)
        assert out.amp_b == 0.0
        assert out.total_probability == pytest.approx(1.0, abs=1e-12)

    def test_idempotent(self):
        once = apply_blocker(BALANCED, "b")
        twice = apply_blocker(once, "b")
        assert twice == once

    def test_bad_arm(self):
        with pytest.raises(ConfigurationError):
            apply_blocker(BALANCED, "c")


class TestDetectionProbs:
    def test_no_blocker_reconstructs_photon_at_d1(self):
        p = detection_probs(EVConfig())
        assert p.p_d1 == pytest.approx(1.0, abs=1e-12)
        assert p.p_d2 < 1e-12
        assert p.p_absorbed == 0.0

    def test_blocker_quarter_quarter_half(self):
        for arm in ("a", "b"):
            p = detection_probs(EVConfig(blocker=arm))
            assert p.p_d1 == pytest.approx(0.25, abs=1e-12)
            assert p.p_d2 == pytest.approx(0.25, abs=1e-12)
            assert p.p_absorbed == pytest.approx(0.5, abs=1e-12)

    def test_blocker_in_dark_arm_never_fires(self):
        # splitter 1 fully transmitting puts the photon entirely in arm
        # b; a blocker in arm a is then irrelevant and a fully
        # reflecting second splitter returns everything to D1
        cfg = EVConfig(splitter1_transmissivity=1.0, splitter2_transmissivity=0.0, blocker="a")
        p = detection_probs(cfg)
        assert p == pytest.approx((1.0, 0.0, 0.0), abs=1e-12)
        # the blocker is a no-op for any second splitter: nothing is
        # ever absorbed
        for t2 in (0.3, 0.5, 1.0):
            cfg = EVConfig(splitter1_transmissivity=1.0, splitter2_transmissivity=t2, blocker="a")
            blocked = detection_probs(cfg)
            open_cfg = EVConfig(splitter1_transmissivity=1.0, splitter2_transmissivity=t2)
            assert blocked.p_absorbed == 0.0
            assert blocked == pytest.approx(detection_probs(open_cfg), abs=1e-12)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            cfg = EVConfig(
                splitter1_transmissivity=float(rng.uniform()),
                splitter2_transmissivity=float(rng.uniform()),
                phase_a=float(rng.uniform(0, 2 * math.pi)),
                phase_b=float(rng.uniform(0, 2 * math.pi)),
                blocker=[None, "a", "b"][int(rng.integers(3))],
            )
            p = detection_probs(cfg)
            assert p.p_d1 + p.p_d2 + p.p_absorbed == pytest.approx(1.0, abs=1e-12)

    def test_matches_matrix_oracle_on_random_configs(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            cfg = EVConfig(
                splitter1_transmissivity=float(rng.uniform()),
                splitter2_transmissivity=float(rng.uniform()),
                phase_a=float(rng.uniform(0, 2 * math.pi)),
                phase_b=float(rng.uniform(0, 2 * math.pi)),
                blocker=[None, "a", "b"][int(rng.integers(3))],
            )
            assert detection_probs(cfg) == pytest.approx(oracle_probs(cfg), abs=1e-12)

    def test_fringe_law(self):
        for delta in np.linspace(0.0, 2 * math.pi, 64):
            p = detection_probs(EVConfig(phase_a=float(delta), phase_b=0.0))
            assert p.p_d2 == pytest.approx(math.sin(delta / 2) ** 2, abs=1e-12)
            assert p.p_d1 + p.p_d2 == pytest.approx(1.0, abs=1e-12)

    def test_pipeline_conserves_probability_stage_by_stage(self):
        m = ModeState(0.0j, 1.0 + 0.0j)
        assert m.total_probability == pytest.approx(1.0, abs=1e-12)
        m = beam_splitter(m, 0.37)
        assert m.total_probability == pytest.approx(1.0, abs=1e-12)
        m = apply_arm_phases(m, 0.9, 2.2)
        assert m.total_probability == pytest.approx(1.0, abs=1e-12)
        m = apply_blocker(m, "a")
        assert m.total_probability == pytest.approx(1.0, abs=1e-12)
        m = beam_splitter(m, 0.81)
        assert m.total_probability == pytest.approx(1.0, abs=1e-12)


class TestSamplePhoton:
    def test_no_blocker_every_u_hits_d1(self):
        for u in (0.0, 0.4, 0.9999):
            assert sample_photon(EVConfig(), u) is Outcome.D1

    def test_blocker_thresholds(self):
        cfg = EVConfig(blocker="b")
        assert sample_photon(cfg, 0.1) is Outcome.D1
        assert sample_photon(cfg, 0.3) is Outcome.D2  # interaction-free detection
        assert sample_photon(cfg, 0.9) is Outcome.ABSORBED

    def test_u_domain(self):
        with pytest.raises(ValueError):
            sample_photon(EVConfig(), 1.0)

    def test_frequencies_converge_to_exact_probs(self):
        cfg = EVConfig(blocker="b")
        n = 100_000
        us = uniforms_at(7, np.arange(n), 0)
        counts = {Outcome.D1: 0, Outcome.D2: 0, Outcome.ABSORBED: 0}
        for u in us:
            counts[sample_photon(cfg, float(u))] += 1
        p = detection_probs(cfg)
        for outcome, prob in zip((Outcome.D1, Outcome.D2, Outcome.ABSORBED), p):
            sigma = math.sqrt(prob * (1 - prob) / n)
            assert abs(counts[outcome] / n - prob) <= 3 * sigma


def test_evconfig_validation():
    with pytest.raises(ConfigurationError):
        EVConfig(splitter1_transmissivity=-0.1)
    with pytest.raises(ConfigurationError):
        EVConfig(splitter2_transmissivity=1.0001)
    with pytest.raises(ConfigurationError):
        EVConfig(blocker="x")
    for phase in (math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigurationError):
            EVConfig(phase_a=phase)
        with pytest.raises(ConfigurationError):
            EVConfig(phase_b=phase)
