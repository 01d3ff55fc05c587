import cmath
import math

import numpy as np
import pytest

from nullshadow.core import ConfigurationError
from nullshadow.interferometer import OUTCOMES, EVConfig, count_outcomes, detection_probs
from nullshadow.streams import uniforms_at

EDGE_TRANSMISSIVITIES = (0.0, 1.0, 0.5, 1e-300, 1.0 - 2.0**-53)
EDGE_PHASES = (0.0, -0.0, math.pi, -math.pi, 1e300, -1e300, 5e-324)
BLOCKERS = (None, "a", "b")


def reference_stages(cfg: EVConfig) -> tuple[float, float, float]:
    """The four-stage pipeline on plain complex numbers: the bit-exact reference.

    A state is (amp_a, amp_b, p_absorbed).  The photon enters rail b, then
    splitter 1, the arm phases, the optional blocker and splitter 2 act in
    turn, each with the operations and operand order of the staged code
    that ``detection_probs`` replaced.
    """

    def splitter(a, b, p, t):
        ct = math.sqrt(t)
        cr = 1j * math.sqrt(1.0 - t)
        return ct * a + cr * b, cr * a + ct * b, p

    a, b, p = 0.0j, 1.0 + 0.0j, 0.0
    a, b, p = splitter(a, b, p, cfg.splitter1_transmissivity)
    a, b = a * cmath.exp(1j * cfg.phase_a), b * cmath.exp(1j * cfg.phase_b)
    if cfg.blocker == "a":
        a, b, p = 0.0j, b, p + abs(a) ** 2
    elif cfg.blocker == "b":
        a, b, p = a, 0.0j, p + abs(b) ** 2
    a, b, p = splitter(a, b, p, cfg.splitter2_transmissivity)
    return abs(a) ** 2, abs(b) ** 2, p


def reference_fate(probs, u: float) -> str:
    """One photon's fate by the scalar inverse-transform rule, in OUTCOMES order."""
    if not 0.0 <= u < 1.0:
        raise ValueError(f"uniform variate must be in [0, 1), got {u}")
    if u < probs.p_d1:
        return "D1"
    if u < probs.p_d1 + probs.p_d2:
        return "D2"
    return "Absorbed"


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


def random_configs(seed: int, n: int) -> list[EVConfig]:
    """Transmissivities in [0, 1] and phases of magnitude 1e-6 to 1e6, both signs."""
    rng = np.random.default_rng(seed)
    t = rng.uniform(size=(n, 2))
    phases = rng.choice([-1.0, 1.0], size=(n, 2)) * 10.0 ** rng.uniform(-6, 6, size=(n, 2))
    blockers = rng.integers(3, size=n)
    return [
        EVConfig(float(t1), float(t2), float(pa), float(pb), BLOCKERS[k])
        for (t1, t2), (pa, pb), k in zip(t, phases, blockers)
    ]


class TestBeamSplitter:
    def test_full_transmission_is_identity(self):
        # two transparent splitters leave the photon in rail b
        for blocker in (None, "a"):
            p = detection_probs(EVConfig(1.0, 1.0, 0.7, -1.3, blocker))
            assert p == pytest.approx((0.0, 1.0, 0.0), abs=1e-12)

    def test_balanced_split_with_i_on_reflection(self):
        # Both paths to D1 take one reflection and interfere constructively;
        # the paths to D2 take none or two, and i^2 = -1 makes them cancel.
        for t1 in (0.0, 0.2, 0.5, 0.9, 1.0):
            for t2 in (0.0, 0.3, 0.5, 1.0):
                p = detection_probs(EVConfig(t1, t2))
                r1, r2 = 1.0 - t1, 1.0 - t2
                assert p.p_d1 == pytest.approx((math.sqrt(r1 * t2) + math.sqrt(t1 * r2)) ** 2, abs=1e-12)
                assert p.p_d2 == pytest.approx((math.sqrt(t1 * t2) - math.sqrt(r1 * r2)) ** 2, abs=1e-12)

    def test_two_balanced_splitters_swap_rails(self):
        # launched in rail b, the photon leaves in rail a
        p = detection_probs(EVConfig(0.5, 0.5))
        assert p.p_d1 == pytest.approx(1.0, abs=1e-12)
        assert p.p_d2 < 1e-12

    def test_unitary_preserves_inner_products(self):
        # without a blocker the device is unitary: nothing is lost
        for cfg in random_configs(3, 200):
            if cfg.blocker is None:
                p = detection_probs(cfg)
                assert p.p_d1 + p.p_d2 == pytest.approx(1.0, abs=1e-12)
                assert p.p_absorbed == 0.0

    def test_out_of_range_transmissivity(self):
        with pytest.raises(ConfigurationError):
            EVConfig(splitter1_transmissivity=1.2)
        with pytest.raises(ConfigurationError):
            EVConfig(splitter2_transmissivity=-0.2)


class TestArmPhases:
    def test_zero_phases_are_identity(self):
        for cfg in random_configs(5, 50):
            plain = EVConfig(cfg.splitter1_transmissivity, cfg.splitter2_transmissivity, blocker=cfg.blocker)
            signed = EVConfig(
                cfg.splitter1_transmissivity, cfg.splitter2_transmissivity, -0.0, -0.0, cfg.blocker
            )
            full_turn = EVConfig(
                cfg.splitter1_transmissivity, cfg.splitter2_transmissivity,
                2 * math.pi, -2 * math.pi, cfg.blocker,
            )
            assert detection_probs(signed) == detection_probs(plain)
            assert detection_probs(full_turn) == pytest.approx(detection_probs(plain), abs=1e-12)

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
        # a transparent second splitter reads the arm populations directly
        for t1 in (0.1, 0.5, 0.8):
            for phase_a, phase_b in ((1.1, -0.3), (0.0, 2.5), (-4.0, 4.0)):
                p = detection_probs(EVConfig(t1, 1.0, phase_a, phase_b))
                assert p == pytest.approx((1.0 - t1, t1, 0.0), abs=1e-12)


class TestBlocker:
    def test_blocking_empty_arm_is_noop(self):
        # T1 = 1 leaves arm a empty, T1 = 0 leaves arm b empty
        for t1, arm in ((1.0, "a"), (0.0, "b")):
            for t2 in (0.0, 0.3, 1.0):
                blocked = detection_probs(EVConfig(t1, t2, 0.4, 1.7, arm))
                assert blocked == detection_probs(EVConfig(t1, t2, 0.4, 1.7))
                assert blocked.p_absorbed == 0.0

    def test_blocking_balanced_arm_b(self):
        # with a transparent second splitter, D1 reads arm a and D2 the blocked arm b
        p = detection_probs(EVConfig(0.5, 1.0, blocker="b"))
        assert p.p_absorbed == pytest.approx(0.5, abs=1e-12)
        assert p.p_d1 == pytest.approx(0.5, abs=1e-12)
        assert p.p_d2 == 0.0
        assert sum(p) == pytest.approx(1.0, abs=1e-12)

    def test_bad_arm(self):
        with pytest.raises(ConfigurationError):
            EVConfig(blocker="c")


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
        for cfg in random_configs(11, 50):
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
        # A transparent second splitter exposes the rails after the
        # earlier stages: phases alone, then the blocker, then splitter 2.
        for cfg in (
            EVConfig(0.37, 1.0, 0.9, 2.2),
            EVConfig(0.37, 1.0, 0.9, 2.2, "a"),
            EVConfig(0.37, 0.81, 0.9, 2.2, "a"),
        ):
            assert sum(detection_probs(cfg)) == pytest.approx(1.0, abs=1e-12)

    def test_closed_form_is_bit_identical_to_the_stage_pipeline(self):
        edges = [
            EVConfig(t1, t2, pa, pb, blocker)
            for t1 in EDGE_TRANSMISSIVITIES
            for t2 in EDGE_TRANSMISSIVITIES
            for pa in EDGE_PHASES
            for pb in EDGE_PHASES
            for blocker in BLOCKERS
        ]
        for cfg in edges + random_configs(29, 10_000):
            expected = tuple(map(repr, reference_stages(cfg)))
            assert tuple(map(repr, detection_probs(cfg))) == expected, cfg


class TestCountOutcomes:
    def test_no_blocker_every_u_hits_d1(self):
        assert count_outcomes(detection_probs(EVConfig()), [0.0, 0.4, 0.9999]) == (3, 0, 0)

    def test_blocker_thresholds(self):
        probs = detection_probs(EVConfig(blocker="b"))
        assert count_outcomes(probs, [0.1]) == (1, 0, 0)
        assert count_outcomes(probs, [0.3]) == (0, 1, 0)  # interaction-free detection
        assert count_outcomes(probs, [0.9]) == (0, 0, 1)
        assert count_outcomes(probs, np.array([0.9, 0.1, 0.3, 0.1])) == (2, 1, 1)
        assert count_outcomes(probs, np.array([])) == (0, 0, 0)

    def test_u_domain(self):
        probs = detection_probs(EVConfig())
        for bad in ([1.0], [0.5, -0.1], [math.nan], [math.inf]):
            with pytest.raises(ValueError):
                count_outcomes(probs, bad)

    def test_frequencies_converge_to_exact_probs(self):
        n = 100_000
        p = detection_probs(EVConfig(blocker="b"))
        counts = count_outcomes(p, uniforms_at(7, np.arange(n), 0))
        assert sum(counts) == n
        for count, prob in zip(counts, p):
            sigma = math.sqrt(prob * (1 - prob) / n)
            assert abs(count / n - prob) <= 3 * sigma

    def test_counts_follow_the_scalar_rule_shot_by_shot(self):
        for cfg in random_configs(31, 20):
            probs = detection_probs(cfg)
            us = uniforms_at(13, np.arange(50), 0)
            for u in us:
                fate = reference_fate(probs, float(u))
                assert count_outcomes(probs, [u]) == tuple(int(tag == fate) for tag in OUTCOMES)
            fates = [reference_fate(probs, float(u)) for u in us]
            assert count_outcomes(probs, us) == tuple(fates.count(tag) for tag in OUTCOMES)


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
