import cmath
import math

import pytest

from nullshadow.core import (
    EXCITED,
    GROUND,
    AtomParams,
    ConfigurationError,
    QubitState,
    density_from_state,
    fidelity,
    free_evolve,
    normalize,
)

HALF = QubitState.from_excited_probability(0.5)
PARAMS = AtomParams(e0=0.3, e1=1.7, gamma=1.0)


class TestNormalize:
    def test_already_normalized(self):
        s = normalize(QubitState(1.0, 0.0))
        assert s.a0 == 1.0 and s.a1 == 0.0

    def test_scaling(self):
        s = normalize(QubitState(2.0, 0.0))
        assert s.a0 == pytest.approx(1.0, abs=1e-12)
        assert s.a1 == 0.0

    def test_symmetric(self):
        s = normalize(QubitState(1.0, 1.0))
        assert s.a0 == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert s.a1 == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_null_state_raises(self):
        with pytest.raises(ValueError, match="null state"):
            normalize(QubitState(0.0, 0.0))

    def test_relative_phase_preserved(self):
        s = normalize(QubitState(3.0, 3.0j))
        assert s.a1 / s.a0 == pytest.approx(1j, abs=1e-12)

    def test_tiny_amplitudes_survive(self):
        # hypot-based norm must not underflow to zero
        s = normalize(QubitState(1e-200, 1e-200))
        assert s.norm == pytest.approx(1.0, abs=1e-12)


class TestFreeEvolve:
    def test_t_zero_is_identity(self):
        s = free_evolve(HALF, PARAMS, 0.0)
        assert s == HALF

    def test_ground_gets_global_phase_only(self):
        t = 2.37
        s = free_evolve(GROUND, PARAMS, t)
        assert s.ground_population == pytest.approx(1.0, abs=1e-12)
        assert s.a0 == pytest.approx(cmath.exp(-1j * PARAMS.e0 * t), abs=1e-12)

    def test_pi_gap_flips_relative_sign(self):
        # gap of pi over unit time rotates the relative phase by -pi;
        # oracle: straight scalar exponentiation of each amplitude
        params = AtomParams(e0=0.0, e1=math.pi, gamma=0.0)
        s = free_evolve(HALF, params, 1.0)
        expected = QubitState(
            HALF.a0 * cmath.exp(-1j * 0.0), HALF.a1 * cmath.exp(-1j * math.pi)
        )
        assert s.excited_population == pytest.approx(0.5, abs=1e-12)
        assert fidelity(s, expected) == pytest.approx(1.0, abs=1e-12)
        rel = (s.a1 / s.a0) / (HALF.a1 / HALF.a0)
        assert cmath.phase(rel) == pytest.approx(-math.pi, abs=1e-12)

    @pytest.mark.parametrize("t", [0.0, 0.1, 1.0, 17.5, 400.0])
    def test_populations_exactly_preserved(self, t):
        s = normalize(QubitState(0.3 + 0.4j, 0.5 - 0.2j))
        out = free_evolve(s, PARAMS, t)
        assert out.ground_population == pytest.approx(s.ground_population, abs=1e-12)
        assert out.excited_population == pytest.approx(s.excited_population, abs=1e-12)

    def test_composition(self):
        s = normalize(QubitState(0.6, 0.8j))
        a = free_evolve(free_evolve(s, PARAMS, 1.3), PARAMS, 2.9)
        b = free_evolve(s, PARAMS, 4.2)
        assert abs(a.a0 - b.a0) < 1e-9
        assert abs(a.a1 - b.a1) < 1e-9

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            free_evolve(HALF, PARAMS, -0.5)


class TestFidelity:
    def test_self_fidelity(self):
        s = normalize(QubitState(0.123 + 0.7j, -0.4 + 0.2j))
        assert fidelity(s, s) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert fidelity(GROUND, EXCITED) == 0.0

    def test_half_overlap(self):
        assert fidelity(HALF, GROUND) == pytest.approx(0.5, abs=1e-12)

    def test_symmetric(self):
        s1 = normalize(QubitState(0.9, 0.1j))
        s2 = normalize(QubitState(0.2 - 0.3j, 0.8))
        assert fidelity(s1, s2) == pytest.approx(fidelity(s2, s1), abs=1e-15)

    @pytest.mark.parametrize("phase", [0.1, math.pi / 3, 2.0, -1.2])
    def test_global_phase_invariance(self, phase):
        s1 = normalize(QubitState(0.6, 0.8))
        s2 = QubitState(s1.a0 * cmath.exp(1j * phase), s1.a1 * cmath.exp(1j * phase))
        assert fidelity(s1, s2) == pytest.approx(1.0, abs=1e-12)
        assert fidelity(s2, s1) == pytest.approx(1.0, abs=1e-12)


class TestDensityFromState:
    def test_ground_projector(self):
        rho = density_from_state(GROUND)
        assert (rho.rho00, rho.rho11, rho.rho01) == (1.0, 0.0, 0.0)

    def test_symmetric_superposition(self):
        rho = density_from_state(HALF)
        assert rho.rho00 == pytest.approx(0.5, abs=1e-12)
        assert rho.rho11 == pytest.approx(0.5, abs=1e-12)
        assert rho.rho01 == pytest.approx(0.5, abs=1e-12)

    def test_imaginary_superposition_conjugates(self):
        s = QubitState(1 / math.sqrt(2), 1j / math.sqrt(2))
        rho = density_from_state(s)
        assert rho.rho01 == pytest.approx(-0.5j, abs=1e-12)

    @pytest.mark.parametrize(
        "raw", [(0.3, 0.7), (0.5 + 0.5j, -0.1j), (1.0, 1.0), (0.2 - 0.9j, 0.4 + 0.1j)]
    )
    def test_trace_and_purity(self, raw):
        rho = density_from_state(normalize(QubitState(*raw)))
        assert rho.trace == pytest.approx(1.0, abs=1e-9)
        assert rho.purity == pytest.approx(1.0, abs=1e-9)
        rho.validate()


class TestAtomParams:
    def test_lifetime_is_inverse_rate(self):
        assert AtomParams(0.0, 1.0, 4.0).lifetime == pytest.approx(0.25)

    def test_no_decay_means_infinite_lifetime(self):
        assert AtomParams(0.0, 1.0, 0.0).lifetime == math.inf

    def test_omega_is_gap(self):
        assert PARAMS.omega == pytest.approx(1.4, abs=1e-15)

    def test_inverted_levels_rejected(self):
        with pytest.raises(ConfigurationError):
            AtomParams(e0=1.0, e1=0.0, gamma=1.0)

    def test_negative_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            AtomParams(e0=0.0, e1=1.0, gamma=-0.1)

    @pytest.mark.parametrize(
        "e0, e1, gamma",
        [(math.nan, 1.0, 1.0), (0.0, math.nan, 1.0), (0.0, math.inf, 1.0),
         (-math.inf, 1.0, 1.0), (0.0, 1.0, math.nan), (0.0, 1.0, math.inf)],
    )
    def test_non_finite_values_rejected(self, e0, e1, gamma):
        with pytest.raises(ConfigurationError):
            AtomParams(e0=e0, e1=e1, gamma=gamma)

    def test_degenerate_gap_allowed(self):
        assert AtomParams(0.0, 0.0, 1.0).omega == 0.0


def test_from_excited_probability_bounds():
    with pytest.raises(ValueError):
        QubitState.from_excited_probability(1.5)
    s = QubitState.from_excited_probability(0.25)
    assert s.excited_population == pytest.approx(0.25, abs=1e-12)
    assert s.norm == pytest.approx(1.0, abs=1e-12)
