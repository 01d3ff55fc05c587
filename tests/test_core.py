import cmath
import math
import re

import numpy as np
import pytest

from nullshadow.core import (
    AtomParams,
    ConfigurationError,
    QubitState,
    normalize,
)
from nullshadow.dynamics import no_jump_series
from reference import EXCITED, GROUND, DensityMatrix2, check_state, density_from_state

HALF = QubitState.from_excited_probability(0.5)
PARAMS = AtomParams(e0=0.3, e1=1.7, gamma=1.0)
FREE = AtomParams(e0=0.3, e1=1.7, gamma=0.0)  # no decay channel: free evolution


def evolved(state, params, t):
    """Projector of the state after time t without a click."""
    s = no_jump_series(state, params, np.array([t]))
    return DensityMatrix2(float(s.rho00[0]), float(s.rho11[0]), complex(s.rho01[0]))


def state_of(rho):
    """A pure state whose projector is rho (the global phase is free)."""
    a0 = math.sqrt(rho.rho00)
    return QubitState(complex(a0), rho.rho01.conjugate() / a0)


def overlap(s1, s2):
    """tr(rho1 rho2) of the two projectors: |<s1|s2>|^2 for pure states."""
    r, q = density_from_state(s1), density_from_state(s2)
    return r.rho00 * q.rho00 + r.rho11 * q.rho11 + 2.0 * (r.rho01 * q.rho01.conjugate()).real


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

    @pytest.mark.parametrize(
        "state, shown",
        [(QubitState(complex(math.nan), 1), "(nan+0j)"), (QubitState(complex(math.inf), 1), "(inf+0j)"),
         (QubitState(1, complex(0.0, -math.inf)), "-infj")],
        ids=["nan", "inf", "imaginary-inf"],
    )
    def test_non_finite_amplitude_raises(self, state, shown):
        # scaling a NaN or infinite amplitude gave a NaN state, not an error
        with pytest.raises(ValueError, match=re.escape(f"amplitudes must be finite, got {shown}")):
            normalize(state)

    def test_relative_phase_preserved(self):
        s = normalize(QubitState(3.0, 3.0j))
        assert s.a1 / s.a0 == pytest.approx(1j, abs=1e-12)

    def test_tiny_amplitudes_survive(self):
        # hypot-based norm must not underflow to zero
        s = normalize(QubitState(1e-200, 1e-200))
        assert s.norm == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("scale", [1e-320, 1.7e308])
    def test_subnormal_and_huge_amplitudes(self, scale):
        # hypot of the raw amplitudes loses bits below the normal range
        # and overflows to inf at the top of it
        s = normalize(QubitState(complex(scale), complex(scale)))
        assert s == QubitState(complex(0.7071067811865476), complex(0.7071067811865476))
        s = normalize(QubitState(complex(scale, scale), 0j))
        assert s == QubitState(complex(0.7071067811865476, 0.7071067811865476), 0j)

    def test_bit_equal_to_unscaled_formula_in_the_normal_range(self):
        # scaling by a power of two is exact, so away from the ends of
        # the float range the result is that of dividing by hypot directly
        rng = np.random.default_rng(20)
        parts = rng.uniform(-1.0, 1.0, (20_000, 4)) * 10.0 ** rng.uniform(-150, 150, (20_000, 4))
        for a0r, a0i, a1r, a1i in parts.tolist():
            state = QubitState(complex(a0r, a0i), complex(a1r, a1i))
            n = math.hypot(abs(state.a0), abs(state.a1))
            assert normalize(state) == QubitState(state.a0 / n, state.a1 / n)


class TestNoJumpSeriesWithoutDecay:
    """Without a decay channel the conditioned state only turns its phases."""

    def test_t_zero_is_identity(self):
        rho, expected = evolved(HALF, FREE, 0.0), density_from_state(HALF)
        assert rho.rho00 == pytest.approx(expected.rho00, abs=1e-15)
        assert rho.rho11 == pytest.approx(expected.rho11, abs=1e-15)
        assert rho.rho01 == pytest.approx(expected.rho01, abs=1e-15)

    def test_ground_gets_global_phase_only(self):
        # the phase exp(-i e0 t) is global: the projector does not see it
        rho = evolved(GROUND, FREE, 2.37)
        assert rho.rho00 == pytest.approx(1.0, abs=1e-12)
        assert rho.rho11 == 0.0 and rho.rho01 == 0.0

    def test_pi_gap_flips_relative_sign(self):
        # gap of pi over unit time rotates the relative phase by pi;
        # oracle: straight scalar exponentiation of each amplitude
        params = AtomParams(e0=0.0, e1=math.pi, gamma=0.0)
        rho = evolved(HALF, params, 1.0)
        expected = density_from_state(
            QubitState(HALF.a0 * cmath.exp(-1j * 0.0), HALF.a1 * cmath.exp(-1j * math.pi))
        )
        assert rho.rho11 == pytest.approx(0.5, abs=1e-12)
        assert rho.rho01 == pytest.approx(expected.rho01, abs=1e-12)
        rel = rho.rho01 / density_from_state(HALF).rho01
        assert abs(cmath.phase(rel)) == pytest.approx(math.pi, abs=1e-12)

    @pytest.mark.parametrize("t", [0.0, 0.1, 1.0, 17.5, 400.0])
    def test_populations_exactly_preserved(self, t):
        s = normalize(QubitState(0.3 + 0.4j, 0.5 - 0.2j))
        rho = evolved(s, FREE, t)
        assert rho.rho00 == pytest.approx(abs(s.a0) ** 2, abs=1e-12)
        assert rho.rho11 == pytest.approx(s.excited_population, abs=1e-12)

    def test_composition(self):
        s = normalize(QubitState(0.6, 0.8j))
        a = evolved(state_of(evolved(s, FREE, 1.3)), FREE, 2.9)
        b = evolved(s, FREE, 4.2)
        assert abs(a.rho00 - b.rho00) < 1e-9
        assert abs(a.rho01 - b.rho01) < 1e-9

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            evolved(HALF, FREE, -0.5)


class TestProjectorOverlap:
    """States are compared through their projectors, blind to global phase."""

    def test_self_fidelity(self):
        s = normalize(QubitState(0.123 + 0.7j, -0.4 + 0.2j))
        assert overlap(s, s) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert overlap(GROUND, EXCITED) == 0.0

    def test_half_overlap(self):
        assert overlap(HALF, GROUND) == pytest.approx(0.5, abs=1e-12)

    def test_symmetric(self):
        s1 = normalize(QubitState(0.9, 0.1j))
        s2 = normalize(QubitState(0.2 - 0.3j, 0.8))
        direct = abs(s1.a0.conjugate() * s2.a0 + s1.a1.conjugate() * s2.a1) ** 2
        assert overlap(s1, s2) == pytest.approx(overlap(s2, s1), abs=1e-15)
        assert overlap(s1, s2) == pytest.approx(direct, abs=1e-15)

    @pytest.mark.parametrize("phase", [0.1, math.pi / 3, 2.0, -1.2])
    def test_global_phase_invariance(self, phase):
        s1 = normalize(QubitState(0.6, 0.8))
        s2 = QubitState(s1.a0 * cmath.exp(1j * phase), s1.a1 * cmath.exp(1j * phase))
        r1, r2 = density_from_state(s1), density_from_state(s2)
        assert r2.rho00 == pytest.approx(r1.rho00, abs=1e-12)
        assert r2.rho11 == pytest.approx(r1.rho11, abs=1e-12)
        assert r2.rho01 == pytest.approx(r1.rho01, abs=1e-12)
        assert overlap(s1, s2) == pytest.approx(1.0, abs=1e-12)


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
        check_state(rho)
        # trace(rho^2) of a projector is one
        assert rho.rho00**2 + rho.rho11**2 + 2.0 * abs(rho.rho01) ** 2 == pytest.approx(1.0, abs=1e-9)


class TestAtomParams:
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

    def test_overflowing_gap_rejected(self):
        with pytest.raises(ConfigurationError, match="e1 - e0 must be finite"):
            AtomParams(e0=-1e308, e1=1e308, gamma=1.0)

    def test_degenerate_gap_allowed(self):
        assert AtomParams(0.0, 0.0, 1.0).omega == 0.0


def test_from_excited_probability_bounds():
    with pytest.raises(ValueError):
        QubitState.from_excited_probability(1.5)
    s = QubitState.from_excited_probability(0.25)
    assert s.excited_population == pytest.approx(0.25, abs=1e-12)
    assert s.norm == pytest.approx(1.0, abs=1e-12)
