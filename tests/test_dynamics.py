import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nullshadow.core import (
    AtomParams,
    QubitState,
    normalize,
)
from nullshadow.dynamics import no_click_populations, no_jump_series, sample_jump_times
from nullshadow.master import MasterRunConfig, integrate_master
from nullshadow.streams import uniforms_at
from reference import (
    EXCITED,
    GROUND,
    DensityMatrix2,
    density_from_state,
    no_click_populations_at,
    reference_no_jump,
)

PARAMS = AtomParams(e0=0.0, e1=1.0, gamma=1.0)
HALF = QubitState.from_excited_probability(0.5)
LN2 = math.log(2.0)


def brute_force_no_jump(state, params, t, dt=1e-4):
    """Independent oracle: Euler-step the unnormalized no-jump branch."""
    b0, b1 = state.a0, state.a1
    steps = int(round(t / dt))
    for _ in range(steps):
        b0 = b0 + (-1j * params.e0) * b0 * dt
        b1 = b1 + (-1j * params.e1 - 0.5 * params.gamma) * b1 * dt
    return normalize(QubitState(b0, b1))


def conditioned(state, params, t):
    """The no-click conditioned projector at one time."""
    s = no_jump_series(state, params, np.array([t]))
    return DensityMatrix2(float(s.rho00[0]), float(s.rho11[0]), complex(s.rho01[0]))


def state_of(rho):
    """A pure state whose projector is rho (the global phase is free)."""
    a0 = math.sqrt(rho.rho00)
    return QubitState(complex(a0), rho.rho01.conjugate() / a0)


def survival(state, params, t):
    """S(t) = p0 / rho00(t): the silent fraction read off the conditioned state."""
    return abs(state.a0) ** 2 / conditioned(state, params, t).rho00


def max_entry_distance(a, b):
    return max(abs(a.rho00 - b.rho00), abs(a.rho11 - b.rho11), abs(a.rho01 - b.rho01))


class TestNoJumpEvolve:
    """The conditioned state ``no_jump_series`` against independent constructions."""

    def test_no_decay_matches_free_evolution(self):
        params = AtomParams(e0=0.2, e1=1.9, gamma=0.0)
        for t in (0.0, 0.7, 3.0):
            free = QubitState(HALF.a0 * cmath.exp(-0.2j * t), HALF.a1 * cmath.exp(-1.9j * t))
            assert max_entry_distance(conditioned(HALF, params, t), density_from_state(free)) < 1e-12

    def test_long_wait_collapses_to_ground(self):
        assert conditioned(HALF, PARAMS, 100.0).rho00 > 1.0 - 1e-12

    def test_excited_population_one_third_at_ln2(self):
        assert conditioned(HALF, PARAMS, LN2).rho11 == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_ln2_against_brute_force_stepper(self):
        s = brute_force_no_jump(HALF, PARAMS, LN2)
        assert s.excited_population == pytest.approx(1.0 / 3.0, abs=5e-5)
        assert s.excited_population == pytest.approx(conditioned(HALF, PARAMS, LN2).rho11, abs=5e-5)

    def test_ln2_against_bayes_on_master_populations(self):
        # unconditional excited population divided by the no-click
        # probability S = p0 + p1 e^(-gamma t) must equal the conditioned
        # population
        rho0 = density_from_state(HALF)
        series = integrate_master(rho0, PARAMS, MasterRunConfig(dt=LN2 / 100, t_max=LN2, points=2))
        p_click_free = 0.5 + 0.5 * math.exp(-PARAMS.gamma * LN2)
        conditioned_rho11 = series.rho11[-1] / p_click_free
        assert conditioned_rho11 == pytest.approx(conditioned(HALF, PARAMS, LN2).rho11, abs=1e-6)

    def test_pure_excited_direction_survives_huge_waits(self):
        # the damping factor cancels in the normalization, even where
        # exp(-gamma t / 2) underflows
        assert conditioned(EXCITED, PARAMS, 5000.0).rho11 == pytest.approx(1.0, abs=1e-12)

    def test_semigroup_composition(self):
        s = normalize(QubitState(0.6 + 0.1j, 0.7 - 0.38j))
        a = conditioned(state_of(conditioned(s, PARAMS, 0.9)), PARAMS, 1.4)
        b = conditioned(s, PARAMS, 2.3)
        assert max_entry_distance(a, b) < 1e-9

    @pytest.mark.parametrize("t", [0.0, 0.3, 1.0, 4.0, 25.0])
    def test_population_matches_conditional_formula(self, t):
        # Bayes on the null result: p1 e^(-gamma t) / ((1 - p1) + p1 e^(-gamma t))
        s = normalize(QubitState(0.48, 0.2 + 0.85j))
        p1 = s.excited_population
        decayed = p1 * math.exp(-PARAMS.gamma * t)
        expected = decayed / ((1.0 - p1) + decayed)
        assert conditioned(s, PARAMS, t).rho11 == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize(
        "params", [PARAMS, AtomParams(e0=-0.4, e1=0.9, gamma=0.7), AtomParams(0.0, 2.0, 3.0)]
    )
    def test_matches_normalized_reference_on_random_states(self, params):
        rng = np.random.default_rng(11)
        amplitudes = rng.normal(size=(40, 2)) + 1j * rng.normal(size=(40, 2))
        near_pure = [(1e-10, 1.0), (1.0, 1e-9j), (1e-7 - 2e-7j, 0.6 + 0.8j), (0.6, 1e-12)]
        states = [normalize(QubitState(complex(a0), complex(a1))) for a0, a1 in [*amplitudes, *near_pure]]
        times = np.linspace(0.0, 30.0, 61)
        for s in states:
            series = no_jump_series(s, params, times)
            for k, t in enumerate(times.tolist()):
                ref = density_from_state(reference_no_jump(s, params, t))
                assert abs(series.rho00[k] - ref.rho00) <= 1e-15
                assert abs(series.rho11[k] - ref.rho11) <= 1e-15
                assert abs(series.rho01[k] - ref.rho01) <= 1e-15


class TestNoClickPopulations:
    """The column kernel against the per-time scalar closed form, bit for bit."""

    @staticmethod
    def bits(rows):
        return [tuple(x.hex() for x in row) for row in rows]

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        p0=st.floats(0.0, 1.0),
        p1=st.floats(0.0, 1.0),
        gamma=st.floats(0.0, 1e3),
        times=st.lists(st.floats(0.0, 1e6), max_size=12),
    )
    @example(p0=0.0, p1=1.0, gamma=1.0, times=[0.0, 1.0, 800.0])  # pure excited
    @example(p0=1.0, p1=0.0, gamma=1.0, times=[0.0, 2.5])  # pure ground
    @example(p0=0.0, p1=0.0, gamma=1.0, times=[3.0])
    @example(p0=0.5, p1=0.5, gamma=0.0, times=[0.0, 1e6])  # no decay channel
    @example(p0=0.5, p1=0.5, gamma=1.0, times=[745.0, 746.0, 1e4])  # exp underflows to 0
    @example(p0=0.0, p1=0.5, gamma=1.0, times=[746.0])  # ... with p0 == 0 too: S is 0, not 0/0
    @example(p0=0.3, p1=0.7, gamma=2.0, times=[0.0, 0.0, 1.5, 1.5])  # repeated times
    @example(p0=0.3, p1=0.7, gamma=2.0, times=[4.0, 0.0, 2.0, 1.0])  # unsorted times
    @example(p0=0.3, p1=0.7, gamma=2.0, times=[])
    def test_matches_the_scalar_form_at_each_time(self, p0, p1, gamma, times):
        columns = no_click_populations(p0, p1, gamma, times)
        assert [len(column) for column in columns] == [len(times)] * 3
        assert self.bits(zip(*columns)) == self.bits(no_click_populations_at(p0, p1, gamma, t) for t in times)

    @pytest.mark.parametrize("times", [np.array(0.7), np.linspace(0.0, 5.0, 12).reshape(3, 4)[:, ::-1]])
    def test_series_of_any_shape_is_the_flat_series_reshaped(self, times):
        state, params = normalize(QubitState(0.48, 0.2 + 0.85j)), AtomParams(-0.4, 0.9, 0.7)
        series, flat = no_jump_series(state, params, times), no_jump_series(state, params, times.ravel())
        for name in ("times", "rho00", "rho11", "rho01"):
            got, want = getattr(series, name), getattr(flat, name)
            assert got.shape == times.shape
            np.testing.assert_array_equal(got, want.reshape(times.shape))


class TestEmissionRate:
    """The emission rate gamma * rho11 of the conditioned state."""

    def test_ground_cannot_radiate(self):
        assert PARAMS.gamma * conditioned(GROUND, PARAMS, 0.0).rho11 == 0.0

    def test_pure_excited_decays_at_gamma(self):
        params = AtomParams(e0=0.0, e1=1.0, gamma=2.5)
        assert params.gamma * conditioned(EXCITED, params, 0.0).rho11 == pytest.approx(2.5, abs=1e-15)

    def test_half_superposition_halves_rate(self):
        assert PARAMS.gamma * conditioned(HALF, PARAMS, 0.0).rho11 == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("p1", [0.2, 0.5, 0.9])
    @pytest.mark.parametrize("t", [0.05, 0.6, 2.0])
    def test_hazard_equals_minus_dlog_survival(self, p1, t):
        # -S'(t) = hazard(conditioned state at t) * S(t), S' by central
        # finite differences of the closed-form survival law
        def s_of(t):
            return (1.0 - p1) + p1 * math.exp(-PARAMS.gamma * t)

        h = 1e-4
        deriv = (s_of(t + h) - s_of(t - h)) / (2 * h)
        state = QubitState.from_excited_probability(p1)
        expected = -PARAMS.gamma * conditioned(state, PARAMS, t).rho11 * s_of(t)
        assert deriv == pytest.approx(expected, abs=1e-6)


class TestSurvivalLaw:
    """The survival law S(t) = p0 + p1 e^(-gamma t), as the sampler and the
    conditioned state carry it."""

    def test_pure_excited_exponential(self):
        # the waiting time at quantile 1 - e^-1 is one lifetime
        (t,) = sample_jump_times(1.0, 1.0, [-math.expm1(-1.0)])
        assert t == pytest.approx(1.0, abs=1e-15)

    def test_pure_ground_never_clicks(self):
        for t in (0.0, 1.0, 50.0):
            assert survival(GROUND, PARAMS, t) == 1.0
            assert sample_jump_times(0.0, 1.0, [0.0])[0] == np.inf

    def test_half_superposition_saturates_at_half(self):
        assert survival(HALF, PARAMS, 1e9) == pytest.approx(0.5, abs=1e-15)

    def test_monotone_nonincreasing_from_one(self):
        state = QubitState.from_excited_probability(0.7)
        params = AtomParams(e0=0.0, e1=1.0, gamma=1.3)
        ts = np.linspace(0.0, 10.0, 200)
        vals = abs(state.a0) ** 2 / no_jump_series(state, params, ts).rho00
        assert vals[0] == pytest.approx(1.0, abs=1e-15)
        assert np.all(vals[1:] <= vals[:-1] + 1e-15)

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            QubitState.from_excited_probability(1.5)
        for t in (-1.0, math.nan):
            with pytest.raises(ValueError, match="time must be nonnegative"):
                survival(HALF, PARAMS, t)


class TestSampleJumpTime:
    def test_ground_never_jumps(self):
        times = sample_jump_times(GROUND.excited_population, PARAMS.gamma, [0.0, 0.3, 0.999])
        assert np.all(times == np.inf)

    def test_excited_unit_quantile(self):
        (t,) = sample_jump_times(1.0, PARAMS.gamma, [1.0 - math.exp(-1.0)])
        assert t == pytest.approx(1.0, abs=1e-12)

    def test_never_jump_branch(self):
        assert sample_jump_times(0.5, PARAMS.gamma, [0.75])[0] == np.inf

    def test_gamma_zero_always_none(self):
        # no decay channel: the jump time is inf ("never")
        assert sample_jump_times(1.0, 0.0, [0.1])[0] == np.inf

    def test_per_atom_weights(self):
        # premeasured atoms: weight 1 jumps as excited, weight 0 never
        times = sample_jump_times(np.array([1.0, 0.0, 1.0]), 2.0, [0.5, 0.5, 0.0])
        assert times[0] == pytest.approx(LN2 / 2.0, abs=1e-15)
        assert times[1] == np.inf and times[2] == 0.0
        # a bool mask, as premeasure makes it, gives the same bits
        us = uniforms_at(3, np.arange(1000), 1)
        mask = uniforms_at(3, np.arange(1000), 0) < 0.5
        assert np.array_equal(sample_jump_times(mask, 2.0, us), sample_jump_times(mask.astype(float), 2.0, us))

    @pytest.mark.parametrize("p1", [1.0, 0.5])
    def test_ugrid_supnorm_matches_survival_law(self, p1):
        # empirical sub-CDF from a 1e6-point equispaced u-grid vs the
        # closed-form jump-time law 1 - S(t)
        n = 1_000_000
        gamma = PARAMS.gamma
        us = (np.arange(n) + 0.5) / n
        times = sample_jump_times(p1, gamma, us)
        jumps = np.sort(times[np.isfinite(times)])
        m = len(jumps)
        cdf = p1 * -np.expm1(-gamma * jumps)
        ranks = np.arange(1, m + 1) / n
        sup = float(np.max(np.maximum(np.abs(ranks - cdf), np.abs(ranks - 1.0 / n - cdf))))
        sup = max(sup, abs(m / n - p1))  # tail: all mass seen vs p1
        assert sup < 1e-5

    def test_ks_distance_of_random_sample(self):
        # 1e6 hash-stream uniforms through the sampler; Kolmogorov-
        # Smirnov distance to the exponential law
        n = 1_000_000
        us = uniforms_at(2024, np.arange(n), 0)
        times = np.sort(sample_jump_times(1.0, PARAMS.gamma, us))
        cdf = -np.expm1(-PARAMS.gamma * times)
        ranks = np.arange(1, n + 1) / n
        ks = float(np.max(np.maximum(np.abs(ranks - cdf), np.abs(ranks - 1.0 / n - cdf))))
        assert ks < 0.002

    def test_matches_scalar_inverse_survival(self):
        # the array kernel against the closed form evaluated with libm,
        # up to the last-place difference between numpy and math log1p
        us = uniforms_at(5, np.arange(2000), 1)
        times = sample_jump_times(0.5, 1.3, us)
        for u, t in zip(us.tolist(), times.tolist()):
            if u >= 0.5:
                assert t == math.inf
            else:
                assert t == pytest.approx(-math.log1p(-u / 0.5) / 1.3, rel=1e-15, abs=0.0)


class TestAtomFate:
    """One atom's fate over a horizon: it blackens iff its jump time is <= horizon."""

    def test_ground_atom_never_blackens(self):
        times = sample_jump_times(GROUND.excited_population, PARAMS.gamma, [0.0, 0.5, 0.99])
        assert np.all(times > 10.0)
        assert conditioned(GROUND, PARAMS, 10.0).rho00 == pytest.approx(1.0, abs=1e-12)

    def test_excited_median_jump(self):
        (t,) = sample_jump_times(1.0, PARAMS.gamma, [0.5])
        assert t <= 100.0
        assert t == pytest.approx(LN2, abs=1e-12)

    def test_jump_beyond_horizon_is_survival(self):
        # u just below p1 gives a huge jump time; the atom is a
        # conditioned survivor at the horizon instead
        (t,) = sample_jump_times(HALF.excited_population, PARAMS.gamma, [0.499999999])
        assert math.isfinite(t) and t > 2.0

    def test_half_superposition_blackens_exactly_half_of_u_space(self):
        # horizon far beyond 1/gamma: the outcome flips exactly at u=p1
        n = 10_000
        us = (np.arange(n) + 0.5) / n
        blacks = int(np.count_nonzero(sample_jump_times(HALF.excited_population, 1.0, us) <= 200.0))
        assert blacks == n // 2

    def test_total_probability_partition(self):
        n = 1000
        times = sample_jump_times(HALF.excited_population, 1.0, (np.arange(n) + 0.5) / n)
        assert np.count_nonzero(times <= 1.5) + np.count_nonzero(times > 1.5) == n


class TestConditionedExcitedPopulation:
    """The excited population rho11 of the conditioned state."""

    @staticmethod
    def excited(p1, gamma, t):
        return conditioned(QubitState.from_excited_probability(p1), AtomParams(0.0, 1.0, gamma), t).rho11

    def test_initial_value(self):
        assert self.excited(0.5, 1.0, 0.0) == pytest.approx(0.5, abs=1e-15)

    def test_century_wait_with_minute_lifetime(self):
        # lifetime 1 minute, silence for 100 years of minutes
        v = self.excited(0.5, 1.0, 100 * 365 * 24 * 60)
        assert v < 1e-300

    def test_certainty_stays_certain(self):
        assert self.excited(1.0, 1.0, 5000.0) == 1.0

    def test_monotone_nonincreasing(self):
        ts = np.linspace(0.0, 20.0, 300)
        vals = no_jump_series(QubitState.from_excited_probability(0.8), AtomParams(0.0, 1.0, 0.7), ts).rho11
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_vanishes_for_any_partial_superposition(self):
        assert self.excited(0.999, 1.0, 2000.0) == 0.0
