import math

import numpy as np
import pytest

from nullshadow.core import (
    EXCITED,
    GROUND,
    AtomParams,
    QubitState,
    density_from_state,
    fidelity,
    free_evolve,
    normalize,
)
from nullshadow.dynamics import (
    conditional_excited_prob,
    jump_hazard,
    no_jump_evolve,
    no_jump_survival,
    sample_jump_times,
)
from nullshadow.ensemble import EnsembleConfig
from nullshadow.master import MasterRunConfig, integrate_master
from nullshadow.streams import uniforms_at

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


class TestNoJumpEvolve:
    def test_no_decay_matches_free_evolution(self):
        params = AtomParams(e0=0.2, e1=1.9, gamma=0.0)
        for t in (0.0, 0.7, 3.0):
            a = no_jump_evolve(HALF, params, t)
            b = free_evolve(HALF, params, t)
            assert abs(a.a0 - b.a0) < 1e-12
            assert abs(a.a1 - b.a1) < 1e-12

    def test_long_wait_collapses_to_ground(self):
        s = no_jump_evolve(HALF, PARAMS, 100.0)
        assert fidelity(s, GROUND) > 1.0 - 1e-12

    def test_excited_population_one_third_at_ln2(self):
        s = no_jump_evolve(HALF, PARAMS, LN2)
        assert s.excited_population == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_ln2_against_brute_force_stepper(self):
        s = brute_force_no_jump(HALF, PARAMS, LN2)
        assert s.excited_population == pytest.approx(1.0 / 3.0, abs=5e-5)

    def test_ln2_against_bayes_on_master_populations(self):
        # unconditional excited population divided by the no-click
        # probability must equal the conditioned population
        rho0 = density_from_state(HALF)
        series = integrate_master(rho0, PARAMS, MasterRunConfig(dt=LN2 / 100, t_max=LN2))
        p_click_free = no_jump_survival(0.5, PARAMS.gamma, LN2)
        conditioned = series.rho11[-1] / p_click_free
        assert conditioned == pytest.approx(
            no_jump_evolve(HALF, PARAMS, LN2).excited_population, abs=1e-6
        )

    def test_pure_excited_direction_survives_huge_waits(self):
        # the damping factor cancels in the normalization, even where
        # exp(-gamma t / 2) underflows
        s = no_jump_evolve(EXCITED, PARAMS, 5000.0)
        assert s.excited_population == pytest.approx(1.0, abs=1e-12)

    def test_semigroup_composition(self):
        s = normalize(QubitState(0.6 + 0.1j, 0.7 - 0.38j))
        a = no_jump_evolve(no_jump_evolve(s, PARAMS, 0.9), PARAMS, 1.4)
        b = no_jump_evolve(s, PARAMS, 2.3)
        assert abs(a.a0 - b.a0) < 1e-9
        assert abs(a.a1 - b.a1) < 1e-9

    @pytest.mark.parametrize("t", [0.0, 0.3, 1.0, 4.0, 25.0])
    def test_population_matches_conditional_formula(self, t):
        s = normalize(QubitState(0.48, 0.2 + 0.85j))
        out = no_jump_evolve(s, PARAMS, t)
        expected = conditional_excited_prob(s.excited_population, PARAMS.gamma, t)
        assert out.excited_population == pytest.approx(expected, abs=1e-12)


class TestJumpHazard:
    def test_ground_cannot_radiate(self):
        assert jump_hazard(GROUND, PARAMS) == 0.0

    def test_pure_excited_decays_at_gamma(self):
        params = AtomParams(e0=0.0, e1=1.0, gamma=2.5)
        assert jump_hazard(EXCITED, params) == pytest.approx(2.5, abs=1e-15)

    def test_half_superposition_halves_rate(self):
        assert jump_hazard(HALF, PARAMS) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("p1", [0.2, 0.5, 0.9])
    @pytest.mark.parametrize("t", [0.05, 0.6, 2.0])
    def test_hazard_equals_minus_dlog_survival(self, p1, t):
        # -S'(t) = hazard(conditioned state at t) * S(t), S' by central
        # finite differences
        h = 1e-4
        deriv = (
            no_jump_survival(p1, PARAMS.gamma, t + h)
            - no_jump_survival(p1, PARAMS.gamma, t - h)
        ) / (2 * h)
        conditioned = no_jump_evolve(QubitState.from_excited_probability(p1), PARAMS, t)
        expected = -jump_hazard(conditioned, PARAMS) * no_jump_survival(p1, PARAMS.gamma, t)
        assert deriv == pytest.approx(expected, abs=1e-6)


class TestNoJumpSurvival:
    def test_pure_excited_exponential(self):
        assert no_jump_survival(1.0, 1.0, 1.0) == pytest.approx(math.exp(-1.0), abs=1e-15)

    def test_pure_ground_never_clicks(self):
        for t in (0.0, 1.0, 50.0):
            assert no_jump_survival(0.0, 1.0, t) == 1.0

    def test_half_superposition_saturates_at_half(self):
        assert no_jump_survival(0.5, 1.0, 1e9) == pytest.approx(0.5, abs=1e-15)

    def test_monotone_nonincreasing_from_one(self):
        ts = np.linspace(0.0, 10.0, 200)
        vals = [no_jump_survival(0.7, 1.3, float(t)) for t in ts]
        assert vals[0] == 1.0
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            no_jump_survival(1.5, 1.0, 0.0)
        with pytest.raises(ValueError):
            no_jump_survival(0.5, 1.0, -1.0)


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

    def test_u_domain(self):
        with pytest.raises(ValueError):
            sample_jump_times(0.5, PARAMS.gamma, [1.0])
        with pytest.raises(ValueError):
            sample_jump_times(0.5, PARAMS.gamma, [0.2, math.nan])

    def test_per_atom_weights(self):
        # premeasured atoms: weight 1 jumps as excited, weight 0 never
        times = sample_jump_times(np.array([1.0, 0.0, 1.0]), 2.0, [0.5, 0.5, 0.0])
        assert times[0] == pytest.approx(LN2 / 2.0, abs=1e-15)
        assert times[1] == np.inf and times[2] == 0.0

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


class TestRunTrajectory:
    """One atom's fate over a horizon: it blackens iff its jump time is <= horizon."""

    def test_ground_atom_never_blackens(self):
        times = sample_jump_times(GROUND.excited_population, PARAMS.gamma, [0.0, 0.5, 0.99])
        assert np.all(times > 10.0)
        survivor = no_jump_evolve(GROUND, PARAMS, 10.0)
        assert fidelity(survivor, GROUND) == pytest.approx(1.0, abs=1e-12)

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

    def test_bad_horizon(self):
        for horizon in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                EnsembleConfig(
                    n_atoms=1, initial=HALF, params=PARAMS, horizon=horizon,
                    grid_points=2, base_seed=0,
                )


class TestConditionalExcitedProb:
    def test_initial_value(self):
        assert conditional_excited_prob(0.5, 1.0, 0.0) == pytest.approx(0.5, abs=1e-15)

    def test_one_third_at_ln2(self):
        assert conditional_excited_prob(0.5, 1.0, LN2) == pytest.approx(1 / 3, abs=1e-12)

    def test_century_wait_with_minute_lifetime(self):
        # lifetime 1 minute, silence for 100 years of minutes
        v = conditional_excited_prob(0.5, 1.0, 100 * 365 * 24 * 60)
        assert v < 1e-300

    def test_certainty_stays_certain(self):
        assert conditional_excited_prob(1.0, 1.0, 5000.0) == 1.0

    def test_monotone_nonincreasing(self):
        ts = np.linspace(0.0, 20.0, 300)
        vals = [conditional_excited_prob(0.8, 0.7, float(t)) for t in ts]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_vanishes_for_any_partial_superposition(self):
        assert conditional_excited_prob(0.999, 1.0, 2000.0) == 0.0
