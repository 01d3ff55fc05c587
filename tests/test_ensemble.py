import cmath
import math

import numpy as np
import pytest

from nullshadow.core import (
    EXCITED,
    GROUND,
    AtomParams,
    ConfigurationError,
    QubitState,
    density_from_state,
    normalize,
)
from nullshadow.dynamics import no_jump_series, sample_jump_times
from nullshadow.ensemble import (
    SLOT_JUMP,
    SLOT_PREMEASURE,
    EnsembleConfig,
    expected_blackened,
    run_ensemble,
    run_trajectories,
    trajectory_state_series,
)
from nullshadow.streams import uniform_at, uniforms_at

PARAMS = AtomParams(e0=0.0, e1=1.0, gamma=1.0)
HALF = QubitState.from_excited_probability(0.5)
LN2 = math.log(2.0)


def reference_no_jump(state, params, t):
    """Scalar reference: free phases, damping e^(-gamma t / 2), then normalize."""
    a0 = state.a0 * cmath.exp(-1j * params.e0 * t)
    a1 = state.a1 * cmath.exp(-1j * params.e1 * t) * math.exp(-0.5 * params.gamma * t)
    return normalize(QubitState(a0, a1))


def reference_excited(t):
    """Excited population of the conditioned HALF atom under PARAMS at time t."""
    return reference_no_jump(HALF, PARAMS, t).excited_population


def make_cfg(**overrides):
    base = dict(
        n_atoms=2000,
        initial=HALF,
        params=PARAMS,
        horizon=5.0,
        grid_points=11,
        base_seed=42,
    )
    base.update(overrides)
    return EnsembleConfig(**base)


class TestExpectedBlackened:
    def test_zero_at_start(self):
        assert expected_blackened(1000, 0.5, 1.0, 0.0) == 0.0

    def test_half_saturation(self):
        assert expected_blackened(1000, 0.5, 1.0, 1e9) == pytest.approx(500.0, abs=1e-9)

    def test_reference_value(self):
        # 1000 * 0.5 * (1 - e^-1), cross-checked against the survival law
        # S = p0 / rho00 read off the conditioned state
        value = expected_blackened(1000, 0.5, 1.0, 1.0)
        survival = HALF.ground_population / no_jump_series(HALF, PARAMS, np.array([1.0])).rho00[0]
        assert value == pytest.approx(316.06, abs=0.005)
        assert value == pytest.approx(1000 * (1 - survival), abs=1e-9)

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            expected_blackened(-1, 0.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            expected_blackened(10, 1.5, 1.0, 1.0)


class TestSurvivorState:
    """The state every silent atom shares, from ``no_jump_series``."""

    def test_initial_at_time_zero(self):
        s = no_jump_series(HALF, PARAMS, np.array([0.0]))
        rho = density_from_state(HALF)
        assert s.rho00[0] == pytest.approx(rho.rho00, abs=1e-12)
        assert s.rho11[0] == pytest.approx(rho.rho11, abs=1e-12)
        assert s.rho01[0] == pytest.approx(rho.rho01, abs=1e-12)

    def test_collapses_to_ground(self):
        assert no_jump_series(HALF, PARAMS, np.array([100.0])).rho00[0] > 1.0 - 1e-12

    def test_one_third_at_ln2(self):
        assert no_jump_series(HALF, PARAMS, np.array([LN2])).rho11[0] == pytest.approx(
            1 / 3, abs=1e-12
        )


class TestRunTrajectories:
    def test_matches_single_trajectory_contract(self):
        # atom i is exactly the sampler fed from its own substream
        cfg = make_cfg(n_atoms=50)
        times = run_trajectories(cfg)
        assert times.shape == (50,)
        for i in range(cfg.n_atoms):
            u = uniform_at(cfg.base_seed, i, SLOT_JUMP)
            (expected,) = sample_jump_times(cfg.initial.excited_population, cfg.params.gamma, [u])
            assert times[i] == expected

    def test_times_do_not_depend_on_the_horizon(self):
        # the horizon bounds only the counting grid; an atom that emits
        # after it still has its finite jump time
        short = run_trajectories(make_cfg(n_atoms=2000, horizon=0.1, grid_points=2))
        long = run_trajectories(make_cfg(n_atoms=2000, horizon=50.0, grid_points=101))
        assert np.any(np.isfinite(short) & (short > 0.1))
        assert np.array_equal(short, long)


class TestRunEnsemble:
    def test_ground_atoms_never_blacken(self):
        stats = run_ensemble(make_cfg(initial=GROUND, n_atoms=500))
        assert np.all(stats.blackened_count == 0)
        assert np.all(stats.survivor_excited_prob == 0.0)
        assert stats.fraction_blackened_final == 0.0

    def test_grid_and_monotone_counts(self):
        cfg = make_cfg()
        stats = run_ensemble(cfg)
        assert len(stats.grid) == cfg.grid_points
        assert stats.grid[0] == 0.0 and stats.grid[-1] == cfg.horizon
        assert np.all(np.diff(stats.blackened_count) >= 0)
        assert stats.blackened_count[-1] <= cfg.n_atoms
        assert stats.fraction_blackened_final == stats.blackened_count[-1] / cfg.n_atoms

    def test_survivor_curve_is_conditioned_population(self):
        stats = run_ensemble(make_cfg())
        expected = [reference_excited(float(t)) for t in stats.grid]
        assert np.allclose(stats.survivor_excited_prob, expected, atol=1e-12)

    def test_deterministic_across_threads_and_seeds(self, monkeypatch):
        # NULLSHADOW_THREADS is not read: even a malformed value changes nothing
        cfg = make_cfg(n_atoms=10_000)
        a = run_ensemble(cfg)
        monkeypatch.setenv("NULLSHADOW_THREADS", "not-a-number")
        b = run_ensemble(cfg)
        assert np.array_equal(a.blackened_count, b.blackened_count)
        assert np.array_equal(a.survivor_excited_prob, b.survivor_excited_prob)
        assert a.fraction_blackened_final == b.fraction_blackened_final
        c = run_ensemble(make_cfg(n_atoms=10_000, base_seed=43))
        assert not np.array_equal(a.blackened_count, c.blackened_count)

    def test_final_count_within_binomial_band_across_seeds(self):
        # 3-sigma binomial coverage, checked over 100 seeds
        n, horizon = 10_000, 3.0
        p = 0.5 * (1.0 - math.exp(-horizon))
        sigma = math.sqrt(p * (1.0 - p) / n)
        hits = 0
        for seed in range(100):
            cfg = make_cfg(n_atoms=n, horizon=horizon, grid_points=2, base_seed=seed)
            frac = run_ensemble(cfg).fraction_blackened_final
            hits += abs(frac - p) <= 3.0 * sigma
        assert hits >= 99

    def test_count_tracks_expected_curve(self):
        cfg = make_cfg(n_atoms=50_000, grid_points=6)
        stats = run_ensemble(cfg)
        for t, c in zip(stats.grid, stats.blackened_count):
            mean = expected_blackened(cfg.n_atoms, 0.5, 1.0, float(t))
            band = 3.0 * math.sqrt(cfg.n_atoms) * 0.5 + 1.0
            assert abs(c - mean) <= band


class TestPremeasure:
    def test_blackening_statistics_match_unmeasured_ensemble(self):
        n, horizon = 50_000, 4.0
        p = 0.5 * (1.0 - math.exp(-horizon))
        sigma = math.sqrt(p * (1.0 - p) / n)
        for premeasure in (False, True):
            cfg = make_cfg(n_atoms=n, horizon=horizon, grid_points=2, premeasure=premeasure)
            frac = run_ensemble(cfg).fraction_blackened_final
            assert abs(frac - p) <= 3.0 * sigma

    def test_survivor_states_are_a_classical_mixture(self):
        cfg = make_cfg(n_atoms=4000, horizon=1.0, premeasure=True)
        times = run_trajectories(cfg)
        excited = uniforms_at(cfg.base_seed, np.arange(cfg.n_atoms), SLOT_PREMEASURE) < 0.5
        survived = times > cfg.horizon
        # survivors include both premeasured levels; every emitter was excited
        assert set(excited[survived].tolist()) == {False, True}
        assert np.all(excited[~survived])
        # the survivors' excited fraction is the reported curve's last value
        stats = run_ensemble(cfg)
        assert stats.survivor_excited_prob[-1] == excited[survived].mean()

    def test_unmeasured_survivors_share_the_survivor_state(self):
        # every silent atom rides the one conditioned state, whose excited
        # population is the reported survivor curve
        cfg = make_cfg(n_atoms=4000, horizon=1.0)
        stats = run_ensemble(cfg)
        for t, reported in zip(stats.grid, stats.survivor_excited_prob):
            assert reference_excited(float(t)) == pytest.approx(reported, abs=1e-12)

    def test_empirical_survivor_curve_tracks_conditional_formula(self):
        cfg = make_cfg(n_atoms=100_000, horizon=2.0, grid_points=5, premeasure=True)
        stats = run_ensemble(cfg)
        for t, frac, count in zip(
            stats.grid, stats.survivor_excited_prob, stats.blackened_count
        ):
            survivors = cfg.n_atoms - count
            expected = reference_excited(float(t))
            sigma = math.sqrt(max(expected * (1 - expected), 0.05) / survivors)
            assert abs(frac - expected) <= 4.0 * sigma

    def test_premeasure_draws_each_slot_once(self, monkeypatch):
        # one uniforms_at pass for the initial collapse, one for the jumps
        slots = []

        def counting(seed, indices, slot):
            slots.append(slot)
            return uniforms_at(seed, indices, slot)

        monkeypatch.setattr("nullshadow.ensemble.uniforms_at", counting)
        run_ensemble(make_cfg(premeasure=True))
        assert sorted(slots) == [SLOT_PREMEASURE, SLOT_JUMP]

    def test_no_survivors_yields_nan(self):
        cfg = make_cfg(n_atoms=200, initial=EXCITED, horizon=80.0, premeasure=True)
        stats = run_ensemble(cfg)
        assert stats.blackened_count[-1] == 200
        assert math.isnan(stats.survivor_excited_prob[-1])


class TestMeasureSurvivors:
    def test_binomial_estimate_around_conditioned_population(self):
        cfg = make_cfg(n_atoms=20_000, horizon=2.0, grid_points=5, measure_survivors=True)
        stats = run_ensemble(cfg)
        assert stats.measured_excited_fraction is not None
        for t, measured, count in zip(
            stats.grid, stats.measured_excited_fraction, stats.blackened_count
        ):
            survivors = cfg.n_atoms - count
            p = reference_excited(float(t))
            sigma = math.sqrt(max(p * (1 - p), 1e-4) / survivors)
            assert abs(measured - p) <= 4.0 * sigma

    def test_premeasured_mixture_measures_exactly(self):
        cfg = make_cfg(
            n_atoms=5000, horizon=1.5, grid_points=4, premeasure=True, measure_survivors=True
        )
        stats = run_ensemble(cfg)
        assert np.array_equal(
            stats.measured_excited_fraction, stats.survivor_excited_prob, equal_nan=True
        )

    def test_absent_without_flag(self):
        assert run_ensemble(make_cfg()).measured_excited_fraction is None


class TestTrajectoryStateSeries:
    def test_ground_after_jump_conditioned_before(self):
        times = np.array([0.0, 1.0, 2.0, 3.0])
        jumped, conditioned = trajectory_state_series(HALF, PARAMS, np.array([1.5, np.inf]), times)
        assert jumped.tolist() == [0.0, 0.0, 0.5, 0.5]
        assert conditioned.times is times
        for k, t in enumerate(times):
            cond = density_from_state(reference_no_jump(HALF, PARAMS, float(t)))
            assert conditioned.rho00[k] == pytest.approx(cond.rho00, abs=1e-12)
            assert conditioned.rho11[k] == pytest.approx(cond.rho11, abs=1e-12)
            assert conditioned.rho01[k] == pytest.approx(cond.rho01, abs=1e-12)

    def test_jump_on_grid_point_counts_as_jumped(self):
        times = np.array([0.0, 2.0])
        jumped, _ = trajectory_state_series(HALF, PARAMS, np.array([2.0]), times)
        assert jumped.tolist() == [0.0, 1.0]


class TestConfigValidation:
    def test_bad_values_rejected(self):
        with pytest.raises(ConfigurationError):
            make_cfg(n_atoms=0)
        with pytest.raises(ConfigurationError):
            make_cfg(horizon=0.0)
        for horizon in (math.nan, math.inf):
            with pytest.raises(ConfigurationError):
                make_cfg(horizon=horizon)
        with pytest.raises(ConfigurationError):
            make_cfg(grid_points=1)
        with pytest.raises(ConfigurationError):
            make_cfg(base_seed=-1)
        with pytest.raises(ConfigurationError):
            make_cfg(base_seed=2**64)

    def test_unnormalized_initial_rejected(self):
        with pytest.raises(ConfigurationError):
            make_cfg(initial=QubitState(1.0, 1.0))
        with pytest.raises(ConfigurationError):
            make_cfg(initial=QubitState(complex(math.nan), 0.0))
