import math

import numpy as np
import pytest

from nullshadow.core import (
    AtomParams,
    ConfigurationError,
    QubitState,
)
from nullshadow.dynamics import no_jump_series, sample_jump_times
from nullshadow.ensemble import (
    SLOT_JUMP,
    SLOT_PREMEASURE,
    EnsembleConfig,
    run_ensemble,
    run_trajectories,
    trajectory_state_series,
)
from nullshadow.streams import uniform_at, uniforms_at
from reference import GROUND, density_from_state, expected_blackened, reference_no_jump

PARAMS = AtomParams(e0=0.0, e1=1.0, gamma=1.0)
HALF = QubitState.from_excited_probability(0.5)


def reference_excited(t):
    """Excited population of the conditioned HALF atom under PARAMS at time t."""
    return reference_no_jump(HALF, PARAMS, t).excited_population


def make_cfg(**overrides):
    base = dict(n_atoms=2000, initial=HALF, params=PARAMS, base_seed=42)
    base.update(overrides)
    return EnsembleConfig(**base)


def grid(horizon=5.0, points=11):
    return np.linspace(0.0, horizon, points)


class TestExpectedBlackened:
    def test_zero_at_start(self):
        assert expected_blackened(1000, 0.5, 1.0, 0.0) == 0.0

    def test_half_saturation(self):
        assert expected_blackened(1000, 0.5, 1.0, 1e9) == pytest.approx(500.0, abs=1e-9)

    def test_reference_value(self):
        # 1000 * 0.5 * (1 - e^-1), cross-checked against the survival law
        # S = p0 / rho00 read off the conditioned state
        value = expected_blackened(1000, 0.5, 1.0, 1.0)
        survival = abs(HALF.a0) ** 2 / no_jump_series(HALF, PARAMS, np.array([1.0])).rho00[0]
        assert value == pytest.approx(316.06, abs=0.005)
        assert value == pytest.approx(1000 * (1 - survival), abs=1e-9)

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            expected_blackened(-1, 0.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            expected_blackened(10, 1.5, 1.0, 1.0)


def test_the_state_every_silent_atom_shares_starts_as_the_initial_projector():
    s = no_jump_series(HALF, PARAMS, np.array([0.0]))
    rho = density_from_state(HALF)
    assert s.rho00[0] == pytest.approx(rho.rho00, abs=1e-12)
    assert s.rho11[0] == pytest.approx(rho.rho11, abs=1e-12)
    assert s.rho01[0] == pytest.approx(rho.rho01, abs=1e-12)


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
        # there is no horizon: run_ensemble counts #{jump <= t} at whatever
        # times it is given, unsorted, repeated, non-uniform, 0, on a jump
        # and past the last one
        for premeasure in (False, True):
            cfg = make_cfg(premeasure=premeasure)
            jump_times = run_trajectories(cfg)
            last = jump_times[np.isfinite(jump_times)].max()
            times = np.array(
                [3.0, 0.0, 0.1, 0.1, last, np.nextafter(last, 0.0), 0.7, 2 * last, 1e300, 0.0]
            )
            stats = run_ensemble(cfg, times)
            counts = (jump_times[:, None] <= times).sum(0)
            assert np.array_equal(stats.blackened_count, counts)
            assert counts[4] == counts[5] + 1 and counts[7] == counts[8]
            if premeasure:
                # the excited share among the silent atoms follows from the counts
                excited = uniforms_at(cfg.base_seed, np.arange(cfg.n_atoms), SLOT_PREMEASURE) < 0.5
                silent = jump_times[:, None] > times
                expected = (excited[:, None] & silent).sum(0) / silent.sum(0)
                assert np.array_equal((stats.excited_count - counts) / (cfg.n_atoms - counts), expected)
            else:
                assert stats.excited_count is None


class TestRunEnsemble:
    def test_ground_atoms_never_blacken(self):
        for premeasure, excited in ((False, None), (True, 0)):
            stats = run_ensemble(make_cfg(initial=GROUND, n_atoms=500, premeasure=premeasure), grid())
            assert np.all(stats.blackened_count == 0)
            assert stats.excited_count == excited

    def test_grid_and_monotone_counts(self):
        cfg = make_cfg()
        stats = run_ensemble(cfg, grid())
        assert stats.blackened_count.shape == grid().shape and stats.blackened_count.dtype.kind == "i"
        assert np.all(np.diff(stats.blackened_count) >= 0)
        assert stats.blackened_count[-1] <= cfg.n_atoms

    def test_survivor_curve_is_conditioned_population(self):
        # a silent atom is in the conditioned state, so it ever emits with
        # probability rho11(t): of the n - c(t) silent at t, c(late) - c(t) do
        cfg = make_cfg(n_atoms=100_000)
        *counts, ever = run_ensemble(cfg, [*grid(), 1e300]).blackened_count.tolist()
        for t, c in zip(grid(), counts):
            expected, silent = reference_excited(float(t)), cfg.n_atoms - c
            assert abs((ever - c) / silent - expected) <= 4.0 * math.sqrt(expected * (1 - expected) / silent)

    def test_deterministic_across_threads_and_seeds(self, monkeypatch):
        # NULLSHADOW_THREADS is not read: even a malformed value changes nothing
        cfg = make_cfg(n_atoms=10_000)
        a = run_ensemble(cfg, grid())
        monkeypatch.setenv("NULLSHADOW_THREADS", "not-a-number")
        b = run_ensemble(cfg, grid())
        assert np.array_equal(a.blackened_count, b.blackened_count)
        c = run_ensemble(make_cfg(n_atoms=10_000, base_seed=43), grid())
        assert not np.array_equal(a.blackened_count, c.blackened_count)

    def test_final_count_within_binomial_band_across_seeds(self):
        # 3-sigma binomial coverage, checked over 100 seeds
        n, horizon = 10_000, 3.0
        p = 0.5 * (1.0 - math.exp(-horizon))
        sigma = math.sqrt(p * (1.0 - p) / n)
        hits = 0
        for seed in range(100):
            cfg = make_cfg(n_atoms=n, base_seed=seed)
            frac = run_ensemble(cfg, [horizon]).blackened_count[-1] / n
            hits += abs(frac - p) <= 3.0 * sigma
        assert hits >= 99

    @pytest.mark.parametrize("premeasure", [False, True])
    def test_negative_or_nan_time_rejected(self, premeasure):
        for bad in (-1.0, -5e-324, math.nan):
            with pytest.raises(ValueError, match="time must be nonnegative"):
                run_ensemble(make_cfg(premeasure=premeasure), [0.0, 1.0, bad, 2.0])

    def test_count_tracks_expected_curve(self):
        cfg = make_cfg(n_atoms=50_000)
        stats = run_ensemble(cfg, grid(points=6))
        for t, c in zip(grid(points=6), stats.blackened_count):
            mean = expected_blackened(cfg.n_atoms, 0.5, 1.0, float(t))
            band = 3.0 * math.sqrt(cfg.n_atoms) * 0.5 + 1.0
            assert abs(c - mean) <= band


class TestPremeasure:
    def test_blackening_statistics_match_unmeasured_ensemble(self):
        n, horizon = 50_000, 4.0
        p = 0.5 * (1.0 - math.exp(-horizon))
        sigma = math.sqrt(p * (1.0 - p) / n)
        for premeasure in (False, True):
            cfg = make_cfg(n_atoms=n, premeasure=premeasure)
            frac = run_ensemble(cfg, [horizon]).blackened_count[-1] / n
            assert abs(frac - p) <= 3.0 * sigma

    def test_survivor_states_are_a_classical_mixture(self):
        cfg = make_cfg(n_atoms=4000, premeasure=True)
        times = run_trajectories(cfg)
        excited = uniforms_at(cfg.base_seed, np.arange(cfg.n_atoms), SLOT_PREMEASURE) < 0.5
        survived = times > 1.0
        # survivors include both premeasured levels; every emitter was excited
        assert set(excited[survived].tolist()) == {False, True}
        assert np.all(excited[~survived])
        # the survivors' excited fraction follows from the counts
        stats = run_ensemble(cfg, grid(1.0))
        c = int(stats.blackened_count[-1])
        assert stats.excited_count == np.count_nonzero(excited)
        assert (stats.excited_count - c) / (cfg.n_atoms - c) == excited[survived].mean()

    def test_unmeasured_survivors_share_the_survivor_state(self):
        # without the premeasurement no atom has a level of its own to count:
        # every silent atom rides the one conditioned state, no_jump_series'
        assert run_ensemble(make_cfg(n_atoms=4000), grid(1.0)).excited_count is None
        measured = run_ensemble(make_cfg(n_atoms=4000, premeasure=True), grid(1.0))
        assert type(measured.excited_count) is int

    def test_empirical_survivor_curve_tracks_conditional_formula(self):
        cfg = make_cfg(n_atoms=100_000, premeasure=True)
        stats = run_ensemble(cfg, grid(2.0, 5))
        for t, count in zip(grid(2.0, 5), stats.blackened_count.tolist()):
            survivors = cfg.n_atoms - count
            frac = (stats.excited_count - count) / survivors
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
        run_ensemble(make_cfg(premeasure=True), grid())
        assert sorted(slots) == [SLOT_PREMEASURE, SLOT_JUMP]

    def test_without_decay_no_atom_blackens(self):
        # the survivors are the whole premeasured sample at every time
        params = AtomParams(e0=0.0, e1=1.0, gamma=0.0)
        cfg = make_cfg(n_atoms=1000, initial=QubitState.from_excited_probability(0.3), params=params,
                       base_seed=4, premeasure=True)
        p1 = cfg.initial.excited_population
        drawn = np.count_nonzero(uniforms_at(cfg.base_seed, np.arange(cfg.n_atoms), SLOT_PREMEASURE) < p1)
        stats = run_ensemble(cfg, grid(5.0))
        assert np.all(stats.blackened_count == 0)
        assert stats.excited_count == drawn


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
            make_cfg(base_seed=-1)
        with pytest.raises(ConfigurationError):
            make_cfg(base_seed=2**64)

    def test_unnormalized_initial_rejected(self):
        with pytest.raises(ConfigurationError):
            make_cfg(initial=QubitState(1.0, 1.0))
        with pytest.raises(ConfigurationError):
            make_cfg(initial=QubitState(complex(math.nan), 0.0))
