import cmath
import math

import numpy as np
import pytest

from nullshadow.core import (
    EXCITED,
    GROUND,
    AtomParams,
    ConfigurationError,
    DensityMatrix2,
    QubitState,
    density_from_state,
    free_evolve,
)
from nullshadow.ensemble import EnsembleConfig, run_trajectories, trajectory_state_series
from nullshadow.master import (
    MasterRunConfig,
    average_trajectories,
    integrate_master,
    lindblad_rhs,
    max_elementwise_deviation,
)

PARAMS = AtomParams(e0=0.0, e1=1.0, gamma=1.0)
HALF = QubitState.from_excited_probability(0.5)
LN2 = math.log(2.0)


class TestLindbladRhs:
    def test_ground_state_is_stationary(self):
        d = lindblad_rhs(DensityMatrix2(1.0, 0.0, 0.0j), PARAMS)
        assert (d.rho00, d.rho11, d.rho01) == (0.0, 0.0, 0.0)

    def test_excited_population_decays_at_gamma(self):
        params = AtomParams(e0=0.0, e1=1.0, gamma=1.7)
        d = lindblad_rhs(DensityMatrix2(0.0, 1.0, 0.0j), params)
        assert d.rho11 == pytest.approx(-1.7, abs=1e-15)
        assert d.rho00 == pytest.approx(+1.7, abs=1e-15)

    def test_coherence_damps_at_half_gamma(self):
        params = AtomParams(e0=0.0, e1=0.0, gamma=1.0)
        d = lindblad_rhs(DensityMatrix2(0.5, 0.5, 0.5 + 0.0j), params)
        assert d.rho01 == pytest.approx(-0.25, abs=1e-15)

    def test_derivative_is_traceless(self):
        d = lindblad_rhs(DensityMatrix2(0.3, 0.7, 0.1 - 0.2j), PARAMS)
        assert d.rho00 + d.rho11 == 0.0

    def test_coherence_rotation_sign_matches_free_evolution(self):
        # convention check shared with the state layer: with no decay
        # the coherence of a pure state rotates as exp(+i omega t)
        params = AtomParams(e0=0.4, e1=2.4, gamma=0.0)
        t = 0.8
        cfg = MasterRunConfig(dt=0.002, t_max=t, record_every=400)
        series = integrate_master(density_from_state(HALF), params, cfg)
        pure = density_from_state(free_evolve(HALF, params, t))
        assert series.matrices[-1].rho01 == pytest.approx(pure.rho01, abs=1e-9)
        expected = 0.5 * cmath.exp(1j * params.omega * t)
        assert pure.rho01 == pytest.approx(expected, abs=1e-12)


class TestIntegrateMaster:
    def test_pure_decay_exponential(self):
        cfg = MasterRunConfig(dt=0.001, t_max=1.0, record_every=100)
        series = integrate_master(DensityMatrix2(0.0, 1.0, 0.0j), PARAMS, cfg)
        assert series.matrices[-1].rho11 == pytest.approx(math.exp(-1.0), abs=1e-6)

    def test_ground_state_unchanged(self):
        cfg = MasterRunConfig(dt=0.01, t_max=4.0, record_every=10)
        series = integrate_master(DensityMatrix2(1.0, 0.0, 0.0j), PARAMS, cfg)
        last = series.matrices[-1]
        assert last.rho00 == 1.0 and last.rho11 == 0.0 and last.rho01 == 0.0

    def test_uniform_matrix_closed_form_at_ln2(self):
        params = AtomParams(e0=0.0, e1=0.0, gamma=1.0)
        cfg = MasterRunConfig(dt=LN2 / 200, t_max=LN2, record_every=200)
        series = integrate_master(DensityMatrix2(0.5, 0.5, 0.5 + 0.0j), params, cfg)
        last = series.matrices[-1]
        assert last.rho11 == pytest.approx(0.25, abs=1e-9)
        assert abs(last.rho01) == pytest.approx(0.5 / math.sqrt(2), abs=1e-9)

    @pytest.mark.parametrize("p1", [0.0, 0.25, 0.5, 1.0])
    def test_populations_closed_form(self, p1):
        cfg = MasterRunConfig(dt=0.005, t_max=3.0, record_every=60)
        series = integrate_master(DensityMatrix2(1.0 - p1, p1, 0.0j), PARAMS, cfg)
        for t, m in zip(series.times, series.matrices):
            assert m.rho11 == pytest.approx(p1 * math.exp(-t), abs=1e-6)
            assert m.rho00 == pytest.approx(1.0 - p1 * math.exp(-t), abs=1e-6)

    def test_trace_preserved_and_states_valid(self):
        cfg = MasterRunConfig(dt=0.002, t_max=5.0, record_every=250)
        series = integrate_master(density_from_state(HALF), PARAMS, cfg)
        for m in series.matrices:
            assert abs(m.trace - 1.0) < 1e-10
            m.validate(atol=1e-8)

    def test_series_arrays(self):
        cfg = MasterRunConfig(dt=0.01, t_max=0.1, record_every=1)
        series = integrate_master(density_from_state(HALF), PARAMS, cfg)
        assert len(series.times) == len(series.matrices) == 11
        assert series.rho11.shape == (11,)
        assert series.rho01.dtype.kind == "c"

    def test_stability_bound_enforced(self):
        fast = AtomParams(e0=0.0, e1=50.0, gamma=1.0)
        with pytest.raises(ConfigurationError, match="stability"):
            integrate_master(density_from_state(HALF), fast, MasterRunConfig(dt=0.01, t_max=1.0))

    def test_bad_configs_rejected(self):
        with pytest.raises(ConfigurationError):
            MasterRunConfig(dt=0.0, t_max=1.0)
        with pytest.raises(ConfigurationError):
            MasterRunConfig(dt=0.1, t_max=0.05)
        with pytest.raises(ConfigurationError):
            MasterRunConfig(dt=0.01, t_max=1.0, record_every=0)
        for dt, t_max in ((math.nan, 1.0), (math.inf, 1.0), (0.01, math.nan), (0.01, math.inf),
                          (5e-324, 1.0)):
            with pytest.raises(ConfigurationError):
                MasterRunConfig(dt=dt, t_max=t_max)


class TestAverageTrajectories:
    def test_single_trajectory_is_its_own_average(self):
        states = [free_evolve(HALF, PARAMS, t) for t in (0.0, 0.5, 1.0)]
        avg = average_trajectories([states])
        for m, s in zip(avg, states):
            expected = density_from_state(s)
            assert m.rho00 == pytest.approx(expected.rho00, abs=1e-15)
            assert m.rho01 == pytest.approx(expected.rho01, abs=1e-15)

    def test_two_trajectory_hand_average(self):
        # one atom jumped at t=0 (always ground), one pure excited that
        # never jumps: the mean excited population is 1/2 at all times
        # because conditioning cancels the decay of a certainty
        times = np.linspace(0.0, 3.0, 7)
        jumped = [GROUND] * len(times)
        never = [free_evolve(EXCITED, PARAMS, float(t)) for t in times]
        for m in average_trajectories([jumped, never]):
            assert m.rho11 == pytest.approx(0.5, abs=1e-15)
            assert m.rho01 == 0.0

    def test_trace_one_up_to_rounding(self):
        cfg = EnsembleConfig(
            n_atoms=500, initial=HALF, params=PARAMS, horizon=4.0, grid_points=2, base_seed=9
        )
        jump_times = run_trajectories(cfg)
        times = np.linspace(0.0, 4.0, 9)
        avg = average_trajectories(trajectory_state_series(HALF, PARAMS, jump_times, times))
        for m in avg:
            assert abs(m.trace - 1.0) < 1e-12

    def test_monte_carlo_matches_master_at_ten_thousand(self):
        params = AtomParams(e0=0.0, e1=3.0, gamma=1.0)
        cfg = EnsembleConfig(
            n_atoms=10_000, initial=HALF, params=params, horizon=5.0, grid_points=2, base_seed=42
        )
        jump_times = run_trajectories(cfg)
        mcfg = MasterRunConfig(dt=5 / 490, t_max=5.0, record_every=10)
        series = integrate_master(density_from_state(HALF), params, mcfg)
        avg = average_trajectories(
            trajectory_state_series(HALF, params, jump_times, series.times)
        )
        assert max_elementwise_deviation(avg, series.matrices) < 0.02

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            average_trajectories([])

    def test_mismatched_grids_rejected(self):
        with pytest.raises(ValueError):
            average_trajectories([[GROUND, GROUND], [GROUND]])


def test_coherence_flow_matches_trajectory_finite_difference():
    # generator cross-check: the time derivative of the trajectory-
    # averaged coherence, by central differences, equals lindblad_rhs
    # applied to the averaged matrix
    t0, h = 0.4, 0.25
    cfg = EnsembleConfig(
        n_atoms=50_000, initial=HALF, params=PARAMS, horizon=10.0, grid_points=2, base_seed=7
    )
    jump_times = run_trajectories(cfg)
    times = np.array([t0 - h, t0, t0 + h])
    avg = average_trajectories(trajectory_state_series(HALF, PARAMS, jump_times, times))
    fd = (avg[2].rho01 - avg[0].rho01) / (2 * h)
    expected = lindblad_rhs(avg[1], PARAMS).rho01
    assert abs(fd - expected) < 0.03


def test_max_elementwise_deviation_is_nan_when_any_entry_is_nan():
    good = DensityMatrix2(1.0, 0.0, 0.0j)
    bad = DensityMatrix2(1.0, math.nan, 0.0j)
    far = DensityMatrix2(0.0, 1.0, 0.0j)
    # the NaN must win wherever it sits, also next to a larger finite distance
    assert math.isnan(max_elementwise_deviation([bad, good], [good, far]))
    assert math.isnan(max_elementwise_deviation([good, bad], [far, good]))
    assert max_elementwise_deviation([good, far], [good, good]) == 1.0


def test_max_elementwise_deviation_requires_equal_lengths():
    m = DensityMatrix2(1.0, 0.0, 0.0j)
    with pytest.raises(ValueError):
        max_elementwise_deviation([m], [m, m])
