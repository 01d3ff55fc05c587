import cmath
import math

import numpy as np
import pytest

from nullshadow.core import (
    AtomParams,
    ConfigurationError,
    QubitState,
)
from nullshadow.dynamics import no_jump_series
from nullshadow.ensemble import EnsembleConfig, run_trajectories, trajectory_state_series
from nullshadow.master import (
    MAX_STEPS,
    DensitySeries,
    MasterRunConfig,
    _rk4_increment,
    _step_rk4,
    average_trajectories,
    integrate_master,
    max_elementwise_deviation,
)
from reference import (
    EXCITED,
    DensityMatrix2,
    check_state,
    density_from_state,
    lindblad_rhs,
    reference_no_jump,
    reference_step_rk4,
)

PARAMS = AtomParams(e0=0.0, e1=1.0, gamma=1.0)
HALF = QubitState.from_excited_probability(0.5)
LN2 = math.log(2.0)


# (e0, e1, gamma, dt), including gamma = 0 and omega = 0
STEP_PARAMS = [
    (0.0, 1.0, 1.0, 2e-4),
    (0.4, 2.7, 0.7, 1e-3),
    (-1.0, 0.5, 2.5, 0.01),
    (0.0, 3.0, 0.0, 0.02),
    (0.0, 0.0, 1.3, 0.05),
    (0.0, 0.0, 0.0, 0.1),
]
NULL_GENERATOR_PARAMS = [p for p in STEP_PARAMS if p[0] == p[1] and p[2] == 0.0]


def random_matrices(seed, n=200):
    """Pure and mixed states with complex coherences."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    mix = rng.uniform(size=n)
    return [
        DensityMatrix2(
            float(m * abs(a0) ** 2 + (1.0 - m) * 0.5),
            float(m * abs(a1) ** 2 + (1.0 - m) * 0.5),
            complex(m * a0 * a1.conjugate()),
        )
        for (a0, a1), m in zip(a, mix)
    ]


def series_of(*matrices):
    """A DensitySeries holding the given matrices at times 0, 1, 2, ..."""
    return DensitySeries(
        times=np.arange(len(matrices), dtype=float),
        rho00=np.array([m.rho00 for m in matrices]),
        rho11=np.array([m.rho11 for m in matrices]),
        rho01=np.array([m.rho01 for m in matrices], dtype=complex),
    )


def matrix_at(series, k):
    return DensityMatrix2(series.rho00[k], series.rho11[k], series.rho01[k])


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
        cfg = MasterRunConfig(dt=0.002, t_max=t, points=2)
        series = integrate_master(density_from_state(HALF), params, cfg)
        pure = no_jump_series(HALF, params, np.array([t])).rho01[0]
        assert series.rho01[-1] == pytest.approx(pure, abs=1e-9)
        expected = 0.5 * cmath.exp(1j * params.omega * t)
        assert pure == pytest.approx(expected, abs=1e-12)


class TestStepRk4:
    # The step is one multiply-add by R - 1, not the staged k1...k4 of the
    # reference, so the two round differently but agree within a few ulps.
    @pytest.mark.parametrize("e0, e1, gamma, dt", STEP_PARAMS)
    def test_plain_step_is_within_rounding_of_reference(self, e0, e1, gamma, dt):
        params = AtomParams(e0=e0, e1=e1, gamma=gamma)
        shrink = -_rk4_increment(-params.gamma * dt)
        turn = _rk4_increment((1j * params.omega - 0.5 * params.gamma) * dt)
        for rho in random_matrices(seed=0):
            ref = reference_step_rk4(rho, params, dt)
            rho00, rho11, rho01 = _step_rk4(rho.rho00, rho.rho11, rho.rho01, shrink, turn)
            assert abs(rho00 - ref.rho00) <= 4e-16
            assert abs(rho11 - ref.rho11) <= 4e-16
            assert abs(rho01 - ref.rho01) <= 4e-16

    @pytest.mark.parametrize("e0, e1, gamma, dt", STEP_PARAMS)
    def test_integration_is_within_rounding_of_reference(self, e0, e1, gamma, dt):
        params = AtomParams(e0=e0, e1=e1, gamma=gamma)
        rho0 = random_matrices(seed=7, n=1)[0]
        cfg = MasterRunConfig(dt=dt, t_max=300 * dt, points=43)
        series = integrate_master(rho0, params, cfg)
        rho, expected = rho0, [rho0]
        for k in range(1, cfg.n_steps + 1):
            rho = reference_step_rk4(rho, params, dt)
            if k % cfg.record_every == 0 or k == cfg.n_steps:
                expected.append(rho)
        assert series.times.tolist() == [k * dt for k in [*range(0, 300, 7), 300]]
        assert np.max(np.abs(series.rho00 - [m.rho00 for m in expected])) <= 1e-15
        assert np.max(np.abs(series.rho11 - [m.rho11 for m in expected])) <= 1e-15
        assert np.max(np.abs(series.rho01 - [m.rho01 for m in expected])) <= 1e-15

    # With gamma = omega = 0 the generator is zero: both forms add an exact
    # zero to each entry, so there the step still matches the reference bit for bit.
    @pytest.mark.parametrize("e0, e1, gamma, dt", NULL_GENERATOR_PARAMS)
    def test_plain_step_is_bit_identical_to_reference(self, e0, e1, gamma, dt):
        params = AtomParams(e0=e0, e1=e1, gamma=gamma)
        shrink = -_rk4_increment(-params.gamma * dt)
        turn = _rk4_increment((1j * params.omega - 0.5 * params.gamma) * dt)
        for rho in random_matrices(seed=0):
            ref = reference_step_rk4(rho, params, dt)
            step = _step_rk4(rho.rho00, rho.rho11, rho.rho01, shrink, turn)
            assert step == (ref.rho00, ref.rho11, ref.rho01)

    @pytest.mark.parametrize("e0, e1, gamma, dt", NULL_GENERATOR_PARAMS)
    def test_integration_is_bit_identical_to_iterated_reference(self, e0, e1, gamma, dt):
        params = AtomParams(e0=e0, e1=e1, gamma=gamma)
        rho0 = random_matrices(seed=7, n=1)[0]
        cfg = MasterRunConfig(dt=dt, t_max=300 * dt, points=43)
        series = integrate_master(rho0, params, cfg)
        rho, expected = rho0, [rho0]
        for k in range(1, cfg.n_steps + 1):
            rho = reference_step_rk4(rho, params, dt)
            if k % cfg.record_every == 0 or k == cfg.n_steps:
                expected.append(rho)
        assert series.times.tolist() == [k * dt for k in [*range(0, 300, 7), 300]]
        assert series.rho00.tolist() == [m.rho00 for m in expected]
        assert series.rho11.tolist() == [m.rho11 for m in expected]
        assert series.rho01.tolist() == [m.rho01 for m in expected]

    def test_fine_window_does_not_drift_from_exact_solution(self):
        # 10^5 steps: a step that multiplies by a rounded R(z) drifts by
        # k * delta and ends ~1.3e-12 away; adding y * (R - 1) ends ~1.6e-14 away.
        rho0 = density_from_state(HALF)
        series = integrate_master(rho0, PARAMS, MasterRunConfig(dt=1e-5, t_max=1.0, points=2))
        rho11 = rho0.rho11 * math.exp(-PARAMS.gamma)
        rho01 = rho0.rho01 * cmath.exp(1j * PARAMS.omega - 0.5 * PARAMS.gamma)
        assert series.times[-1] == 1.0
        assert abs(series.rho11[-1] - rho11) <= 1e-13
        assert abs(series.rho00[-1] - (1.0 - rho11)) <= 1e-13
        assert abs(series.rho01[-1] - rho01) <= 1e-13

    @pytest.mark.parametrize("dt, t_max, points", [
        (0.0002, 10.0, 50),  # oracle-fine: stride 1020, the last run of steps is 20 long
        (0.01, 5.0, 50),  # oracle-30k: stride 10, which divides the 500 steps
        (0.01, 1.03, 5),  # stride 25, the last run of steps is 3 long
    ])
    def test_step_is_called_once_per_step(self, monkeypatch, dt, t_max, points):
        # perfbench/replay.py counts master.rk4_steps from calls of
        # master._step_rk4 and requires round(horizon / dt) of them, so an
        # inlined step reads 0 (ROADMAP item 1 moves the count to n_steps).
        calls = 0

        def counted(*args):
            nonlocal calls
            calls += 1
            return _step_rk4(*args)

        monkeypatch.setattr("nullshadow.master._step_rk4", counted)
        cfg = MasterRunConfig(dt=dt, t_max=t_max, points=points)
        integrate_master(density_from_state(HALF), PARAMS, cfg)
        assert calls == cfg.n_steps


class TestIntegrateMaster:
    def test_pure_decay_exponential(self):
        cfg = MasterRunConfig(dt=0.001, t_max=1.0, points=11)
        series = integrate_master(DensityMatrix2(0.0, 1.0, 0.0j), PARAMS, cfg)
        assert series.rho11[-1] == pytest.approx(math.exp(-1.0), abs=1e-6)

    def test_ground_state_unchanged(self):
        cfg = MasterRunConfig(dt=0.01, t_max=4.0, points=41)
        series = integrate_master(DensityMatrix2(1.0, 0.0, 0.0j), PARAMS, cfg)
        last = matrix_at(series, -1)
        assert last.rho00 == 1.0 and last.rho11 == 0.0 and last.rho01 == 0.0

    def test_uniform_matrix_closed_form_at_ln2(self):
        params = AtomParams(e0=0.0, e1=0.0, gamma=1.0)
        cfg = MasterRunConfig(dt=LN2 / 200, t_max=LN2, points=2)
        series = integrate_master(DensityMatrix2(0.5, 0.5, 0.5 + 0.0j), params, cfg)
        last = matrix_at(series, -1)
        assert last.rho11 == pytest.approx(0.25, abs=1e-9)
        assert abs(last.rho01) == pytest.approx(0.5 / math.sqrt(2), abs=1e-9)

    @pytest.mark.parametrize("p1", [0.0, 0.25, 0.5, 1.0])
    def test_populations_closed_form(self, p1):
        cfg = MasterRunConfig(dt=0.005, t_max=3.0, points=11)
        series = integrate_master(DensityMatrix2(1.0 - p1, p1, 0.0j), PARAMS, cfg)
        for t, rho00, rho11 in zip(series.times, series.rho00, series.rho11):
            assert rho11 == pytest.approx(p1 * math.exp(-t), abs=1e-6)
            assert rho00 == pytest.approx(1.0 - p1 * math.exp(-t), abs=1e-6)

    def test_every_recorded_point_matches_exact_solution(self):
        # rho11 = p e^(-gamma t), rho00 = 1 - rho11 and
        # rho01 = rho01(0) e^((i omega - gamma / 2) t); the RK4 global
        # error at this step is ~5e-12 and scales as dt^4
        params = AtomParams(e0=0.4, e1=2.7, gamma=0.7)
        rho0 = density_from_state(QubitState(0.6 + 0.0j, 0.48 + 0.64j))
        cfg = MasterRunConfig(dt=0.002, t_max=6.0, points=25)
        series = integrate_master(rho0, params, cfg)
        t = series.times
        assert len(t) == 25 and t[-1] == 6.0
        rho11 = rho0.rho11 * np.exp(-params.gamma * t)
        rho01 = rho0.rho01 * np.exp((1j * params.omega - 0.5 * params.gamma) * t)
        assert np.max(np.abs(series.rho11 - rho11)) <= 1e-10
        assert np.max(np.abs(series.rho00 - (1.0 - rho11))) <= 1e-10
        assert np.max(np.abs(series.rho01 - rho01)) <= 1e-10

    def test_trace_preserved_and_states_valid(self):
        cfg = MasterRunConfig(dt=0.002, t_max=5.0, points=11)
        series = integrate_master(density_from_state(HALF), PARAMS, cfg)
        for k in range(len(series.times)):
            m = matrix_at(series, k)
            check_state(m, atol=1e-10)

    def test_series_arrays(self):
        cfg = MasterRunConfig(dt=0.01, t_max=0.1, points=11)
        series = integrate_master(density_from_state(HALF), PARAMS, cfg)
        assert len(series.times) == len(series.rho00) == len(series.rho01) == 11
        assert series.rho11.shape == (11,)
        assert series.rho01.dtype.kind == "c"

    def test_stability_bound_enforced(self):
        fast = AtomParams(e0=0.0, e1=50.0, gamma=1.0)
        with pytest.raises(ConfigurationError, match="stability"):
            integrate_master(density_from_state(HALF), fast, MasterRunConfig(dt=0.01, t_max=1.0, points=2))

    def test_bad_configs_rejected(self):
        with pytest.raises(ConfigurationError):
            MasterRunConfig(dt=0.0, t_max=1.0, points=2)
        with pytest.raises(ConfigurationError):
            MasterRunConfig(dt=0.1, t_max=0.05, points=2)
        with pytest.raises(ConfigurationError, match="points must be >= 2, got 1"):
            MasterRunConfig(dt=0.01, t_max=1.0, points=1)
        with pytest.raises(ConfigurationError, match="dt must be positive"):  # the window first
            MasterRunConfig(dt=0.0, t_max=1.0, points=0)
        for dt, t_max in ((math.nan, 1.0), (math.inf, 1.0), (0.01, math.nan), (0.01, math.inf),
                          (5e-324, 1.0)):
            with pytest.raises(ConfigurationError):
                MasterRunConfig(dt=dt, t_max=t_max, points=2)

    def test_step_count_is_bounded(self):
        # 10^300 and 10^17 RK4 steps would never finish; the bound refuses them at once.
        for dt, t_max in ((1e-300, 1.0), (0.01, 1e15)):
            with pytest.raises(ConfigurationError, match=f"step count t_max/dt=1e\\+.* exceeds {MAX_STEPS}"):
                MasterRunConfig(dt=dt, t_max=t_max, points=50)
        assert MasterRunConfig(dt=1.0, t_max=float(MAX_STEPS), points=2).n_steps == MAX_STEPS
        assert MasterRunConfig(dt=0.0002, t_max=10.0, points=50).n_steps == 50_000  # oracle-fine's window

    def test_stride_follows_from_the_window(self):
        for dt, t_max, points, stride in ((0.01, 1.0, 50, 2), (0.0002, 10.0, 50, 1020), (0.01, 1.0, 1000, 1),
                                          (0.01, 1.0, 2, 100), (5 / 490, 5.0, 50, 10), (0.01, 0.1, 11, 1)):
            cfg = MasterRunConfig(dt=dt, t_max=t_max, points=points)
            assert cfg.record_every == stride == max(1, cfg.n_steps // (points - 1))
            with pytest.raises(AttributeError):
                cfg.record_every = stride

    def test_replaced_step_keeps_the_point_count(self):
        cfg = MasterRunConfig(dt=0.01, t_max=5.0, points=50)._replace(dt=0.0002)
        assert cfg.n_steps == 25_000 and cfg.record_every == 25_000 // 49
        series = integrate_master(DensityMatrix2(0.0, 1.0, 0.0j), PARAMS, cfg)
        # steps 0, 510, ..., 24 990 and the final 25 000
        assert len(series.times) == 51 and series.times[-1] == 5.0


class TestAverageTrajectories:
    def test_single_trajectory_is_its_own_average(self):
        times = np.array([0.0, 0.5, 1.0])
        avg = average_trajectories(*trajectory_state_series(HALF, PARAMS, np.array([np.inf]), times))
        for k, t in enumerate(times):
            expected = density_from_state(reference_no_jump(HALF, PARAMS, float(t)))
            assert avg.rho00[k] == pytest.approx(expected.rho00, abs=1e-15)
            assert avg.rho01[k] == pytest.approx(expected.rho01, abs=1e-15)

    def test_two_trajectory_hand_average(self):
        # one atom jumped at t=0 (always ground), one pure excited that
        # never jumps: the mean excited population is 1/2 at all times
        # because conditioning cancels the decay of a certainty
        times = np.linspace(0.0, 3.0, 7)
        avg = average_trajectories(
            *trajectory_state_series(EXCITED, PARAMS, np.array([0.0, np.inf]), times)
        )
        assert avg.rho11 == pytest.approx(np.full(len(times), 0.5), abs=1e-15)
        assert np.all(avg.rho01 == 0.0)

    def test_trace_one_up_to_rounding(self):
        cfg = EnsembleConfig(n_atoms=500, initial=HALF, params=PARAMS, base_seed=9)
        jump_times = run_trajectories(cfg)
        times = np.linspace(0.0, 4.0, 9)
        avg = average_trajectories(*trajectory_state_series(HALF, PARAMS, jump_times, times))
        assert np.all(np.abs(avg.rho00 + avg.rho11 - 1.0) < 1e-12)

    def test_monte_carlo_matches_master_at_ten_thousand(self):
        params = AtomParams(e0=0.0, e1=3.0, gamma=1.0)
        cfg = EnsembleConfig(n_atoms=10_000, initial=HALF, params=params, base_seed=42)
        jump_times = run_trajectories(cfg)
        mcfg = MasterRunConfig(dt=5 / 490, t_max=5.0, points=50)
        series = integrate_master(density_from_state(HALF), params, mcfg)
        avg = average_trajectories(
            *trajectory_state_series(HALF, params, jump_times, series.times)
        )
        assert max_elementwise_deviation(avg, series) < 0.02

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            trajectory_state_series(HALF, PARAMS, np.array([]), np.array([0.0, 1.0]))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_closed_form_matches_per_trajectory_mean(self, seed):
        # reference: every trajectory's state at every grid time (ground
        # once jump <= t, the shared conditioned state before), averaged
        initial = QubitState(0.6 + 0.0j, 0.48 + 0.64j)
        times = np.linspace(0.0, 4.0, 9)
        cfg = EnsembleConfig(n_atoms=500, initial=initial, params=PARAMS, base_seed=seed)
        jump_times = run_trajectories(cfg)
        jump_times[:27] = times[np.arange(27) % len(times)]  # jumps exactly on grid points
        avg = average_trajectories(*trajectory_state_series(initial, PARAMS, jump_times, times))

        states = [reference_no_jump(initial, PARAMS, float(t)) for t in times]
        jumped = jump_times[:, None] <= times[None, :]
        a0 = np.where(jumped, 1.0 + 0.0j, [s.a0 for s in states])
        a1 = np.where(jumped, 0.0j, [s.a1 for s in states])
        assert np.max(np.abs(avg.rho00 - np.mean(np.abs(a0) ** 2, axis=0))) <= 1e-12
        assert np.max(np.abs(avg.rho11 - np.mean(np.abs(a1) ** 2, axis=0))) <= 1e-12
        assert np.max(np.abs(avg.rho01 - np.mean(a0 * np.conj(a1), axis=0))) <= 1e-12


def test_coherence_flow_matches_trajectory_finite_difference():
    # generator cross-check: the time derivative of the trajectory-
    # averaged coherence, by central differences, equals lindblad_rhs
    # applied to the averaged matrix
    t0, h = 0.4, 0.25
    cfg = EnsembleConfig(n_atoms=50_000, initial=HALF, params=PARAMS, base_seed=7)
    jump_times = run_trajectories(cfg)
    times = np.array([t0 - h, t0, t0 + h])
    avg = average_trajectories(*trajectory_state_series(HALF, PARAMS, jump_times, times))
    fd = (avg.rho01[2] - avg.rho01[0]) / (2 * h)
    expected = lindblad_rhs(matrix_at(avg, 1), PARAMS).rho01
    assert abs(fd - expected) < 0.03


def test_max_elementwise_deviation_is_nan_when_any_entry_is_nan():
    good = DensityMatrix2(1.0, 0.0, 0.0j)
    bad = DensityMatrix2(1.0, math.nan, 0.0j)
    far = DensityMatrix2(0.0, 1.0, 0.0j)
    # the NaN must win wherever it sits, also next to a larger finite distance
    assert math.isnan(max_elementwise_deviation(series_of(bad, good), series_of(good, far)))
    assert math.isnan(max_elementwise_deviation(series_of(good, bad), series_of(far, good)))
    assert max_elementwise_deviation(series_of(good, far), series_of(good, good)) == 1.0
    for nan_part in (DensityMatrix2(math.nan, 0.0, 0.0j), DensityMatrix2(1.0, 0.0, complex(math.nan, 0.5)),
                     DensityMatrix2(1.0, 0.0, complex(0.5, math.nan))):
        assert math.isnan(max_elementwise_deviation(series_of(nan_part, good), series_of(good, far)))
    # as for a complex abs, an infinite coherence distance is infinite even when its other part is NaN
    inf_nan = DensityMatrix2(1.0, 0.0, complex(math.inf, math.nan))
    assert max_elementwise_deviation(series_of(inf_nan, good), series_of(good, far)) == math.inf


def test_max_elementwise_deviation_requires_equal_lengths():
    m = DensityMatrix2(1.0, 0.0, 0.0j)
    with pytest.raises(ValueError):
        max_elementwise_deviation(series_of(m), series_of(m, m))
