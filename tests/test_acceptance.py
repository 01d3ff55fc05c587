"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one pass/fail line (visible with ``pytest -s``); the
assertions carry the same condition, so the suite is red iff a
criterion fails.  Everything runs at desk scale with fixed seeds.
"""

import math
import subprocess
import sys

import numpy as np

from nullshadow.core import AtomParams, QubitState, density_from_state
from nullshadow.dynamics import no_jump_series
from nullshadow.ensemble import (
    EnsembleConfig,
    run_ensemble,
    run_trajectories,
    trajectory_state_series,
)
from nullshadow.interferometer import EVConfig, count_outcomes, detection_probs
from nullshadow.master import (
    MasterRunConfig,
    average_trajectories,
    integrate_master,
    max_elementwise_deviation,
)
from nullshadow.streams import uniforms_at

SEED = 42
HALF = QubitState.from_excited_probability(0.5)
PARAMS = AtomParams(e0=0.0, e1=1.0, gamma=1.0)
LN2 = math.log(2.0)


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def test_half_never_radiate():
    cfg = EnsembleConfig(
        n_atoms=100_000, initial=HALF, params=PARAMS,
        horizon=20.0, grid_points=21, base_seed=SEED,
    )
    frac = run_ensemble(cfg).fraction_blackened_final
    report(
        "half-never-radiate",
        abs(frac - 0.5) <= 0.005,
        f"final blackened fraction {frac:.5f} vs 0.5 +- 0.005",
    )


def test_exponential_law():
    cfg = EnsembleConfig(
        n_atoms=100_000, initial=QubitState.from_excited_probability(1.0),
        params=PARAMS, horizon=5.0, grid_points=6, base_seed=SEED,
    )
    stats = run_ensemble(cfg)
    assert stats.grid[1] == 1.0
    survivor_frac = 1.0 - stats.blackened_count[1] / cfg.n_atoms
    target = math.exp(-1.0)
    report(
        "exponential-law",
        abs(survivor_frac - target) <= 0.005,
        f"survivors at gamma*t=1: {survivor_frac:.5f} vs e^-1={target:.5f} +- 0.005",
    )


def test_null_measurement_collapse():
    # the ground fidelity of the pure conditioned state is its rho00
    fid = no_jump_series(HALF, PARAMS, np.array([30.0])).rho00[0]
    excited_ln2 = no_jump_series(HALF, PARAMS, np.array([LN2])).rho11[0]
    analytic_ok = fid >= 1.0 - 1e-12 and abs(excited_ln2 - 1.0 / 3.0) <= 1e-12

    # cross-check the 1/3 by post-selection: among atoms silent up to
    # ln2, the fraction that eventually radiates equals the conditioned
    # excited population
    cfg = EnsembleConfig(
        n_atoms=100_000, initial=HALF, params=PARAMS,
        horizon=40.0, grid_points=2, base_seed=SEED,
    )
    jump_times = run_trajectories(cfg)
    silent_at_ln2 = jump_times[jump_times > LN2]
    eventually = int(np.count_nonzero(np.isfinite(silent_at_ln2)))
    frac = eventually / len(silent_at_ln2)
    sigma = math.sqrt((1 / 3) * (2 / 3) / len(silent_at_ln2))
    sampled_ok = abs(frac - 1.0 / 3.0) <= 3.0 * sigma
    report(
        "null-measurement-collapse",
        analytic_ok and sampled_ok,
        f"ground fidelity at gamma*t=30: {1 - fid:.2e} from 1; excited at ln2: "
        f"{excited_ln2:.15f}; post-selected fraction {frac:.5f} vs 1/3 +- {3 * sigma:.5f}",
    )


def test_unraveling_oracle_agreement():
    params = AtomParams(e0=0.0, e1=3.0, gamma=1.0)
    cfg = EnsembleConfig(
        n_atoms=10_000, initial=HALF, params=params,
        horizon=5.0, grid_points=2, base_seed=SEED,
    )
    jump_times = run_trajectories(cfg)
    mcfg = MasterRunConfig(dt=5.0 / 490.0, t_max=5.0, record_every=10)
    series = integrate_master(density_from_state(HALF), params, mcfg)
    assert len(series.times) == 50
    averaged = average_trajectories(
        *trajectory_state_series(HALF, params, jump_times, series.times)
    )
    dev = max_elementwise_deviation(averaged, series)
    report(
        "unraveling-oracle-agreement",
        dev <= 0.05,
        f"max elementwise deviation {dev:.5f} <= 0.05 on a 50-point grid to gamma*t=5",
    )


def test_ev_no_bomb():
    p = detection_probs(EVConfig())
    ok = abs(p.p_d1 - 1.0) <= 1e-12 and p.p_d2 < 1e-12 and p.p_absorbed == 0.0
    report("ev-no-bomb", ok, f"(pD1, pD2, pAbs) = ({p.p_d1:.15f}, {p.p_d2:.1e}, {p.p_absorbed})")


def test_ev_with_bomb():
    cfg = EVConfig(blocker="b")
    p = detection_probs(cfg)

    # independent 2x2 matrix-composition oracle
    bs = lambda T: np.array(
        [[math.sqrt(T), 1j * math.sqrt(1 - T)], [1j * math.sqrt(1 - T), math.sqrt(T)]]
    )
    v = bs(0.5) @ np.array([0.0, 1.0], dtype=complex)
    absorbed = abs(v[1]) ** 2
    v[1] = 0.0
    v = bs(0.5) @ v
    oracle = (abs(v[0]) ** 2, abs(v[1]) ** 2, absorbed)

    exact_ok = (
        max(abs(p.p_d1 - 0.25), abs(p.p_d2 - 0.25), abs(p.p_absorbed - 0.5)) <= 1e-12
        and max(abs(a - b) for a, b in zip(p, oracle)) <= 1e-12
    )

    n = 100_000
    counts = count_outcomes(p, uniforms_at(SEED, np.arange(n), 0))
    sampled_ok = True
    for count, prob in zip(counts, p):
        sigma = math.sqrt(prob * (1 - prob) / n)
        sampled_ok &= abs(count / n - prob) <= 3 * sigma
    report(
        "ev-with-bomb",
        exact_ok and sampled_ok,
        f"exact ({p.p_d1:.12f}, {p.p_d2:.12f}, {p.p_absorbed:.12f}) vs oracle; "
        f"counts {counts[0]}/{counts[1]}/{counts[2]} "
        f"(D2 clicks are the interaction-free detections)",
    )


def test_fringe_property():
    worst = 0.0
    for delta in np.linspace(0.0, 2.0 * math.pi, 64):
        p = detection_probs(EVConfig(phase_a=float(delta), phase_b=0.0))
        worst = max(worst, abs(p.p_d2 - math.sin(delta / 2.0) ** 2))
        worst = max(worst, abs(p.p_d1 + p.p_d2 - 1.0))
    report("fringe-property", worst <= 1e-12, f"max |pD2 - sin^2(d/2)| = {worst:.2e} at 64 points")


def test_determinism_across_threads(tmp_path):
    commands = {
        "decay": ["decay-ensemble", "--n-atoms", "5000", "--p-excited", "0.5",
                  "--horizon", "5", "--grid", "11", "--seed", "42", "--format", "json"],
        "cond": ["conditional-state", "--p-excited", "0.5", "--horizon", "3",
                 "--grid", "7", "--format", "csv"],
        "ev": ["ev", "--blocker", "b", "--shots", "20000", "--seed", "7", "--format", "json"],
        "master": ["master-check", "--p-excited", "0.5", "--n-traj", "500",
                   "--horizon", "3", "--dt", "0.01", "--seed", "42", "--format", "json"],
    }
    worst = ""
    ok = True
    for name, args in commands.items():
        outputs = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{name}-{attempt}"
            proc = subprocess.run(
                [sys.executable, "-m", "nullshadow", *args, "--out", str(out)],
                capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(out.read_bytes())
        if outputs[0] != outputs[1]:
            ok = False
            worst = name
    report(
        "determinism",
        ok,
        "all subcommands byte-identical across reruns" if ok else f"subcommand {worst} differed across runs",
    )
