import contextlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc

import jsonschema
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nullshadow import cli
from nullshadow.cli import build_parser, main, time_grid
from nullshadow.core import MAX_COUNT, AtomParams, QubitState
from nullshadow.dynamics import no_jump_series
from nullshadow.interferometer import OUTCOMES, EVConfig, count_outcomes, detection_probs
from nullshadow.master import MAX_STEPS
from nullshadow.output import _CHUNK_ROWS, ComputedRows, load_schema
from nullshadow.streams import uniforms_at
from reference import read_csv_table
from test_api import SRC, _fresh
from test_interferometer import reference_fate
from test_output import reference_json

LN2 = math.log(2.0)


def run_cli(args):
    return main(args)


DECAY = ["decay-ensemble", "--n-atoms", "20", "--p-excited", "0.5", "--horizon", "2"]
COND = ["conditional-state", "--p-excited", "0.5", "--horizon", "2"]
MASTER = ["master-check", "--p-excited", "0.5", "--n-traj", "20", "--horizon", "1", "--dt", "0.01"]

# Each input is rejected with exit code 2 and a one-line error; the
# non-finite ones used to pass silently, print a traceback, or exit 0.
INVALID_ARGVS = [
    ["decay-ensemble", "--n-atoms", "0", "--p-excited", "0.5", "--horizon", "2"],
    DECAY + ["--horizon=nan"],
    DECAY + ["--horizon=inf"],
    DECAY + ["--gamma=nan"],
    DECAY + ["--gamma=inf"],
    DECAY + ["--e0=nan"],
    DECAY + ["--e1=inf"],
    ["decay-ensemble", "--n-atoms", "20", "--a0-re=nan", "--horizon", "2"],
    COND + ["--horizon=nan"],
    COND + ["--horizon=inf"],
    COND + ["--gamma=nan"],
    ["ev", "--phase-a=nan"],
    ["ev", "--phase-b=inf"],
    ["ev", "--seed=-1"],
    ["ev", "--seed", str(2**64)],
    MASTER + ["--gamma=nan"],
    MASTER + ["--gamma=inf"],
    MASTER + ["--e1=nan"],
    MASTER + ["--dt=nan"],
    MASTER + ["--dt=0"],
    MASTER + ["--dt=5e-324"],
    MASTER + ["--horizon=inf"],
    MASTER + ["--tol=nan"],
    MASTER + ["--tol=inf"],
    MASTER + ["--tol=-1"],
    DECAY + ["--e0=-1e308", "--e1=1e308"],
]


class TestDecayEnsemble:
    def test_csv_output_and_columns(self, tmp_path):
        out = tmp_path / "decay.csv"
        code = run_cli(
            [
                "decay-ensemble",
                "--n-atoms", "500",
                "--p-excited", "0.5",
                "--gamma", "1",
                "--horizon", "5",
                "--grid", "11",
                "--seed", "42",
                "--out", str(out),
                "--format", "csv",
            ]
        )
        assert code == 0
        header, rows = read_csv_table(str(out))
        assert header == ["t", "blackened_count", "blackened_fraction", "survivor_excited_prob"]
        assert len(rows) == 11
        assert rows[0][0] == 0.0 and rows[-1][0] == 5.0
        counts = [r[1] for r in rows]
        assert counts == sorted(counts)
        # counts and fractions are consistent
        for r in rows:
            assert r[2] == r[1] / 500

    def test_ground_ensemble_all_zero(self, tmp_path):
        out = tmp_path / "zero.csv"
        code = run_cli(
            [
                "decay-ensemble",
                "--n-atoms", "10",
                "--p-excited", "0",
                "--horizon", "3",
                "--out", str(out),
                "--format", "csv",
            ]
        )
        assert code == 0
        _, rows = read_csv_table(str(out))
        assert all(r[1] == 0 for r in rows)
        assert all(r[3] == 0.0 for r in rows)

    def test_same_seed_twice_is_byte_identical(self, tmp_path):
        args = [
            "decay-ensemble",
            "--n-atoms", "2000",
            "--p-excited", "0.5",
            "--horizon", "4",
            "--seed", "42",
            "--format", "json",
        ]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli(args + ["--out", str(a)]) == 0
        assert run_cli(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_amplitude_flags(self, tmp_path):
        out = tmp_path / "amp.json"
        code = run_cli(
            [
                "decay-ensemble",
                "--n-atoms", "50",
                "--a1-re", "1",
                "--horizon", "2",
                "--out", str(out),
            ]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["config"]["p_excited"] == 1.0

    def test_excited_amplitudes_rounding_past_one_keep_survivors_excited(self, tmp_path):
        # these amplitudes normalize to |a1|^2 = 1 + 4e-16; the survivor
        # column once rejected that weight (exit 2) while --premeasure
        # accepted the same state
        argv = [
            "decay-ensemble",
            "--a1-re", "0.2",
            "--a1-im", "0.5",
            "--n-atoms", "100",
            "--horizon", "60",
            "--format", "csv",
        ]
        out = tmp_path / "excited.csv"
        assert run_cli(argv + ["--out", str(out)]) == 0
        _, rows = read_csv_table(str(out))
        assert [r[3] for r in rows] == [1.0] * len(rows)
        assert run_cli(argv + ["--premeasure", "--out", str(out)]) == 0

    def test_near_pure_excited_survivors_still_drain(self, tmp_path):
        # a ground amplitude of 1e-10 rounds p1 to 1.0, yet a silent atom
        # is not a pure excited one: its excited population must fall
        out = tmp_path / "near.csv"
        code = run_cli(
            [
                "decay-ensemble",
                "--a0-re", "1e-10",
                "--a1-re", "1",
                "--n-atoms", "100",
                "--horizon", "800",
                "--out", str(out),
                "--format", "csv",
            ]
        )
        assert code == 0
        _, rows = read_csv_table(str(out))
        survivor = [r[3] for r in rows]
        assert all(v is not None and math.isfinite(v) for v in survivor)
        assert all(a >= b for a, b in zip(survivor, survivor[1:]))
        assert survivor[0] == 1.0 and survivor[-1] == 0.0

    def test_premeasure_flag_recorded(self, tmp_path):
        out = tmp_path / "pre.json"
        code = run_cli(
            [
                "decay-ensemble",
                "--n-atoms", "100",
                "--p-excited", "0.5",
                "--horizon", "2",
                "--premeasure",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert json.loads(out.read_text())["config"]["premeasure"] is True

    def test_premeasure_without_decay_keeps_the_drawn_mixture(self, capsys):
        # gamma = 0: no atom emits, so every survivor column is the
        # excited fraction drawn in the premeasure slot
        argv = ["decay-ensemble", "--premeasure", "--gamma", "0", "--n-atoms", "1000",
                "--p-excited", "0.3", "--seed", "4", "--horizon", "5"]
        assert run_cli(argv) == 0
        record = json.loads(capsys.readouterr().out)
        drawn = (uniforms_at(4, np.arange(1000), 0) < record["config"]["p_excited"]).mean()
        assert drawn == 0.277
        assert [row[1:] for row in record["rows"]] == [[0, 0.0, drawn]] * len(record["rows"])

    def test_state_flag_conflicts_exit_2(self, capsys):
        code = run_cli(
            [
                "decay-ensemble",
                "--n-atoms", "10",
                "--p-excited", "0.5",
                "--a0-re", "1",
                "--horizon", "2",
            ]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_missing_state_exits_2(self):
        assert run_cli(["decay-ensemble", "--n-atoms", "10", "--horizon", "2"]) == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["decay-ensemble", "--bogus", "1"])
        assert exc.value.code == 2

    def test_io_failure_exits_1(self, tmp_path, capsys):
        code = run_cli(
            [
                "decay-ensemble",
                "--n-atoms", "10",
                "--p-excited", "0.5",
                "--horizon", "2",
                "--out", str(tmp_path / "no" / "such" / "dir" / "x.json"),
            ]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_invalid_config_exits_2(self, capsys):
        for argv in INVALID_ARGVS:
            assert run_cli(argv) == 2, argv
            assert "error" in capsys.readouterr().err, argv


# The --horizon and --grid checks shared by the three time-tabulating
# subcommands, with the one-line error each prints.
WINDOW_ERRORS = [
    (["--horizon", "0"], "horizon must be positive and finite, got 0.0"),
    (["--horizon=nan"], "horizon must be positive and finite, got nan"),
    (["--horizon=inf"], "horizon must be positive and finite, got inf"),
    (["--grid", "1"], "grid must be >= 2, got 1"),
    (["--grid", str(2**63)], f"grid must be <= 9007199254740992, got {2**63}"),
]


@pytest.mark.parametrize("base", [DECAY, COND, MASTER], ids=lambda argv: argv[0])
@pytest.mark.parametrize("flags, message", WINDOW_ERRORS,
                         ids=["horizon=0", "horizon=nan", "horizon=inf", "grid=1", "grid=2**63"])
def test_window_error_lines(base, flags, message, capsys):
    assert run_cli(base + flags) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"nullshadow: error: {message}\n"


# Each count flag, the run it is given to, and the name its refusal uses.
# Near 2**63 numpy's arange sampled nothing and the run exited 0; above
# 2**53 it ran out of memory; a --grid of 2**63 overflowed the list of times.
COUNT_FLAGS = {
    "n-atoms": (DECAY, "n_atoms"),
    "n-traj": (MASTER, "n-traj"),
    "shots": (["ev"], "shots"),
    "grid": (COND, "grid"),
}


@pytest.mark.parametrize("value", [2**53 + 1, 2**63 - 1, 2**63, 2**64],
                         ids=["2**53+1", "2**63-1", "2**63", "2**64"])
@pytest.mark.parametrize("flag", COUNT_FLAGS)
def test_counts_past_the_bound_exit_2_with_one_line(flag, value, capsys):
    base, name = COUNT_FLAGS[flag]
    assert run_cli(base + [f"--{flag}={value}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"nullshadow: error: {name} must be <= {MAX_COUNT}, got {value}\n"


@pytest.mark.parametrize("scale", ["1e-320", "1.7e308"])
def test_amplitudes_are_normalized_at_either_end_of_the_float_range(scale, capsys):
    # hypot of the raw amplitudes lost bits (subnormal) or overflowed
    argv = ["decay-ensemble", "--n-atoms", "10", "--a0-re", scale, "--a1-re", scale, "--horizon", "1"]
    assert run_cli(argv) == 0
    config = json.loads(capsys.readouterr().out)["config"]
    assert config["a0"] == config["a1"] == [0.7071067811865476, 0.0]


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_amplitude_is_named(value, capsys):
    # it was normalized to a NaN state, then rejected as not normalized
    argv = ["decay-ensemble", "--n-atoms", "10", f"--a0-re={value}", "--a1-re", "1", "--horizon", "1"]
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"nullshadow: error: amplitudes must be finite, got ({value}+0j)\n"


class TestConditionalState:
    def test_reference_rows(self, tmp_path):
        out = tmp_path / "cond.csv"
        code = run_cli(
            [
                "conditional-state",
                "--p-excited", "0.5",
                "--gamma", "1",
                "--horizon", str(2 * LN2),
                "--grid", "3",
                "--out", str(out),
                "--format", "csv",
            ]
        )
        assert code == 0
        _, rows = read_csv_table(str(out))
        assert rows[0][1] == pytest.approx(0.5, abs=1e-12)
        assert rows[1][0] == pytest.approx(LN2, abs=1e-12)
        assert rows[1][1] == pytest.approx(1 / 3, abs=1e-12)

    def test_fidelity_column_monotone_to_one(self, tmp_path):
        out = tmp_path / "cond.json"
        code = run_cli(
            [
                "conditional-state",
                "--p-excited", "0.5",
                "--horizon", "40",
                "--grid", "41",
                "--out", str(out),
            ]
        )
        assert code == 0
        data = json.loads(out.read_text())
        fid = [row[2] for row in data["rows"]]
        assert all(a <= b + 1e-15 for a, b in zip(fid, fid[1:]))
        assert fid[0] == pytest.approx(0.5, abs=1e-12)
        assert fid[-1] > 1.0 - 1e-12


    def test_pure_excited_stays_excited_without_nan(self, tmp_path):
        out = tmp_path / "excited.json"
        code = run_cli(
            ["conditional-state", "--p-excited", "1", "--horizon", "800", "--out", str(out)]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert [row[1:] for row in data["rows"]] == [[1.0, 0.0]] * len(data["rows"])
        assert data["summary"]["final_excited_prob"] == 1.0
        assert data["summary"]["final_fidelity_with_ground"] == 0.0

    def test_pure_excited_state_under_an_overflowing_exponent(self, capsys):
        # e^(-gamma t) underflows to 0 after t = 0, so S = p1 e^(-gamma t) + 0 is 0
        # there; without the p0 == 0 branch rho11 = 0 / 0 raises ZeroDivisionError.
        argv = ["conditional-state", "--p-excited", "1", "--gamma", "1e300", "--horizon", "1e300",
                "--grid", "3"]
        assert run_cli(argv) == 0
        assert json.loads(capsys.readouterr().out)["rows"] == [[t, 1.0, 0.0] for t in (0.0, 5e299, 1e300)]

    @pytest.mark.parametrize("p_excited, gamma", [(0.5, 1.0), (0.9, 0.7), (1e-300, 3.0), (1.0, 2.0)])
    def test_rows_are_the_no_jump_series_populations(self, p_excited, gamma, capsys):
        # the table and the library share one closed form, so they agree bit for bit
        argv = ["conditional-state", f"--p-excited={p_excited}", f"--gamma={gamma}",
                "--horizon", "30", "--grid", "61"]
        assert run_cli(argv) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        times = np.asarray(time_grid(30.0, 61))
        series = no_jump_series(QubitState.from_excited_probability(p_excited),
                                AtomParams(0.0, 1.0, gamma), times)
        assert rows == np.column_stack([series.times, series.rho11, series.rho00]).tolist()


class TestTimeGrid:
    """``time_grid`` is the time column of conditional-state and decay-ensemble."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(horizon=st.floats(min_value=5e-324, max_value=1.7976931348623157e308),
           points=st.integers(2, 400))
    @example(horizon=5e-324, points=3)  # numpy's step == 0 branch
    @example(horizon=1e-320, points=5000)  # the same branch, with nonzero points inside
    @example(horizon=1e300, points=3)
    @example(horizon=1e300, points=50001)
    @example(horizon=1.7976931348623157e308, points=4)  # (points - 1) * step overflows
    @example(horizon=10.0, points=50001)
    def test_equals_numpy_linspace_bit_for_bit(self, horizon, points):
        with np.errstate(over="ignore"):
            expected = np.linspace(0.0, horizon, points)
        grid = np.array(time_grid(horizon, points))
        assert grid.view(np.uint64).tolist() == expected.view(np.uint64).tolist()


class TestEv:
    def test_no_blocker_exact(self, tmp_path):
        out = tmp_path / "ev.json"
        assert run_cli(["ev", "--blocker", "none", "--out", str(out)]) == 0
        s = json.loads(out.read_text())["summary"]
        assert s["p_d1"] == pytest.approx(1.0, abs=1e-12)
        assert s["p_d2"] < 1e-12
        assert s["p_absorbed"] == 0.0

    def test_blocker_exact(self, tmp_path):
        out = tmp_path / "ev.json"
        assert run_cli(["ev", "--blocker", "b", "--out", str(out)]) == 0
        s = json.loads(out.read_text())["summary"]
        assert s["p_d1"] == pytest.approx(0.25, abs=1e-12)
        assert s["p_d2"] == pytest.approx(0.25, abs=1e-12)
        assert s["p_absorbed"] == pytest.approx(0.5, abs=1e-12)

    def test_shot_counts_within_three_sigma(self, tmp_path):
        out = tmp_path / "ev.json"
        code = run_cli(
            ["ev", "--blocker", "b", "--shots", "100000", "--seed", "7", "--out", str(out)]
        )
        assert code == 0
        data = json.loads(out.read_text())
        counts = data["summary"]["counts"]
        assert counts["D1"] + counts["D2"] + counts["Absorbed"] == 100000
        for tag, p in (("D1", 0.25), ("D2", 0.25), ("Absorbed", 0.5)):
            sigma = math.sqrt(p * (1 - p) / 100000)
            assert abs(counts[tag] / 100000 - p) <= 3 * sigma

    def test_counts_match_per_shot_sampler(self, tmp_path):
        # the CLI counts must agree with the scalar inverse-transform rule,
        # and count_outcomes must follow it shot by shot
        shots, seed = 200, 3
        out = tmp_path / "ev.json"
        assert run_cli(
            ["ev", "--blocker", "b", "--shots", str(shots), "--seed", str(seed), "--out", str(out)]
        ) == 0
        counts = json.loads(out.read_text())["summary"]["counts"]
        probs = detection_probs(EVConfig(blocker="b"))
        fates = []
        for u in uniforms_at(seed, np.arange(shots), 0):
            fates.append(reference_fate(probs, float(u)))
            assert count_outcomes(probs, [u]) == tuple(int(tag == fates[-1]) for tag in OUTCOMES)
        assert counts == {tag: fates.count(tag) for tag in OUTCOMES}

    def test_stdout_when_no_out(self, capsys):
        assert run_cli(["ev", "--blocker", "none"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["scenario"] == "ev"

    def test_negative_shots_exit_2(self):
        assert run_cli(["ev", "--shots", "-1"]) == 2


class TestMasterCheck:
    def test_passes_at_default_tolerance(self, tmp_path):
        out = tmp_path / "check.json"
        code = run_cli(
            [
                "master-check",
                "--p-excited", "0.5",
                "--gamma", "1",
                "--n-traj", "2000",
                "--horizon", "5",
                "--dt", "0.01",
                "--seed", "42",
                "--out", str(out),
            ]
        )
        assert code == 0
        s = json.loads(out.read_text())["summary"]
        assert s["passed"] is True
        assert s["max_deviation"] <= s["tol"]
        assert s["tol"] == pytest.approx(5.0 / math.sqrt(2000), abs=1e-12)
        assert s["max_population_error_vs_analytic"] < 1e-6

    def test_population_column_tracks_exponential(self, tmp_path):
        out = tmp_path / "check.csv"
        code = run_cli(
            [
                "master-check",
                "--p-excited", "0.5",
                "--n-traj", "100",
                "--horizon", "3",
                "--dt", "0.01",
                "--out", str(out),
                "--format", "csv",
            ]
        )
        assert code == 0
        header, rows = read_csv_table(str(out))
        i_t = header.index("t")
        i_m = header.index("rho11_master")
        i_a = header.index("rho11_analytic")
        for row in rows:
            assert row[i_m] == pytest.approx(0.5 * math.exp(-row[i_t]), abs=1e-6)
            # math.exp, not numpy's SIMD exp, so the column is the same on every CPU
            assert row[i_a] == 0.5 * math.exp(-1.0 * row[i_t])

    def test_tolerance_violation_exits_3(self, tmp_path):
        out = tmp_path / "fail.json"
        code = run_cli(
            [
                "master-check",
                "--p-excited", "0.5",
                "--n-traj", "50",
                "--horizon", "3",
                "--dt", "0.01",
                "--tol", "1e-9",
                "--out", str(out),
            ]
        )
        assert code == 3
        assert json.loads(out.read_text())["summary"]["passed"] is False

    def test_jumps_up_to_the_last_recorded_time_count(self, tmp_path):
        # 0.16 / 0.1 rounds to 2 steps, so the oracle records t = 0.2, past
        # the horizon; jumps in (0.16, 0.2] must count in the average too.
        out = tmp_path / "check.json"
        code = run_cli(
            ["master-check", "--p-excited", "0.5", "--n-traj", "1000000", "--horizon", "0.16",
             "--dt", "0.1", "--grid", "2", "--out", str(out)]
        )
        record = json.loads(out.read_text())
        assert record["config"]["horizon"] == 0.16
        assert record["rows"][-1][0] == pytest.approx(0.2, abs=1e-15)
        assert code == 0
        assert record["summary"]["max_deviation"] <= 0.002

    def test_single_trajectory_with_loose_tolerance(self):
        assert run_cli(
            ["master-check", "--p-excited", "1", "--n-traj", "1",
             "--horizon", "1", "--dt", "0.01", "--tol", "2", "--out", "/dev/null"]
        ) == 0


def test_all_json_outputs_validate_against_schema(tmp_path):
    schema = load_schema()
    runs = [
        ["decay-ensemble", "--n-atoms", "100", "--p-excited", "0.5", "--horizon", "2"],
        ["conditional-state", "--p-excited", "0.5", "--horizon", "2"],
        ["ev", "--blocker", "b", "--shots", "100"],
        ["master-check", "--p-excited", "0.5", "--n-traj", "100", "--horizon", "2", "--dt", "0.01"],
    ]
    for i, args in enumerate(runs):
        out = tmp_path / f"r{i}.json"
        assert run_cli(args + ["--out", str(out), "--format", "json"]) == 0
        jsonschema.validate(json.loads(out.read_text()), schema)


# Each record's config echo in key order, its seed and its columns. The
# decay run's amplitudes 3 and 4i echo normalized, with |a1|^2 as
# p_excited; master-check's default tol is 5/sqrt(16).
CONFIG_ECHO_RUNS = {
    "decay-ensemble": (
        ["decay-ensemble", "--n-atoms", "10", "--a0-re", "3", "--a1-im", "4", "--horizon", "2",
         "--grid", "3", "--seed", "5", "--gamma", "2", "--e0", "0.5", "--e1", "1.5"],
        [("n_atoms", 10), ("a0", [0.6, 0.0]), ("a1", [0.0, 0.8]), ("p_excited", 0.6400000000000001),
         ("gamma", 2.0), ("e0", 0.5), ("e1", 1.5), ("horizon", 2.0), ("grid", 3),
         ("premeasure", False)],
        5,
        ["t", "blackened_count", "blackened_fraction", "survivor_excited_prob"],
    ),
    "master-check": (
        ["master-check", "--p-excited", "0.5", "--n-traj", "16", "--horizon", "1", "--dt", "0.01",
         "--grid", "5", "--seed", "9"],
        [("p_excited", 0.5), ("gamma", 1.0), ("e0", 0.0), ("e1", 1.0), ("n_traj", 16),
         ("horizon", 1.0), ("dt", 0.01), ("grid", 5), ("tol", 1.25)],
        9,
        ["t", "rho00_master", "rho11_master", "re_rho01_master", "im_rho01_master",
         "rho00_traj", "rho11_traj", "re_rho01_traj", "im_rho01_traj", "rho11_analytic"],
    ),
    "ev": (
        ["ev", "--blocker", "a", "--t1", "0.25"],
        [("blocker", "a"), ("t1", 0.25), ("t2", 0.5), ("phase_a", 0.0), ("phase_b", 0.0),
         ("shots", 0)],
        0,
        ["outcome", "probability"],
    ),
    "ev-shots": (
        ["ev", "--shots", "10", "--seed", "3", "--phase-b", "1"],
        [("blocker", "none"), ("t1", 0.5), ("t2", 0.5), ("phase_a", 0.0), ("phase_b", 1.0),
         ("shots", 10)],
        3,
        ["outcome", "probability", "count", "frequency"],
    ),
    "conditional-state": (
        ["conditional-state", "--p-excited", "0.5", "--horizon", "2", "--grid", "3", "--gamma", "2"],
        [("p_excited", 0.5), ("gamma", 2.0), ("horizon", 2.0), ("grid", 3)],
        None,
        ["t", "excited_prob", "fidelity_with_ground"],
    ),
}


@pytest.mark.parametrize("name", CONFIG_ECHO_RUNS)
def test_record_echoes_its_config_in_order(name, capsys):
    argv, config, seed, columns = CONFIG_ECHO_RUNS[name]
    assert run_cli(argv) == 0
    record = json.loads(capsys.readouterr().out)
    assert list(record["config"].items()) == config
    assert record["seed"] == seed
    assert record["columns"] == columns


# One run per subcommand that writes a JSON record; ev with --shots 0.
COLUMN_RUNS = {
    "decay-ensemble": DECAY,
    "conditional-state": COND,
    "ev": ["ev", "--shots", "0"],
    "master-check": MASTER,
}


@pytest.mark.parametrize("command", COLUMN_RUNS)
def test_help_lists_the_record_columns(command, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli([command, "--help"])
    assert exc.value.code == 0
    epilog = " ".join(capsys.readouterr().out.split()).split("output columns: ", 1)[1]
    listed = re.split(r" \(|;", epilog)[0].split(", ")
    out = tmp_path / "record.json"
    assert run_cli(COLUMN_RUNS[command] + ["--out", str(out), "--format", "json"]) == 0
    assert json.loads(out.read_text())["columns"] == listed


# The benchmark's four command lines at smoke size, a --premeasure run whose
# survivor column turns NaN once every atom has emitted, and both ev tables;
# then computed tables of one chunk and a row, of two chunks and a row, and of
# several chunks, one of them with the NaN turning up inside its first chunk.
RENDER_RUNS = {
    "decay-100k": ["decay-ensemble", "--p-excited", "0.5", "--n-atoms", "2000",
                   "--horizon", "20", "--grid", "41", "--seed", "1"],
    "decay-premeasure": ["decay-ensemble", "--p-excited", "1", "--premeasure", "--n-atoms", "20",
                         "--horizon", "20", "--grid", "11", "--seed", "1"],
    "oracle-30k": ["master-check", "--p-excited", "0.5", "--n-traj", "1000", "--horizon", "5",
                   "--dt", "0.01", "--grid", "50", "--seed", "1"],
    "oracle-fine": ["master-check", "--p-excited", "0.5", "--n-traj", "1000", "--horizon", "1",
                    "--dt", "0.001", "--grid", "50", "--seed", "1"],
    "conditional-dense": ["conditional-state", "--p-excited", "0.5", "--gamma", "1",
                          "--horizon", "10", "--grid", "101"],
    "ev": ["ev", "--blocker", "b"],
    "ev-shots": ["ev", "--blocker", "b", "--shots", "100", "--seed", "7"],
    "conditional-257": ["conditional-state", "--p-excited", "0.5", "--horizon", "10", "--grid", "257"],
    "conditional-513": ["conditional-state", "--p-excited", "0.5", "--horizon", "10", "--grid", "513"],
    "decay-600": ["decay-ensemble", "--p-excited", "0.5", "--n-atoms", "1000", "--horizon", "5",
                  "--grid", "600", "--seed", "1"],
    "decay-premeasure-700": ["decay-ensemble", "--premeasure", "--p-excited", "1", "--n-atoms", "20",
                             "--horizon", "20", "--grid", "700", "--seed", "1"],
}


@pytest.mark.parametrize("name", RENDER_RUNS)
def test_json_file_is_the_reference_render(name, tmp_path):
    argv = RENDER_RUNS[name]
    args = build_parser().parse_args(argv)
    expected = reference_json(args.func(args))
    out = tmp_path / "record.json"
    assert run_cli(argv + ["--out", str(out), "--format", "json"]) == 0
    assert out.read_text(encoding="utf-8") == expected
    if name.startswith("decay-premeasure"):
        assert json.loads(expected)["rows"][-1][-1] is None
    if name == "decay-premeasure-700":
        survivor = [row[-1] for row in json.loads(expected)["rows"]]
        assert 0 < survivor.index(None) % _CHUNK_ROWS, "the first null should fall inside a chunk"


@pytest.mark.parametrize(
    "name", [name for name, argv in RENDER_RUNS.items() if argv[0] in ("conditional-state", "decay-ensemble")]
)
def test_a_computed_table_slices_as_its_whole_list(name):
    args = build_parser().parse_args(RENDER_RUNS[name])
    table = args.func(args).rows
    whole = table[:]
    assert len(table) == len(whole) == args.grid
    n, c = len(whole), _CHUNK_ROWS
    for a, b in [(0, 1), (c - 1, c + 1), (c, 2 * c), (n - 1, n), (3, n - 2), (n, n + 5), (5, 2), (-3, None),
                 (-1, None), (-n - 5, 2)]:
        assert table[a:b] == whole[a:b], (a, b)
    with pytest.raises(ValueError, match="contiguous"):
        table[1:n:c]


# What a record may hold, by exact type: np.float64 subclasses float, and
# its repr is not a float's.  A table cell is never a bool.
CELLS = (str, int, float, type(None))
SCALARS = (*CELLS, bool)


def _not_plain(value):
    """The values inside a config or summary value that are not plain Python or not finite."""
    if type(value) is dict:
        return [bad for item in [*value, *value.values()] for bad in _not_plain(item)]
    if type(value) is list:
        return [bad for item in value for bad in _not_plain(item)]
    if type(value) is float:
        return [] if math.isfinite(value) else [value]
    return [] if type(value) in SCALARS else [value]


# RENDER_RUNS hold every subcommand: decay-ensemble with and without
# --premeasure (whose survivor cells have no value once every atom has
# emitted), ev with and without --shots.
@pytest.mark.parametrize("name", RENDER_RUNS)
def test_a_record_holds_plain_python_values(name):
    args = build_parser().parse_args(RENDER_RUNS[name])
    record = args.func(args)
    assert _not_plain(record.config) == [] and _not_plain(record.summary) == []
    table = record.rows
    assert type(table) in (list, ComputedRows)
    for start in range(0, len(table), _CHUNK_ROWS):
        rows = table[start : start + _CHUNK_ROWS]
        assert type(rows) is list
        # a row may be a tuple, which JSON writes as a list
        assert {type(row) for row in rows} <= {list, tuple}
        assert {type(cell) for row in rows for cell in row} <= set(CELLS), start
        assert [cell for row in rows for cell in row if type(cell) is float and not math.isfinite(cell)] == []


def _write_peak_per_byte(argv, out):
    """Peak traced allocation of one CLI run that writes ``out``, per byte of the file."""
    tracemalloc.start()
    try:
        assert run_cli(argv + ["--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / out.stat().st_size


# A computed table is held one chunk at a time, so writing it peaks at about
# the two copies of its text that the render and its join make.
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_writing_a_dense_conditional_table_peaks_under_three_times_the_file(fmt, tmp_path):
    argv = ["conditional-state", "--p-excited", "0.5", "--horizon", "10", "--grid", "200001", "--format", fmt]
    assert _write_peak_per_byte(argv, tmp_path / f"dense.{fmt}") <= 3.0


# decay-ensemble also holds its grid, counts and survivor column as arrays,
# heavy beside its short CSV rows, hence the looser bound; the survivor
# column is filled a slice at a time, with no whole-grid Python lists.
def test_writing_a_dense_decay_csv_peaks_under_four_times_the_file(tmp_path):
    argv = ["decay-ensemble", "--p-excited", "0.5", "--n-atoms", "1000", "--horizon", "5",
            "--grid", "200001", "--seed", "1", "--format", "csv"]
    assert _write_peak_per_byte(argv, tmp_path / "dense.csv") <= 4.0


def _exit_codes(text):
    codes = " ".join(text.split()).split("xit codes: ", 1)[1]
    return dict(re.findall(r"([0-3]) ([^,.(]+?)(?= \(|[,.]|$)", codes))


def test_help_epilog_names_the_documented_exit_codes(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["--help"])
    assert exc.value.code == 0
    codes = _exit_codes(capsys.readouterr().out)
    assert sorted(codes) == ["0", "1", "2", "3"]
    assert codes == _exit_codes(cli.__doc__)


# Each asks for 728 TiB at once, which is refused: a numpy array for
# decay-ensemble and ev, conditional-state's list of grid times.
OVERSIZED_ARGVS = [
    ["decay-ensemble", "--n-atoms", "100000000000000", "--p-excited", "0.5", "--horizon", "2"],
    ["ev", "--shots", "100000000000000"],
    ["conditional-state", "--p-excited", "0.5", "--horizon", "2", "--grid", "100000000000000"],
]


@pytest.mark.parametrize("argv", OVERSIZED_ARGVS, ids=lambda argv: argv[0])
def test_out_of_memory_exits_1_with_one_line(argv, capsys):
    assert run_cli(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("nullshadow: error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "argv, last_row",
    [
        (["conditional-state", "--p-excited", "0.5", "--horizon", "1e300", "--gamma", "1e300",
          "--grid", "3"], [1e300, 0.0, 1.0]),
        (["decay-ensemble", "--n-atoms", "50", "--p-excited", "0.5", "--horizon", "1e10",
          "--e1", "1e300", "--grid", "3"], [1e10, 25, 0.5, 0.0]),
    ],
    ids=["conditional-state", "decay-ensemble"],
)
def test_overflowing_exponents_warn_nothing(argv, last_row, capsys):
    # e^(-gamma t) -> 0 is the exact limit; pytest's error::RuntimeWarning
    # filter turns any numpy overflow warning into a failure here.
    assert run_cli(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["rows"][-1] == last_row


# The --premeasure run's table has its first empty survivor cell inside
# its second chunk, so the CSV's empty cells meet the JSON's nulls there
# and in every chunk after it.
def test_csv_and_json_tables_carry_identical_values(tmp_path):
    decay = ["decay-ensemble", "--n-atoms", "300", "--p-excited", "0.5", "--horizon", "3", "--seed", "5"]
    for args in (decay, RENDER_RUNS["decay-premeasure-700"]):
        cpath, jpath = tmp_path / "t.csv", tmp_path / "t.json"
        assert run_cli(args + ["--out", str(cpath), "--format", "csv"]) == 0
        assert run_cli(args + ["--out", str(jpath), "--format", "json"]) == 0
        _, csv_rows = read_csv_table(str(cpath))
        json_rows = json.loads(jpath.read_text())["rows"]
        assert csv_rows == json_rows


# The variables through which OpenBLAS takes its thread count.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
SMALL_DECAY = ["decay-ensemble", "--n-atoms", "1000", "--p-excited", "0.5", "--horizon", "2", "--seed", "3"]


def _env_without_blas_threads(**extra: str) -> dict[str, str]:
    return {**{k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}, **extra}


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or (os.cpu_count() or 1) < 2,
    reason="counts /proc/self/task; OpenBLAS starts no pool on one CPU",
)
@pytest.mark.parametrize("extra", [{}, {"OPENBLAS_NUM_THREADS": "4"}], ids=["unset", "openblas-4"])
def test_a_run_is_one_os_thread(extra, tmp_path):
    # numpy is loaded here already, so only a new interpreter shows the
    # threads that loading it starts.
    code = """
import json, os, sys
from nullshadow import cli
code = cli.main(json.loads(sys.argv[1]))
print(json.dumps([code, len(os.listdir("/proc/self/task"))]))
"""
    out, reference = tmp_path / "child.csv", tmp_path / "reference.csv"
    argv = SMALL_DECAY + ["--out", str(out)]
    assert _fresh(code, json.dumps(argv), env=_env_without_blas_threads(**extra)) == [0, 1]
    assert run_cli(SMALL_DECAY + ["--out", str(reference)]) == 0
    assert out.read_bytes() == reference.read_bytes()


def test_importing_the_cli_sets_no_blas_variable():
    code = 'import json, os, nullshadow, nullshadow.cli; print(json.dumps("OPENBLAS_NUM_THREADS" in os.environ))'
    assert _fresh(code, env=_env_without_blas_threads()) is False


def test_a_run_after_numpy_leaves_the_environment_alone(tmp_path):
    assert "numpy" in sys.modules
    before = dict(os.environ)
    assert run_cli(SMALL_DECAY + ["--out", str(tmp_path / "d.csv")]) == 0
    assert dict(os.environ) == before


# This environment with stdout block-buffered, as it is by default.
BUFFERED = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
UNBUFFERED = {**BUFFERED, "PYTHONUNBUFFERED": "1"}


def _python_m(argv: list[str], env: dict[str, str], **streams) -> subprocess.CompletedProcess:
    """``python -m nullshadow argv`` in a new interpreter that imports the package from src."""
    path = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "nullshadow", *argv], env={**env, "PYTHONPATH": path},
                          timeout=120, **streams)


DENSE_COND = ["conditional-state", "--p-excited", "0.5", "--horizon", "10", "--grid", "20001"]
# Tables of several render chunks; the decay one has null survivor cells across them.
CHILD_RUNS = {
    "conditional-json": DENSE_COND,
    "conditional-csv": DENSE_COND + ["--format", "csv"],
    "decay-null-cells": ["decay-ensemble", "--premeasure", "--p-excited", "1", "--n-atoms", "20",
                         "--horizon", "20", "--grid", "20001"],
}


@pytest.mark.parametrize("argv", CHILD_RUNS.values(), ids=CHILD_RUNS)
def test_a_process_writes_the_bytes_of_main(argv, capsys):
    # the process entry freezes the heap, so shutdown collects nothing;
    # the record must still reach stdout whole
    child = _python_m(argv, BUFFERED, capture_output=True)
    assert child.returncode == 0 and child.stderr == b""
    assert run_cli(argv) == 0
    assert child.stdout == capsys.readouterr().out.encode()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("env", [BUFFERED, UNBUFFERED], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["ev", "--blocker", "b"], ["--version"], ["ev", "--help"]],
                         ids=["record", "version", "help"])
def test_a_full_stdout_exits_1_with_one_line(argv, env):
    # argparse ignores a failed write of --version and --help, and a
    # block-buffered stdout fails at its flush, which the interpreter's
    # last flush repeats (exit 120) unless the process entry drops it
    with open("/dev/full", "w") as full:
        child = _python_m(argv, env, stdout=full, stderr=subprocess.PIPE)
    assert (child.returncode, child.stderr) == (1, b"nullshadow: error: [Errno 28] No space left on device\n")


def test_a_pipe_whose_reader_is_gone_exits_1_with_one_line():
    read, write = os.pipe()
    os.close(read)
    try:
        child = _python_m(["--version"], BUFFERED, stdout=write, stderr=subprocess.PIPE)
    finally:
        os.close(write)
    assert (child.returncode, child.stderr) == (1, b"nullshadow: error: [Errno 32] Broken pipe\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_full_stderr_keeps_the_usage_exit_code():
    # argparse still ignores a failed write to stderr
    with open("/dev/full", "w") as full:
        child = _python_m(["ev", "--shots", "many"], UNBUFFERED, stdout=subprocess.PIPE, stderr=full)
    assert (child.returncode, child.stdout) == (2, b"")


# A stderr that cannot take the error line leaves the exit code as it is:
# a usage error, a configuration error, and a record on a full stdout.
FULL_STDERR_RUNS = {
    "usage": (["ev", "--shots", "many"], 2),
    "configuration": (["decay-ensemble", "--n-atoms", "0", "--p-excited", "0.5", "--horizon", "1"], 2),
    "full-stdout": (["ev", "--blocker", "b"], 1),
}


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("env", [BUFFERED, UNBUFFERED], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("name", FULL_STDERR_RUNS)
def test_a_full_stderr_keeps_the_exit_code(name, env):
    # stderr is line-buffered, so the write of the line itself fails, and
    # the interpreter's last flush would fail again (exit 120)
    argv, code = FULL_STDERR_RUNS[name]
    with open("/dev/full", "w") as full:
        child = _python_m(argv, env, stdout=full if name == "full-stdout" else subprocess.DEVNULL, stderr=full)
    assert child.returncode == code


# A stream closed at start-up is None in sys; argparse would write
# --version and --help to stderr instead, and print() an error to stdout.
@pytest.mark.parametrize("env", [BUFFERED, UNBUFFERED], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["ev", "--blocker", "b"], ["--version"], ["ev", "--help"]],
                         ids=["record", "version", "help"])
def test_a_closed_stdout_exits_1_with_one_line(argv, env):
    child = _python_m(argv, env, stderr=subprocess.PIPE, preexec_fn=lambda: os.close(1))
    assert (child.returncode, child.stderr) == (1, b"nullshadow: error: [Errno 9] stdout is closed\n")


def test_a_closed_stdout_does_not_stop_a_record_written_to_a_file(tmp_path):
    out = tmp_path / "ev.json"
    child = _python_m(["ev", "--blocker", "b", "--out", str(out)], BUFFERED, stderr=subprocess.PIPE,
                      preexec_fn=lambda: os.close(1))
    assert (child.returncode, child.stderr) == (0, b"")
    assert json.loads(out.read_text())["scenario"] == "ev"


# A configuration error, then two usage errors, whose usage text argparse
# would print to stdout.
def test_a_closed_stderr_keeps_the_error_line_off_stdout():
    for argv in (["ev", "--shots", "-1"], ["ev", "--shots", "many"], ["bogus"]):
        child = _python_m(argv, BUFFERED, stdout=subprocess.PIPE, preexec_fn=lambda: os.close(2))
        assert (child.returncode, child.stdout) == (2, b""), argv


# A numpy that fails to load as numpy does under a memory limit: advice
# over many lines, opening with blank ones, wrapping the error that names
# the failure.
FAILING_NUMPY = """
try:
    raise ImportError("libfake.so: failed to map segment from shared object")
except ImportError as exc:
    raise ImportError("\\n\\nIMPORTANT: PLEASE READ THIS\\n\\nadvice") from exc
"""


# The run ends with one line, not a traceback.
@pytest.mark.parametrize(
    "halt, line",
    [(True, "import of numpy halted; None in sys.modules"),
     (False, "libfake.so: failed to map segment from shared object")],
    ids=["halted", "wrapped"],
)
def test_a_failed_numpy_load_exits_1_with_one_line(halt, line, tmp_path):
    (tmp_path / "numpy").mkdir()
    (tmp_path / "numpy" / "__init__.py").write_text(FAILING_NUMPY)
    code = "import sys; " + ("sys.modules['numpy'] = None; " if halt else "")
    code += f"import nullshadow.__main__ as m; sys.exit(m.run({DECAY!r}))"
    path = os.pathsep.join(filter(None, [str(tmp_path), str(SRC), os.environ.get("PYTHONPATH")]))
    child = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                           capture_output=True, timeout=120)
    assert (child.returncode, child.stdout) == (1, b"")
    assert child.stderr == f"nullshadow: error: {line}\n".encode()


# Every float flag takes any float, NaN and infinities included, a
# quarter of the time and a value in its valid range otherwise, so that
# valid runs occur too; counts stay small so a run is cheap, but for a
# quarter of the draws past MAX_COUNT, which are refused at once.
def floats(low, high):
    in_range = st.floats(min_value=low, max_value=high)
    return st.integers(0, 3).flatmap(lambda k: st.floats() if k == 0 else in_range)


def counts(low, high):
    in_range = st.integers(low, high)
    return st.integers(0, 3).flatmap(lambda k: st.integers(MAX_COUNT + 1, 2**70) if k == 0 else in_range)


PROB = floats(0.0, 1.0)
SEED = st.integers(min_value=-1, max_value=2**64)
ATOM = [("gamma", floats(0.0, 4.0)), ("e0", floats(-2.0, 0.0)), ("e1", floats(0.0, 4.0))]
GRID = ("grid", counts(0, 6))


def _flags(draw, optional, required=()):
    argv = []
    for name, strategy in list(required) + [
        item for item in optional if draw(st.booleans())
    ]:
        argv.append(f"--{name}={draw(strategy)}")
    return argv


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(["decay-ensemble", "conditional-state", "ev", "master-check"]))
    if command == "decay-ensemble":
        state = (
            [("p-excited", PROB)]
            if draw(st.booleans())
            else [(f"a{level}-{part}", floats(-2.0, 2.0)) for level in "01" for part in ("re", "im")]
        )
        argv = _flags(
            draw,
            state + ATOM + [GRID, ("seed", SEED)],
            [("n-atoms", counts(-1, 40)), ("horizon", floats(0.0, 4.0))],
        )
        if draw(st.booleans()):
            argv.append("--premeasure")
    elif command == "conditional-state":
        argv = _flags(
            draw,
            [ATOM[0], GRID],
            [("p-excited", PROB), ("horizon", floats(0.0, 4.0))],
        )
    elif command == "ev":
        phase = floats(-4.0, 4.0)
        argv = _flags(
            draw,
            [("blocker", st.sampled_from(["none", "a", "b"])), ("t1", PROB), ("t2", PROB),
             ("phase-a", phase), ("phase-b", phase), ("shots", counts(-1, 40)),
             ("seed", SEED)],
        )
    else:
        horizon = draw(floats(0.0, 4.0))
        # A step count t/dt in the millions is valid but slow: draw dt
        # either freely or as horizon / steps, and skip the slow draws.
        # Counts beyond MAX_STEPS are refused at once, so they stay in.
        dt = draw(st.one_of(st.floats(), st.integers(1, 300).map(lambda n: horizon / n)))
        with contextlib.suppress(ZeroDivisionError):
            assume(not 1000 < horizon / dt <= MAX_STEPS)
        argv = [f"--horizon={horizon}", f"--dt={dt}"] + _flags(
            draw,
            ATOM + [GRID, ("seed", SEED), ("tol", floats(0.0, 1.0))],
            [("p-excited", PROB), ("n-traj", counts(-1, 20))],
        )
    return [command, *argv, "--format", draw(st.sampled_from(["csv", "json"]))]


@pytest.fixture(scope="module")
def property_out(tmp_path_factory):
    return tmp_path_factory.mktemp("property") / "record"


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(argv=cli_argv())
@example(argv=[*DECAY, "--horizon=nan", "--format", "json"])
@example(argv=[*MASTER, "--gamma=nan", "--format", "csv"])
def test_any_argv_exits_cleanly_and_never_passes_on_non_finite(property_out, argv):
    property_out.unlink(missing_ok=True)
    try:
        code = run_cli(argv + ["--out", str(property_out)])
    except SystemExit as exc:  # argparse rejected the command line
        assert exc.code == 2
        return
    assert code in (0, 2, 3)
    if argv[0] != "master-check" or code == 2:
        return
    if argv[-1] == "json":
        record = json.loads(property_out.read_text())
        cells = [cell for row in record["rows"] for cell in row]
        assert record["summary"]["passed"] is (code == 0)
        if code == 0:
            deviation = record["summary"]["max_deviation"]
            assert deviation is not None and math.isfinite(deviation)
    else:
        cells = [cell for row in read_csv_table(str(property_out))[1] for cell in row]
    if code == 0:
        assert all(cell is not None and math.isfinite(cell) for cell in cells)

