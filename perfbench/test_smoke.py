"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py

Not part of the tier-1 suite (pytest collects ``tests/`` only).  The
runs write to ``perfbench/out/smoke/``, apart from real measurements.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS as DEFINED, check_output  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# The per-layer metrics each workload must report as non-zero (README's
# layer table); every other layer may read 0 there.
EVERYWHERE = {"cli.import_s", "output.render_s", "output.write_s", "output.bytes", "output.rows",
              "trace.coverage", "trace.overhead_ratio", "host.probe_s"}
ORACLE = {"ensemble.run_trajectories_s", "ensemble.trajectory_state_series_s", "master.average_trajectories_s",
          "master.state_objects", "master.distinct_state_ratio", "master.integrate_master_s",
          "master.rk4_steps", "master.max_elementwise_deviation_s"}
LAYERS = {
    "decay-100k": EVERYWHERE | {
        "streams.uniform_at_s", "streams.uniforms_at_s", "streams.draws", "dynamics.run_trajectory_s",
        "ensemble.run_trajectories_s", "ensemble.run_ensemble_s", "ensemble.aggregate_s", "ensemble.atoms",
        "ensemble.emitted", "ensemble.survivors", "core.fidelity_s"},
    "oracle-30k": EVERYWHERE | ORACLE,
    "oracle-fine": EVERYWHERE | ORACLE,
    "conditional-dense": EVERYWHERE | {
        "ensemble.survivor_state_s", "dynamics.conditional_excited_prob_s", "core.fidelity_s"},
}


def bench(workload: str, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "0.1", "--trace", str(trace), "--smoke"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads((BENCH / "out" / "smoke" / f"result-{workload}-seed7-trace{trace}.json").read_text())
    return result, record


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    result, record = bench(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    env = record["environment"]
    assert env["NULLSHADOW_THREADS"] == "1" and env["seed"] == 7 and env["host.probe_s"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_trace_counts_match_the_record(workload):
    result, record = bench(workload, 1)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for name in LAYERS[workload]:
        assert name in record["samples"], name
        assert min(record["samples"][name]) > 0, name
    layer = {k: v["value"] for k, v in result["metrics"].items()}
    out = Path(record["argv"][-1])
    argv = record["argv"]
    assert 0 < layer["trace.coverage"] <= 1 and layer["trace.overhead_ratio"] > 0
    if out.suffix == ".csv":
        lines = out.read_text().splitlines()
        rows = len(lines) - 1
        assert layer["ensemble.emitted"] == int(lines[-1].split(",")[1])  # blackened_final
        assert layer["ensemble.atoms"] == int(argv[argv.index("--n-atoms") + 1])
    else:
        doc = json.loads(out.read_text())
        rows = len(doc["rows"])
        if doc["scenario"] == "master-check":
            horizon, dt = doc["config"]["horizon"], doc["config"]["dt"]
            assert layer["master.rk4_steps"] == round(horizon / dt)
            assert layer["master.state_objects"] == doc["config"]["n_traj"] * rows
    assert layer["output.rows"] == rows
    assert layer["output.bytes"] == out.stat().st_size


def test_every_layer_metric_is_expected_somewhere():
    assert set(LAYERS) == set(WORKLOADS)
    assert set().union(*LAYERS.values()) == {m["name"] for m in SPEC["per_layer"]}


@pytest.fixture(scope="module")
def schema():
    return json.loads((ROOT / "src/nullshadow/schemas/output_record.schema.json").read_text())


def master_check(gamma: str) -> tuple[list[str], str]:
    out = BENCH / "out" / "smoke" / f"master-{gamma}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    argv = DEFINED["oracle-fine"].argv(7, out, smoke=True) + ["--gamma", gamma]
    env = {"PYTHONPATH": str(ROOT / "src"), "NULLSHADOW_THREADS": "1", "PATH": ""}
    done = subprocess.run([sys.executable, "-m", "nullshadow", *argv], env=env, capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return argv, out.read_text()


def test_master_check_output_with_a_null_cell_fails(schema):
    argv, text = master_check("1")
    assert check_output(DEFINED["oracle-fine"], argv, text, schema) == []
    record = json.loads(text)
    record["rows"][len(record["rows"]) // 2][6] = None  # one rho11_traj cell
    assert check_output(DEFINED["oracle-fine"], argv, json.dumps(record), schema)


def test_master_check_that_passes_its_own_gate_on_nan_fails(schema):
    argv, text = master_check("nan")
    record = json.loads(text)
    assert record["summary"]["passed"] is True  # the hole the check closes
    assert check_output(DEFINED["oracle-fine"], argv, text, schema)
