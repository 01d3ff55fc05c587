"""Benchmark workloads and the checks every output of them must pass.

Each workload is one ``python -m nullshadow`` command line.  The
benchmark seed is forwarded as ``--seed`` where the subcommand samples;
``conditional-state`` draws nothing, so its input does not depend on it.
The closed forms below are written out here, not imported from the
package, so a wrong package cannot vouch for itself.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import jsonschema
import numpy as np

P_EXCITED = 0.5
GAMMA = 1.0
CLOSED_FORM_TOL = 1e-12
SIGMAS = 5.0


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    sizes: dict[str, str]  # full-size flags
    smoke_sizes: dict[str, str]  # tiny flags for the smoke test and the warm-up
    fmt: str
    seeded: bool = True

    def argv(self, seed: int, out: Path, smoke: bool = False) -> list[str]:
        sizes = self.smoke_sizes if smoke else self.sizes
        argv = [self.subcommand, "--p-excited", str(P_EXCITED)]
        for flag, value in sizes.items():
            argv += [flag, value]
        if self.seeded:
            argv += ["--seed", str(seed)]
        return argv + ["--format", self.fmt, "--out", str(out)]


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "decay-100k",
            "decay-ensemble",
            {"--n-atoms": "100000", "--horizon": "20", "--grid": "41"},
            {"--n-atoms": "2000", "--horizon": "20", "--grid": "41"},
            "csv",
        ),
        Workload(
            "oracle-30k",
            "master-check",
            {"--n-traj": "30000", "--horizon": "5", "--dt": "0.01", "--grid": "50"},
            {"--n-traj": "1000", "--horizon": "5", "--dt": "0.01", "--grid": "50"},
            "json",
        ),
        Workload(
            "oracle-fine",
            "master-check",
            {"--n-traj": "3000", "--horizon": "10", "--dt": "0.0002", "--grid": "50"},
            {"--n-traj": "1000", "--horizon": "1", "--dt": "0.001", "--grid": "50"},
            "json",
        ),
        Workload(
            "conditional-dense",
            "conditional-state",
            {"--gamma": "1", "--horizon": "10", "--grid": "50001"},
            {"--gamma": "1", "--horizon": "10", "--grid": "101"},
            "json",
            seeded=False,
        ),
    ]
}


def flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def excited_closed_form(t: np.ndarray) -> np.ndarray:
    """Excited population of a survivor: p1 e^-gt / ((1 - p1) + p1 e^-gt)."""
    decayed = P_EXCITED * np.exp(-GAMMA * t)
    return decayed / ((1.0 - P_EXCITED) + decayed)


def check_output(workload: Workload, argv: list[str], text: str, schema: dict) -> list[str]:
    """Problems found in one output file; an empty list means it is correct."""
    if workload.fmt == "csv":
        reader = csv.reader(io.StringIO(text))
        columns = next(reader)
        rows = [[float(cell) if cell else math.nan for cell in row] for row in reader]
        summary = None
    else:
        record = json.loads(text)
        errors = [e.message for e in jsonschema.Draft7Validator(schema).iter_errors(record)]
        if errors:
            return [f"schema: {errors[0]}"]
        columns, rows, summary = record["columns"], record["rows"], record["summary"]
    check = {
        "decay-ensemble": _check_decay,
        "master-check": _check_master,
        "conditional-state": _check_conditional,
    }[workload.subcommand]
    return check(argv, columns, rows, summary)


def _table(rows: list, columns: list[str]) -> np.ndarray | None:
    """The rows as a float array (null cells as nan); None if ragged or short."""
    try:
        table = np.array(rows, dtype=float)
    except ValueError:
        return None
    if table.ndim != 2 or table.shape[1] != len(columns) or len(rows) < 2:
        return None
    return table


def _grid_problems(t: np.ndarray, horizon: float, points: int) -> list[str]:
    if len(t) != points:
        return [f"expected {points} rows, got {len(t)}"]
    expected = np.linspace(0.0, horizon, points)
    if not np.allclose(t, expected, rtol=0.0, atol=CLOSED_FORM_TOL * max(1.0, horizon)):
        return ["time column is not the requested grid"]
    return []


def _check_decay(argv, columns, rows, summary) -> list[str]:
    if columns != ["t", "blackened_count", "blackened_fraction", "survivor_excited_prob"]:
        return [f"unexpected columns {columns}"]
    table = _table(rows, columns)
    if table is None:
        return ["table is ragged or empty"]
    n = int(flag(argv, "--n-atoms"))
    horizon = float(flag(argv, "--horizon"))
    problems = _grid_problems(table[:, 0], horizon, int(flag(argv, "--grid")))
    if problems:
        return problems
    counts = table[:, 1]
    if np.any(np.diff(counts) < 0):
        problems.append("blackened counts decrease")
    if not np.array_equal(table[:, 2], counts / n):
        problems.append("blackened_fraction is not blackened_count / n_atoms")
    expected = P_EXCITED * -math.expm1(-GAMMA * horizon)
    sigma = math.sqrt(expected * (1.0 - expected) / n)
    final = counts[-1] / n
    if not abs(final - expected) <= SIGMAS * sigma:
        problems.append(f"final fraction {final} is more than {SIGMAS} sigma from {expected}")
    deviation = np.max(np.abs(table[:, 3] - excited_closed_form(table[:, 0])))
    if not deviation <= CLOSED_FORM_TOL:
        problems.append(f"survivor_excited_prob is {deviation} off the closed form")
    return problems


MASTER_COLUMNS = [
    "t",
    "rho00_master", "rho11_master", "re_rho01_master", "im_rho01_master",
    "rho00_traj", "rho11_traj", "re_rho01_traj", "im_rho01_traj",
    "rho11_analytic",
]


def _check_master(argv, columns, rows, summary) -> list[str]:
    if columns != MASTER_COLUMNS:
        return [f"unexpected columns {columns}"]
    table = _table(rows, columns)
    if table is None:
        return ["table is ragged or empty"]
    problems = []
    bad = int(np.count_nonzero(~np.isfinite(table)))  # null cells read as nan
    if bad:
        problems.append(f"{bad} table cells are not finite")
    if table[-1, 0] != float(flag(argv, "--horizon")):
        problems.append("last recorded time is not the horizon")
    # The oracle deviation, recomputed: the largest entry-wise distance
    # between the trajectory average and the master series, |rho01| as a
    # complex number.  Any nan makes it nan, which fails every test below.
    diff = table[:, 5:9] - table[:, 1:5]
    entry = np.stack([np.abs(diff[:, 0]), np.abs(diff[:, 1]), np.hypot(diff[:, 2], diff[:, 3])])
    recomputed = float(np.max(entry))
    tol = 5.0 / math.sqrt(int(flag(argv, "--n-traj")))
    if not recomputed <= tol:
        problems.append(f"recomputed deviation {recomputed} is not within the default tolerance {tol}")
    deviation = summary.get("max_deviation")
    if not (isinstance(deviation, float) and math.isfinite(deviation)):
        problems.append(f"max_deviation {deviation!r} is not a finite number")
    elif not math.isclose(deviation, recomputed, rel_tol=1e-9, abs_tol=1e-15):
        problems.append(f"max_deviation {deviation} differs from the recomputed {recomputed}")
    if summary.get("tol") != tol:
        problems.append(f"tol {summary.get('tol')!r} is not the default tolerance {tol}")
    if summary.get("passed") is not True:
        problems.append("oracle gate did not pass")
    return problems


def _check_conditional(argv, columns, rows, summary) -> list[str]:
    if columns != ["t", "excited_prob", "fidelity_with_ground"]:
        return [f"unexpected columns {columns}"]
    table = _table(rows, columns)
    if table is None:
        return ["table is ragged or empty"]
    problems = _grid_problems(table[:, 0], float(flag(argv, "--horizon")), int(flag(argv, "--grid")))
    if problems:
        return problems
    excited = excited_closed_form(table[:, 0])
    for column, expected in ((1, excited), (2, 1.0 - excited)):
        deviation = np.max(np.abs(table[:, column] - expected))
        if not deviation <= CLOSED_FORM_TOL:
            problems.append(f"{columns[column]} is {deviation} off the closed form")
    if summary.get("final_excited_prob") != rows[-1][1]:
        problems.append("summary final_excited_prob differs from the last row")
    return problems
