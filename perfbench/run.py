"""Benchmark entry point: time one workload end to end, or replay it traced.

    python3 perfbench/run.py --workload decay-100k [--seed 1] [--seconds 30] [--trace 0|1]

Run from the root of a checkout; the program is run from ``src/`` of
that checkout.  One client, closed loop: one CLI run in flight at a time.

``--trace 0`` repeats rounds until ``--seconds`` is used up.  A round is
two ``python -m nullshadow --version`` runs (set-up time) and one run
of the workload, in alternating order from round to round, each child
preceded by ``probe()``, a fixed pure-Python loop timed in this process
(``host.probe_s``).  Prints ``wall_rel``, the mean wall time of the
workload runs over the mean probe time: the host's speed drifts by tens
of percent within minutes, and the ratio cancels the drift (see
README).  ``setup_rel`` is the same ratio for the ``--version`` runs,
over the probes taken right before them.  Also prints the medians of
``peak_rss_mb`` and ``setup_s``.  The raw wall seconds are kept in the
result file.

``--trace 1`` repeats rounds of one untraced run of the workload and one
traced replay of it (``replay.py``) and prints the medians of the
per-layer metrics (a replay that produces no value for one of them
fails), plus ``trace.overhead_ratio`` (traced wall over
untraced wall) and ``host.probe_s``.

Each child process is one operation.  Its exit code and output are
checked (see ``workloads.py``); an operation fails when any check on it
fails.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
A result file with the environment and every sample is written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, Workload, check_output, flag

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
DEFAULT_SEED = 1
DEFAULT_SECONDS = 30
SETUP_RUNS_PER_ROUND = 2
THREADS = "1"  # a second worker only competes for the cores (see README)
PROBE_LOOP = 300_000

LAYER_METRICS = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}


class Run:
    """One invocation of the benchmark: its operations and their checks.

    An operation is one child process.  It fails when any check on it
    fails; ``problems`` keeps the reasons per operation.
    """

    def __init__(self, workload: Workload, seed: int, smoke: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.out = OUT / "smoke" if smoke else OUT
        self.env = dict(os.environ, PYTHONPATH=str(SRC), NULLSHADOW_THREADS=THREADS, PYTHONHASHSEED="0")
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.problems: list[list[str]] = []
        self.shas: list[str | None] = []
        self.reference_sha: str | None = None
        self.schema = json.loads((SRC / "nullshadow/schemas/output_record.schema.json").read_text())

    def argv(self, out: Path) -> list[str]:
        return self.workload.argv(self.seed, out, self.smoke)

    @property
    def attempted(self) -> int:
        return len(self.problems)

    @property
    def failures(self) -> list[str]:
        return [f"operation {i}: {p}" for i, ps in enumerate(self.problems) for p in ps]

    def spawn(self, args: list[str], stdout: Path) -> tuple[float, float, int]:
        """Wall seconds, peak RSS in MB and exit code of one child."""
        with open(stdout, "wb") as out, open(self.out / "stderr.txt", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=self.env, stdout=out, stderr=err)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            sys.stderr.write((self.out / "stderr.txt").read_text(errors="replace")[-2000:])
        return wall, usage.ru_maxrss / 1024.0, proc.returncode

    def operation(self, what: str, code: int, out: Path | None = None) -> list[str]:
        """Record one operation; its output must match the run's first output."""
        problems = [] if code == 0 else [f"{what} exited {code}"]
        sha = None
        if out is not None and code == 0:
            sha = hashlib.sha256(out.read_bytes()).hexdigest()
            if self.reference_sha is None:
                self.reference_sha = sha
            elif sha != self.reference_sha:
                problems.append(f"{what} output sha256 {sha} differs from {self.reference_sha}")
        self.problems.append(problems)
        self.shas.append(sha)
        for problem in problems:
            print(f"FAILED: {problem}", file=sys.stderr)
        return problems

    def setup_probe(self) -> float:
        wall, _, code = self.spawn(["-m", "nullshadow", "--version"], self.out / "version.txt")
        if not (self.out / "version.txt").read_text().startswith("nullshadow "):
            code = code or -1
        self.operation("--version", code)
        return wall

    def cli_run(self, out: Path) -> tuple[float, float, list[str]]:
        wall, rss, code = self.spawn(["-m", "nullshadow", *self.argv(out)], self.out / "stdout.txt")
        return wall, rss, self.operation("cli run", code, out)

    def check_content(self, out: Path) -> None:
        """Check the reference output in full; it fails every operation that wrote it."""
        if self.reference_sha is None or hashlib.sha256(out.read_bytes()).hexdigest() != self.reference_sha:
            return
        argv = self.argv(out)
        problems = [f"output check: {p}" for p in check_output(self.workload, argv, out.read_text(), self.schema)]
        for problem in problems:
            print(f"FAILED: {problem}", file=sys.stderr)
        for sha, ops in zip(self.shas, self.problems):
            if sha == self.reference_sha:
                ops += problems


def probe() -> float:
    """Seconds for a fixed pure-Python loop: the host's speed right now."""
    start = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOP):
        acc += i * i % 7
    return time.perf_counter() - start


def rounds(seconds: float, body) -> int:
    """Call body(round_index) until starting another round would overrun."""
    start = time.perf_counter()
    done = 0
    while True:
        body(done)
        done += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / done > seconds:
            return done


def measure_untraced(run: Run, seconds: float) -> tuple[dict, dict]:
    out = run.out / f"{run.workload.name}.{run.workload.fmt}"
    samples = {"wall_s": [], "peak_rss_mb": [], "setup_s": [], "host.probe_s": [], "setup_probe_s": []}

    def step(what: str) -> None:
        samples["host.probe_s"].append(probe())
        if what == "setup":
            samples["setup_probe_s"].append(samples["host.probe_s"][-1])
            samples["setup_s"].append(run.setup_probe())
        else:
            wall, rss, _ = run.cli_run(out)
            samples["wall_s"].append(wall)
            samples["peak_rss_mb"].append(rss)

    def body(i: int) -> None:
        steps = ["setup"] * SETUP_RUNS_PER_ROUND + ["workload"]
        for what in steps if i % 2 == 0 else steps[::-1]:
            step(what)

    rounds(seconds, body)
    run.check_content(out)
    metrics = {
        "wall_rel": {"value": statistics.fmean(samples["wall_s"]) / statistics.fmean(samples["host.probe_s"]),
                     "unit": "ratio"},
        "peak_rss_mb": {"value": statistics.median(samples["peak_rss_mb"]), "unit": "MB"},
        "setup_s": {"value": statistics.median(samples["setup_s"]), "unit": "s"},
        "setup_rel": {"value": statistics.fmean(samples["setup_s"]) / statistics.fmean(samples["setup_probe_s"]),
                      "unit": "ratio"},
    }
    return metrics, samples


def measure_traced(run: Run, seconds: float) -> tuple[dict, dict]:
    w = run.workload
    out = run.out / f"{w.name}.{w.fmt}"
    traced_out = run.out / f"{w.name}.traced.{w.fmt}"
    layers_path = run.out / f"{w.name}.layers.json"
    vector_draws = flag(run.argv(out), "--n-atoms") if w.subcommand == "decay-ensemble" else "0"
    samples: dict[str, list[float]] = {"host.probe_s": []}

    def body(i: int) -> None:
        samples["host.probe_s"].append(probe())
        untraced_wall, _, untraced_problems = run.cli_run(out)
        layers_path.unlink(missing_ok=True)
        args = [str(BENCH / "replay.py"), str(layers_path), str(run.out / f"{w.name}.spans.npz")]
        traced_wall, _, code = run.spawn([*args, vector_draws, "--", *run.argv(traced_out)], run.out / "stdout.txt")
        problems = run.operation("traced replay", code, traced_out)
        if problems or untraced_problems:
            return
        layer = json.loads(layers_path.read_text())["metrics"]
        missing = [f"replay produced no {name}" for name in LAYER_METRICS
                   if name not in layer and name not in ("trace.overhead_ratio", "host.probe_s")]
        problems += missing
        # Both walls run from spawn to exit; the replay's own work after the
        # traced CLI call (vector timing, span dump) is not the CLI's.
        layer["trace.overhead_ratio"] = (traced_wall - layer["trace.post_s"]) / untraced_wall
        mismatches = [f"trace counts: {p}" for p in count_mismatches(w, run.argv(out), layer, out)]
        problems += mismatches
        for problem in missing + mismatches:
            print(f"FAILED: {problem}", file=sys.stderr)
        for key, value in layer.items():
            samples.setdefault(key, []).append(value)

    rounds(seconds, body)
    run.check_content(out)
    metrics = {
        name: {"value": statistics.median(samples.get(name, [0.0])), "unit": unit}
        for name, unit in LAYER_METRICS.items()
    }
    return metrics, samples


def count_mismatches(w: Workload, argv: list[str], layer: dict, out: Path) -> list[str]:
    """Counts the replay recorded that disagree with the untraced output record."""
    text = out.read_text()
    rows = len(json.loads(text)["rows"]) if w.fmt == "json" else text.count("\n") - 1
    expected = {"output.rows": rows, "output.bytes": len(text.encode("utf-8"))}
    if w.subcommand == "decay-ensemble":
        n_atoms = int(flag(argv, "--n-atoms"))
        blackened_final = int(text.rstrip("\n").rsplit("\n", 1)[1].split(",")[1])
        expected.update({"ensemble.atoms": n_atoms, "ensemble.emitted": blackened_final,
                         "ensemble.survivors": n_atoms - blackened_final, "streams.draws": n_atoms})
    if w.subcommand == "master-check":
        n_traj = int(flag(argv, "--n-traj"))
        expected.update({"master.rk4_steps": round(float(flag(argv, "--horizon")) / float(flag(argv, "--dt"))),
                         "master.state_objects": n_traj * rows, "streams.draws": n_traj})
    return [f"{k} is {layer[k]}, record says {v}" for k, v in expected.items() if k in layer and layer[k] != v]


def environment(seed: int, samples: dict) -> dict:
    import numpy
    from numpy._core._multiarray_umath import __cpu_baseline__, __cpu_dispatch__, __cpu_features__

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None  # the benchmark checkout need not be a git repository
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + sorted(SRC.rglob("*.json")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numpy_simd_baseline": list(__cpu_baseline__),
        "numpy_simd_dispatch": [f for f in __cpu_dispatch__ if __cpu_features__.get(f)],
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "NULLSHADOW_THREADS": THREADS,
        "PYTHONHASHSEED": "0",
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "default_seed": DEFAULT_SEED,
        "machine": platform.machine(),
        "host.probe_s": statistics.median(samples["host.probe_s"]),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help=f"workload seed (default {DEFAULT_SEED})")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for testing the benchmark itself")
    args = parser.parse_args()

    if not (SRC / "nullshadow" / "__main__.py").is_file():
        print(f"run.py: no nullshadow sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    run = Run(workload, args.seed, args.smoke)
    run.out.mkdir(parents=True, exist_ok=True)

    # Unrecorded warm-up, so every module the workload imports is compiled.
    warm = run.out / f"warmup.{workload.fmt}"
    _, _, code = run.spawn(["-m", "nullshadow", *workload.argv(args.seed, warm, smoke=True)], run.out / "stdout.txt")
    if code != 0:
        print(f"run.py: warm-up run of {workload.name} exited {code}", file=sys.stderr)
        return 1

    measure = measure_traced if args.trace else measure_untraced
    metrics, samples = measure(run, args.seconds)
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": sum(1 for problems in run.problems if problems),
        "metrics": metrics,
    }
    record = {
        **result,
        "workload": workload.name,
        "argv": run.argv(run.out / f"{workload.name}.{workload.fmt}"),
        "smoke": args.smoke,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed, samples),
        "output_sha256": run.reference_sha,
        "failures": run.failures,
        "samples": samples,
    }
    name = f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    (run.out / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
