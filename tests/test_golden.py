"""Golden outputs: the exit code and output bytes of every command line in golden.json.

Each entry of ``tests/golden.json`` holds an argv, the exit code it gave
and the SHA-256 of its stdout, its stderr and its ``--out`` file (written
``{out}`` in the argv; null when the run wrote none), with the package
version masked in all three.  Every entry runs in-process through
``cli.main``, with ``COLUMNS`` pinned because argparse wraps ``--help`` to
the terminal width.

The bytes are fixed by the seed together with the Python version, the
numpy version and the machine; numpy's SIMD dispatch targets do not move
them.  The file's header records the environment the digests were written
in.  Exit codes are compared in every environment; digests only where the
environment equals the header's, and elsewhere the byte test skips with a
reason naming both.  A second test runs three lines in child processes,
once with every SIMD target that numpy dispatches to on this CPU and once
with all of them turned off, and requires the same stdout from both.  A
third runs the lines whose tables are large enough to be encoded by
several processes in child processes, once so and once pinned to one CPU,
and requires the same file from both and, where the environment matches,
the golden digest: this process has numpy's BLAS threads, so it encodes
every table alone.

A change that moves bytes on purpose rewrites the file and names the lines
that moved in CHANGES.md.  The rewrite keeps the argvs and replaces the
header and every digest:

    PYTHONPATH=src python tests/test_golden.py

To add a command line, append an entry with its argv to the file and
rewrite it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import shlex
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import nullshadow
from nullshadow import cli

GOLDEN = Path(__file__).with_name("golden.json")
OUT = "{out}"
STREAMS = ("stdout", "stderr", "out")
REWRITE = "PYTHONPATH=src python tests/test_golden.py"


def environment() -> dict:
    """What fixes the output bytes: the Python and numpy versions and the machine."""
    return {"python": "%d.%d" % sys.version_info[:2], "numpy": np.__version__, "machine": platform.machine()}


def describe(env: dict) -> str:
    return ", ".join(f"{k} {v}" for k, v in env.items())


def _digest(data: bytes) -> str:
    return hashlib.sha256(data.replace(nullshadow.__version__.encode(), b"<version>")).hexdigest()


def run(argv: list[str], out: Path) -> dict:
    """One command line's entry: its exit code and the digest of each stream."""
    out.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main([str(out) if arg == OUT else arg for arg in argv])
        except SystemExit as exit_:  # --help, --version and argparse's usage errors
            code = exit_.code
    return {
        "argv": argv,
        "exit": code,
        "stdout": _digest(stdout.getvalue().encode()),
        "stderr": _digest(stderr.getvalue().encode()),
        "out": _digest(out.read_bytes()) if out.exists() else None,
    }


def run_corpus(argvs: list[list[str]], out: Path) -> list[dict]:
    # A warning raises, so that no run records one in its stderr.
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), warnings.catch_warnings():
        warnings.simplefilter("error")
        return [run(argv, out) for argv in argvs]


def environment_mismatch(pinned: dict, here: dict) -> str | None:
    """The reason to skip the byte check, or None when the environments agree."""
    if pinned == here:
        return None
    return (f"golden bytes were written under [{describe(pinned)}]; "
            f"this environment is [{describe(here)}]")


def first_byte_difference(golden: dict, results: list[dict], here: dict) -> str | None:
    """The first argv and stream whose digest differs from the golden one, or None."""
    for want, got in zip(golden["entries"], results):
        for stream in STREAMS:
            if want[stream] != got[stream]:
                return (f"`nullshadow {shlex.join(want['argv'])}`: its {stream} differs from the golden "
                        f"digest (golden: [{describe(golden['environment'])}]; here: [{describe(here)}]). "
                        f"If the change is intended, rewrite with `{REWRITE}` and name the line in "
                        f"CHANGES.md.")
    return None


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def results(golden, tmp_path_factory) -> list[dict]:
    argvs = [entry["argv"] for entry in golden["entries"]]
    return run_corpus(argvs, tmp_path_factory.mktemp("golden") / "out")


def test_golden_exit_codes(golden, results):
    wrong = [
        f"nullshadow {shlex.join(want['argv'])}: exit {got['exit']}, golden {want['exit']}"
        for want, got in zip(golden["entries"], results)
        if got["exit"] != want["exit"]
    ]
    assert not wrong, "\n".join(wrong)


def test_golden_bytes(golden, results):
    here = environment()
    reason = environment_mismatch(golden["environment"], here)
    if reason:
        pytest.skip(reason)
    difference = first_byte_difference(golden, results, here)
    if difference:
        pytest.fail(difference, pytrace=False)


def test_a_changed_digest_is_named_by_argv_and_stream(golden, results):
    here = environment()
    doctored = {"environment": golden["environment"], "entries": [dict(e) for e in results]}
    entry = doctored["entries"][3]
    entry["stderr"] = entry["stderr"][::-1]
    message = first_byte_difference(doctored, results, here)
    assert message.startswith(f"`nullshadow {shlex.join(entry['argv'])}`: its stderr differs")
    assert describe(golden["environment"]) in message and describe(here) in message


def test_another_environment_skips_naming_both(golden):
    pinned = golden["environment"]
    other = {**pinned, "numpy": "1.26.4"}
    reason = environment_mismatch(pinned, other)
    assert f"[{describe(pinned)}]" in reason and f"[{describe(other)}]" in reason
    assert environment_mismatch(pinned, dict(pinned)) is None


# One line per kind of float work: the RK4 oracle and max_deviation, array
# jump-time sampling and grid counts, and the interferometer's draws.
SIMD_LINES = [
    ["master-check", "--p-excited", "0.5", "--n-traj", "30000", "--horizon", "5", "--dt", "0.01",
     "--grid", "50", "--seed", "3", "--format", "json"],
    ["decay-ensemble", "--p-excited", "0.5", "--n-atoms", "100000", "--horizon", "20", "--grid", "41",
     "--seed", "1", "--format", "csv"],
    ["ev", "--blocker", "b", "--shots", "1000", "--seed", "7"],
]


def _python(*args: str, disable: str = "") -> bytes:
    """The stdout of a new interpreter on the package in src, the SIMD targets in ``disable`` turned off."""
    path = os.pathsep.join(filter(None, [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "NPY_DISABLE_CPU_FEATURES": disable}
    return subprocess.run([sys.executable, *args], capture_output=True, check=True, env=env).stdout


@pytest.fixture(scope="module")
def dispatch_targets() -> str:
    # numpy's own list of the targets it dispatches to on this CPU, asked in a
    # child with none turned off, since this process may run with some off.
    # Naming a target that the CPU lacks would raise an ImportWarning.
    code = 'import numpy; print(*numpy.__config__.CONFIG["SIMD Extensions"].get("found", []))'
    return _python("-c", code).decode().strip()


@pytest.mark.parametrize("argv", SIMD_LINES, ids=lambda argv: argv[0])
def test_bytes_do_not_depend_on_simd_dispatch(argv, dispatch_targets):
    if not dispatch_targets:
        pytest.skip("numpy dispatches to no SIMD target on this CPU")
    full = _python("-m", "nullshadow", *argv)
    assert full == _python("-m", "nullshadow", *argv, disable=dispatch_targets), (
        f"`nullshadow {shlex.join(argv)}` wrote other bytes with {dispatch_targets} turned off")


# The corpus lines whose tables are split across processes where two CPUs
# are usable: at least 2 * output._PART_ROWS rows.
SPLIT_LINES = [
    ["conditional-state", "--p-excited", "0.5", "--gamma", "1", "--horizon", "10", "--grid", "50001",
     "--format", "json", "--out", OUT],
    ["decay-ensemble", "--p-excited", "0.5", "--n-atoms", "1000", "--horizon", "5", "--grid", "9001",
     "--seed", "1", "--format", "csv", "--out", OUT],
    ["decay-ensemble", "--p-excited", "0.5", "--n-atoms", "1000", "--horizon", "5", "--grid", "9001",
     "--seed", "1", "--format", "json", "--out", OUT],
]
PINNED_OR_NOT = """
import os, sys
import nullshadow.__main__ as m
if sys.argv[1] == "one-cpu":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
sys.exit(m.run(sys.argv[2:]))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="pins a process to one CPU by sched_setaffinity")
@pytest.mark.parametrize("argv", SPLIT_LINES, ids=lambda argv: f"{argv[0]}-{argv[-3]}")
def test_bytes_do_not_depend_on_the_split(argv, golden, tmp_path):
    digests = []
    for mode in ("split", "one-cpu"):
        out = tmp_path / mode
        _python("-c", PINNED_OR_NOT, mode, *[str(out) if arg == OUT else arg for arg in argv])
        digests.append(_digest(out.read_bytes()))
    assert digests[0] == digests[1], f"`nullshadow {shlex.join(argv)}` wrote other bytes on one CPU"
    [entry] = [entry for entry in golden["entries"] if entry["argv"] == argv]
    if golden["environment"] == environment():
        assert digests[0] == entry["out"], f"`nullshadow {shlex.join(argv)}` differs from its golden digest"


def main() -> None:
    argvs = [entry["argv"] for entry in json.loads(GOLDEN.read_text())["entries"]]
    with tempfile.TemporaryDirectory() as tmp:
        entries = run_corpus(argvs, Path(tmp) / "out")
    lines = ",\n".join(f"  {json.dumps(entry)}" for entry in entries)
    header = json.dumps(environment())
    GOLDEN.write_text(f'{{\n"environment": {header},\n"entries": [\n{lines}\n]\n}}\n')
    print(f"{GOLDEN}: {len(entries)} entries under [{describe(environment())}]")


if __name__ == "__main__":
    main()
