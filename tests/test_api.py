import argparse
import ast
import contextlib
import io
import json
import math
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

import nullshadow
from nullshadow import cli
from nullshadow.core import AtomParams, ConfigurationError, DensitySeries, QubitState
from nullshadow.ensemble import EnsembleConfig, EnsembleStats
from nullshadow.interferometer import EVConfig
from nullshadow.master import MasterRunConfig
from nullshadow.output import OutputRecord

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
# The directory the package under test was imported from: src/ in a
# checkout, site-packages where it is installed. Child processes put it
# first on their path, so that they test the same package.
SRC = Path(nullshadow.__file__).resolve().parents[1]

PUBLIC = [
    "__version__",
    "AtomParams",
    "ConfigurationError",
    "QubitState",
    "normalize",
    "no_jump_series",
    "EnsembleConfig",
    "EnsembleStats",
    "run_ensemble",
    "EVConfig",
    "count_outcomes",
    "detection_probs",
    "DensitySeries",
    "MasterRunConfig",
    "integrate_master",
]

# Pipeline functions that left the package namespace in 0.21.0: the
# subcommands call them, and they keep their names in their modules.
INTERNAL = {
    "sample_jump_times": "nullshadow.dynamics",
    "run_trajectories": "nullshadow.ensemble",
    "trajectory_state_series": "nullshadow.ensemble",
    "average_trajectories": "nullshadow.master",
    "max_elementwise_deviation": "nullshadow.master",
}

# Names that left the package in 0.7.0, the oracle's start type in 0.16.0 and
# the schema loader in 0.21.0, whose copies the tests keep in reference.py;
# and the pipeline functions above, which left the package namespace alone.
REMOVED = {
    "nullshadow": ["GROUND", "EXCITED", "expected_blackened", "lindblad_rhs", "DensityMatrix2",
                   "density_from_state", *INTERNAL],
    "nullshadow.core": ["GROUND", "EXCITED", "DensityMatrix2", "density_from_state"],
    "nullshadow.ensemble": ["expected_blackened", "SLOT_MEASURE_BASE", "_measure_survivors", "field"],
    "nullshadow.master": ["lindblad_rhs"],
    "nullshadow.output": ["read_csv_table", "_parse_cell", "load_schema", "SCHEMA_RESOURCE"],
}


def test_public_names_are_the_kept_ones_and_resolve():
    assert nullshadow.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(nullshadow, name) is not None


def test_pipeline_functions_import_from_their_modules():
    for name, module in INTERNAL.items():
        exec(f"from {module} import {name}", {})


@pytest.mark.parametrize("module", sorted(REMOVED))
def test_removed_names_do_not_import(module):
    for name in REMOVED[module]:
        with pytest.raises(ImportError):
            exec(f"from {module} import {name}", {})


def test_removed_members_are_gone():
    assert not hasattr(AtomParams, "lifetime")
    assert not hasattr(QubitState, "ground_population")
    # since 0.8.0 the config is the sample alone; run_ensemble takes the times
    assert list(EnsembleConfig._fields) == ["n_atoms", "initial", "params", "base_seed", "premeasure"]
    # since 0.22.0 the ensemble returns counts; the survivor column is the CLI's
    assert list(EnsembleStats._fields) == ["blackened_count", "excited_count"]
    # since 0.9.0 the oracle window is built by its constructor alone
    assert list(MasterRunConfig._fields) == ["dt", "t_max", "points"]
    assert not hasattr(MasterRunConfig, "with_points")


HALF = QubitState.from_excited_probability(0.5)
PARAMS = AtomParams(e0=0.0, e1=1.0, gamma=1.0)
# A validated record, a field it checks, a value it refuses there and the refusal.
VALIDATED = {
    "AtomParams": (PARAMS, "gamma", math.nan, "gamma must be finite, got nan"),
    "EnsembleConfig": (EnsembleConfig(10, HALF, PARAMS, 7), "n_atoms", 0, "n_atoms must be >= 1, got 0"),
    "EVConfig": (EVConfig(blocker="b"), "phase_a", math.inf, "phase_a must be finite, got inf"),
    "MasterRunConfig": (MasterRunConfig(0.01, 1.0, 50), "dt", 0.0, "dt must be positive and finite, got 0.0"),
}
RECORDS = {
    **{name: record for name, (record, *_) in VALIDATED.items()},
    "QubitState": HALF,
    "DensitySeries": DensitySeries([0.0], [1.0], [0.0], [0j]),
    "EnsembleStats": EnsembleStats([0], 1),
    "OutputRecord": OutputRecord("ev", None, {}, {}, ["outcome"], [("D1",)]),
}


@pytest.mark.parametrize("record, field, value, message", VALIDATED.values(), ids=VALIDATED)
def test_replace_checks_like_the_constructor(record, field, value, message):
    # a named tuple's _replace builds through _make, not the checking __new__
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        record._replace(**{field: value})
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        type(record)(**{**record._asdict(), field: value})
    assert type(record._replace()) is type(record) and record._replace() == record


@pytest.mark.parametrize("record", RECORDS.values(), ids=RECORDS)
def test_records_are_immutable(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], getattr(record, record._fields[1]))
    with pytest.raises(AttributeError):
        record.note = "added"


@pytest.mark.parametrize("record", [record for record, *_ in VALIDATED.values()], ids=VALIDATED)
def test_validated_records_survive_pickling(record):
    copy = pickle.loads(pickle.dumps(record))
    assert copy == record and type(copy) is type(record)


def test_readme_library_block_prints_what_its_comments_say():
    block = re.search(r"## Library use\n\n```python\n(.*?)```", README.read_text(), re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    assert len(printed) == 5
    assert printed[3:] == ["(252, 244, 504)", "[0. 1. 2. 3. 4. 5.]"]
    # the two exact lines are the comments beside their print calls
    for line in printed[2:]:
        assert f"# {line}" in block


def _imported(nodes) -> set[str]:
    """The modules named by the import statements among ``nodes``, relative ones with their dots."""
    names = set()
    for node in nodes:
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add("." * node.level + (node.module or ""))
    return names


def _tree(module: str) -> ast.Module:
    return ast.parse(Path(nullshadow.__file__).with_name(f"{module}.py").read_text())


@pytest.mark.parametrize("module", ["dynamics", "ensemble"])
def test_the_sampler_does_not_import_its_oracle(module):
    # master is the independent cross-check that the trajectories are tested against
    assert ".master" not in _imported(ast.walk(_tree(module)))


def test_density_series_lives_in_core_which_imports_no_numpy():
    assert nullshadow.DensitySeries is nullshadow.core.DensitySeries is nullshadow.master.DensitySeries
    # numpy is named in _np alone, which loads it at the first attribute a
    # function reads; an import anywhere else, even in a function body or a
    # TYPE_CHECKING block, is a second place that decides when numpy loads.
    for path in sorted(Path(nullshadow.__file__).parent.glob("*.py")):
        if path.stem == "_np":
            continue
        nodes = list(ast.walk(ast.parse(path.read_text())))
        assert not {m for m in _imported(nodes) if m.split(".")[0] == "numpy"}, path.name
        names = {alias.name for node in nodes if isinstance(node, ast.ImportFrom) for alias in node.names}
        assert "TYPE_CHECKING" not in names, path.name
        if path.stem in ("core", "output"):  # plain values and records: no numpy through _np either
            assert not {m for m in _imported(nodes) | names if m.rsplit(".", 1)[-1] == "_np"}, path.name


def _fresh(code: str, *args: str, flags: tuple[str, ...] = (), env: dict[str, str] | None = None):
    """What ``code`` prints as JSON, run in a new interpreter that imports the package under test.

    This process has numpy loaded already, so only a new one can show
    what the package itself imports. ``env`` replaces this process's
    environment, PYTHONPATH aside.
    """
    env = os.environ if env is None else env
    path = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *flags, "-c", code, *args],
        capture_output=True, text=True, check=True, env={**env, "PYTHONPATH": path},
    )
    return json.loads(proc.stdout)


# Runs cli.main on the argv given as its own arguments, its output
# discarded, and prints the exit code and which of csv, json and numpy the
# run loaded; json is imported only to print that.
_RUN_MAIN = """
import contextlib, io, sys
from nullshadow import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        code = cli.main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
loaded = [name for name in ("csv", "json", "numpy") if name in sys.modules]
import json
print(json.dumps([code, loaded]))
"""

WITHOUT_ARRAYS = {
    "version": (["--version"], 0),
    "help": (["--help"], 0),
    "exact-ev": (["ev", "--blocker", "b"], 0),
    "usage-error": (["ev", "--shots", "many"], 2),
    "configuration-error": (["decay-ensemble", "--n-atoms", "0", "--p-excited", "0.5", "--horizon", "1"], 2),
    "stability-error": (["master-check", "--p-excited", "0.5", "--n-traj", "10", "--horizon", "1",
                         "--dt", "0.5"], 2),
    "step-bound-error": (["master-check", "--p-excited", "0.5", "--n-traj", "10", "--horizon", "1",
                          "--dt", "1e-300"], 2),
    "count-bound-error": (["decay-ensemble", "--n-atoms", str(2**63 - 1), "--p-excited", "0.5",
                           "--horizon", "1"], 2),
    "grid-bound-error": (["decay-ensemble", "--n-atoms", "10", "--p-excited", "0.5", "--horizon", "1",
                          "--grid", str(2**63)], 2),
    # the closed-form table is built from plain floats
    "conditional-state-json": (["conditional-state", "--p-excited", "0.5", "--horizon", "2"], 0),
    "conditional-state-csv": (["conditional-state", "--p-excited", "0.5", "--horizon", "2",
                               "--format", "csv"], 0),
    "conditional-state-excited": (["conditional-state", "--p-excited", "1", "--horizon", "2"], 0),
}


def test_a_child_imports_the_package_under_test():
    # an installed package, not the checkout's src/ beside the tests
    child = _fresh("import json, nullshadow; print(json.dumps(nullshadow.__file__))")
    assert Path(child).resolve() == Path(nullshadow.__file__).resolve()


def test_importing_the_package_loads_no_numpy():
    assert _fresh('import json, sys, nullshadow; print(json.dumps("numpy" in sys.modules))') is False


@pytest.mark.parametrize("argv, code", WITHOUT_ARRAYS.values(), ids=WITHOUT_ARRAYS)
def test_runs_that_build_no_array_load_no_numpy(argv, code):
    exit_code, loaded = _fresh(_RUN_MAIN, *argv)
    assert exit_code == code and "numpy" not in loaded


def test_a_sampled_run_loads_numpy():
    # the check above would hold vacuously if the child could not see numpy at all
    assert "numpy" in _fresh(_RUN_MAIN, "ev", "--blocker", "b", "--shots", "10")[1]


# -S keeps site's own imports out, so nothing but the run can load them.
ENCODERS_LOADED = {
    "version": (WITHOUT_ARRAYS["version"][0], []),
    "help": (WITHOUT_ARRAYS["help"][0], []),
    "subcommand-help": (["conditional-state", "--help"], []),
    "usage-error": (WITHOUT_ARRAYS["usage-error"][0], []),
    "csv-run": (WITHOUT_ARRAYS["conditional-state-csv"][0], ["csv"]),
    "json-run": (WITHOUT_ARRAYS["conditional-state-json"][0], ["json"]),
}


@pytest.mark.parametrize("argv, loaded", ENCODERS_LOADED.values(), ids=ENCODERS_LOADED)
def test_a_launch_loads_the_encoder_of_its_own_format_only(argv, loaded):
    assert _fresh(_RUN_MAIN, *argv, flags=("-S",))[1] == loaded


def test_a_parse_declares_the_flags_of_its_subcommand_only():
    parser = cli.build_parser()
    assert parser.parse_args(["ev", "--blocker", "b"]).blocker == "b"
    [subcommands] = [action for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
    declared = {name: [action.dest for action in sub._actions] for name, sub in subcommands.choices.items()}
    assert declared.pop("ev")[:3] == ["help", "blocker", "t1"]
    assert declared == {name: ["help"] for name in ("decay-ensemble", "conditional-state", "master-check")}


# Runs cli.main and then the process entry on the argv given as JSON, their
# output discarded, and prints each exit code with the collector's count of
# frozen objects after it.
_MAIN_THEN_RUN = """
import contextlib, gc, io, json, sys
from nullshadow import cli
from nullshadow.__main__ import run
result = []
for entry in (cli.main, run):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = entry(json.loads(sys.argv[1]))
        except SystemExit as exc:
            code = exc.code
    result += [code, gc.get_freeze_count()]
print(json.dumps(result))
"""

ENTRY_EXITS = {
    "success": WITHOUT_ARRAYS["exact-ev"],
    "configuration-error": WITHOUT_ARRAYS["configuration-error"],
    "tolerance-exceeded": (["master-check", "--p-excited", "0.5", "--n-traj", "10", "--horizon", "1",
                            "--dt", "0.01", "--tol", "0"], 3),
    "version": WITHOUT_ARRAYS["version"],
    "usage-error": WITHOUT_ARRAYS["usage-error"],
}


@pytest.mark.parametrize("argv, code", ENTRY_EXITS.values(), ids=ENTRY_EXITS)
def test_the_process_entry_freezes_the_heap_and_main_does_not(argv, code):
    # a frozen heap skips shutdown's full collections; a library caller of
    # cli.main keeps its collector
    main_code, frozen_after_main, run_code, frozen_after_run = _fresh(_MAIN_THEN_RUN, json.dumps(argv))
    assert main_code == run_code == code
    assert frozen_after_main == 0
    assert frozen_after_run > 0


def test_the_process_entry_freezes_the_heap_after_an_uncaught_exception():
    code = """
import gc, json
import nullshadow.__main__ as entry
def fail(argv):
    raise RuntimeError("unexpected")
entry.main = fail
try:
    entry.run([])
except RuntimeError:
    print(json.dumps(gc.get_freeze_count()))
"""
    assert _fresh(code) > 0


def test_the_console_script_is_the_process_entry():
    # a text match, since Python 3.10 has no tomllib
    pyproject = (ROOT / "pyproject.toml").read_text()
    assert re.search(r'^\[project\.scripts\]\nnullshadow = "nullshadow\.__main__:run"$', pyproject, re.M)


def test_importing_the_cli_imports_every_module():
    # perfbench/replay.py wraps the functions of the modules that are
    # loaded once nullshadow.cli is; one imported later would go untraced.
    loaded = _fresh('import json, sys, nullshadow.cli; print(json.dumps(sorted(sys.modules)))')
    modules = [path.stem for path in Path(nullshadow.__file__).parent.glob("*.py")]
    for module in set(modules) - {"__init__", "__main__"}:
        assert f"nullshadow.{module}" in loaded


def test_np_forwards_numpy_names_but_no_dunder():
    # Without the dunder guard _np would hand out numpy's __path__ and
    # pass for a package, and any such probe would load numpy.
    code = """
import json, sys
import nullshadow._np as _np
probes = [hasattr(_np, "__path__"), hasattr(_np, "__all__"), "numpy" in sys.modules]
import numpy
print(json.dumps([*probes, _np.float64 is numpy.float64, hasattr(_np, "no_such_numpy_name")]))
"""
    assert _fresh(code) == [False, False, False, True, False]


def test_the_cli_imports_no_dataclasses_inspect_or_numpy():
    # Each is start-up time paid by every launch: dataclasses alone pulls in
    # inspect, ast, dis and tokenize, and typing costs 6-8 ms.  -S keeps
    # site's own imports out, so a .pth file that loads typing first (as
    # certifi's can) cannot hide a record or annotation that imports it.
    # Nor does it load either output encoder, json or csv, before a run
    # renders in their format.
    code = """
import sys
before = set(sys.modules)
import nullshadow.cli
new = sorted(set(sys.modules) - before)
import json
print(json.dumps(new))
"""
    new = set(_fresh(code, flags=("-S",)))
    assert "nullshadow.cli" in new
    assert not new & {"csv", "dataclasses", "inspect", "json", "numpy", "typing"}
