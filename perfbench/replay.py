"""Traced replay of one CLI run, in a fresh interpreter.

    python perfbench/replay.py LAYERS.json SPANS.npz VECTOR_DRAWS -- <nullshadow argv>

Imports ``nullshadow.cli`` (timed as ``cli.import``), wraps the layer
functions listed in ``TRACED`` wherever a ``nullshadow`` module refers
to them, and calls ``cli.main`` in-process, so the replay computes and
writes the very record the CLI would.  Each wrapped call records one
span: name, start, end and the span it was called from.  Spans stay in
memory and are written to SPANS.npz when the run ends; per-layer busy
times and counts go to LAYERS.json.

When VECTOR_DRAWS is positive, the replay then times
``streams.uniforms_at`` over atom indices 0..VECTOR_DRAWS-1 in the jump
slot, the vector twin of the scalar draws the run just made.

Exits with the CLI's exit code.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

# numpy is imported inside functions, only after the timed import of
# nullshadow.cli, so that cli.import_s includes loading it.

# Layer functions to wrap, by defining module.
TRACED = [
    "streams.uniform_at",
    "streams.uniforms_at",
    "dynamics.run_trajectory",
    "dynamics.conditional_excited_prob",
    "core.fidelity",
    "ensemble.run_trajectories",
    "ensemble.run_ensemble",
    "ensemble.trajectory_state_series",
    "ensemble.survivor_state",
    "master.integrate_master",
    "master.average_trajectories",
    "master.max_elementwise_deviation",
    "output.render",
    "output.write_record",
]
# Called once per RK4 step; counted, not spanned.
RK4_STEP = "master._step_rk4"
# Every count is reported, 0 when the workload never reaches it.
COUNTS = [
    "streams.draws",
    "ensemble.atoms",
    "ensemble.emitted",
    "ensemble.survivors",
    "master.state_objects",
    "master.recorded_times",
    "master.rk4_steps",
    "output.rows",
    "output.bytes",
]


class Tracer:
    """In-memory span store: parallel arrays indexed by span id."""

    def __init__(self, names: list[str]) -> None:
        self.names = names
        self.name = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: dict[str, float] = dict.fromkeys(COUNTS, 0)

    def add(self, name: str, start: float, end: float) -> None:
        self.name.append(self.names.index(name))
        self.parent.append(self.stack[-1])
        self.start.append(start)
        self.end.append(end)

    def wrap(self, fn, name: str, count=None):
        code = self.names.index(name)
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = len(ends)
            names.append(code)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(span)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced


def _count_draws(counts, args, result):
    counts["streams.draws"] += 1 if isinstance(result, float) else len(result)


def _count_ensemble(counts, args, stats):
    atoms = args[0].n_atoms
    emitted = int(stats.blackened_count[-1])
    counts["ensemble.atoms"] += atoms
    counts["ensemble.emitted"] += emitted
    counts["ensemble.survivors"] += atoms - emitted


def _count_states(counts, args, series):
    times = len(args[3])
    counts["master.state_objects"] += len(args[2]) * times
    counts["master.recorded_times"] += times


def _count_render(counts, args, text):
    counts["output.rows"] += len(args[0].rows)
    counts["output.bytes"] += len(text.encode("utf-8"))


COUNTERS = {
    "streams.uniform_at": _count_draws,
    "streams.uniforms_at": _count_draws,
    "ensemble.run_ensemble": _count_ensemble,
    "ensemble.trajectory_state_series": _count_states,
    "output.render": _count_render,
}


def _patch(qualname: str, replacement) -> object | None:
    """Point every nullshadow module's reference to a function at ``replacement``."""
    module_name, attr = qualname.split(".")
    home = sys.modules.get(f"nullshadow.{module_name}")
    original = getattr(home, attr, None)
    if original is None:
        return None
    wrapped = replacement(original)
    for name, module in list(sys.modules.items()):
        if name == "nullshadow" or name.startswith("nullshadow."):
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
    return original


def layer_metrics(tracer: Tracer, wall: float) -> dict[str, float]:
    import numpy as np

    name = np.frombuffer(tracer.name, dtype=np.uint16)
    parent = np.frombuffer(tracer.parent, dtype=np.int64)
    duration = np.frombuffer(tracer.end) - np.frombuffer(tracer.start)
    busy = np.bincount(name, weights=duration, minlength=len(tracer.names))
    child = np.bincount(parent[parent >= 0], weights=duration[parent >= 0], minlength=len(name))
    own = np.bincount(name, weights=duration - child, minlength=len(tracer.names))
    code = {n: i for i, n in enumerate(tracer.names)}
    total = {n: float(busy[i]) for n, i in code.items()}
    metrics = {f"{n}_s": total[n] for n in tracer.names if n != "output.write_record"}
    metrics["output.write_s"] = float(own[code["output.write_record"]])
    nested = (name == code["ensemble.run_trajectories"]) & (parent >= 0)
    nested[nested] = name[parent[nested]] == code["ensemble.run_ensemble"]
    metrics["ensemble.aggregate_s"] = total["ensemble.run_ensemble"] - float(duration[nested].sum())
    metrics["trace.coverage"] = float(duration[parent < 0].sum()) / wall
    return metrics


def main(argv: list[str]) -> int:
    layers_path, spans_path, vector_draws = argv[0], argv[1], int(argv[2])
    cli_argv = argv[argv.index("--") + 1 :]
    tracer = Tracer(["cli.import", *TRACED])

    t_import = time.perf_counter()
    import nullshadow.cli as cli

    tracer.add("cli.import", t_import, time.perf_counter())
    originals = {
        qualname: _patch(qualname, lambda fn, q=qualname: tracer.wrap(fn, q, COUNTERS.get(q)))
        for qualname in TRACED
    }

    def count_step(fn):
        def counted(*args):
            tracer.counts["master.rk4_steps"] += 1
            return fn(*args)

        return counted

    _patch(RK4_STEP, count_step)

    code = cli.main(cli_argv)
    t_done = time.perf_counter()
    wall = t_done - t_import
    counts = dict(tracer.counts)
    metrics = layer_metrics(tracer, wall)

    if vector_draws > 0:
        import numpy as np
        from nullshadow import ensemble

        seed = int(cli_argv[cli_argv.index("--seed") + 1])
        indices = np.arange(vector_draws)
        start = time.perf_counter()
        vector = originals["streams.uniforms_at"](seed, indices, ensemble.SLOT_JUMP)
        metrics["streams.uniforms_at_s"] = time.perf_counter() - start
        scalar = originals["streams.uniform_at"]
        for i in range(0, vector_draws, max(1, vector_draws // 1000)):
            if scalar(seed, i, ensemble.SLOT_JUMP) != vector[i]:
                print(f"replay: uniforms_at differs from uniform_at at index {i}", file=sys.stderr)
                code = code or 4

    metrics.update(counts)
    states = counts["master.state_objects"]
    metrics["master.distinct_state_ratio"] = (counts["master.recorded_times"] + 1) / states if states else 0.0

    import numpy as np

    np.savez(
        spans_path,
        names=np.array(tracer.names),
        name=np.frombuffer(tracer.name, dtype=np.uint16),
        parent=np.frombuffer(tracer.parent, dtype=np.int64),
        start=np.frombuffer(tracer.start),
        end=np.frombuffer(tracer.end),
    )
    metrics["trace.post_s"] = time.perf_counter() - t_done
    with open(layers_path, "w", encoding="utf-8") as fh:
        json.dump({"exit_code": code, "metrics": metrics}, fh, indent=1, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
