"""Command-line front end: one subcommand per scenario.

Subcommands
-----------
decay-ensemble    N atoms in cells with click detectors; blackening curve
                  and survivor excited population over time.
conditional-state Analytic no-emission conditioning of one atom (no
                  sampling): the populations of the conditioned state,
                  whose ground population is its fidelity with |g>.
ev                Two-splitter interferometer with optional blocker:
                  exact outcome probabilities, optionally sampled shots.
master-check      Trajectory average vs the master-equation oracle;
                  exits 3 when the deviation exceeds the tolerance.

Every run is deterministic under a fixed --seed.
Exit codes: 0 success, 1 I/O failure or out of memory, 2 usage/configuration
error, 3 oracle tolerance exceeded.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from collections.abc import Sequence

from . import __version__, _np as np
from .core import MAX_COUNT, AtomParams, ConfigurationError, QubitState, normalize
from .dynamics import no_click_populations
from .ensemble import EnsembleConfig, run_ensemble, run_trajectories, trajectory_state_series
from .interferometer import OUTCOMES, EVConfig, count_outcomes, detection_probs
from .master import MasterRunConfig, average_trajectories, integrate_master, max_elementwise_deviation
from .output import ComputedRows, OutputRecord, _write_stdout, write_record
from .streams import uniforms_at

# Output columns of the fixed-column subcommands; ev's depend on --shots.
COLUMNS = {
    "decay-ensemble": ["t", "blackened_count", "blackened_fraction", "survivor_excited_prob"],
    "conditional-state": ["t", "excited_prob", "fidelity_with_ground"],
    "master-check": ["t", "rho00_master", "rho11_master", "re_rho01_master", "im_rho01_master",
                     "rho00_traj", "rho11_traj", "re_rho01_traj", "im_rho01_traj", "rho11_analytic"],
}
# Arguments each record echoes in its config, in record order.
CONFIG = {
    "decay-ensemble": ["n_atoms", "a0", "a1", "p_excited", "gamma", "e0", "e1", "horizon", "grid",
                       "premeasure"],
    "conditional-state": ["p_excited", "gamma", "horizon", "grid"],
    "ev": ["blocker", "t1", "t2", "phase_a", "phase_b", "shots"],
    "master-check": ["p_excited", "gamma", "e0", "e1", "n_traj", "horizon", "dt", "grid", "tol"],
}


class _Parser(argparse.ArgumentParser):
    """argparse's parser, but text for stdout (``--version``, ``--help``) that
    cannot be written raises, so that ``main`` exits 1 as for a record.

    argparse ignores an ``OSError`` from every message it prints; one from
    a message for stderr is still ignored.  A closed stdout is None, which
    argparse would swap for stderr; a usage error with stderr closed exits
    2 with nothing printed.  Subcommand parsers take this class too.
    """

    def _print_message(self, message: str, file=None) -> None:
        if file is sys.stdout:
            _write_stdout(message)
        else:
            super()._print_message(message, file)

    def error(self, message: str):
        if sys.stderr is None:  # argparse would print the usage to stdout instead
            self.exit(2)
        super().error(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nullshadow",
        description="Quantum-trajectory simulator: decaying two-level atoms, "
        "null-measurement conditioning, and a blocker interferometer.",
        epilog="exit codes: 0 success, 1 I/O failure or out of memory, "
        "2 usage/configuration error, 3 oracle tolerance exceeded (master-check)",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "decay-ensemble",
        help="simulate N atoms in detector cells and tabulate the blackening curve",
        epilog=_columns_epilog("decay-ensemble"),
    )
    p.add_argument("--n-atoms", type=int, required=True, help="number of atoms / cells")
    _add_state_flags(p)
    _add_atom_flags(p)
    p.add_argument("--horizon", type=float, required=True, help="simulated time span")
    p.add_argument("--grid", type=int, default=51, help="number of grid times incl. 0 and horizon")
    p.add_argument("--seed", type=int, default=0, help="base seed for per-atom substreams")
    p.add_argument(
        "--premeasure",
        action="store_true",
        help="projectively collapse every atom to ground/excited at t=0 first",
    )
    _add_output_flags(p)
    p.set_defaults(func=cmd_decay_ensemble)

    p = sub.add_parser(
        "conditional-state",
        help="analytic survivor state under no-emission conditioning (no sampling)",
        epilog=_columns_epilog("conditional-state"),
    )
    p.add_argument("--p-excited", type=float, required=True, help="initial excited probability")
    p.add_argument("--gamma", type=float, default=1.0, help="spontaneous decay rate")
    p.add_argument("--horizon", type=float, required=True, help="last tabulated time")
    p.add_argument("--grid", type=int, default=51, help="number of grid times incl. 0 and horizon")
    _add_output_flags(p)
    p.set_defaults(func=cmd_conditional_state)

    p = sub.add_parser(
        "ev",
        help="two-splitter interferometer with optional blocker",
        epilog="output columns: outcome, probability (plus count, frequency when "
        "--shots > 0); outcome order is D1, D2, Absorbed",
    )
    p.add_argument("--blocker", choices=["none", "a", "b"], default="none", help="blocked arm")
    p.add_argument("--t1", type=float, default=0.5, help="power transmissivity of splitter 1")
    p.add_argument("--t2", type=float, default=0.5, help="power transmissivity of splitter 2")
    p.add_argument("--phase-a", type=float, default=0.0, help="arm A propagation phase (rad)")
    p.add_argument("--phase-b", type=float, default=0.0, help="arm B propagation phase (rad)")
    p.add_argument("--shots", type=int, default=0, help="sampled photons (0 = exact only)")
    p.add_argument("--seed", type=int, default=0, help="base seed for shot substreams")
    _add_output_flags(p)
    p.set_defaults(func=cmd_ev)

    p = sub.add_parser(
        "master-check",
        help="compare the trajectory average against the master-equation oracle",
        epilog=_columns_epilog("master-check") + "; exits 3 when max_deviation exceeds --tol",
    )
    p.add_argument("--p-excited", type=float, required=True, help="initial excited probability")
    _add_atom_flags(p)
    p.add_argument("--n-traj", type=int, required=True, help="number of trajectories")
    p.add_argument("--horizon", type=float, required=True, help="comparison time span")
    p.add_argument("--dt", type=float, default=0.002, help="master integration step")
    p.add_argument("--grid", type=int, default=50, help="approximate number of comparison times")
    p.add_argument("--seed", type=int, default=0, help="base seed for trajectory substreams")
    p.add_argument(
        "--tol",
        type=float,
        default=None,
        help="max allowed elementwise deviation (default 5/sqrt(n-traj))",
    )
    _add_output_flags(p)
    p.set_defaults(func=cmd_master_check)

    return parser


def _columns_epilog(command: str) -> str:
    return "output columns: " + ", ".join(COLUMNS[command])


def _add_state_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--p-excited", type=float, default=None, help="initial excited probability")
    p.add_argument("--a0-re", type=float, default=None, help="Re of the ground amplitude")
    p.add_argument("--a0-im", type=float, default=None, help="Im of the ground amplitude")
    p.add_argument("--a1-re", type=float, default=None, help="Re of the excited amplitude")
    p.add_argument("--a1-im", type=float, default=None, help="Im of the excited amplitude")


def _add_atom_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--gamma", type=float, default=1.0, help="spontaneous decay rate")
    p.add_argument("--e0", type=float, default=0.0, help="ground level energy")
    p.add_argument("--e1", type=float, default=1.0, help="excited level energy")


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.add_argument("--format", choices=["csv", "json"], default="json", help="output format")


def _initial_state(args: argparse.Namespace) -> QubitState:
    amp_flags = [args.a0_re, args.a0_im, args.a1_re, args.a1_im]
    if args.p_excited is not None:
        if any(v is not None for v in amp_flags):
            raise ConfigurationError("give either --p-excited or amplitude flags, not both")
        return QubitState.from_excited_probability(args.p_excited)
    if all(v is None for v in amp_flags):
        raise ConfigurationError("an initial state is required: --p-excited or amplitude flags")
    a0 = complex(args.a0_re or 0.0, args.a0_im or 0.0)
    a1 = complex(args.a1_re or 0.0, args.a1_im or 0.0)
    return normalize(QubitState(a0, a1))


def _check_window(args: argparse.Namespace) -> None:
    """The --horizon and --grid checks shared by the time-tabulating subcommands."""
    if not (math.isfinite(args.horizon) and args.horizon > 0.0):
        raise ConfigurationError(f"horizon must be positive and finite, got {args.horizon}")
    if args.grid < 2:
        raise ConfigurationError(f"grid must be >= 2, got {args.grid}")
    if args.grid > MAX_COUNT:
        raise ConfigurationError(f"grid must be <= {MAX_COUNT}, got {args.grid}")


def time_grid(horizon: float, points: int) -> list[float]:
    """``np.linspace(0.0, horizon, points)`` bit for bit, as plain floats (points >= 2).

    The list is allocated whole before it is filled, so a grid too large
    to hold fails at once with MemoryError.
    """
    div = points - 1
    step = horizon / div
    times = [0.0] * points
    if step == 0.0:  # a subnormal horizon: numpy divides before it scales
        for i in range(points):
            times[i] = i / div * horizon
    else:
        for i in range(points):
            times[i] = i * step
    times[-1] = horizon
    return times


def _record(args: argparse.Namespace, summary: dict, rows, columns=None, **derived) -> OutputRecord:
    """The run's record; a config value the command derives is passed by name."""
    values = {**vars(args), **derived}
    return OutputRecord(
        scenario=args.command,
        seed=getattr(args, "seed", None),
        config={name: values[name] for name in CONFIG[args.command]},
        summary=summary,
        columns=columns or COLUMNS[args.command],
        rows=rows,
    )


def cmd_decay_ensemble(args: argparse.Namespace) -> OutputRecord:
    initial = _initial_state(args)
    params = AtomParams(e0=args.e0, e1=args.e1, gamma=args.gamma)
    _check_window(args)
    cfg = EnsembleConfig(
        n_atoms=args.n_atoms, initial=initial, params=params, base_seed=args.seed,
        premeasure=args.premeasure,
    )
    times = time_grid(args.horizon, args.grid)
    stats = run_ensemble(cfg, times)

    def rows(start: int, stop: int) -> list[list]:
        counts = stats.blackened_count[start:stop].tolist()
        excited = stats.survivor_excited_prob[start:stop].tolist()
        if cfg.premeasure:  # NaN where no survivor is left: the value does not exist
            excited = [None if math.isnan(p) else p for p in excited]
        return [[t, c, c / cfg.n_atoms, p] for t, c, p in zip(times[start:stop], counts, excited)]

    table = ComputedRows(len(times), rows)
    final = int(stats.blackened_count[-1])
    summary = {"fraction_blackened_final": final / cfg.n_atoms, "blackened_final": final}
    a0, a1 = [initial.a0.real, initial.a0.imag], [initial.a1.real, initial.a1.imag]
    return _record(args, summary, table, a0=a0, a1=a1, p_excited=initial.excited_population)


def cmd_conditional_state(args: argparse.Namespace) -> OutputRecord:
    initial = QubitState.from_excited_probability(args.p_excited)
    params = AtomParams(e0=0.0, e1=1.0, gamma=args.gamma)
    _check_window(args)
    p0, p1 = abs(initial.a0) ** 2, abs(initial.a1) ** 2
    times = time_grid(args.horizon, args.grid)

    def rows(start: int, stop: int) -> list[tuple]:
        chunk = times[start:stop]
        # The fidelity with |g> of the pure conditioned state is its rho00.
        rho11, rho00, _ = no_click_populations(p0, p1, params.gamma, chunk)
        return list(zip(chunk, rho11, rho00))

    table = ComputedRows(len(times), rows)
    [(_, final_excited, final_fidelity)] = table[-1:]
    summary = {"final_excited_prob": final_excited, "final_fidelity_with_ground": final_fidelity}
    return _record(args, summary, table)


def cmd_ev(args: argparse.Namespace) -> OutputRecord:
    cfg = EVConfig(
        splitter1_transmissivity=args.t1,
        splitter2_transmissivity=args.t2,
        phase_a=args.phase_a,
        phase_b=args.phase_b,
        blocker=None if args.blocker == "none" else args.blocker,
    )
    probs = detection_probs(cfg)
    if args.shots < 0:
        raise ConfigurationError(f"shots must be nonnegative, got {args.shots}")
    if args.shots > MAX_COUNT:
        raise ConfigurationError(f"shots must be <= {MAX_COUNT}, got {args.shots}")
    if not 0 <= args.seed < 2**64:
        raise ConfigurationError("seed must fit in 64 unsigned bits")
    summary = {
        "p_d1": probs.p_d1,
        "p_d2": probs.p_d2,
        "p_absorbed": probs.p_absorbed,
        "shots": args.shots,
    }
    if args.shots > 0:
        counts = count_outcomes(probs, uniforms_at(args.seed, np.arange(args.shots), 0))
        summary["counts"] = dict(zip(OUTCOMES, counts))
        columns = ["outcome", "probability", "count", "frequency"]
        rows = [[tag, p, c, c / args.shots] for tag, p, c in zip(OUTCOMES, probs, counts)]
    else:
        columns = ["outcome", "probability"]
        rows = [[tag, p] for tag, p in zip(OUTCOMES, probs)]
    return _record(args, summary, rows, columns)


def cmd_master_check(args: argparse.Namespace) -> OutputRecord:
    initial = QubitState.from_excited_probability(args.p_excited)
    params = AtomParams(e0=args.e0, e1=args.e1, gamma=args.gamma)
    if args.n_traj < 1:
        raise ConfigurationError(f"n-traj must be >= 1, got {args.n_traj}")
    if args.n_traj > MAX_COUNT:
        raise ConfigurationError(f"n-traj must be <= {MAX_COUNT}, got {args.n_traj}")
    _check_window(args)
    tol = args.tol if args.tol is not None else 5.0 / math.sqrt(args.n_traj)
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ConfigurationError(f"tol must be nonnegative and finite, got {tol}")

    ecfg = EnsembleConfig(n_atoms=args.n_traj, initial=initial, params=params, base_seed=args.seed)
    mcfg = MasterRunConfig(dt=args.dt, t_max=args.horizon, points=args.grid)
    a0, a1 = initial
    series = integrate_master((abs(a0) ** 2, abs(a1) ** 2, a0 * a1.conjugate()), params, mcfg)
    jump_times = run_trajectories(ecfg)
    averaged = average_trajectories(*trajectory_state_series(initial, params, jump_times, series.times))
    deviation = max_elementwise_deviation(averaged, series)

    analytic = np.array([args.p_excited * math.exp(-args.gamma * t) for t in series.times.tolist()])
    population_error = float(np.max(np.abs(series.rho11 - analytic)))

    rows = np.column_stack(
        [
            series.times,
            series.rho00, series.rho11, series.rho01.real, series.rho01.imag,
            averaged.rho00, averaged.rho11, averaged.rho01.real, averaged.rho01.imag,
            analytic,
        ]
    )
    table = ComputedRows(len(rows), lambda start, stop: rows[start:stop].tolist())
    summary = {
        "max_deviation": deviation,
        "tol": tol,
        "passed": deviation <= tol,
        "max_population_error_vs_analytic": population_error,
    }
    return _record(args, summary, table, tol=tol)


def main(argv: Sequence[str] | None = None) -> int:
    if "numpy" not in sys.modules:  # no subcommand calls BLAS: skip OpenBLAS's start-up thread pool
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        args = build_parser().parse_args(argv)
        record = args.func(args)
        write_record(record, args.out, args.format)
    except ValueError as err:  # ConfigurationError included
        _report(str(err))
        return 2
    except (OSError, MemoryError) as err:
        _report(str(err) or "out of memory")
        return 1
    except ImportError as err:
        # numpy failed to load at its first use.  Its own message is advice
        # over many lines; the error it wraps names the failure.
        while isinstance(err.__cause__, ImportError):
            err = err.__cause__
        _report(str(err).strip().partition("\n")[0])
        return 1
    return 3 if record.summary.get("passed") is False else 0


def _report(message: str) -> None:
    """One error line on stderr.  A stderr that is closed (None) or cannot
    take it drops the line, as argparse drops its own, and the exit code stays."""
    try:
        sys.stderr.write(f"nullshadow: error: {message}\n")
    except (AttributeError, OSError):
        pass
