"""Ensemble of independently decaying atoms with per-cell click detectors.

N atoms are prepared in the same superposed state, each in its own cell
whose top acts as a photon detector: an emission permanently blackens
that cell.  The run tracks the growing blackened count on a time grid
and the state of the not-yet-blackened survivors, which all share one
conditioned superposition (they are indistinguishable) unless the
``premeasure`` variant is enabled.

``premeasure`` projectively collapses every atom to ground or excited
before the clock starts.  The blackening curve is then statistically
identical, but survivors form a ground/excited mixture instead of a
coherent conditioned state; exposing both variants side by side is the
point of the module.

An atom's whole history is its first-emission time, so the ensemble is
one array of jump times (``inf`` for atoms that never emit).  The horizon
only bounds the grid on which jumps are counted.

Reproducibility: atom ``i`` draws its variates from the hash substream
``(base_seed, i)`` (see :mod:`nullshadow.streams`), so a run is
bit-identical for a given seed.  The ``NULLSHADOW_THREADS`` environment
variable is not read.

The shared survivor state is :func:`nullshadow.dynamics.no_jump_series`,
evaluated once over the whole time grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import AtomParams, ConfigurationError, QubitState
from .dynamics import no_jump_series, sample_jump_times
from .master import DensitySeries
from .streams import uniforms_at

# Fixed draw-slot layout of each atom's substream.
SLOT_PREMEASURE = 0
SLOT_JUMP = 1
SLOT_MEASURE_BASE = 2  # slot 2 + g measures the survivor at grid index g


@dataclass(frozen=True)
class EnsembleConfig:
    n_atoms: int
    initial: QubitState
    params: AtomParams
    horizon: float
    grid_points: int
    base_seed: int
    premeasure: bool = False
    measure_survivors: bool = False

    def __post_init__(self) -> None:
        if self.n_atoms < 1:
            raise ConfigurationError(f"n_atoms must be >= 1, got {self.n_atoms}")
        if not (math.isfinite(self.horizon) and self.horizon > 0.0):
            raise ConfigurationError(f"horizon must be positive and finite, got {self.horizon}")
        if self.grid_points < 2:
            raise ConfigurationError(f"grid_points must be >= 2, got {self.grid_points}")
        if not 0 <= self.base_seed < 2**64:
            raise ConfigurationError("base_seed must fit in 64 unsigned bits")
        if not abs(self.initial.norm - 1.0) <= 1e-9:
            raise ConfigurationError("initial state must be normalized")


@dataclass(frozen=True)
class EnsembleStats:
    """Aggregates on the time grid; counts are closed-interval (jump <= t)."""

    grid: np.ndarray
    blackened_count: np.ndarray
    survivor_excited_prob: np.ndarray
    fraction_blackened_final: float
    measured_excited_fraction: np.ndarray | None = field(default=None)


def expected_blackened(n: int, p1: float, gamma: float, t: float) -> float:
    """Mean number of cells blackened by time t: n * p1 * (1 - e^(-gamma t))."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if not 0.0 <= p1 <= 1.0:
        raise ValueError(f"excited probability must be in [0, 1], got {p1}")
    if t < 0.0:
        raise ValueError(f"time must be nonnegative, got {t}")
    return n * p1 * -math.expm1(-gamma * t)


def run_trajectories(cfg: EnsembleConfig, weights: float | np.ndarray | None = None) -> np.ndarray:
    """Jump time of every atom, indexed by atom; ``inf`` if it never emits.

    Atom i uses draw slot SLOT_PREMEASURE for the optional initial
    collapse and SLOT_JUMP for its emission time, so the premeasure
    variant reuses the very same jump variates.  ``weights`` are the
    excited probabilities at t = 0 when the caller has drawn them already.
    """
    if weights is None:
        weights = _excited_weights(cfg)
    u = uniforms_at(cfg.base_seed, np.arange(cfg.n_atoms), SLOT_JUMP)
    return sample_jump_times(weights, cfg.params.gamma, u)


def run_ensemble(cfg: EnsembleConfig) -> EnsembleStats:
    """Simulate the full cell array and aggregate it on the time grid."""
    weights = _excited_weights(cfg)
    jump_times = run_trajectories(cfg, weights)
    grid = np.linspace(0.0, cfg.horizon, cfg.grid_points)
    blackened = np.searchsorted(np.sort(jump_times), grid, side="right")

    if cfg.premeasure:
        # Survivors are a ground/excited mixture; report the empirical
        # excited fraction among them (NaN once no survivors remain).
        # Emitters were necessarily excited.
        n_excited = int(weights.sum())
        survivors = cfg.n_atoms - blackened
        with np.errstate(invalid="ignore"):
            survivor_excited = np.where(
                survivors > 0, (n_excited - blackened) / survivors, np.nan
            )
    else:
        # All survivors share one conditioned state.
        survivor_excited = no_jump_series(cfg.initial, cfg.params, grid).rho11

    measured = None
    if cfg.measure_survivors:
        measured = _measure_survivors(cfg, weights, jump_times, grid, survivor_excited)

    return EnsembleStats(
        grid=grid,
        blackened_count=blackened,
        survivor_excited_prob=survivor_excited,
        fraction_blackened_final=float(blackened[-1]) / cfg.n_atoms,
        measured_excited_fraction=measured,
    )


def trajectory_state_series(
    initial: QubitState,
    params: AtomParams,
    jump_times: np.ndarray,
    times: np.ndarray,
) -> tuple[np.ndarray, DensitySeries]:
    """Where the trajectories stand on an ascending time grid, in O(T) numbers.

    Returns the fraction of trajectories in the ground state at each time
    (jump time <= t; ``inf`` means no jump) and the projector of the
    conditioned state that every other trajectory shares.
    """
    if len(jump_times) == 0:
        raise ValueError("jump_times is empty: no trajectories to describe")
    jumped = np.searchsorted(np.sort(jump_times), times, side="right") / len(jump_times)
    return jumped, no_jump_series(initial, params, times)


def _excited_weights(cfg: EnsembleConfig) -> float | np.ndarray:
    """Excited probability at t = 0: shared, or per atom (0/1) if premeasured."""
    p1 = cfg.initial.excited_population
    if not cfg.premeasure:
        return p1
    u = uniforms_at(cfg.base_seed, np.arange(cfg.n_atoms), SLOT_PREMEASURE)
    return (u < p1).astype(float)


def _measure_survivors(
    cfg: EnsembleConfig,
    weights: float | np.ndarray,
    jump_times: np.ndarray,
    grid: np.ndarray,
    survivor_excited: np.ndarray,
) -> np.ndarray:
    """Counterfactual projective measurement of each survivor per grid time.

    Draws are independent across grid points (slot 2 + g), so this is a
    diagnostic binomial estimate around the survivor excited population,
    not a back-acting measurement sequence.  Premeasured survivors are
    excited with their own weight, the others with ``survivor_excited[g]``.
    """
    indices = np.arange(cfg.n_atoms)
    out = np.empty(len(grid))
    for g, t in enumerate(grid):
        alive = jump_times > t
        n_alive = int(alive.sum())
        if n_alive == 0:
            out[g] = np.nan
            continue
        u = uniforms_at(cfg.base_seed, indices[alive], SLOT_MEASURE_BASE + g)
        p = weights[alive] if cfg.premeasure else survivor_excited[g]
        out[g] = int((u < p).sum()) / n_alive
    return out
