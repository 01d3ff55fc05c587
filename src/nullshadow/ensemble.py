"""Ensemble of independently decaying atoms with per-cell click detectors.

N atoms are prepared in the same superposed state, each in its own cell
whose top acts as a photon detector: an emission permanently blackens
that cell.  The run counts the blackened cells at the caller's times.
Unless the ``premeasure`` variant is enabled, the not-yet-blackened
survivors all share one conditioned superposition (they are
indistinguishable), the closed form of
:func:`nullshadow.dynamics.no_jump_series`; so the run returns counts only.

``premeasure`` projectively collapses every atom to ground or excited
before the clock starts.  The blackening curve is then statistically
identical, but survivors form a ground/excited mixture instead of a
coherent conditioned state: with ``excited_count`` atoms found excited
and c blackened by t, the survivors' excited fraction is
(excited_count - c) / (n_atoms - c), since every emitter was excited.
Exposing both variants side by side is the point of the module.

An atom's whole history is its first-emission time, so the ensemble is
one array of jump times (``inf`` for atoms that never emit).  The config
describes only that sample; the times at which jumps are counted are an
argument of :func:`run_ensemble`.

Reproducibility: atom ``i`` draws its variates from the hash substream
``(base_seed, i)`` (see :mod:`nullshadow.streams`), so a run is
bit-identical for a given seed.
"""

from __future__ import annotations

from collections import namedtuple

from . import _np as np
from .core import MAX_COUNT, AtomParams, ConfigurationError, DensitySeries, QubitState, _make_checked
from .dynamics import checked_times, no_jump_series, sample_jump_times
from .streams import uniforms_at

# Fixed draw-slot layout of each atom's substream.
SLOT_PREMEASURE = 0
SLOT_JUMP = 1


class EnsembleConfig(namedtuple("EnsembleConfig", "n_atoms initial params base_seed premeasure",
                                defaults=(False,))):
    """``n_atoms`` atoms prepared in ``initial`` (a QubitState) with ``params`` (AtomParams)."""

    __slots__ = ()
    _make = _make_checked

    def __new__(cls, *args, **kwargs) -> EnsembleConfig:
        self = super().__new__(cls, *args, **kwargs)
        if self.n_atoms < 1:
            raise ConfigurationError(f"n_atoms must be >= 1, got {self.n_atoms}")
        if self.n_atoms > MAX_COUNT:
            raise ConfigurationError(f"n_atoms must be <= {MAX_COUNT}, got {self.n_atoms}")
        if not 0 <= self.base_seed < 2**64:
            raise ConfigurationError("base_seed must fit in 64 unsigned bits")
        if not abs(self.initial.norm - 1.0) <= 1e-9:
            raise ConfigurationError("initial state must be normalized")
        return self


class EnsembleStats(namedtuple("EnsembleStats", "blackened_count excited_count")):
    """Counts at the requested times: ``blackened_count``, a numpy integer array (jump <= t).

    ``excited_count`` is the number of atoms the premeasurement found
    excited, an int, or None without ``premeasure``.
    """

    __slots__ = ()


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


def run_ensemble(cfg: EnsembleConfig, times: np.ndarray) -> EnsembleStats:
    """Simulate the full cell array and aggregate it at ``times``.

    The times may come in any order and may repeat; each must be
    nonnegative (NaN is rejected).
    """
    times = checked_times(times)
    weights = _excited_weights(cfg)
    jump_times = run_trajectories(cfg, weights)
    blackened = np.searchsorted(np.sort(jump_times), times, side="right")
    return EnsembleStats(blackened, int(weights.sum()) if cfg.premeasure else None)


def trajectory_state_series(
    initial: QubitState,
    params: AtomParams,
    jump_times: np.ndarray,
    times: np.ndarray,
) -> tuple[np.ndarray, DensitySeries]:
    """Where the trajectories stand at each of ``times``, in O(T) numbers.

    Returns the fraction of trajectories in the ground state at each time
    (jump time <= t; ``inf`` means no jump) and the projector of the
    conditioned state that every other trajectory shares.
    """
    if len(jump_times) == 0:
        raise ValueError("jump_times is empty: no trajectories to describe")
    jumped = np.searchsorted(np.sort(jump_times), times, side="right") / len(jump_times)
    return jumped, no_jump_series(initial, params, times)


def _excited_weights(cfg: EnsembleConfig) -> float | np.ndarray:
    """Excited probability at t = 0: shared, or per atom (a bool mask) if premeasured."""
    p1 = cfg.initial.excited_population
    if not cfg.premeasure:
        return p1
    return uniforms_at(cfg.base_seed, np.arange(cfg.n_atoms), SLOT_PREMEASURE) < p1
