"""Ensemble of independently decaying atoms with per-cell click detectors.

N atoms are prepared in the same superposed state, each in its own cell
whose top acts as a photon detector: an emission permanently blackens
that cell.  The run tracks the growing blackened count at the caller's
times and the state of the not-yet-blackened survivors, which all share one
conditioned superposition (they are indistinguishable) unless the
``premeasure`` variant is enabled.

``premeasure`` projectively collapses every atom to ground or excited
before the clock starts.  The blackening curve is then statistically
identical, but survivors form a ground/excited mixture instead of a
coherent conditioned state; exposing both variants side by side is the
point of the module.

An atom's whole history is its first-emission time, so the ensemble is
one array of jump times (``inf`` for atoms that never emit).  The config
describes only that sample; the times at which jumps are counted are an
argument of :func:`run_ensemble`.

Reproducibility: atom ``i`` draws its variates from the hash substream
``(base_seed, i)`` (see :mod:`nullshadow.streams`), so a run is
bit-identical for a given seed.

The survivors' shared excited population is the closed form of
:func:`nullshadow.dynamics.no_click_populations`, filled into one float
array a slice of the requested times at a time.
"""

from __future__ import annotations

from collections import namedtuple

from . import _np as np
from .core import MAX_COUNT, AtomParams, ConfigurationError, DensitySeries, QubitState, _make_checked
from .dynamics import checked_times, no_click_populations, no_jump_series, sample_jump_times
from .streams import uniforms_at

# Fixed draw-slot layout of each atom's substream.
SLOT_PREMEASURE = 0
SLOT_JUMP = 1
# Times per no_click_populations call: its Python lists stay this short.
_SURVIVOR_SLICE = 4096


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


class EnsembleStats(namedtuple("EnsembleStats", "blackened_count survivor_excited_prob")):
    """Aggregates at the requested times, two numpy arrays; counts are closed-interval (jump <= t)."""

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
        p0, p1 = abs(cfg.initial.a0) ** 2, abs(cfg.initial.a1) ** 2
        flat, rho11 = times.ravel(), np.empty(times.size)
        for start in range(0, flat.size, _SURVIVOR_SLICE):
            span = slice(start, start + _SURVIVOR_SLICE)
            rho11[span] = no_click_populations(p0, p1, cfg.params.gamma, flat[span].tolist())[0]
        survivor_excited = rho11.reshape(times.shape)
    return EnsembleStats(blackened, survivor_excited)


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
    """Excited probability at t = 0: shared, or per atom (0/1) if premeasured."""
    p1 = cfg.initial.excited_population
    if not cfg.premeasure:
        return p1
    u = uniforms_at(cfg.base_seed, np.arange(cfg.n_atoms), SLOT_PREMEASURE)
    return (u < p1).astype(float)
