"""Quantum-jump unraveling of spontaneous emission for one atom.

Between emissions the atom is conditioned on the *absence* of a photon
click.  That null result is itself information: the unnormalized no-jump
branch is

    (a0 * exp(-i e0 t),  a1 * exp(-i e1 t) * exp(-gamma t / 2))

and renormalizing it drains the excited population continuously even
though nothing was emitted.  Its squared norm is the survival
probability

    S(t) = (1 - p1) + p1 * exp(-gamma t),        p1 = |a1|^2,

which is also the exact waiting-time law used for jump sampling: the
first-emission time is drawn by inverting S in closed form, so no time
step enters the sampler.  A jump resets the state to the ground level
instantly and nothing can re-excite it afterwards.

Randomness enters only through explicit uniform variates passed by the
caller; there is no hidden generator state.
"""

from __future__ import annotations

import math

import numpy as np

from .core import AtomParams, QubitState, free_evolve, normalize


def no_jump_evolve(state: QubitState, params: AtomParams, t: float) -> QubitState:
    """Condition on no emission up to time t and renormalize.

    The resulting excited population is
    ``p1 e^(-gamma t) / ((1 - p1) + p1 e^(-gamma t))``; for a pure
    excited state the damping cancels in the normalization, so the
    direction survives arbitrarily long waits (until an actual jump).
    """
    if t < 0.0:
        raise ValueError(f"time must be nonnegative, got {t}")
    if abs(state.a0) == 0.0:
        # Damping rescales the single excited amplitude only; the
        # normalized state is plain phase evolution.  Doing it this way
        # also dodges underflow of exp(-gamma t / 2) at huge gamma t.
        return free_evolve(state, params, t)
    drift = free_evolve(state, params, t)
    return normalize(QubitState(drift.a0, drift.a1 * math.exp(-0.5 * params.gamma * t)))


def jump_hazard(state: QubitState, params: AtomParams) -> float:
    """Instantaneous emission rate gamma * |a1|^2."""
    return params.gamma * state.excited_population


def no_jump_survival(p1: float, gamma: float, t: float) -> float:
    """Probability that an atom with excited weight p1 has not emitted by t.

    S(t) = (1 - p1) + p1 * exp(-gamma t): the ground component never
    radiates, so S saturates at 1 - p1 instead of vanishing.
    """
    if not 0.0 <= p1 <= 1.0:
        raise ValueError(f"excited probability must be in [0, 1], got {p1}")
    if t < 0.0:
        raise ValueError(f"time must be nonnegative, got {t}")
    return (1.0 - p1) + p1 * math.exp(-gamma * t)


def sample_jump_times(p1: float | np.ndarray, gamma: float, u: np.ndarray) -> np.ndarray:
    """Exact first-emission times by inverse-transform sampling.

    With p1 = |a1|^2 the emission-time CDF is p1 * (1 - exp(-gamma t)),
    so a uniform u >= p1 lands in the never-emits mass (``inf``) and
    u < p1 maps to t* = -ln(1 - u / p1) / gamma.  For gamma = 0 there is
    no decay channel and every time is ``inf``.  ``p1`` is one weight
    shared by all atoms, or one weight per atom.
    """
    u = np.asarray(u, dtype=float)
    p1 = np.broadcast_to(np.asarray(p1, dtype=float), u.shape)
    if u.size and not (u.min() >= 0.0 and u.max() < 1.0):
        raise ValueError("uniform variates must lie in [0, 1)")
    times = np.full(u.shape, np.inf)
    if gamma == 0.0:
        return times
    emits = u < p1
    with np.errstate(over="ignore"):
        times[emits] = -np.log1p(-u[emits] / p1[emits]) / gamma
    return times


def conditional_excited_prob(p1: float, gamma: float, t: float) -> float:
    """Excited population after waiting time t with no emission seen.

    Bayes on the null result: p1 e^(-gamma t) / ((1-p1) + p1 e^(-gamma t)).
    Decreases monotonically to 0 whenever p1 < 1; a certainty (p1 = 1)
    stays a certainty, since only an actual jump can change it.
    """
    if not 0.0 <= p1 <= 1.0:
        raise ValueError(f"excited probability must be in [0, 1], got {p1}")
    if t < 0.0:
        raise ValueError(f"time must be nonnegative, got {t}")
    if p1 == 1.0:
        return 1.0
    decayed = p1 * math.exp(-gamma * t)
    return decayed / ((1.0 - p1) + decayed)
