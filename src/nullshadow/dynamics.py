"""Quantum-jump unraveling of spontaneous emission for one atom.

Between emissions the atom is conditioned on the *absence* of a photon
click.  That null result is itself information: the unnormalized no-jump
branch is

    (a0 * exp(-i e0 t),  a1 * exp(-i e1 t) * exp(-gamma t / 2))

and renormalizing it drains the excited population continuously even
though nothing was emitted.  Its squared norm is the survival
probability

    S(t) = p0 + p1 * exp(-gamma t),        p0 = |a0|^2, p1 = |a1|^2,

which is also the exact waiting-time law used for jump sampling: the
first-emission time is drawn by inverting S in closed form, so no time
step enters the sampler.  A jump resets the state to the ground level
instantly and nothing can re-excite it afterwards.

Randomness enters only through explicit uniform variates passed by the
caller; there is no hidden generator state.
"""

from __future__ import annotations

import math

from . import _np as np
from .core import AtomParams, DensitySeries, QubitState


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


def checked_times(times: np.ndarray) -> np.ndarray:
    """``times`` as a float array, each nonnegative (NaN is rejected)."""
    times = np.asarray(times, dtype=float)
    if times.size and not times.min() >= 0.0:
        raise ValueError(f"time must be nonnegative, got {times.min()}")
    return times


def no_click_populations(
    p0: float, p1: float, gamma: float, times: list[float]
) -> tuple[list[float], list[float], list[float]]:
    """rho11, rho00 and the no-click probability S of the conditioned state at each of ``times``.

    The closed form on plain floats: x = p1 e^(-gamma t) and S = x + p0
    give rho11 = x / S and rho00 = p0 / S.  An overflowing exponent gives
    e^(-inf) = 0, the exact limit.  A pure excited state (p0 == 0) stays
    excited, since only an actual jump can change it; that case is
    returned directly, so S never underflows to 0/0.
    """
    xs = [math.exp(-gamma * t) * p1 for t in times]
    if p0 == 0.0:
        return [1.0] * len(xs), [0.0] * len(xs), xs
    survival = [x + p0 for x in xs]
    return [x / s for x, s in zip(xs, survival)], [p0 / s for s in survival], survival


def no_jump_series(initial: QubitState, params: AtomParams, times: np.ndarray) -> DensitySeries:
    """Projector of the no-click conditioned state at each of ``times``.

    The populations are :func:`no_click_populations` of ``times``, and
    rho01 = a0 conj(a1) e^((i omega - gamma / 2) t) / S.  The excited
    population falls monotonically to 0 whenever p0 > 0, and a pure
    excited state (p0 == 0) stays excited with rho01 = 0.  ``rho01`` is
    NaN where omega * t overflows.
    """
    times = checked_times(times)
    p0, p1 = abs(initial.a0) ** 2, abs(initial.a1) ** 2
    if p0 == 0.0:
        zeros = np.zeros(times.shape)
        return DensitySeries(times, zeros, np.ones(times.shape), zeros.astype(complex))
    columns = no_click_populations(p0, p1, params.gamma, times.ravel().tolist())
    rho11, rho00, survival = (np.array(column).reshape(times.shape) for column in columns)
    with np.errstate(over="ignore", invalid="ignore"):
        rho01 = np.exp((1j * params.omega - 0.5 * params.gamma) * times)
    rho01 *= initial.a0 * initial.a1.conjugate()
    rho01 /= survival
    return DensitySeries(times, rho00, rho11, rho01)
