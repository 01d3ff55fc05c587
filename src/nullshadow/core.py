"""Two-level state primitives.

A pure state of the atom is a pair of complex amplitudes over the energy
basis (ground, excited).  Everything in this module is a pure function on
immutable value types: normalization and the projector / density-matrix
view used by the master-equation oracle.  Time evolution lives in
:mod:`nullshadow.dynamics`.

Conventions, fixed project-wide:
  * natural units, action constant = 1; energies are angular frequencies,
    so a state picks up the phase exp(-i * E * t) per level;
  * global phase is kept as-is; states are compared through their
    projectors (``density_from_state``), which do not see it;
  * the coherence stored in ``DensityMatrix2.rho01`` is the ground-row,
    excited-column matrix element, i.e. ``a0 * conj(a1)`` for a pure
    state; under free evolution it rotates as exp(+i * (e1 - e0) * t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class ConfigurationError(ValueError):
    """Raised when a run configuration violates its documented bounds."""


@dataclass(frozen=True)
class QubitState:
    """Pure state a0 * |ground> + a1 * |excited>."""

    a0: complex
    a1: complex

    @property
    def ground_population(self) -> float:
        return abs(self.a0) ** 2

    @property
    def excited_population(self) -> float:
        return abs(self.a1) ** 2

    @property
    def norm(self) -> float:
        return math.hypot(abs(self.a0), abs(self.a1))

    @classmethod
    def from_excited_probability(cls, p1: float) -> "QubitState":
        """Phase-free superposition with real nonnegative amplitudes."""
        if not 0.0 <= p1 <= 1.0:
            raise ValueError(f"excited probability must be in [0, 1], got {p1}")
        return cls(complex(math.sqrt(1.0 - p1)), complex(math.sqrt(p1)))


GROUND = QubitState(1.0 + 0.0j, 0.0j)
EXCITED = QubitState(0.0j, 1.0 + 0.0j)


@dataclass(frozen=True)
class AtomParams:
    """Level energies and spontaneous decay rate of the excited level.

    ``gamma`` is the inverse mean lifetime of the excited state; the
    transition (angular) frequency is ``e1 - e0``.
    """

    e0: float
    e1: float
    gamma: float

    def __post_init__(self) -> None:
        for name, value in (("e0", self.e0), ("e1", self.e1), ("gamma", self.gamma)):
            if not math.isfinite(value):
                raise ConfigurationError(f"{name} must be finite, got {value}")
        if not self.e1 >= self.e0:
            raise ConfigurationError(
                f"excited energy must not lie below ground energy, got e0={self.e0}, e1={self.e1}"
            )
        if self.gamma < 0.0:
            raise ConfigurationError(f"decay rate must be nonnegative, got {self.gamma}")
        if not math.isfinite(self.omega):
            raise ConfigurationError(f"transition frequency e1 - e0 must be finite, got {self.omega}")

    @property
    def omega(self) -> float:
        """Transition angular frequency e1 - e0."""
        return self.e1 - self.e0

    @property
    def lifetime(self) -> float:
        """Mean lifetime 1/gamma (inf for a non-decaying atom)."""
        return math.inf if self.gamma == 0.0 else 1.0 / self.gamma


@dataclass(frozen=True)
class DensityMatrix2:
    """2x2 density matrix stored as populations plus one coherence.

    ``rho01`` is the ground-row, excited-column element; the mirror
    element is its conjugate by Hermiticity.  The same container is also
    used for time derivatives (which are traceless, not states), so no
    invariant is enforced at construction; use :meth:`validate` on values
    meant to be states.
    """

    rho00: float
    rho11: float
    rho01: complex

    @property
    def trace(self) -> float:
        return self.rho00 + self.rho11

    @property
    def purity(self) -> float:
        """trace(rho^2) = rho00^2 + rho11^2 + 2 |rho01|^2."""
        return self.rho00**2 + self.rho11**2 + 2.0 * abs(self.rho01) ** 2

    def validate(self, atol: float = 1e-9) -> None:
        """Check trace one, nonnegative populations, and positivity."""
        if abs(self.trace - 1.0) > atol:
            raise ValueError(f"trace {self.trace} differs from 1 beyond {atol}")
        if self.rho00 < -1e-12 or self.rho11 < -1e-12:
            raise ValueError(f"negative population: rho00={self.rho00}, rho11={self.rho11}")
        if abs(self.rho01) ** 2 > self.rho00 * self.rho11 + atol:
            raise ValueError("coherence exceeds positivity bound")


def normalize(state: QubitState) -> QubitState:
    """Rescale to unit norm, preserving the relative phase.

    Raises ValueError("null state") for a zero-amplitude input, which
    signals a fully absorbed or blocked branch being misused as a state.
    """
    n = state.norm
    if n == 0.0:
        raise ValueError("null state")
    return QubitState(state.a0 / n, state.a1 / n)


def density_from_state(state: QubitState) -> DensityMatrix2:
    """Projector onto a pure state, in the fixed coherence convention."""
    return DensityMatrix2(
        rho00=abs(state.a0) ** 2,
        rho11=abs(state.a1) ** 2,
        rho01=state.a0 * state.a1.conjugate(),
    )
