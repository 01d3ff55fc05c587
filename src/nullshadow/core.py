"""Two-level state primitives.

A pure state of the atom is a pair of complex amplitudes over the energy
basis (ground, excited).  Everything in this module is a pure function on
immutable value types: normalization, and the density-matrix series that
the master-equation oracle and the trajectory average share.  Time
evolution lives in :mod:`nullshadow.dynamics`.

Conventions, fixed project-wide:
  * natural units, action constant = 1; energies are angular frequencies,
    so a state picks up the phase exp(-i * E * t) per level;
  * global phase is kept as-is; states are compared through their
    projectors (``dynamics.no_jump_series``), which do not see it.
"""

from __future__ import annotations

import math
from collections import namedtuple

MAX_COUNT = 2**53  # the most atoms, shots or grid times one run takes: as many floats fill 64 PiB


class ConfigurationError(ValueError):
    """Raised when a run configuration violates its documented bounds."""


@classmethod
def _make_checked(cls, iterable):
    """``_make`` through a record's checking ``__new__``, which the stock one and so ``_replace`` skip."""
    return cls(*iterable)


class QubitState(namedtuple("QubitState", "a0 a1")):
    """Pure state a0 * |ground> + a1 * |excited>, two complex amplitudes."""

    __slots__ = ()

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


class AtomParams(namedtuple("AtomParams", "e0 e1 gamma")):
    """Level energies and spontaneous decay rate of the excited level.

    ``gamma`` is the inverse mean lifetime of the excited state; the
    transition (angular) frequency is ``e1 - e0``.
    """

    __slots__ = ()
    _make = _make_checked

    def __new__(cls, *args, **kwargs) -> AtomParams:
        self = super().__new__(cls, *args, **kwargs)
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
        return self

    @property
    def omega(self) -> float:
        """Transition angular frequency e1 - e0."""
        return self.e1 - self.e0


class DensitySeries(namedtuple("DensitySeries", "times rho00 rho11 rho01")):
    """Density matrices on a time grid, one numpy array per matrix entry.

    ``rho01`` is the ground-row, excited-column element, ``a0 * conj(a1)``
    for a pure state; it rotates as exp(+i * (e1 - e0) * t).
    """

    __slots__ = ()


def normalize(state: QubitState) -> QubitState:
    """Rescale to unit norm, preserving the relative phase.

    Raises ValueError naming the first non-finite amplitude, and
    ValueError("null state") for a zero-amplitude input, which signals a
    fully absorbed or blocked branch being misused as a state.
    The amplitudes are first scaled by a power of two, which is exact, so
    the norm neither overflows nor loses the bits of subnormal inputs.
    """
    for a in (state.a0, state.a1):
        if not (math.isfinite(a.real) and math.isfinite(a.imag)):
            raise ValueError(f"amplitudes must be finite, got {a}")
    parts = (state.a0.real, state.a0.imag, state.a1.real, state.a1.imag)
    e = math.frexp(max(map(abs, parts)))[1]
    a0r, a0i, a1r, a1i = (math.ldexp(x, -e) for x in parts)
    scaled = QubitState(complex(a0r, a0i), complex(a1r, a1i))
    n = scaled.norm
    if n == 0.0:
        raise ValueError("null state")
    return QubitState(scaled.a0 / n, scaled.a1 / n)
