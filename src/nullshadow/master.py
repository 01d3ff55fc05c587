"""Lindblad master-equation oracle for the damped two-level atom.

This integrator is the deterministic cross-check for the stochastic
trajectories: averaging many jump/no-jump pure-state histories must
reproduce the density matrix evolved here.  The generator is

    d rho11 / dt = -gamma * rho11
    d rho00 / dt = +gamma * rho11
    d rho01 / dt = (+i (e1 - e0) - gamma / 2) * rho01

in the fixed ground-row/excited-column coherence convention.  Stepping
is classical fixed-step RK4; the system is a three-real-dimension
linear ODE, so a fixed step within the documented stability bound is
simple and bit-reproducible.  One step multiplies each mode by RK4's
stability polynomial R(z) (Hairer & Wanner, Solving ODEs II, IV.2), with
z = -gamma dt for rho11 and (i omega - gamma / 2) dt for rho01: it adds
y (R - 1), worked out once per window, to y.
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import _np as np
from .core import AtomParams, ConfigurationError, DensitySeries, _make_checked

MAX_STEPS = 10**8  # the most RK4 steps one window may take, 20-30 s of stepping at 0.2-0.3 us a step


class MasterRunConfig(namedtuple("MasterRunConfig", "dt t_max points")):
    """Fixed-step integration window: step, horizon and about how many times to record."""

    __slots__ = ()
    _make = _make_checked

    def __new__(cls, *args, **kwargs) -> MasterRunConfig:
        self = super().__new__(cls, *args, **kwargs)
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ConfigurationError(f"dt must be positive and finite, got {self.dt}")
        if not (math.isfinite(self.t_max) and self.t_max >= self.dt):
            raise ConfigurationError(
                f"t_max must be finite and at least one step, got t_max={self.t_max}, dt={self.dt}"
            )
        if self.t_max / self.dt > MAX_STEPS:
            raise ConfigurationError(f"step count t_max/dt={self.t_max / self.dt:.3g} exceeds {MAX_STEPS}")
        if self.points < 2:
            raise ConfigurationError(f"points must be >= 2, got {self.points}")
        return self

    @property
    def n_steps(self) -> int:
        """Number of fixed steps, t_max / dt rounded to the nearest integer."""
        return int(round(self.t_max / self.dt))

    @property
    def record_every(self) -> int:
        """Steps between recorded times, n_steps // (points - 1) but at least 1."""
        return max(1, self.n_steps // (self.points - 1))


def _rk4_increment(z: complex) -> complex:
    """R(z) - 1 for RK4's stability polynomial R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24, by Horner.

    One RK4 step of y' = (z / dt) * y multiplies y by R(z).  A rounded R
    near 1 keeps few digits of the small R - 1, and that error grows as
    k * delta over k steps; adding y * (R - 1) to y keeps them all.
    """
    return z * (1.0 + z * (0.5 + z * (1.0 / 6.0 + z / 24.0)))


def _step_rk4(
    rho00: float, rho11: float, rho01: complex, shrink: float, turn: complex
) -> tuple[float, float, complex]:
    """One RK4 step, on plain numbers, of the generator in the module docstring.

    ``shrink`` is 1 - R(-gamma dt) and ``turn`` is R((i omega - gamma / 2) dt) - 1,
    so the step is one multiply-add per entry.
    """
    flow = rho11 * shrink
    return rho00 + flow, rho11 - flow, rho01 + rho01 * turn


def integrate_master(
    rho0: tuple[float, float, complex], params: AtomParams, cfg: MasterRunConfig
) -> DensitySeries:
    """Integrate from rho0 over [0, t_max], recording every cfg.record_every steps.

    ``rho0`` is the start (rho00, rho11, rho01), pure or mixed, with the
    coherence of ``DensitySeries.rho01``.  The final step is always
    recorded.  Raises ConfigurationError when dt violates the stability
    bound 0.1 / max(gamma, e1 - e0).
    """
    bound = 0.1 / max(params.gamma, params.omega, 1e-12)
    if cfg.dt > bound:
        raise ConfigurationError(
            f"dt={cfg.dt} exceeds stability bound {bound:.3g} for gamma={params.gamma}, "
            f"omega={params.omega}"
        )
    n_steps, dt = cfg.n_steps, cfg.dt
    shrink = -_rk4_increment(-params.gamma * dt)
    turn = _rk4_increment((1j * params.omega - 0.5 * params.gamma) * dt)
    # Step counts at the recorded points; each run of steps between two is one inner loop.
    marks = [0, *range(cfg.record_every, n_steps, cfg.record_every), n_steps]
    rho00, rho11, rho01 = rho0
    states = [(rho00, rho11, rho01)]
    for start, stop in zip(marks, marks[1:]):
        for _ in range(stop - start):
            rho00, rho11, rho01 = _step_rk4(rho00, rho11, rho01, shrink, turn)
        states.append((rho00, rho11, rho01))
    rho00, rho11, rho01 = zip(*states)
    return DensitySeries(
        times=np.array(marks) * dt,
        rho00=np.array(rho00),
        rho11=np.array(rho11),
        rho01=np.array(rho01, dtype=complex),
    )


def average_trajectories(jumped: np.ndarray, conditioned: DensitySeries) -> DensitySeries:
    """Equal-weight mean of the trajectories' pure-state projectors.

    A fraction F = ``jumped`` of the trajectories sits in the ground state
    and the rest share the ``conditioned`` projector |psi_c><psi_c|, so the
    empirical density matrix is F |g><g| + (1 - F) |psi_c><psi_c|.
    """
    alive = 1.0 - jumped
    return DensitySeries(
        times=conditioned.times,
        rho00=jumped + alive * conditioned.rho00,
        rho11=alive * conditioned.rho11,
        rho01=alive * conditioned.rho01,
    )


def max_elementwise_deviation(a: DensitySeries, b: DensitySeries) -> float:
    """Largest entry-wise distance between two density-matrix series.

    NaN if any entry is NaN, so a tolerance check on the result fails.  Unlike
    numpy's complex ``abs``, ``np.hypot`` rounds alike on every SIMD target.
    """
    if len(a.times) != len(b.times):
        raise ValueError(f"series lengths differ: {len(a.times)} vs {len(b.times)}")
    d01 = a.rho01 - b.rho01
    dist = np.stack([np.abs(a.rho00 - b.rho00), np.abs(a.rho11 - b.rho11), np.hypot(d01.real, d01.imag)])
    return float(np.max(dist))
