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
simple and bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .core import AtomParams, ConfigurationError, DensityMatrix2, DensitySeries

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class MasterRunConfig:
    """Fixed-step integration window: step, horizon and about how many times to record."""

    dt: float
    t_max: float
    points: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ConfigurationError(f"dt must be positive and finite, got {self.dt}")
        if not (math.isfinite(self.t_max) and self.t_max >= self.dt):
            raise ConfigurationError(
                f"t_max must be finite and at least one step, got t_max={self.t_max}, dt={self.dt}"
            )
        if not math.isfinite(self.t_max / self.dt):
            raise ConfigurationError(f"step count t_max/dt overflows: t_max={self.t_max}, dt={self.dt}")
        if self.points < 2:
            raise ConfigurationError(f"points must be >= 2, got {self.points}")

    @property
    def n_steps(self) -> int:
        """Number of fixed steps, t_max / dt rounded to the nearest integer."""
        return int(round(self.t_max / self.dt))

    @property
    def record_every(self) -> int:
        """Steps between recorded times, n_steps // (points - 1) but at least 1."""
        return max(1, self.n_steps // (self.points - 1))


def _step_rk4(
    rho00: float, rho11: float, rho01: complex, gamma: float, rate: complex, dt: float
) -> tuple[float, float, complex]:
    """One RK4 step, on plain numbers, of the generator in the module docstring; rate = i*omega - gamma/2.

    The IEEE operations and their order are those of four calls of that
    generator as ``tests/reference.py`` writes it (``lindblad_rhs``):
    adding the rho11 derivative -flow rounds as subtracting flow.
    """
    half = 0.5 * dt
    f1 = gamma * rho11
    c1 = rate * rho01
    f2 = gamma * (rho11 - half * f1)
    c2 = rate * (rho01 + half * c1)
    f3 = gamma * (rho11 - half * f2)
    c3 = rate * (rho01 + half * c2)
    f4 = gamma * (rho11 - dt * f3)
    c4 = rate * (rho01 + dt * c3)
    sixth = dt / 6.0
    flow = sixth * (f1 + 2.0 * f2 + 2.0 * f3 + f4)
    return rho00 + flow, rho11 - flow, rho01 + sixth * (c1 + 2.0 * c2 + 2.0 * c3 + c4)


def integrate_master(
    rho0: DensityMatrix2, params: AtomParams, cfg: MasterRunConfig
) -> DensitySeries:
    """Integrate from rho0 over [0, t_max], recording every cfg.record_every steps.

    The final step is always recorded.  Raises ConfigurationError when dt
    violates the stability bound 0.1 / max(gamma, e1 - e0).
    """
    bound = 0.1 / max(params.gamma, params.omega, 1e-12)
    if cfg.dt > bound:
        raise ConfigurationError(
            f"dt={cfg.dt} exceeds stability bound {bound:.3g} for gamma={params.gamma}, "
            f"omega={params.omega}"
        )
    import numpy as np

    n_steps, dt, gamma = cfg.n_steps, cfg.dt, params.gamma
    rate = 1j * params.omega - 0.5 * params.gamma
    # Step counts at the recorded points; each run of steps between two is one inner loop.
    marks = [0, *range(cfg.record_every, n_steps, cfg.record_every), n_steps]
    rho00, rho11, rho01 = rho0.rho00, rho0.rho11, rho0.rho01
    states = [(rho00, rho11, rho01)]
    for start, stop in zip(marks, marks[1:]):
        for _ in range(stop - start):
            rho00, rho11, rho01 = _step_rk4(rho00, rho11, rho01, gamma, rate, dt)
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
    import numpy as np

    if len(a.times) != len(b.times):
        raise ValueError(f"series lengths differ: {len(a.times)} vs {len(b.times)}")
    d01 = a.rho01 - b.rho01
    dist = np.stack([np.abs(a.rho00 - b.rho00), np.abs(a.rho11 - b.rho11), np.hypot(d01.real, d01.imag)])
    return float(np.max(dist))
