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
from typing import Sequence

import numpy as np

from .core import AtomParams, ConfigurationError, DensityMatrix2, QubitState


@dataclass(frozen=True)
class MasterRunConfig:
    """Fixed-step integration window: step, horizon, recording stride."""

    dt: float
    t_max: float
    record_every: int = 1

    def __post_init__(self) -> None:
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ConfigurationError(f"dt must be positive and finite, got {self.dt}")
        if not (math.isfinite(self.t_max) and self.t_max >= self.dt):
            raise ConfigurationError(
                f"t_max must be finite and at least one step, got t_max={self.t_max}, dt={self.dt}"
            )
        if not math.isfinite(self.t_max / self.dt):
            raise ConfigurationError(f"step count t_max/dt overflows: t_max={self.t_max}, dt={self.dt}")
        if self.record_every < 1:
            raise ConfigurationError(f"record_every must be >= 1, got {self.record_every}")

    @property
    def n_steps(self) -> int:
        """Number of fixed steps, t_max / dt rounded to the nearest integer."""
        return int(round(self.t_max / self.dt))


@dataclass(frozen=True)
class DensitySeries:
    """Density matrices on a time grid."""

    times: np.ndarray
    matrices: list[DensityMatrix2]

    @property
    def rho00(self) -> np.ndarray:
        return np.array([m.rho00 for m in self.matrices])

    @property
    def rho11(self) -> np.ndarray:
        return np.array([m.rho11 for m in self.matrices])

    @property
    def rho01(self) -> np.ndarray:
        return np.array([m.rho01 for m in self.matrices])


def lindblad_rhs(rho: DensityMatrix2, params: AtomParams) -> DensityMatrix2:
    """Time derivative of the density matrix (traceless by construction)."""
    flow = params.gamma * rho.rho11
    return DensityMatrix2(
        rho00=+flow,
        rho11=-flow,
        rho01=(1j * params.omega - 0.5 * params.gamma) * rho.rho01,
    )


def _step_rk4(rho: DensityMatrix2, params: AtomParams, dt: float) -> DensityMatrix2:
    k1 = lindblad_rhs(rho, params)
    k2 = lindblad_rhs(_shift(rho, k1, 0.5 * dt), params)
    k3 = lindblad_rhs(_shift(rho, k2, 0.5 * dt), params)
    k4 = lindblad_rhs(_shift(rho, k3, dt), params)
    sixth = dt / 6.0
    return DensityMatrix2(
        rho00=rho.rho00 + sixth * (k1.rho00 + 2.0 * k2.rho00 + 2.0 * k3.rho00 + k4.rho00),
        rho11=rho.rho11 + sixth * (k1.rho11 + 2.0 * k2.rho11 + 2.0 * k3.rho11 + k4.rho11),
        rho01=rho.rho01 + sixth * (k1.rho01 + 2.0 * k2.rho01 + 2.0 * k3.rho01 + k4.rho01),
    )


def _shift(rho: DensityMatrix2, d: DensityMatrix2, h: float) -> DensityMatrix2:
    return DensityMatrix2(rho.rho00 + h * d.rho00, rho.rho11 + h * d.rho11, rho.rho01 + h * d.rho01)


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
    n_steps = cfg.n_steps
    times = [0.0]
    matrices = [rho0]
    rho = rho0
    for k in range(1, n_steps + 1):
        rho = _step_rk4(rho, params, cfg.dt)
        if k % cfg.record_every == 0 or k == n_steps:
            times.append(k * cfg.dt)
            matrices.append(rho)
    return DensitySeries(times=np.array(times), matrices=matrices)


def average_trajectories(records: Sequence[Sequence[QubitState]]) -> list[DensityMatrix2]:
    """Equal-weight mean of pure-state projectors across trajectories.

    Each record is one trajectory's state on the shared time grid (with
    the ground state standing in after a jump).  The mean projector per
    grid point is the empirical density matrix.
    """
    if len(records) == 0:
        raise ValueError("cannot average an empty trajectory list")
    n_times = len(records[0])
    if any(len(rec) != n_times for rec in records):
        raise ValueError("trajectory records do not share a time grid")
    a0 = np.array([[s.a0 for s in rec] for rec in records])
    a1 = np.array([[s.a1 for s in rec] for rec in records])
    rho00 = np.mean(np.abs(a0) ** 2, axis=0)
    rho11 = np.mean(np.abs(a1) ** 2, axis=0)
    rho01 = np.mean(a0 * np.conj(a1), axis=0)
    return [
        DensityMatrix2(float(rho00[k]), float(rho11[k]), complex(rho01[k]))
        for k in range(n_times)
    ]


def max_elementwise_deviation(
    a: Sequence[DensityMatrix2], b: Sequence[DensityMatrix2]
) -> float:
    """Largest entry-wise distance between two density-matrix series.

    NaN if any entry is NaN, so a tolerance check on the result fails.
    """
    if len(a) != len(b):
        raise ValueError(f"series lengths differ: {len(a)} vs {len(b)}")
    distances = [
        abs(d)
        for ma, mb in zip(a, b)
        for d in (ma.rho00 - mb.rho00, ma.rho11 - mb.rho11, ma.rho01 - mb.rho01)
    ]
    if any(math.isnan(d) for d in distances):
        return math.nan
    return max(distances, default=0.0)
