"""Two-beam-splitter interferometer with an optional absorbing blocker.

One photon, two rails.  The pipeline is: first splitter, per-arm
propagation phases, optional blocker in one arm, second splitter, then
detectors D1 (rail a) and D2 (rail b).  A blocker converts the
amplitude in its arm into accumulated absorption probability, so
``|amp_a|^2 + |amp_b|^2 + p_absorbed`` stays 1.  ``detection_probs``
evaluates the whole pipeline as one closed form on two complex
amplitudes.

Conventions, fixed once:
  * a splitter of power transmissivity T applies
    [[sqrt(T), i sqrt(1-T)], [i sqrt(1-T), sqrt(T)]] - reflection
    carries the phase i;
  * the photon is launched in rail b.  With balanced splitters and equal
    arm phases the device then routes everything to rail a, and D1 is
    the detector on that always-bright port.  A click at D2 can
    therefore only come from broken interference, i.e. it reveals the
    blocker without the photon having been absorbed by it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Literal, NamedTuple

import numpy as np

from .core import ConfigurationError

BlockerArm = Literal["a", "b"]

# Where a photon can end up, in the order of DetectionProbs and of the
# inverse-transform thresholds.
OUTCOMES = ("D1", "D2", "Absorbed")


@dataclass(frozen=True)
class EVConfig:
    """Interferometer settings; 0.5 transmissivity means a balanced splitter."""

    splitter1_transmissivity: float = 0.5
    splitter2_transmissivity: float = 0.5
    phase_a: float = 0.0
    phase_b: float = 0.0
    blocker: BlockerArm | None = None

    def __post_init__(self) -> None:
        for name, t in (
            ("splitter1_transmissivity", self.splitter1_transmissivity),
            ("splitter2_transmissivity", self.splitter2_transmissivity),
        ):
            if not 0.0 <= t <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1], got {t}")
        for name, phase in (("phase_a", self.phase_a), ("phase_b", self.phase_b)):
            if not math.isfinite(phase):
                raise ConfigurationError(f"{name} must be finite, got {phase}")
        if self.blocker not in (None, "a", "b"):
            raise ConfigurationError(f"blocker must be None, 'a' or 'b', got {self.blocker!r}")


class DetectionProbs(NamedTuple):
    p_d1: float
    p_d2: float
    p_absorbed: float


def detection_probs(cfg: EVConfig) -> DetectionProbs:
    """Exact outcome probabilities (D1, D2, absorbed) for one photon."""
    # Splitter 1 on a photon in rail b, then the arm phases.
    a = 1j * math.sqrt(1.0 - cfg.splitter1_transmissivity) * cmath.exp(1j * cfg.phase_a)
    b = math.sqrt(cfg.splitter1_transmissivity) * cmath.exp(1j * cfg.phase_b)
    p_absorbed = 0.0
    if cfg.blocker == "a":
        a, p_absorbed = 0j, abs(a) ** 2
    elif cfg.blocker == "b":
        b, p_absorbed = 0j, abs(b) ** 2
    ct = math.sqrt(cfg.splitter2_transmissivity)
    cr = 1j * math.sqrt(1.0 - cfg.splitter2_transmissivity)
    return DetectionProbs(abs(ct * a + cr * b) ** 2, abs(cr * a + ct * b) ** 2, p_absorbed)


def count_outcomes(probs: DetectionProbs, u: np.ndarray) -> tuple[int, int, int]:
    """Photon counts (D1, D2, absorbed) for one uniform variate per photon.

    Inverse transform in the order of OUTCOMES: u < p_d1 is a D1 click,
    u < p_d1 + p_d2 a D2 click, and the rest is absorbed.
    """
    u = np.asarray(u, dtype=float)
    if u.size and not (u.min() >= 0.0 and u.max() < 1.0):
        raise ValueError("uniform variates must lie in [0, 1)")
    n_d1 = int(np.count_nonzero(u < probs.p_d1))
    n_d2 = int(np.count_nonzero(u < probs.p_d1 + probs.p_d2)) - n_d1
    return n_d1, n_d2, u.size - n_d1 - n_d2
