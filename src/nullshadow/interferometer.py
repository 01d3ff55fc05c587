"""Two-beam-splitter interferometer with an optional absorbing blocker.

One photon, two rails.  The pipeline is: first splitter, per-arm
propagation phases, optional blocker in one arm, second splitter, then
detectors D1 (rail a) and D2 (rail b).  A blocker converts the
amplitude in its arm into accumulated absorption probability, so
``|amp_a|^2 + |amp_b|^2 + p_absorbed`` stays exactly 1 through every
stage.

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
import enum
import math
from dataclasses import dataclass
from typing import Literal, NamedTuple

from .core import ConfigurationError

BlockerArm = Literal["a", "b"]


class Outcome(enum.Enum):
    """Where one photon ends up."""

    D1 = "D1"
    D2 = "D2"
    ABSORBED = "Absorbed"


@dataclass(frozen=True)
class ModeState:
    """Photon amplitudes on the two rails plus absorbed probability."""

    amp_a: complex
    amp_b: complex
    p_absorbed: float = 0.0

    @property
    def total_probability(self) -> float:
        return abs(self.amp_a) ** 2 + abs(self.amp_b) ** 2 + self.p_absorbed


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


def beam_splitter(m: ModeState, transmissivity: float) -> ModeState:
    """Mix the two rails unitarily; absorbed probability is untouched."""
    if not 0.0 <= transmissivity <= 1.0:
        raise ConfigurationError(f"transmissivity must be in [0, 1], got {transmissivity}")
    ct = math.sqrt(transmissivity)
    cr = 1j * math.sqrt(1.0 - transmissivity)
    return ModeState(
        amp_a=ct * m.amp_a + cr * m.amp_b,
        amp_b=cr * m.amp_a + ct * m.amp_b,
        p_absorbed=m.p_absorbed,
    )


def apply_arm_phases(m: ModeState, phase_a: float, phase_b: float) -> ModeState:
    """Propagation phases picked up in the two arms (fiber length in radians)."""
    return ModeState(
        amp_a=m.amp_a * cmath.exp(1j * phase_a),
        amp_b=m.amp_b * cmath.exp(1j * phase_b),
        p_absorbed=m.p_absorbed,
    )


def apply_blocker(m: ModeState, arm: BlockerArm) -> ModeState:
    """Absorb whatever amplitude sits in the blocked arm."""
    if arm == "a":
        return ModeState(0.0j, m.amp_b, m.p_absorbed + abs(m.amp_a) ** 2)
    if arm == "b":
        return ModeState(m.amp_a, 0.0j, m.p_absorbed + abs(m.amp_b) ** 2)
    raise ConfigurationError(f"blocker arm must be 'a' or 'b', got {arm!r}")


def detection_probs(cfg: EVConfig) -> DetectionProbs:
    """Exact outcome probabilities (D1, D2, absorbed) for one photon."""
    m = ModeState(amp_a=0.0j, amp_b=1.0 + 0.0j)  # source feeds rail b
    m = beam_splitter(m, cfg.splitter1_transmissivity)
    m = apply_arm_phases(m, cfg.phase_a, cfg.phase_b)
    if cfg.blocker is not None:
        m = apply_blocker(m, cfg.blocker)
    m = beam_splitter(m, cfg.splitter2_transmissivity)
    return DetectionProbs(
        p_d1=abs(m.amp_a) ** 2,
        p_d2=abs(m.amp_b) ** 2,
        p_absorbed=m.p_absorbed,
    )


def sample_photon(cfg: EVConfig, u: float) -> Outcome:
    """Draw one photon fate by inverse transform in the order D1, D2, absorbed."""
    if not 0.0 <= u < 1.0:
        raise ValueError(f"uniform variate must be in [0, 1), got {u}")
    probs = detection_probs(cfg)
    if u < probs.p_d1:
        return Outcome.D1
    if u < probs.p_d1 + probs.p_d2:
        return Outcome.D2
    return Outcome.ABSORBED
