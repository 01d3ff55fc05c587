"""Stochastic trajectory simulator for a decaying two-level atom and a
two-beam-splitter interferometer, with a Lindblad master-equation oracle."""

__version__ = "0.4.0"

from .core import (
    EXCITED,
    GROUND,
    AtomParams,
    ConfigurationError,
    DensityMatrix2,
    QubitState,
    density_from_state,
    normalize,
)
from .dynamics import (
    no_jump_series,
    sample_jump_times,
)
from .ensemble import (
    EnsembleConfig,
    EnsembleStats,
    expected_blackened,
    run_ensemble,
    run_trajectories,
    trajectory_state_series,
)
from .interferometer import (
    EVConfig,
    ModeState,
    Outcome,
    apply_arm_phases,
    apply_blocker,
    beam_splitter,
    detection_probs,
    sample_photon,
)
from .master import (
    DensitySeries,
    MasterRunConfig,
    average_trajectories,
    integrate_master,
    lindblad_rhs,
    max_elementwise_deviation,
)

__all__ = [
    "__version__",
    "EXCITED",
    "GROUND",
    "AtomParams",
    "ConfigurationError",
    "DensityMatrix2",
    "QubitState",
    "density_from_state",
    "normalize",
    "no_jump_series",
    "sample_jump_times",
    "EnsembleConfig",
    "EnsembleStats",
    "expected_blackened",
    "run_ensemble",
    "run_trajectories",
    "trajectory_state_series",
    "EVConfig",
    "ModeState",
    "Outcome",
    "apply_arm_phases",
    "apply_blocker",
    "beam_splitter",
    "detection_probs",
    "sample_photon",
    "DensitySeries",
    "MasterRunConfig",
    "average_trajectories",
    "integrate_master",
    "lindblad_rhs",
    "max_elementwise_deviation",
]
