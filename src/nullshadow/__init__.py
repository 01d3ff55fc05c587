"""Stochastic trajectory simulator for a decaying two-level atom and a
two-beam-splitter interferometer, with a Lindblad master-equation oracle.

Every module is imported here, but numpy is imported in one place,
:mod:`nullshadow._np`, at the first attribute that a function reads from
it: importing the package, ``--version``, ``--help``, ``ev`` without
``--shots``, ``conditional-state`` and a configuration error caught
before any array is built never load it.
"""

__version__ = "0.19.0"

from .core import (
    AtomParams,
    ConfigurationError,
    DensitySeries,
    QubitState,
    normalize,
)
from .dynamics import (
    no_jump_series,
    sample_jump_times,
)
from .ensemble import (
    EnsembleConfig,
    EnsembleStats,
    run_ensemble,
    run_trajectories,
    trajectory_state_series,
)
from .interferometer import (
    EVConfig,
    count_outcomes,
    detection_probs,
)
from .master import (
    MasterRunConfig,
    average_trajectories,
    integrate_master,
    max_elementwise_deviation,
)

__all__ = [
    "__version__",
    "AtomParams",
    "ConfigurationError",
    "QubitState",
    "normalize",
    "no_jump_series",
    "sample_jump_times",
    "EnsembleConfig",
    "EnsembleStats",
    "run_ensemble",
    "run_trajectories",
    "trajectory_state_series",
    "EVConfig",
    "count_outcomes",
    "detection_probs",
    "DensitySeries",
    "MasterRunConfig",
    "average_trajectories",
    "integrate_master",
    "max_elementwise_deviation",
]
