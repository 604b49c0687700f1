"""Certified randomness bounds for two-qubit Bell experiments."""

from .guessprob import (
    BellExpression,
    GuessReport,
    TomographicProgram,
    bell_constrained_bound,
    chsh_coefficients,
    guessing_probability,
    ibeta_coefficients,
    tomographic_guessing,
)
from .qstate import (
    Behavior,
    DensityMatrix,
    MeasurementSet,
    behavior,
    behavior_from_csv,
    behavior_to_csv,
    canonical_settings,
    chsh_optimal_settings,
    chsh_value,
    make_state,
    projector,
)
from .seesaw import OptResult, optimize, tomographic_optimize, update_measurements

__version__ = "0.1.0"

__all__ = [
    "Behavior",
    "BellExpression",
    "DensityMatrix",
    "GuessReport",
    "MeasurementSet",
    "OptResult",
    "TomographicProgram",
    "behavior",
    "behavior_from_csv",
    "behavior_to_csv",
    "bell_constrained_bound",
    "canonical_settings",
    "chsh_coefficients",
    "chsh_optimal_settings",
    "chsh_value",
    "guessing_probability",
    "ibeta_coefficients",
    "make_state",
    "optimize",
    "projector",
    "tomographic_guessing",
    "tomographic_optimize",
    "update_measurements",
]
