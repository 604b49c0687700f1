"""Certified randomness bounds for two-qubit Bell experiments."""

from .analytic import PureStateResult, pure_state_alpha, pure_state_guessing
from .guessprob import (
    BellExpression,
    GuessReport,
    VerifyReport,
    bell_constrained_bound,
    chsh_coefficients,
    guessing_probability,
    ibeta_coefficients,
    tomographic_guessing,
    tomographic_program,
    verify_bell_expression,
)
from .qstate import (
    Behavior,
    DensityMatrix,
    MeasurementSet,
    behavior,
    behavior_from_csv,
    behavior_to_csv,
    beta_coefficient,
    canonical_settings,
    chsh_optimal_settings,
    chsh_value,
    ibeta_value,
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
    "PureStateResult",
    "VerifyReport",
    "behavior",
    "behavior_from_csv",
    "behavior_to_csv",
    "bell_constrained_bound",
    "beta_coefficient",
    "canonical_settings",
    "chsh_coefficients",
    "chsh_optimal_settings",
    "chsh_value",
    "guessing_probability",
    "ibeta_coefficients",
    "ibeta_value",
    "make_state",
    "optimize",
    "projector",
    "pure_state_alpha",
    "pure_state_guessing",
    "tomographic_guessing",
    "tomographic_optimize",
    "tomographic_program",
    "update_measurements",
    "verify_bell_expression",
]
