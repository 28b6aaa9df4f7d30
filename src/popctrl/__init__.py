"""popctrl: control synthesis for an age- and two-sex-structured population model.

Simulates the nonlinear transport system with its nonlocal birth coupling,
synthesizes approximate null controls by penalty minimization over frozen
fertility traces, restores the nonlinearity by damped fixed-point
iteration, and numerically probes the observability inequalities behind
the controllability time thresholds.
"""

from .adjoint import AdjointSolution, duality_residual, solve_adjoint
from .control import (ControlResult, EpsilonSchedule, PenaltyProblem,
                      evaluate_objective, minimize_penalty, objective_gradient,
                      synthesize_null_control)
from .errors import (ConfigurationError, ConsistencyError, DimensionError,
                     DomainError, NumericalFailure, PopctrlError)
from .fixed_point import (ContractionReport, FixedPointConfig, FixedPointState,
                          contraction_test, iterate_to_fixed_point, trace_map)
from .forward import FrozenOperator, StateSolution, fertile_male_integral, solve_forward
from .grid import (CharGrid, Field2D, build_grid, integrate_age, read_field_csv,
                   region_mask, write_field_csv)
from .model import (ControlGeometry, ControlMode, DemographicModel, Fertility,
                    RateFunction, ValidationReport, beta_eval, lambda_eval,
                    survival_ratio, validate_hypotheses)
from .observability import (ObservabilityReport, ThresholdReport,
                            estimate_observability_constant, forced_terminal_mask,
                            observability_ratio, threshold_margins,
                            unreachable_from_window)
from .scenario import Scenario, load_scenario, parse_scenario

__version__ = "0.1.0"

__all__ = [
    "AdjointSolution", "CharGrid", "ConfigurationError", "ConsistencyError",
    "ContractionReport", "ControlGeometry", "ControlMode", "ControlResult",
    "DemographicModel", "DimensionError", "DomainError", "EpsilonSchedule",
    "Fertility", "Field2D", "FixedPointConfig", "FixedPointState", "FrozenOperator",
    "NumericalFailure", "ObservabilityReport", "PenaltyProblem", "PopctrlError",
    "RateFunction", "Scenario", "StateSolution", "ThresholdReport",
    "ValidationReport", "beta_eval", "build_grid", "contraction_test",
    "duality_residual", "estimate_observability_constant", "evaluate_objective",
    "fertile_male_integral", "forced_terminal_mask", "integrate_age",
    "iterate_to_fixed_point", "lambda_eval", "load_scenario", "minimize_penalty",
    "objective_gradient", "observability_ratio", "parse_scenario",
    "read_field_csv", "region_mask", "solve_adjoint", "solve_forward",
    "survival_ratio", "synthesize_null_control", "threshold_margins",
    "trace_map", "unreachable_from_window", "validate_hypotheses",
    "write_field_csv",
]
