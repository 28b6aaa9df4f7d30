"""popctrl: control synthesis for an age- and two-sex-structured population model.

Simulates the nonlinear transport system with its nonlocal birth coupling,
synthesizes approximate null controls by penalty minimization over frozen
fertility traces, restores the nonlinearity by damped fixed-point
iteration, and numerically probes the observability inequalities behind
the controllability time thresholds.
"""

from .adjoint import AdjointSolution, duality_residual, solve_adjoint
from .control import (ControlResult, EpsilonSchedule, PenaltyProblem, minimize_penalty,
                      synthesize_null_control)
from .errors import (ConfigurationError, ConsistencyError, DimensionError,
                     DomainError, NumericalFailure, PopctrlError)
from .fixed_point import (ContractionConfig, ContractionReport, FixedPointConfig,
                          FixedPointState, contraction_test, iterate_to_fixed_point,
                          trace_map)
from .forward import FrozenOperator, StateSolution, solve_forward
from .grid import (CharGrid, Field2D, build_grid, integrate_age, read_field_csv,
                   region_mask, write_field_csv)
from .model import (ControlGeometry, ControlMode, DemographicModel, Fertility,
                    RateFunction, ValidationReport, validate_hypotheses)
from .observability import (ObservabilityConfig, ObservabilityReport,
                            estimate_observability_constant, observability_ratio)
from .scenario import Scenario, load_scenario, parse_scenario

__version__ = "0.1.0"

__all__ = [
    "AdjointSolution", "CharGrid", "ConfigurationError", "ConsistencyError",
    "ContractionConfig", "ContractionReport", "ControlGeometry", "ControlMode",
    "ControlResult", "DemographicModel", "DimensionError", "DomainError",
    "EpsilonSchedule", "Fertility", "Field2D", "FixedPointConfig", "FixedPointState",
    "FrozenOperator", "NumericalFailure", "ObservabilityConfig", "ObservabilityReport",
    "PenaltyProblem", "PopctrlError", "RateFunction", "Scenario", "StateSolution",
    "ValidationReport", "build_grid", "contraction_test", "duality_residual",
    "estimate_observability_constant", "integrate_age", "iterate_to_fixed_point",
    "load_scenario", "minimize_penalty", "observability_ratio", "parse_scenario",
    "read_field_csv", "region_mask", "solve_adjoint", "solve_forward",
    "synthesize_null_control", "trace_map", "validate_hypotheses", "write_field_csv",
]
