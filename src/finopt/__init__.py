"""Optimal cooling-fin design toolkit.

Closed-form optimum of the convecting fin under a profile area budget, a
finite-volume solver for arbitrary thickness profiles, adjoint compliance
sensitivities, and a shape optimizer that solves the discrete optimality
conditions directly and certifies the result; the root of an optimized
long fin's temperature rediscovers the closed-form optimal length
numerically.
"""

from .analytic import (
    OptimalSolution,
    ResistanceBreakdown,
    duffin_equivalent_flux,
    optimal_compliance,
    optimal_lagrange_multiplier,
    optimal_length,
    optimal_resistance_breakdown,
    optimal_solution,
    optimal_temperature,
    optimal_thickness,
    resistance_breakdown,
)
from .errors import DomainError, OptimizationError, ProfileFormatError, SolverError
from .mesh import Mesh, TemperatureField, ThicknessProfile
from .optimizer import (
    InnerIteration,
    LongFin,
    OptimalityCertificate,
    OptimalityCheck,
    OptimizationReport,
    OptimizerOptions,
    evaluate_profile_optimality,
    feasible_constant_profile,
    optimize_length,
    optimize_profile,
)
from .problem import FinProblem
from .sensitivity import (
    SensitivityField,
    compliance_gradient,
    finite_difference_gradient,
    solve_adjoint,
)
from .solver import (
    ConvergenceStudy,
    assemble_fin_system,
    compliance,
    energy_balance_residual,
    refine_and_estimate_order,
    solve_temperature,
    thickness_floor,
    variational_compliance,
)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceStudy",
    "DomainError",
    "FinProblem",
    "InnerIteration",
    "LongFin",
    "Mesh",
    "OptimalityCertificate",
    "OptimalityCheck",
    "OptimalSolution",
    "OptimizationError",
    "OptimizationReport",
    "OptimizerOptions",
    "ProfileFormatError",
    "ResistanceBreakdown",
    "SensitivityField",
    "SolverError",
    "TemperatureField",
    "ThicknessProfile",
    "assemble_fin_system",
    "compliance",
    "compliance_gradient",
    "duffin_equivalent_flux",
    "energy_balance_residual",
    "evaluate_profile_optimality",
    "feasible_constant_profile",
    "finite_difference_gradient",
    "optimal_compliance",
    "optimal_lagrange_multiplier",
    "optimal_length",
    "optimal_resistance_breakdown",
    "optimal_solution",
    "optimal_temperature",
    "optimal_thickness",
    "optimize_length",
    "optimize_profile",
    "refine_and_estimate_order",
    "resistance_breakdown",
    "solve_adjoint",
    "solve_temperature",
    "thickness_floor",
    "variational_compliance",
]
