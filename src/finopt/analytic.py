"""Closed-form optimal fin: shape, temperature, compliance, resistances.

For the convecting fin under a profile area budget, minimizing thermal
compliance (root excess temperature times heat input) gives a quadratic
thickness taper that pinches to zero at the tip,

    t(x) = (h/k) (L - x)^2,

a linear temperature drop theta(x) = theta0 (1 - x/L), and an optimal
length L = (3 k area / h)^(1/3).  At that optimum the conductive and
convective parts of the fin resistance are equal, so the resistance-based
Biot number is exactly one; fins of any other shape break that balance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .problem import FinProblem

__all__ = [
    "OptimalSolution",
    "ResistanceBreakdown",
    "duffin_equivalent_flux",
    "optimal_compliance",
    "optimal_lagrange_multiplier",
    "optimal_length",
    "optimal_resistance_breakdown",
    "optimal_solution",
    "optimal_temperature",
    "optimal_thickness",
    "resistance_breakdown",
]


def optimal_length(problem: FinProblem) -> float:
    """Compliance-minimizing fin length for the given area budget.

    Raises DomainError where the length underflows to zero or overflows:
    there is no fin to sample or mesh.
    """
    L = float(np.cbrt(3.0 * problem.k * problem.area / problem.h))
    if not 0.0 < L < math.inf:
        raise DomainError(f"the closed-form length L* = (3 k area / h)^(1/3) "
                          f"is {L}, outside float64's range")
    return L


def _resolve_length(problem: FinProblem, length: float | None) -> float:
    if length is None:
        return optimal_length(problem)
    if not length > 0.0:
        raise DomainError(f"length must be positive, got {length}")
    return float(length)


def _checked_positions(x, length: float) -> np.ndarray:
    xv = np.asarray(x, dtype=np.float64)
    if np.any(xv < 0.0) or np.any(xv > length):
        raise DomainError(f"positions must lie in [0, {length}]")
    return xv


def optimal_thickness(problem: FinProblem, x, length: float | None = None):
    """Optimal thickness profile t(x) = (h/k)(L - x)^2; zero exactly at x = L.

    The square is d * d, which gives scalars and arrays the same bits.
    """
    L = _resolve_length(problem, length)
    d = L - _checked_positions(x, L)
    t = (problem.h / problem.k) * (d * d)
    return float(t) if d.ndim == 0 else t


def optimal_temperature(problem: FinProblem, x, length: float | None = None):
    """Optimal excess temperature, linear from theta0 at the root to 0 at the tip."""
    L = _resolve_length(problem, length)
    xv = _checked_positions(x, L)
    theta0 = problem.q0 / (problem.h * L)
    theta = theta0 * (1.0 - xv / L)
    return float(theta) if xv.ndim == 0 else theta


def optimal_compliance(problem: FinProblem, length: float | None = None) -> float:
    """Thermal compliance q0 * theta0 = q0^2 / (h L) of the optimal fin."""
    L = _resolve_length(problem, length)
    return (problem.q0 * problem.q0) / (problem.h * L)


def optimal_lagrange_multiplier(problem: FinProblem, length: float | None = None) -> float:
    """Marginal compliance value of area at the optimum: k q0^2 / (h L^2)^2.

    Equals k (dtheta/dx)^2 for the optimal fin's constant temperature
    gradient; the shape optimizer's multiplier should land here.  Raises
    DomainError where it overflows.
    """
    L = _resolve_length(problem, length)
    hl2 = problem.h * L * L
    try:
        multiplier = problem.k * (problem.q0 / hl2) ** 2
    except (OverflowError, ZeroDivisionError):
        multiplier = math.inf
    if not multiplier < math.inf:
        raise DomainError(f"the closed-form Lagrange multiplier k q0^2 / (h L^2)^2 "
                          f"is {multiplier}, outside float64's range")
    return multiplier


def duffin_equivalent_flux(problem: FinProblem) -> float:
    """Root heat input (3 h^2 k area)^(1/3) that normalizes theta0 to 1 K.

    Numerically identical to h * optimal_length(problem); driving the
    optimal fin with this q0 makes the root excess temperature unity.
    """
    return float(np.cbrt(3.0 * problem.h * problem.h * problem.k * problem.area))


@dataclass(frozen=True)
class ResistanceBreakdown:
    """Fin resistance split into conductive and convective parts.

    r_fin is stored as r_cond + r_conv, so the decomposition identity is
    exact in floating point.  biot = r_cond / r_conv equals one exactly for
    the closed-form optimum and deviates for any other design.
    """

    r_fin: float
    r_cond: float
    r_conv: float
    biot: float


def _split(r_fin: float, r_conv: float) -> ResistanceBreakdown:
    """The breakdown of r_fin against r_conv, with r_fin stored as r_cond + r_conv."""
    r_cond = r_fin - r_conv
    return ResistanceBreakdown(
        r_fin=r_cond + r_conv,
        r_cond=r_cond,
        r_conv=r_conv,
        biot=r_cond / r_conv,
    )


def resistance_breakdown(
    problem: FinProblem, compliance: float, length: float
) -> ResistanceBreakdown:
    """Split a fin resistance compliance/q0^2 against the convective floor 1/(2hL)."""
    if problem.q0 == 0.0:
        raise DomainError("resistance is undefined for q0 = 0")
    if not compliance >= 0.0:
        raise DomainError(f"compliance must be nonnegative, got {compliance}")
    if not length > 0.0:
        raise DomainError(f"length must be positive, got {length}")
    return _split(compliance / (problem.q0 * problem.q0), 1.0 / (2.0 * problem.h * length))


def optimal_resistance_breakdown(
    problem: FinProblem, length: float | None = None
) -> ResistanceBreakdown:
    """Resistance split of the optimal fin, computed from its closed form.

    Evaluates r_fin = 1/(hL) and r_conv = 1/(2hL) from the same hL product;
    halving and the same-binade subtraction are exact in floating point, so
    biot comes out as exactly 1.0 for every valid problem.
    """
    hl = problem.h * _resolve_length(problem, length)
    return _split(1.0 / hl, 1.0 / (2.0 * hl))


@dataclass(frozen=True)
class OptimalSolution:
    """Bundle of the closed-form optimum for one problem instance."""

    problem: FinProblem
    length: float
    root_thickness: float
    root_temp_diff: float
    compliance: float

    def thickness(self, x):
        return optimal_thickness(self.problem, x, self.length)

    def temperature(self, x):
        return optimal_temperature(self.problem, x, self.length)

    def resistances(self) -> ResistanceBreakdown:
        return optimal_resistance_breakdown(self.problem, self.length)


def optimal_solution(problem: FinProblem) -> OptimalSolution:
    """The closed-form optimum; its root values are the closed forms at x = 0."""
    L = optimal_length(problem)
    return OptimalSolution(
        problem=problem,
        length=L,
        root_thickness=optimal_thickness(problem, 0.0, L),
        root_temp_diff=optimal_temperature(problem, 0.0, L),
        compliance=optimal_compliance(problem, L),
    )
