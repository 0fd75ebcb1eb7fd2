"""Adjoint-based sensitivity of compliance to the thickness profile.

The compliance C = q0 * theta(0) of the discrete model A theta = b has the
adjoint system A^T w = dC/dtheta = q0 * e0.  The fin operator is stored
once, as row sums and one off-diagonal (see kernels), so A^T = A by
construction, and the load coincides with the heat input: w = theta.  The
optimizer uses this and passes its temperature as the adjoint.
solve_adjoint instead solves the system with the node order reversed, so
the kernel eliminates tip first and the root's load row comes last; w and
theta then differ by the rounding of two elimination orders, about 1e-15
of theta(0), and a fault of either order shows as a self-adjoint gap.

Each face value enters the matrix only through its own link conductance,
so the gradient is diagonal in the face index:

    dC/dt_face = -k * (dtheta/dx) * (dw/dx) * dx   per face,

nonpositive for any admissible profile (more material never hurts).  At
the optimum the density k (dtheta/dx)^2 is the same constant on every face
of the support; that constant is the area constraint's multiplier,
reported here as lagrange_shift.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .mesh import Mesh, TemperatureField, ThicknessProfile
from .problem import FinProblem
from .solver import _checked_solve, compliance, solve_temperature

__all__ = [
    "SensitivityField",
    "compliance_gradient",
    "finite_difference_gradient",
    "solve_adjoint",
]

#: Fraction of the length next to the tip excluded from optimality metrics:
#: the thickness vanishes toward the tip, so a sampled taper is least
#: resolved there, and a fin longer than its support has zero faces there,
#: on which the pointwise conditions do not hold.
TIP_EXCLUSION = 0.1


def _leading_outside_tip(mesh: Mesh, offset: float, count: int) -> int:
    """How many of the positions (i + offset) dx, i < count, are outside the
    tip exclusion zone.

    The positions grow with i, so these are the leading ones.  Each is
    rounded as Mesh.faces (offset 0.5) and Mesh.nodes (whole offsets)
    round it, so the count matches a mask over those arrays exactly.
    """
    dx, limit = mesh.dx, (1.0 - TIP_EXCLUSION) * mesh.length
    i = min(max(int(limit / dx - offset), 0), count)
    while i < count and (i + offset) * dx <= limit:
        i += 1
    while i > 0 and (i - 1 + offset) * dx > limit:
        i -= 1
    return i


def interior_face_count(mesh: Mesh) -> int:
    """Number of faces outside the tip exclusion zone; they lead the mesh."""
    return _leading_outside_tip(mesh, 0.5, mesh.n_cells)


def interior_node_count(mesh: Mesh) -> int:
    """Number of interior nodes 1, 2, ... outside the tip exclusion zone."""
    return _leading_outside_tip(mesh, 1.0, mesh.n_cells - 1)


def solve_adjoint(problem: FinProblem, profile: ThicknessProfile) -> TemperatureField:
    """Solve the adjoint system for the compliance objective.

    The adjoint's load dC/dtheta_0 = q0 for C = q0 * theta_0 is the heat
    input, and A^T = A, so w solves the primal's system.  It is solved with
    the node order reversed, tip first, through the primal's checks: the
    kernel eliminates in another order, so w - theta is the solve's
    rounding, and a fault of either order shows as a self-adjoint gap.
    """
    return _checked_solve(problem, profile, reverse=True)


@dataclass(frozen=True, eq=False)
class SensitivityField:
    """Per-face compliance gradient plus the implied constraint multiplier.

    values[f] is dC/dt at face f (nonpositive); lagrange_shift is the mean
    gradient density k (dtheta/dx)(dw/dx) over the faces outside the tip
    exclusion zone, the constant the density equals at an optimum.
    """

    mesh: Mesh
    values: np.ndarray = field(repr=False)
    lagrange_shift: float

    @property
    def density(self) -> np.ndarray:
        """Gradient density per unit thickness and length: -values / dx."""
        d = -self.values / self.mesh.dx
        d.flags.writeable = False
        return d


def compliance_gradient(
    problem: FinProblem,
    profile: ThicknessProfile,
    primal: TemperatureField,
    adjoint: TemperatureField,
) -> SensitivityField:
    """Exact gradient of discrete compliance with respect to face thickness."""
    mesh = profile.mesh
    if primal.mesh != mesh or adjoint.mesh != mesh:
        raise DomainError("profile, primal, and adjoint must share one mesh")
    dx = mesh.dx
    dtheta = np.diff(primal.values) / dx
    dw = np.diff(adjoint.values) / dx
    density = problem.k * dtheta * dw
    values = -(density * dx)
    shift = float(np.mean(density[: interior_face_count(mesh)]))
    return SensitivityField(mesh=mesh, values=values, lagrange_shift=shift)


def finite_difference_gradient(
    problem: FinProblem,
    profile: ThicknessProfile,
    face_index: int,
    step: float,
) -> float:
    """Central-difference check value for one face of the gradient.

    Symmetric in the sign of step by construction.  Both perturbed
    profiles must keep the face nonnegative.
    """
    mesh = profile.mesh
    if not -mesh.n_cells <= face_index < mesh.n_cells:
        raise DomainError(f"face index {face_index} out of range")
    if not (np.isfinite(step) and step != 0.0):
        raise DomainError(f"step must be a nonzero finite number, got {step}")
    if profile.values[face_index] - abs(step) < 0.0:
        raise DomainError(
            "perturbed profile would have a negative face; use a smaller step"
        )

    plus = np.array(profile.values)
    plus[face_index] += step
    minus = np.array(profile.values)
    minus[face_index] -= step
    # Fresh copies: the perturbed profiles keep them without another copy.
    plus.flags.writeable = minus.flags.writeable = False
    c_plus = compliance(problem, solve_temperature(problem, profile.with_values(plus)))
    c_minus = compliance(problem, solve_temperature(problem, profile.with_values(minus)))
    return (c_plus - c_minus) / (2.0 * step)
