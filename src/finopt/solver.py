"""Finite-volume solution of the fin conduction-convection balance.

Flux form on the staggered mesh: the conductance of the link between
nodes i and i+1 is k * t_face / dx, convection 2h is lumped over each
node's control volume (trapezoid weights, half cells at the ends), the
root carries the prescribed heat input q0 and the tip is insulated.  The
result is a symmetric positive definite tridiagonal system solved directly
by the tridiagonal kernel.  A zero face thickness is admitted: it cuts the
link, and the nodes it cuts off from the root stay at theta = 0.

Summing the discrete equations telescopes the conductive fluxes away, so
q0 = 2h * sum(theta_i * w_i) holds as a discrete identity; the energy
balance residual below measures only round-off of the direct solve.  The
energy form of the compliance sums two arrays of nonnegative terms with
numpy's pairwise summation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import kernels
from .errors import DomainError, SolverError
from .mesh import Mesh, TemperatureField, ThicknessProfile
from .problem import FinProblem

__all__ = [
    "ConvergenceStudy",
    "assemble_fin_system",
    "compliance",
    "energy_balance_residual",
    "refine_and_estimate_order",
    "solve_temperature",
    "thickness_floor",
    "variational_compliance",
]


def thickness_floor(problem: FinProblem, length: float) -> float:
    """Minimum face thickness admitted by the discrete system: 0.

    A zero face zeroes one link conductance and leaves every row sum at the
    convection 2h * w_i > 0, so the system stays positive definite and the
    nodes past the face get no heat.
    """
    if not length > 0.0:
        raise DomainError(f"length must be positive, got {length}")
    return 0.0


def assemble_fin_system(
    problem: FinProblem, profile: ThicknessProfile
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Build (rowsum, off, rhs) of the SPD tridiagonal system for theta.

    The row sums are the convection 2h * w_i at each node and the
    off-diagonal is minus the link conductances k * t_face / dx: the
    conductive fluxes cancel across each row, so the diagonal is never
    formed (see kernels).
    """
    mesh = profile.mesh
    convection = 2.0 * problem.h * mesh.node_weights
    off = -(problem.k * profile.values / mesh.dx)
    rhs = np.zeros(mesh.n_nodes, dtype=np.float64)
    rhs[0] = problem.q0
    return convection, off, rhs


def solve_temperature(problem: FinProblem, profile: ThicknessProfile) -> TemperatureField:
    """Solve for the excess temperature on the profile's mesh.

    The one checked solve of the package; the adjoint runs it too.  Faces
    may be zero: the nodes past a zero face get theta = 0.  Raises
    SolverError if the direct solve fails; never returns NaNs.
    """
    try:
        theta = kernels.solve_spd_tridiagonal(*assemble_fin_system(problem, profile))
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"direct solve failed: {exc}") from exc
    if not np.all(np.isfinite(theta)):
        raise SolverError("direct solve produced non-finite values")
    theta.flags.writeable = False  # the field keeps it without a copy
    return TemperatureField(profile.mesh, theta)


def compliance(problem: FinProblem, field: TemperatureField) -> float:
    """Thermal compliance q0 * theta(0): the objective the optimizer minimizes."""
    return problem.q0 * field.root_value


def variational_compliance(
    problem: FinProblem, profile: ThicknessProfile, field: TemperatureField
) -> float:
    """Compliance recovered from the energy functional, 2 b.theta - theta.A.theta.

    Equal to compliance() when theta solves the system exactly; for a
    computed solution its error is quadratic in the solve round-off rather
    than linear, so successive values can be compared down to ~1e-15
    relative.  The quadratic form, from the assembled operator, is two sums
    of nonnegative terms; numpy's pairwise summation keeps each within
    about ceil(log2 n) eps of the exact sum.
    """
    if field.mesh != profile.mesh:
        raise DomainError("temperature field and profile live on different meshes")
    rowsum, off, _ = assemble_fin_system(problem, profile)
    theta = field.values
    conduction = -off * np.square(np.diff(theta))
    convection = rowsum * np.square(theta)
    energy = float(np.sum(conduction)) + float(np.sum(convection))
    return 2.0 * problem.q0 * field.root_value - energy


def energy_balance_residual(
    problem: FinProblem, field: TemperatureField, profile: ThicknessProfile
) -> float:
    """|q0 - total convective loss| / max(q0, tiny), from the discrete identity.

    Zero heat input gives a zero field and, by the 0/tiny convention, a
    zero residual.
    """
    if field.mesh != profile.mesh:
        raise DomainError("temperature field and profile live on different meshes")
    shed = 2.0 * problem.h * float(np.sum(field.values * field.mesh.node_weights))
    return abs(problem.q0 - shed) / max(problem.q0, float(np.finfo(np.float64).tiny))


@dataclass(frozen=True)
class ConvergenceStudy:
    """Observed-order estimate from a mesh refinement sequence.

    order is None when the data cannot support an estimate (non-monotone
    errors, identical values across meshes); inconclusive says why in note.
    """

    n_cells: tuple[int, ...]
    values: tuple[float, ...]
    errors: tuple[float, ...] | None
    order: float | None
    inconclusive: bool
    note: str = ""


def refine_and_estimate_order(
    problem: FinProblem,
    profile_generator: Callable[[int], ThicknessProfile],
    n_cells: Sequence[int] = (250, 500, 1000),
    exact: float | None = None,
) -> ConvergenceStudy:
    """Estimate the observed convergence order of the root temperature theta(0).

    profile_generator(n) must return a profile on an n-cell mesh of a fixed
    length; values holds theta(0) of each mesh's solve.  With a known exact value the order is the least-squares slope
    of log error versus log dx; without one, a Richardson-style estimate
    from successive differences (requiring a constant refinement ratio).
    """
    ns = tuple(int(n) for n in n_cells)
    if len(ns) < 3:
        raise DomainError("need at least three mesh sizes")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise DomainError("mesh sizes must be strictly increasing")

    values = []
    for n in ns:
        profile = profile_generator(n)
        if profile.mesh.n_cells != n:
            raise DomainError(
                f"profile generator returned {profile.mesh.n_cells} cells, expected {n}"
            )
        values.append(solve_temperature(problem, profile).root_value)
    values = tuple(values)

    if exact is not None:
        errors = tuple(abs(v - exact) for v in values)
        if any(e == 0.0 for e in errors):
            return ConvergenceStudy(
                ns, values, errors, None, True, "error vanished at some mesh"
            )
        if any(b >= a for a, b in zip(errors, errors[1:])):
            return ConvergenceStudy(
                ns, values, errors, None, True, "errors are not monotonically decreasing"
            )
        slope = np.polyfit(np.log(np.asarray(ns, dtype=np.float64)), np.log(errors), 1)[0]
        return ConvergenceStudy(ns, values, errors, float(-slope), False)

    ratios = [b / a for a, b in zip(ns, ns[1:])]
    if any(abs(r - ratios[0]) > 1e-12 * ratios[0] for r in ratios):
        raise DomainError("Richardson estimate needs a constant refinement ratio")
    diffs = [a - b for a, b in zip(values, values[1:])]
    if any(d == 0.0 for d in diffs):
        return ConvergenceStudy(
            ns, values, None, None, True, "values identical across meshes"
        )
    if any(d1 * d2 <= 0.0 for d1, d2 in zip(diffs, diffs[1:])):
        return ConvergenceStudy(
            ns, values, None, None, True, "successive differences change sign"
        )
    if any(abs(d2) >= abs(d1) for d1, d2 in zip(diffs, diffs[1:])):
        return ConvergenceStudy(
            ns, values, None, None, True, "successive differences are not shrinking"
        )
    orders = [
        np.log(abs(d1 / d2)) / np.log(ratios[0])
        for d1, d2 in zip(diffs, diffs[1:])
    ]
    return ConvergenceStudy(ns, values, None, float(np.mean(orders)), False)
