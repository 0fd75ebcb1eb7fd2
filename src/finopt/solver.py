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
from .mesh import TemperatureField, ThicknessProfile
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
) -> tuple[np.ndarray, np.ndarray]:
    """Build (rowsum, off) of the SPD tridiagonal system for theta.

    The row sums are the convection 2h * w_i at each node and the
    off-diagonal is minus the link conductances k * t_face / dx: the
    conductive fluxes cancel across each row, so the diagonal is never
    formed (see kernels).  The one load, q0 on the root's row 0, goes to
    the kernel as a number.
    """
    mesh = profile.mesh
    convection = 2.0 * problem.h * mesh.node_weights
    off = -(problem.k * profile.values / mesh.dx)
    return convection, off


def solve_temperature(problem: FinProblem, profile: ThicknessProfile) -> TemperatureField:
    """Solve for the excess temperature on the profile's mesh.

    Faces may be zero: the nodes past a zero face get theta = 0.  Raises
    SolverError if the direct solve fails; never returns NaNs.
    """
    return _checked_solve(problem, profile, reverse=False)


def _checked_solve(
    problem: FinProblem, profile: ThicknessProfile, reverse: bool
) -> TemperatureField:
    """The checked kernel solve of the fin system, in either node order.

    reverse solves the same system with its nodes numbered tip first, so
    the kernel eliminates in another order and the root's load row comes
    last; the solution is returned in mesh order.  A failed pivot is named
    by its row in mesh order.  The tip-first system is the assembly of the
    reversed profile: the trapezoid weights read the same from either end,
    so the row sums do too, and the kernel gets contiguous arrays.
    """
    if reverse:
        profile = profile._tip_first()
    rowsum, off = assemble_fin_system(problem, profile)
    first, last = (0.0, problem.q0) if reverse else (problem.q0, 0.0)
    try:
        theta = kernels.solve_spd_tridiagonal(rowsum, off, first, last)
    except np.linalg.LinAlgError as exc:
        error = exc
        if reverse:
            row = rowsum.shape[0] - 1 - exc.row
            error = kernels.not_positive_definite(exc.pivot, row)
        raise SolverError(f"direct solve failed: {error}") from exc
    if reverse:
        theta = theta[::-1].copy()
    theta.flags.writeable = False  # the field keeps it without a copy
    try:
        return TemperatureField(profile.mesh, theta)
    except DomainError as exc:  # the field checks that every value is finite
        raise SolverError("direct solve produced non-finite values") from exc


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

    The conduction energy differences theta, which cancels on a short fin:
    for k = 200, h = 20 at 1e-8 L* on 1e5 cells it returns -1.41e11 for an
    exact theta whose q0 theta0 is 5.93e9.  The package reports q0 theta0
    and calls this nowhere; only tests and the benchmark's tracer use it.
    """
    if field.mesh != profile.mesh:
        raise DomainError("temperature field and profile live on different meshes")
    rowsum, off = assemble_fin_system(problem, profile)
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

    order is None when the errors cannot support an estimate (an error
    that vanishes, or errors that do not shrink); note says why.
    """

    n_cells: tuple[int, ...]
    values: tuple[float, ...]
    errors: tuple[float, ...]
    order: float | None
    note: str = ""


def refine_and_estimate_order(
    problem: FinProblem,
    profile_generator: Callable[[int], ThicknessProfile],
    n_cells: Sequence[int],
    exact: float,
) -> ConvergenceStudy:
    """Estimate the observed convergence order of the root temperature theta(0).

    profile_generator(n) must return a profile on an n-cell mesh of a fixed
    length; values holds theta(0) of each mesh's solve, and errors their
    distance from the exact value.  The order is the least-squares slope
    of log error versus log dx.
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

    errors = tuple(abs(v - exact) for v in values)
    if any(e == 0.0 for e in errors):
        return ConvergenceStudy(ns, values, errors, None, "error vanished at some mesh")
    if any(b >= a for a, b in zip(errors, errors[1:])):
        return ConvergenceStudy(
            ns, values, errors, None, "errors are not monotonically decreasing"
        )
    slope = np.polyfit(np.log(np.asarray(ns, dtype=np.float64)), np.log(errors), 1)[0]
    return ConvergenceStudy(ns, values, errors, float(-slope))
