"""Shape optimization of the fin by optimality criteria, and its optimal length.

Inner problem (fixed length): minimize compliance over face thickness under
the trapezoidal area budget.  Each iteration scales every face by
(density / lambda)^eta, where density = k (dtheta/dx)^2 is the (sign
flipped) gradient density; moves are clipped to a relative limit and
floored at the solver's thickness floor.  The updated area is piecewise
linear in lambda^(-eta), so lambda is solved exactly from the area budget.
For this self-adjoint objective the update is a descent scheme in practice,
and its fixed point is the discrete stationary profile.

Optimal length: the support of the optimized profile.  The optimality
conditions make dt/dx linear with t = dt/dx = 0 at the tip, so sqrt(t) is
linear in x and its root is the optimal length.  One long fin is optimized,
the root of a straight-line fit to sqrt(t) is taken as the length, and the
fin is optimized again at that length.  The closed-form optimal length
only sizes the long fin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import analytic
from .errors import DomainError, OptimizationError
from .mesh import Mesh, ThicknessProfile
from .problem import FinProblem
from .sensitivity import TIP_EXCLUSION, interior_face_mask, solve_adjoint
from .solver import solve_temperature, thickness_floor, variational_compliance

__all__ = [
    "InnerIteration",
    "OptimalityCheck",
    "OptimizationReport",
    "OptimizerOptions",
    "evaluate_profile_optimality",
    "feasible_constant_profile",
    "optimize_length",
    "optimize_profile",
    "verify_optimality",
]

#: Relative slack allowed when checking that compliance never increases.
DESCENT_SLACK = 1e-12

#: Largest relative area error an OC step may leave before the run fails.
AREA_TOL = 1e-10

#: Approximate length of the fin whose optimized support gives the optimal
#: length, in units of the closed-form optimum.  The fin only has to
#: outreach the support.
LONG_FIN_FACTOR = 3

#: Span of the support, as fractions of the first floored face's position,
#: over which sqrt(t) is fitted: clear of the root cell and of the floored
#: tip transition.
SUPPORT_FIT_WINDOW = (0.2, 0.8)


@dataclass(frozen=True)
class OptimizerOptions:
    """Mesh size and the knobs of the OC iteration; both length solves use them.

    The area multiplier is solved exactly each step and has no tolerance; a
    step whose area misses the budget by more than AREA_TOL (relative) fails.
    """

    n_cells: int = 1000
    max_inner_iters: int = 500
    oc_damping: float = 0.5
    move_limit: float = 0.2
    converge_tol: float = 1e-8

    def __post_init__(self) -> None:
        if not isinstance(self.n_cells, (int, np.integer)) or self.n_cells < 4:
            raise DomainError(f"n_cells must be an integer >= 4, got {self.n_cells!r}")
        object.__setattr__(self, "n_cells", int(self.n_cells))
        if (
            not isinstance(self.max_inner_iters, (int, np.integer))
            or self.max_inner_iters < 1
        ):
            raise DomainError(
                f"max_inner_iters must be an integer >= 1, got {self.max_inner_iters!r}"
            )
        object.__setattr__(self, "max_inner_iters", int(self.max_inner_iters))
        if not 0.0 < self.oc_damping <= 1.0:
            raise DomainError(f"oc_damping must be in (0, 1], got {self.oc_damping}")
        if not 0.0 < self.move_limit < 1.0:
            raise DomainError(f"move_limit must be in (0, 1), got {self.move_limit}")
        if not self.converge_tol > 0.0:
            raise DomainError("converge_tol must be positive")


@dataclass(frozen=True)
class InnerIteration:
    """One row of the inner-loop history."""

    compliance: float
    area_error: float
    max_change: float


@dataclass(frozen=True)
class OptimalityCheck:
    """Residual metrics of the optimality conditions for a profile.

    grad_temp_cv                 spread of dtheta/dx where it should be constant
    thickness_grad_linfit_residual  misfit of dt/dx to a straight line
    tip_temp_ratio               theta(tip) / theta(root)
    selfadjoint_gap              max |w - theta| / theta(root)
    grad_temp_mean               mean dtheta/dx (should be -q0 / (h L^2))
    thickness_slope              fitted d(dt/dx)/dx (should be 2 h / k)
    """

    grad_temp_cv: float
    thickness_grad_linfit_residual: float
    tip_temp_ratio: float
    selfadjoint_gap: float
    grad_temp_mean: float
    thickness_slope: float


@dataclass(frozen=True, eq=False)
class OptimizationReport:
    """Outcome of an optimization run.

    converged is true when the last iteration changed no face by more than
    converge_tol; false means the run stopped at max_inner_iters.
    """

    profile: ThicknessProfile
    length: float
    compliance: float
    lagrange_multiplier: float
    inner_iterations: int
    history: tuple[InnerIteration, ...] = field(repr=False)
    optimality: OptimalityCheck
    converged: bool


def feasible_constant_profile(mesh: Mesh, area: float) -> ThicknessProfile:
    """Constant profile whose face integral equals the area budget."""
    return ThicknessProfile.constant(mesh, area / mesh.length)


def _face_integral(values: np.ndarray, dx: float) -> float:
    # Same arithmetic as ThicknessProfile.area: midpoint rule over faces.
    return float(np.sum(values)) * dx


def _oc_step(
    values: np.ndarray,
    density: np.ndarray,
    target_area: float,
    floor: float,
    dx: float,
    eta: float,
    move: float,
) -> tuple[float, np.ndarray]:
    """One OC update with the exact area multiplier; returns (lambda, new values).

    With s = lambda^(-eta) each face becomes clip(c s, low, high), so the
    area is piecewise linear and nondecreasing in s with its breakpoints at
    low / c and high / c.  A binary search over the sorted breakpoints finds
    the interval holding the budget and a linear interpolation solves it.
    Each candidate area is summed afresh: cumulative sums of c lose all
    precision when the densities span hundreds of decades.
    """
    c = values * density**eta
    low = np.maximum(values * (1.0 - move), floor)
    high = values * (1.0 + move)

    # Zero-density faces (an exactly flat temperature deep inside a floored
    # tail) have no finite breakpoint and sit at low for every s.
    with np.errstate(divide="ignore", over="ignore"):
        breaks = np.concatenate((low / c, high / c))
    breaks = breaks[np.isfinite(breaks)]
    if breaks.size == 0:
        raise OptimizationError("gradient density vanished; nothing to redistribute")
    breaks.sort()

    def area(s: float) -> float:
        return _face_integral(np.clip(c * s, low, high), dx)

    # An unreachable budget takes the nearer end; the caller's area check
    # then fails the step.
    lo, hi = 0, breaks.size - 1
    area_lo, area_hi = area(breaks[lo]), area(breaks[hi])
    if target_area <= area_lo:
        s = breaks[lo]
    elif target_area >= area_hi:
        s = breaks[hi]
    else:
        while hi - lo > 1:
            mid = (lo + hi) // 2
            area_mid = area(breaks[mid])
            if area_mid <= target_area:
                lo, area_lo = mid, area_mid
            else:
                hi, area_hi = mid, area_mid
        s_lo, s_hi = breaks[lo], breaks[hi]
        s = s_lo + (target_area - area_lo) * (s_hi - s_lo) / (area_hi - area_lo)
        s = min(max(s, s_lo), s_hi)
    return float(s) ** (-1.0 / eta), np.clip(c * s, low, high)


def optimize_profile(
    problem: FinProblem,
    length: float,
    options: OptimizerOptions = OptimizerOptions(),
    initial_profile: ThicknessProfile | None = None,
) -> OptimizationReport:
    """Optimality-criteria minimization of compliance at fixed fin length.

    The iteration runs on the unit-load solve and rescales compliance by
    q0^2 afterwards: the optimal shape does not depend on the load
    magnitude, and factoring it out makes the profile trajectory bitwise
    identical for every q0 > 0.
    """
    if problem.q0 <= 0.0:
        raise DomainError("shape optimization needs a positive root heat input")
    mesh = Mesh(options.n_cells, length)
    floor = thickness_floor(problem, length)
    target_area = problem.area
    unit_problem = replace(problem, q0=1.0)
    load_scale = problem.q0 * problem.q0

    if initial_profile is None:
        values = np.array(feasible_constant_profile(mesh, target_area).values)
    else:
        if initial_profile.mesh != mesh:
            raise DomainError(
                "initial profile mesh does not match the requested discretization"
            )
        values = np.maximum(initial_profile.values, floor)
    if float(np.min(values)) < floor:
        raise DomainError("initial profile is below the thickness floor")

    dx = mesh.dx
    profile = ThicknessProfile(mesh, values)
    theta_hat = solve_temperature(unit_problem, profile)
    # Track the energy-recovered compliance: its evaluation error is
    # quadratic in the solve round-off, which keeps the descent history
    # clean at the 1e-12 level the guard below enforces.
    current = variational_compliance(unit_problem, profile, theta_hat)
    history = [
        InnerIteration(
            compliance=load_scale * current,
            area_error=abs(_face_integral(values, dx) - target_area) / target_area,
            max_change=math.inf,
        )
    ]

    lam = math.nan
    iterations = 0
    rises = 0
    for iterations in range(1, options.max_inner_iters + 1):
        dtheta = np.diff(theta_hat.values) / dx
        density = problem.k * dtheta * dtheta
        lam, new_values = _oc_step(
            values, density, target_area, floor, dx,
            options.oc_damping, options.move_limit,
        )
        area_error = abs(_face_integral(new_values, dx) - target_area) / target_area
        if area_error > AREA_TOL:
            raise OptimizationError(
                f"the OC step left the area budget unmet "
                f"(relative error {area_error:g})"
            )
        max_change = float(np.max(np.abs(new_values - values) / values))

        values = new_values
        profile = ThicknessProfile(mesh, values)
        theta_hat = solve_temperature(unit_problem, profile)
        updated = variational_compliance(unit_problem, profile, theta_hat)
        history.append(InnerIteration(load_scale * updated, area_error, max_change))

        if updated > current + DESCENT_SLACK * abs(current):
            rises += 1
            if rises > 3:
                tail = ", ".join(f"{h.compliance:.17g}" for h in history[-5:])
                raise OptimizationError(
                    f"compliance failed to decrease for {rises} consecutive "
                    f"iterations (last values: {tail})"
                )
        else:
            rises = 0
        current = updated

        if max_change <= options.converge_tol:
            break

    return OptimizationReport(
        profile=profile,
        length=mesh.length,
        compliance=load_scale * current,
        lagrange_multiplier=load_scale * lam,
        inner_iterations=iterations,
        history=tuple(history),
        optimality=evaluate_profile_optimality(problem, profile),
        converged=history[-1].max_change <= options.converge_tol,
    )


def _support_length(profile: ThicknessProfile, floor: float) -> float:
    """Root of a straight line fitted to sqrt(t) before the first floored face."""
    faces = profile.mesh.faces
    floored = np.flatnonzero(profile.values <= floor)
    if floored.size == 0:
        raise OptimizationError(
            "the long fin has no face at the thickness floor, so its support "
            "does not end inside it"
        )
    edge = faces[floored[0]]
    lo, hi = SUPPORT_FIT_WINDOW
    window = (faces >= lo * edge) & (faces <= hi * edge)
    if np.count_nonzero(window) < 2:
        raise OptimizationError(
            f"only {np.count_nonzero(window)} face(s) inside the support fit "
            f"window; the mesh is too coarse to locate the support"
        )
    slope, intercept = np.polyfit(faces[window], np.sqrt(profile.values[window]), 1)
    if not slope < 0.0:
        raise OptimizationError(
            f"sqrt(t) does not fall toward the tip (fitted slope {slope:g})"
        )
    return -intercept / slope


def _long_fin_length(problem: FinProblem, n_cells: int) -> float:
    """About LONG_FIN_FACTOR closed-form lengths, with that length mid-cell.

    When a node lies within a few percent of a cell of the support edge,
    the face before it creeps toward the floor for hundreds of iterations;
    midway between two nodes the run needs about as few iterations as at
    any other position.
    """
    edge_cells = n_cells // LONG_FIN_FACTOR + 0.5
    return analytic.optimal_length(problem) * n_cells / edge_cells


def optimize_length(
    problem: FinProblem, options: OptimizerOptions = OptimizerOptions()
) -> OptimizationReport:
    """Optimize the fin length and profile in two fixed-length runs.

    The first run optimizes a fin about LONG_FIN_FACTOR times the
    closed-form optimal length; the support of its profile is the optimal
    length.  The second run optimizes at that length and is the result.
    """
    long_fin = optimize_profile(
        problem, _long_fin_length(problem, options.n_cells), options
    )
    if not long_fin.converged:
        raise OptimizationError(
            f"the long-fin run did not converge in {long_fin.inner_iterations} "
            f"iterations (last change {long_fin.history[-1].max_change:g})"
        )
    floor = thickness_floor(problem, long_fin.length)
    return optimize_profile(problem, _support_length(long_fin.profile, floor), options)


def evaluate_profile_optimality(
    problem: FinProblem, profile: ThicknessProfile
) -> OptimalityCheck:
    """Compute the optimality residual metrics for one profile.

    Faces in the tip exclusion zone are left out of the gradient-constancy
    and thickness-slope metrics; the thickness floor regularizes that
    neighborhood, so the pointwise conditions cannot hold there.
    """
    mesh = profile.mesh
    theta = solve_temperature(problem, profile)
    adjoint = solve_adjoint(problem, profile)

    tiny = float(np.finfo(np.float64).tiny)
    root = max(abs(theta.root_value), tiny)
    selfadjoint_gap = float(np.max(np.abs(adjoint.values - theta.values))) / root

    dx = mesh.dx
    slopes = np.diff(theta.values) / dx
    inside = interior_face_mask(mesh)
    picked = slopes[inside]
    mean_slope = float(np.mean(picked))
    if mean_slope == 0.0:
        grad_cv = math.inf
    else:
        grad_cv = float(np.std(picked)) / abs(mean_slope)

    # dt/dx is centered between faces, i.e. on interior nodes.
    dtdx = np.diff(profile.values) / dx
    positions = mesh.nodes[1:-1]
    window = positions <= (1.0 - TIP_EXCLUSION) * mesh.length
    xs = positions[window] - mesh.length
    ys = dtdx[window]
    design = np.column_stack([xs, np.ones_like(xs)])
    coeffs, *_ = np.linalg.lstsq(design, ys, rcond=None)
    fitted = design @ coeffs
    scale = np.linalg.norm((2.0 * problem.h / problem.k) * xs)
    residual = float(np.linalg.norm(ys - fitted)) / max(float(scale), tiny)

    return OptimalityCheck(
        grad_temp_cv=grad_cv,
        thickness_grad_linfit_residual=residual,
        tip_temp_ratio=abs(theta.tip_value) / root,
        selfadjoint_gap=selfadjoint_gap,
        grad_temp_mean=mean_slope,
        thickness_slope=float(coeffs[0]),
    )


def verify_optimality(report: OptimizationReport, problem: FinProblem) -> OptimalityCheck:
    """Recompute the optimality metrics for a finished report."""
    return evaluate_profile_optimality(problem, report.profile)
