"""Compliance-optimal fin profile at fixed length, and the optimal length.

Fixed length: the profile comes straight from the discrete optimality
conditions.  Stationarity of the Lagrangian makes the gradient density
k (dtheta/dx)^2 equal to the area multiplier lambda on every face of the
support, so the temperature falls linearly over it, theta = g (r - x), and
a flux balance then gives each active face's thickness in closed form.  The
faces past the support have zero thickness, and the nodes past it get
theta = 0.  The number of active faces, the largest whose every face is
positive, follows from one integer inequality, so the profile takes one
fill of the n-long array, with no iteration and no search.  One solve of
the result at the real load q0 measures the certificate (density spread
on the support, largest density over lambda past it, area error); a
failed certificate raises OptimizationError.

Solves per call.  optimize_profile makes one: the result, whose
temperature serves the certificate, the compliance q0 theta(0), the
optimality metrics and the report's temperature field.  The compliance is
self-adjoint, so that temperature is also the adjoint the metrics take,
and the report's self-adjoint gap is 0.  The constant start, the first
history row, is a closed form.  optimize_length makes two: the long fin's
certifying solve, then one optimize_profile.

The optimality-criteria (OC) iteration that reaches the same profile,
rescaling every face by (density / lambda)^OC_ETA, is kept as the private
test oracle _optimize_profile_oc; the package does not call it.

Optimal length: the root r of the optimal temperature.  The optimality
conditions make theta fall linearly to zero at r, where the optimal fin
ends.  One fin longer than its support is optimized, its r is taken as the
length, and the fin is optimized again at that length.  The long fin is
kept as a LongFin record (length, profile, certificate): only its direct
step and certificate run, since nothing reads its start row or its
optimality metrics.  The closed-form optimal length only sizes the long
fin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import analytic
from .errors import DomainError, OptimizationError
from .mesh import Mesh, TemperatureField, ThicknessProfile
from .problem import FinProblem
from .sensitivity import interior_face_count, interior_node_count, solve_adjoint
from .solver import compliance, solve_temperature

__all__ = [
    "InnerIteration",
    "LongFin",
    "OptimalityCertificate",
    "OptimalityCheck",
    "OptimizationReport",
    "OptimizerOptions",
    "evaluate_profile_optimality",
    "feasible_constant_profile",
    "optimize_length",
    "optimize_profile",
]

#: Relative slack allowed when checking that compliance never increases.
DESCENT_SLACK = 1e-12

#: Largest relative area error a profile may leave before the run fails.
AREA_TOL = 1e-10

#: Slack of the certificate's condition on the zero faces past the support,
#: max density there <= lambda (1 + DENSITY_SLACK).  The densities come from
#: a solve whose rounding spreads them over the support by up to about 9e-11
#: at 1e5 cells.  A support one face short of the optimum shows a ratio of
#: about 1 + 0.67 / n at L*, where the last face is the thinnest (1 + 6.7e-6
#: at 1e5 cells), and 2.25 on the long fin of optimize_length.
DENSITY_SLACK = 1e-6

#: Approximate length of the fin whose optimal temperature's root gives the
#: optimal length, in units of the closed-form optimum.  The fin only has to
#: outreach the support.
LONG_FIN_FACTOR = 3

#: The OC oracle's thickness floor, in units of (h/k) L^2.  Its update
#: shrinks a face by at most the move limit per step, so it only approaches
#: a zero face; such faces stop at this floor, far below the 1e-9 t0 that
#: the oracle's agreement with the direct solve is held to.
OC_FLOOR_RATIO = 1e-15

#: The OC oracle's update exponent, relative move limit per step, and the
#: largest relative face change at which it stops.
OC_ETA = 0.5
OC_MOVE = 0.2
OC_TOL = 1e-8


@dataclass(frozen=True)
class OptimizerOptions:
    """Mesh size of the discrete model; both runs of optimize_length use it.

    The optimal profile is solved directly, so there is nothing else to set.
    """

    n_cells: int = 1000

    def __post_init__(self) -> None:
        if not isinstance(self.n_cells, (int, np.integer)) or self.n_cells < 4:
            raise DomainError(f"n_cells must be an integer >= 4, got {self.n_cells!r}")
        object.__setattr__(self, "n_cells", int(self.n_cells))


@dataclass(frozen=True)
class InnerIteration:
    """One row of a compliance history."""

    compliance: float
    area_error: float
    max_change: float


@dataclass(frozen=True)
class OptimalityCheck:
    """Residual metrics of the optimality conditions for a profile.

    grad_temp_cv                 spread of dtheta/dx where it should be constant
    thickness_grad_linfit_residual  misfit of dt/dx to a straight line
    tip_temp_ratio               theta(tip) / theta(root)
    selfadjoint_gap              max |w - theta| / theta(root).  From
                                 solve_adjoint, which solves the same system
                                 tip first, it is the rounding of two
                                 elimination orders (about 1e-15); the
                                 optimizer passes theta as w, which the
                                 self-adjointness of the compliance allows,
                                 and reports 0
    grad_temp_mean               mean dtheta/dx (should be -q0 / (h L^2))
    thickness_slope              fitted d(dt/dx)/dx (should be 2 h / k)

    The constant gradient holds at every length; theta(tip) = 0 and the
    taper t'' = 2 h / k hold only at the optimal length, past which the
    faces are zero.  The gradient and slope metrics therefore read only
    faces that carry heat, outside the tip exclusion zone: dt/dx is fitted
    at the interior nodes whose two faces are both positive.  With fewer
    than two such nodes (a support under three faces) thickness_slope and
    the residual are NaN.
    """

    grad_temp_cv: float
    thickness_grad_linfit_residual: float
    tip_temp_ratio: float
    selfadjoint_gap: float
    grad_temp_mean: float
    thickness_slope: float


@dataclass(frozen=True)
class OptimalityCertificate:
    """The discrete optimality conditions, measured on a solve of the result.

    support_faces          m: faces 0..m-1 are positive, the rest zero
    density_spread         max |density / lambda - 1| over the support
    floored_density_ratio  max density / lambda over the zero faces past
                           the support (0 when the support is the whole fin)
    area_error             |area - budget| / budget
    """

    support_faces: int
    density_spread: float
    floored_density_ratio: float
    area_error: float


@dataclass(frozen=True, eq=False)
class LongFin:
    """The long fin of a length run: its length, profile and certificate.

    Its profile ends in zero faces past certificate.support_faces faces;
    the root of its temperature, just past the support, is the length of
    the run's result.
    """

    length: float
    profile: ThicknessProfile = field(repr=False)
    certificate: OptimalityCertificate


@dataclass(frozen=True, eq=False)
class OptimizationReport:
    """Outcome of an optimization run.

    history has two rows, the feasible constant start and the result, and
    inner_iterations is 1: the profile comes in closed form.  temperature is
    the result's solve at the load q0; it gives the compliance q0 theta(0),
    the certificate and the optimality metrics.  The start row's compliance
    is the constant fin's closed form.  A length run keeps its long fin in
    long_fin.  A fixed-length run makes one kernel solve, whose temperature
    is also the adjoint of its optimality metrics, and a length run two
    (the long fin's one more).
    """

    profile: ThicknessProfile
    length: float
    compliance: float
    lagrange_multiplier: float
    inner_iterations: int
    history: tuple[InnerIteration, ...] = field(repr=False)
    optimality: OptimalityCheck
    certificate: OptimalityCertificate
    temperature: TemperatureField = field(repr=False)
    long_fin: LongFin | None = field(default=None, repr=False)


def feasible_constant_profile(mesh: Mesh, area: float) -> ThicknessProfile:
    """Constant profile whose face integral equals the area budget."""
    return ThicknessProfile.constant(mesh, area / mesh.length)


def _constant_fin_compliance(problem: FinProblem, mesh: Mesh) -> float:
    """Compliance q0 theta(0) of feasible_constant_profile, in closed form.

    With thickness t = area / L and link conductance a = k t / dx, the interior rows give
    theta_{i-1} + theta_{i+1} = 2 cosh(mu) theta_i with
    sinh(mu / 2) = sqrt(h dx^2 / (2 k t)).  The tip's half cell makes
    theta_i proportional to cosh((n - i) mu), and the root's heat balance
    gives theta_0 = q0 / (a sinh(mu) tanh(n mu)).
    """
    dx, thickness = mesh.dx, problem.area / mesh.length
    half = math.sqrt(problem.h * dx * dx / (2.0 * problem.k * thickness))
    sinh_mu = 2.0 * half * math.hypot(1.0, half)
    n_mu = 2.0 * mesh.n_cells * math.asinh(half)
    a = problem.k * thickness / dx
    return problem.q0 * problem.q0 / (a * sinh_mu * math.tanh(n_mu))


def _face_integral(values: np.ndarray, dx: float) -> float:
    # Same arithmetic as ThicknessProfile.area: midpoint rule over faces.
    return float(np.sum(values)) * dx


def _solve_optimality_conditions(
    problem: FinProblem, length: float, n_cells: int
) -> tuple[np.ndarray, float, int, float]:
    """Stationary discrete profile; returns (values, slope, support, root).

    With faces 0..m-1 active and the rest at zero, the optimality conditions
    give theta_i = g (r - x_i) on nodes 0..m and theta = 0 past them.  The
    heat balance of the nodes past each active face gives
    k t_i g = sum_{j=i+1..m} c_j theta_j, c_j = 2 h w_j, so t does not
    depend on g.  On the mesh's trapezoid weights (w_j = dx, half at the
    tip node n) these sums are polynomials in m.  Put c = (L*/dx)^3 =
    3 k area / (h dx^3), with L* = (3 k area / h)^(1/3) the closed-form
    length, e = 1 if m = n and 0 otherwise (the tip node's half weight),
    and r = (m + d) dx.  With s = m - i faces from face i to the edge,

        t_i = (h dx^2 / k) (s (s - 1) + d (2 s - e)),

    a sum of nonnegative terms, and the area budget sum(t) dx = area gives

        d = (c - (m - 1) m (m + 1)) / (3 m (m + 1 - e)).

    Every active face is positive when d > 0, that is
    (m - 1) m (m + 1) < c, and the support is the largest such m <= n;
    m = 1 always qualifies.  A unit root flux, g (h dx r + k t_0) = 1,
    fixes g, returned as slope.

    The three exact laws of the tests follow.  At L* on n cells c = n^3,
    so m = n, d = 1 / (3n), r = L (3n^2 + 1) / (3n^2) and
    g = 3n^2 / (h L^2 (3n^2 + 2)).  The compliance q0^2 g r is then
    C* (3n^2 + 1) / (3n^2 + 2), with C* = q0^2 / (h L*), and the Biot
    number 2 h L C / q0^2 - 1 is 3n^2 / (3n^2 + 2).  The long fin of
    optimize_length puts L* at (j + 1/2) dx, j = n // 3, so
    c = (j + 1/2)^3, m = j, d = 1/2 + (j + 1/2) / (12 j (j + 1)) and
    r / L* - 1 = 1 / (12 j (j + 1)).

    The closed form assumes the mesh's trapezoid node weights; the
    certificate's kernel solve checks the result against the assembled
    operator on every call.
    """
    mesh = Mesh(n_cells, length)
    n, dx, h, k = mesh.n_cells, mesh.dx, problem.h, problem.k
    cells = n / length
    c = 3.0 * k * problem.area / h * cells * cells * cells
    if not 0.0 < c < math.inf:
        raise DomainError(f"length {length} is out of range for this problem")
    # c^(1/3) + 1 is at least the largest m; the loop steps down to it.
    m = min(n, int(c ** (1.0 / 3.0)) + 1)
    while m > 1 and (m - 1) * m * (m + 1) >= c:
        m -= 1
    tip = 1.0 if m == n else 0.0
    d = (c - (m - 1) * m * (m + 1)) / (3 * m * (m + 1 - tip))
    r = (m + d) * dx
    # Filled in place: each fresh support-long temporary costs a page-in.
    s = np.arange(m, 0.0, -1.0)
    values = np.zeros(n)
    active = np.subtract(s, 1.0, out=values[:m])
    active *= s
    s *= 2.0
    s -= tip
    s *= d
    active += s
    active *= h * dx * dx / k
    slope = 1.0 / (h * dx * r + k * values[0])
    return values, slope, m, r


def _certify(
    problem: FinProblem,
    profile: ThicknessProfile,
    theta: TemperatureField,
    slope: float,
    support: int,
) -> OptimalityCertificate:
    """Measure the optimality conditions on a solve; raise if unmet.

    slope is the |dtheta/dx| the conditions set on the support, at the
    load theta was solved with.
    """
    area_error = abs(profile.area - problem.area) / problem.area
    if area_error > AREA_TOL:
        raise OptimizationError(
            f"the solved profile leaves the area budget unmet "
            f"(relative error {area_error:g})"
        )
    # density / lambda = (gradient / slope)^2, in place on one array.
    ratio = np.diff(theta.values)
    ratio /= profile.mesh.dx
    ratio /= slope
    np.square(ratio, out=ratio)
    floored = float(np.max(ratio[support:], initial=0.0))
    spread = ratio[:support]
    spread -= 1.0
    certificate = OptimalityCertificate(
        support_faces=support,
        density_spread=float(np.max(np.abs(spread, out=spread))),
        floored_density_ratio=floored,
        area_error=area_error,
    )
    if not certificate.floored_density_ratio <= 1.0 + DENSITY_SLACK:
        raise OptimizationError(
            f"a zero face past the support has gradient density "
            f"{certificate.floored_density_ratio:.17g} lambda; the support "
            f"of {support} faces is not optimal"
        )
    return certificate


def _optimize_direct(
    problem: FinProblem, length: float, n_cells: int
) -> tuple[ThicknessProfile, TemperatureField, float, float, OptimalityCertificate]:
    """Optimal profile, its solve at the load q0, slope, root and certificate.

    One kernel solve.  slope is |dtheta/dx| on the support per unit root
    flux; the solve's is q0 times it.  root is where theta falls to zero.
    """
    if problem.q0 <= 0.0:
        raise DomainError("shape optimization needs a positive root heat input")
    values, slope, support, root = _solve_optimality_conditions(
        problem, length, n_cells
    )
    values.flags.writeable = False  # the profile keeps it without a copy
    profile = ThicknessProfile(Mesh(n_cells, length), values)
    theta = solve_temperature(problem, profile)
    certificate = _certify(problem, profile, theta, problem.q0 * slope, support)
    return profile, theta, slope, root, certificate


def optimize_profile(
    problem: FinProblem,
    length: float,
    options: OptimizerOptions = OptimizerOptions(),
) -> OptimizationReport:
    """Compliance-optimal profile at fixed fin length, solved directly.

    The profile does not depend on the load: it is built for a unit root
    flux, so it is bitwise identical for every q0 > 0, and the multiplier
    is scaled by q0^2.  One kernel solve: the result's temperature is also
    its adjoint.
    """
    profile, theta, slope, _root, certificate = _optimize_direct(
        problem, length, options.n_cells
    )
    mesh = profile.mesh
    current = compliance(problem, theta)
    # The constant start, feasible_constant_profile, as its one value t.
    # Its area sums the n-long array, as ThicknessProfile.area does.  Its
    # largest relative change max |t_i - t| / t is at the thinnest or the
    # thickest face: rounding keeps t_i - t monotone in t_i.
    t = problem.area / mesh.length
    start_area = float(np.sum(np.full(mesh.n_cells, t))) * mesh.dx
    start_area_error = abs(start_area - problem.area) / problem.area
    low, high = float(np.min(profile.values)), float(np.max(profile.values))
    change = max(abs(low - t), abs(high - t)) / t
    history = (
        InnerIteration(_constant_fin_compliance(problem, mesh), start_area_error, math.inf),
        InnerIteration(current, certificate.area_error, change),
    )
    return OptimizationReport(
        profile=profile,
        length=mesh.length,
        compliance=current,
        lagrange_multiplier=problem.q0 * problem.q0 * problem.k * slope * slope,
        inner_iterations=1,
        history=history,
        optimality=evaluate_profile_optimality(problem, profile, theta, adjoint=theta),
        certificate=certificate,
        temperature=theta,
    )


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


def _optimize_profile_oc(
    problem: FinProblem,
    length: float,
    n_cells: int,
    max_iters: int = 500,
    initial_profile: ThicknessProfile | None = None,
) -> tuple[ThicknessProfile, float, tuple[InnerIteration, ...]]:
    """OC iteration to the stationary profile: the test oracle.

    Each step scales every face by (density / lambda)^OC_ETA, clipped to
    the relative move limit OC_MOVE and floored at OC_FLOOR_RATIO (h/k) L^2,
    with lambda solved exactly from the area budget.  It stops when no face
    changes by more than OC_TOL, or after max_iters steps.  Returns
    (profile, lagrange_multiplier, history); the run converged when
    history[-1].max_change <= OC_TOL.  Its history tracks the compliance
    q0 theta(0), as optimize_profile reports it.
    """
    mesh = Mesh(n_cells, length)
    floor = OC_FLOOR_RATIO * (problem.h / problem.k) * length * length
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

    dx = mesh.dx
    profile = ThicknessProfile(mesh, values)
    theta_hat = solve_temperature(unit_problem, profile)
    current = compliance(unit_problem, theta_hat)
    history = [
        InnerIteration(
            compliance=load_scale * current,
            area_error=abs(_face_integral(values, dx) - target_area) / target_area,
            max_change=math.inf,
        )
    ]

    lam = math.nan
    rises = 0
    for _ in range(max_iters):
        dtheta = np.diff(theta_hat.values) / dx
        density = problem.k * dtheta * dtheta
        lam, new_values = _oc_step(
            values, density, target_area, floor, dx, OC_ETA, OC_MOVE
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
        updated = compliance(unit_problem, theta_hat)
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

        if max_change <= OC_TOL:
            break

    return profile, load_scale * lam, tuple(history)


def _fit_line(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares (slope, intercept) of y against x, from centered sums."""
    x_mean, y_mean = float(np.mean(x)), float(np.mean(y))
    offsets = x - x_mean
    slope = float(np.dot(offsets, y - y_mean) / np.dot(offsets, offsets))
    return slope, y_mean - slope * x_mean


def _long_fin_length(problem: FinProblem, n_cells: int) -> float:
    """About LONG_FIN_FACTOR closed-form lengths, with that length mid-cell.

    The OC oracle stalls for hundreds of iterations when a node lies within
    a few percent of a cell of the support edge; midway between two nodes
    it converges as fast as anywhere, so the oracle tests can reach the
    long fin's optimum.  The length law of _solve_optimality_conditions is
    for this placement.
    """
    edge_cells = n_cells // LONG_FIN_FACTOR + 0.5
    return analytic.optimal_length(problem) * n_cells / edge_cells


def optimize_length(
    problem: FinProblem, options: OptimizerOptions = OptimizerOptions()
) -> OptimizationReport:
    """Optimize the fin length and profile; two kernel solves.

    A fin about LONG_FIN_FACTOR times the closed-form optimal length gets
    its optimal profile and one certifying solve; the root of its linear
    temperature, where the optimal fin ends, is the optimal length.
    optimize_profile at that length is the result, which keeps the long fin
    in long_fin.
    """
    length = _long_fin_length(problem, options.n_cells)
    profile, _theta, _slope, root, certificate = _optimize_direct(
        problem, length, options.n_cells
    )
    result = optimize_profile(problem, root, options)
    return replace(result, long_fin=LongFin(length, profile, certificate))


def evaluate_profile_optimality(
    problem: FinProblem,
    profile: ThicknessProfile,
    theta: TemperatureField,
    adjoint: TemperatureField | None = None,
) -> OptimalityCheck:
    """Compute the optimality residual metrics for one profile.

    theta must be solve_temperature(problem, profile), and adjoint, if
    given, must solve the adjoint system; without one, solve_adjoint's own
    solve, in the reversed node order, measures the kernel's rounding.  A
    caller that passes theta itself as the adjoint uses the
    self-adjointness of the compliance, and its selfadjoint_gap is 0, with
    no arrays compared.  Faces in the tip exclusion zone are left
    out of the gradient-constancy and thickness-slope metrics (see
    sensitivity.TIP_EXCLUSION): a sampled taper is least resolved there,
    and zero faces past a support do not meet the pointwise conditions.
    Both metrics also leave out zero faces anywhere, so they measure only
    faces that carry heat.
    """
    mesh = profile.mesh
    if theta.mesh != mesh:
        raise DomainError("temperature field and profile live on different meshes")
    if adjoint is None:
        adjoint = solve_adjoint(problem, profile)
    elif adjoint.mesh != mesh:
        raise DomainError("adjoint field and profile live on different meshes")

    tiny = float(np.finfo(np.float64).tiny)
    root = max(abs(theta.root_value), tiny)
    if adjoint is theta:
        selfadjoint_gap = 0.0
    else:
        gap = np.subtract(adjoint.values, theta.values)
        selfadjoint_gap = float(np.max(np.abs(gap, out=gap))) / root

    # The windows outside the tip exclusion zone lead the mesh, so they are
    # slices; only a zero face inside one makes a mask.
    dx, values = mesh.dx, profile.values
    faces = interior_face_count(mesh)
    slopes = np.diff(theta.values[: faces + 1])
    slopes /= dx
    if not np.min(values[:faces]) > 0.0:
        slopes = slopes[values[:faces] > 0.0]
    mean_slope = float(np.mean(slopes)) if slopes.size else 0.0
    if mean_slope == 0.0:
        grad_cv = math.inf
    else:
        # np.std's sums, in its order, on the slopes in place.
        slopes -= mean_slope
        np.multiply(slopes, slopes, out=slopes)
        grad_cv = math.sqrt(float(np.sum(slopes)) / slopes.size) / abs(mean_slope)
    del slopes  # the line fit below holds five support-long arrays at once

    # dt/dx is centered between faces, i.e. on interior nodes 1..nodes.
    nodes = interior_node_count(mesh)
    ys = np.diff(values[: nodes + 1])
    ys /= dx
    xs = np.arange(1, nodes + 1, dtype=np.float64)
    xs *= dx
    xs -= mesh.length
    if not np.min(values[: nodes + 1]) > 0.0:
        window = (values[:nodes] > 0.0) & (values[1 : nodes + 1] > 0.0)
        xs, ys = xs[window], ys[window]
    if xs.size < 2:
        slope = residual = math.nan
    else:
        slope, intercept = _fit_line(xs, ys)
        misfit = np.multiply(xs, slope)
        misfit += intercept
        np.subtract(ys, misfit, out=misfit)
        xs *= 2.0 * problem.h / problem.k
        scale = float(np.linalg.norm(xs))
        residual = float(np.linalg.norm(misfit)) / max(scale, tiny)

    return OptimalityCheck(
        grad_temp_cv=grad_cv,
        thickness_grad_linfit_residual=residual,
        tip_temp_ratio=abs(theta.tip_value) / root,
        selfadjoint_gap=selfadjoint_gap,
        grad_temp_mean=mean_slope,
        thickness_slope=slope,
    )
