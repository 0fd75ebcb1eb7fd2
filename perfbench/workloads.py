"""The benchmark's workloads: inputs drawn from a seed, one op each, and its gate.

Every workload is a closed loop with one caller, a designer who waits for
each result.  Ops come in rounds.  A round has a fixed make-up of mesh
sizes, so that runs with different seeds do the same amount of work, and
a run does a fixed number of whole rounds, sized from ``--seconds`` by the
round's nominal cost.  The work of a run, and so which of its ops fail,
depends on the seed and ``--seconds`` alone, never on how fast the
machine ran.  Each op
draws its own problem: k, h, area and q0 are log-uniform over at least
three decades.

Gate tolerances are the repository's own acceptance values (criteria 6, 7
and 8 of tests/test_acceptance.py) and the CLI exit codes.  An op that
raises one of finopt's errors, or misses any tolerance, counts as failed;
it is never retried or skipped.
"""

from __future__ import annotations

import math
import random
import traceback
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import finopt
import finopt.cli
from finopt.errors import DomainError, OptimizationError, ProfileFormatError, SolverError

PROGRAM_ERRORS = (DomainError, OptimizationError, ProfileFormatError, SolverError)

# The gate's closed forms, bound before any tracing wrapper is installed so
# that checking a result does not count as work of the analytic layer.
_L_STAR = finopt.analytic.optimal_length
_C_STAR = finopt.analytic.optimal_compliance
_T_STAR = finopt.analytic.optimal_thickness
_THETA_STAR = finopt.analytic.optimal_temperature

COMPLIANCE_TOL = 1e-2  # criterion 7
PROFILE_TOL = 2e-2  # criterion 7
RISE_TOL = 1e-12  # criterion 7, compliance history never rises
LENGTH_TOL = 1e-2  # criterion 8
TIP_TOL = 2e-2  # criterion 8
CV_TOL = 1e-2  # criterion 8
SLOPE_TOL = 2e-2  # criterion 8
FD_TOL = 1e-5  # criterion 6
ORDER_MIN = 1.8

# Central-difference step, relative to the face thickness.  The two root
# faces carry the largest gradient relative to the compliance round-off,
# which keeps the check within FD_TOL up to n = 16000; on interior faces of
# fine meshes the difference quotient itself loses that accuracy.
FD_STEP = 1e-3
FD_FACES = (0, 1)


@dataclass
class Outcome:
    """What one op produced and which gates it missed."""

    n: int
    failures: list[str] = field(default_factory=list)
    compliance_err: float | None = None
    length_err: float | None = None
    unexpected: bool = False

    @property
    def passed(self) -> bool:
        return not self.failures


def draw_problem(rng: random.Random) -> finopt.FinProblem:
    def log_uniform(lo: float, hi: float) -> float:
        return 10.0 ** rng.uniform(lo, hi)

    return finopt.FinProblem(
        k=log_uniform(0.0, 3.0),
        h=log_uniform(0.0, 3.0),
        area=log_uniform(-6.0, -3.0),
        q0=log_uniform(-1.0, 3.0),
    )


def stratified_sizes(rng: random.Random, lo: float, hi: float, strata: int,
                     width: float) -> list[int]:
    """One log-uniform size per equal slice of [10^lo, 10^hi], shuffled.

    Each size is drawn from the central ``width`` fraction of its slice.
    """
    sizes = []
    for i in range(strata):
        u = 0.5 + width * (rng.random() - 0.5)
        sizes.append(int(round(10.0 ** (lo + (hi - lo) * (i + u) / strata))))
    rng.shuffle(sizes)
    return sizes


def _gate_design(problem, report, outcome: Outcome) -> Outcome:
    """Criteria 7 and 8 applied to an optimization report."""
    length = _L_STAR(problem)
    outcome.compliance_err = abs(report.compliance / _C_STAR(problem, length) - 1.0)
    outcome.length_err = abs(report.length / length - 1.0)

    faces = report.profile.mesh.faces
    mask = faces <= 0.9 * min(report.length, length)
    target = _T_STAR(problem, faces[mask], length)
    profile_err = float(np.max(np.abs(report.profile.values[mask] - target)))
    profile_err /= problem.h * length * length / problem.k

    history = np.array([row.compliance for row in report.history])
    rise = float(np.max(np.diff(history) / history[:-1])) if history.size > 1 else 0.0

    check = report.optimality
    slope_target = 2.0 * problem.h / problem.k
    slope_err = abs(check.thickness_slope - slope_target) / slope_target
    for name, value, limit in (
        ("compliance", outcome.compliance_err, COMPLIANCE_TOL),
        ("profile", profile_err, PROFILE_TOL),
        ("history_rise", rise, RISE_TOL),
        ("length", outcome.length_err, LENGTH_TOL),
        ("tip_ratio", check.tip_temp_ratio, TIP_TOL),
        ("grad_cv", check.grad_temp_cv, CV_TOL),
        ("slope", slope_err, SLOPE_TOL),
    ):
        if not value <= limit:
            outcome.failures.append(name)
    return outcome


def _guarded(op):
    """Run op; a finopt error fails the op, any other exception also flags it."""

    def run(problem, n, workdir):
        outcome = Outcome(n)
        try:
            return op(problem, n, workdir, outcome)
        except PROGRAM_ERRORS as exc:
            outcome.failures.append(type(exc).__name__)
        except Exception as exc:  # noqa: BLE001 - the benchmark must keep running
            traceback.print_exc()
            outcome.failures.append(type(exc).__name__)
            outcome.unexpected = True
        return outcome

    return run


@_guarded
def length_search_op(problem, n, workdir, outcome):
    report = finopt.optimize_length(problem, finopt.OptimizerOptions(n_cells=n))
    return _gate_design(problem, report, outcome)


@_guarded
def fine_mesh_op(problem, n, workdir, outcome):
    report = finopt.optimize_profile(
        problem, finopt.optimal_length(problem), finopt.OptimizerOptions(n_cells=n)
    )
    return _gate_design(problem, report, outcome)


@_guarded
def verify_op(problem, n, workdir, outcome):
    physics = ["--k", repr(problem.k), "--h", repr(problem.h),
               "--area", repr(problem.area), "--q0", repr(problem.q0)]
    if finopt.cli.main(["analytic", *physics, "--samples", str(n + 1),
                        "--out-dir", str(workdir)]) != 0:
        outcome.failures.append("analytic_exit")
    if finopt.cli.main(["verify", str(workdir / "profile.csv"), *physics,
                        "--n-cells", str(n)]) != 0:
        outcome.failures.append("verify_exit")

    length = finopt.optimal_length(problem)
    floor = finopt.thickness_floor(problem, length)

    def closed_form(cells: int):
        return finopt.ThicknessProfile.from_callable(
            finopt.Mesh(cells, length),
            lambda x: finopt.optimal_thickness(problem, x, length),
            floor=floor,
        )

    profile = closed_form(n)
    theta = finopt.solve_temperature(problem, profile)
    adjoint = finopt.solve_adjoint(problem, profile)
    gradient = finopt.compliance_gradient(problem, profile, theta, adjoint).values
    fd = [
        finopt.finite_difference_gradient(problem, profile, face, FD_STEP * profile.values[face])
        for face in FD_FACES
    ]
    if not all(abs(d - gradient[f]) <= FD_TOL * abs(gradient[f]) for d, f in zip(fd, FD_FACES)):
        outcome.failures.append("fd_gradient")

    exact = finopt.optimal_temperature(problem, 0.0)
    study = finopt.refine_and_estimate_order(
        problem, closed_form, n_cells=(n // 4, n // 2, n), exact=exact
    )
    # Compliance is q0 * theta(0), so this is |C/C* - 1| on the n-cell mesh.
    exact_root = _THETA_STAR(problem, 0.0, _L_STAR(problem))
    outcome.compliance_err = abs(study.values[-1] / exact_root - 1.0)
    if study.order is None or not study.order >= ORDER_MIN:
        outcome.failures.append("refine_order")
    return outcome


# A round passes the ladder twice, each pass in its own order, so every
# rung repeats.  At the seed 200 raises "no interior minimum", 450 returns
# L/L* - 1 = 0.76, and 1000 and 2000 pass.
LADDER = (200, 450, 1000, 2000)
LADDER_PASSES = 2
VERIFY_RANGE = (math.log10(250), math.log10(16000))


def ladder_round(rng: random.Random) -> list[int]:
    sizes = []
    for _ in range(LADDER_PASSES):
        ladder = list(LADDER)
        rng.shuffle(ladder)
        sizes += ladder
    return sizes


def fine_mesh_round(rng: random.Random) -> list[int]:
    # Draws from the central fifth of each sixth of the decade: the op cost
    # grows with n, so this keeps the work per round within a few percent.
    return stratified_sizes(rng, 4.0, 5.0, strata=6, width=0.2)


def verify_round(rng: random.Random) -> list[int]:
    return stratified_sizes(rng, *VERIFY_RANGE, strata=32, width=1.0)


@dataclass(frozen=True)
class Workload:
    """An op, the sizes of one round, the warm-up call and the traced op count.

    ``round_s`` is the nominal wall time of one round (2-core x86 host,
    Python 3.11, numpy 2.4, ``python`` kernel backend); it only sets how
    many rounds a run of a given length does.  The warm-up is a small call
    through the workload's layers (for the length search, all but its
    plain-Python outer loop); a full length search would add seconds to
    set-up.
    """

    name: str
    op: Callable
    round_sizes: Callable[[random.Random], list[int]]
    round_s: float
    warmup: tuple[Callable, int]
    trace_ops: int

    def rounds(self, seconds: float) -> int:
        """Whole rounds in a run of ``seconds``; at least one."""
        return max(1, round(seconds / self.round_s))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("length-search", length_search_op, ladder_round, round_s=36.0,
                 warmup=(fine_mesh_op, 500), trace_ops=4),
        Workload("fine-mesh", fine_mesh_op, fine_mesh_round, round_s=27.0,
                 warmup=(fine_mesh_op, 500), trace_ops=3),
        Workload("verify", verify_op, verify_round, round_s=2.2,
                 warmup=(verify_op, 250), trace_ops=64),
    )
}


def op_inputs(workload: Workload, seed: int):
    """Endless (round index, problem, n) triples for a workload and seed."""
    rng = random.Random(f"{workload.name}:{seed}")
    index = 0
    while True:
        for n in workload.round_sizes(rng):
            yield index, draw_problem(rng), n
        index += 1
