"""Command-line interface.

Subcommands:
  analytic   closed-form optimum for one configuration
  sweep      closed-form optima across a list of h values
  optimize   numerical shape (and optionally length) optimization
  verify     optimality checks for a thickness profile read from CSV

optimize and verify check the optimality metrics against fixed limits:
grad_temp_cv <= 1e-2, tip_temp_ratio <= 2e-2, thickness_slope_err <= 2e-2
and selfadjoint_gap <= 1e-10.  The constant temperature gradient holds at
every length, but theta(tip) = 0 only at the optimal length, so an
optimize run with --fixed-length reports tip_temp_ratio without checking
it; a length run and verify check all four.  The slope is fitted only
where both neighbouring faces are positive, so the zero faces past a
support do not count; when that leaves nothing to fit, the slope is NaN
and the FAIL line of either command names the cause from the profile's
positive faces.  optimize also checks the certificate, and verify checks
that the profile spends the area budget, within a limit derived from the
table's row spacing and the mesh (see _area_check).

optimize's profile.csv has a row at x = 0, one at each face and one at
x = L, so verify on the same number of cells reads every face back
exactly and reproduces the run's compliance.

Exit codes: 0 success, 1 numerical failure or failed optimality checks,
2 usage or configuration errors, among them an --out-dir that cannot be
made or written and a closed form outside float64 (analytic and sweep
then write no table).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import math
import sys
from pathlib import Path

import numpy as np
import orjson

from . import __version__, kernels
from .analytic import (
    OptimalSolution,
    duffin_equivalent_flux,
    optimal_solution,
    resistance_breakdown,
)
from .errors import DomainError, OptimizationError, ProfileFormatError, SolverError
from .mesh import Mesh, ThicknessProfile
from .optimizer import (
    DENSITY_SLACK,
    OptimalityCheck,
    OptimizerOptions,
    evaluate_profile_optimality,
    optimize_length,
    optimize_profile,
)
from .problem import FinProblem
from .solver import compliance, solve_temperature
from .tables import (
    read_profile_csv,
    write_json,
    write_profile_csv,
    write_table_csv,
    write_table_json,
    write_temperature_csv,
)

#: Limits of the optimality checks (see _threshold_checks).
MAX_GRAD_CV = 1e-2
MAX_TIP_RATIO = 2e-2
MAX_SLOPE_ERR = 2e-2
MAX_SELFADJOINT_GAP = 1e-10


def _add_physics_args(parser: argparse.ArgumentParser, with_h: bool = True) -> None:
    parser.add_argument("--k", type=float, required=True,
                        help="thermal conductivity, W/(m K)")
    if with_h:
        parser.add_argument("--h", type=float, required=True,
                            help="convection coefficient, W/(m^2 K)")
    parser.add_argument("--area", type=float, required=True,
                        help="profile area budget, m^2")
    parser.add_argument("--q0", type=float, required=True,
                        help="root heat input per unit width, W/m")


def _add_table_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--samples", type=int, default=201,
                        help="rows in the sampled tables (default 201)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="table file format (default csv)")
    parser.add_argument("--out-dir", type=Path, default=Path("."),
                        help="directory for output files (default .)")


def _problem_from_args(args: argparse.Namespace, h: float | None = None) -> FinProblem:
    return FinProblem(
        k=args.k,
        h=args.h if h is None else h,
        area=args.area,
        q0=args.q0,
    )


@contextlib.contextmanager
def _writing_to(out_dir: Path):
    """Make out_dir, then run the block that writes into it.  An OSError of
    either is a usage error (exit 2), as an unreadable input is."""
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        yield
    except OSError as exc:
        raise DomainError(f"cannot write to {out_dir}: {exc}") from exc


def _closed_form(args: argparse.Namespace, problem: FinProblem
                 ) -> tuple[OptimalSolution, dict]:
    """The closed-form optimum and its summary, checked before any table is
    sampled or written.

    numpy's floating-point warnings are off while the summary is computed,
    because every value is checked after: a DomainError names the first
    one outside float64's range.
    """
    if args.samples < 2:
        raise DomainError(f"--samples must be at least 2, got {args.samples}")
    with np.errstate(all="ignore"):
        sol = optimal_solution(problem)
        summary = {"L": sol.length, "t0": sol.root_thickness, "theta0": sol.root_temp_diff,
                   "compliance": sol.compliance, **dataclasses.asdict(sol.resistances()),
                   "duffin_flux": duffin_equivalent_flux(problem)}
    for key, value in summary.items():
        if not math.isfinite(value):
            raise DomainError(f"the closed-form {key} is {value}, outside float64's range")
    return sol, summary


def _write_tables(args: argparse.Namespace, sol: OptimalSolution, suffix: str = "") -> None:
    """Write the optimum's sampled tables, profile{suffix} and
    temperature{suffix} in args.format, into args.out_dir, which must exist."""
    xs = np.linspace(0.0, sol.length, args.samples)
    t = np.asarray(sol.thickness(xs))
    theta = np.asarray(sol.temperature(xs))

    out = args.out_dir
    if args.format == "csv":
        write_profile_csv(out / f"profile{suffix}.csv", xs, t)
        write_temperature_csv(out / f"temperature{suffix}.csv", xs, theta)
    else:
        write_table_json(out / f"profile{suffix}.json", ("x", "t", "t_half"),
                         xs, t, 0.5 * t)
        write_table_json(out / f"temperature{suffix}.json", ("x", "theta"), xs, theta)


def _config_echo(args: argparse.Namespace, command: str, **extra) -> dict:
    echo = {"command": command, "k": args.k, "area": args.area, "q0": args.q0}
    echo.update(extra)
    return echo


def cmd_analytic(args: argparse.Namespace) -> int:
    sol, summary = _closed_form(args, _problem_from_args(args))
    summary["config"] = _config_echo(args, "analytic", h=args.h,
                                     samples=args.samples, format=args.format)
    with _writing_to(args.out_dir):
        _write_tables(args, sol)
        write_json(args.out_dir / "summary.json", summary)
    print(f"optimal fin: L = {summary['L']:.6g} m, t0 = {summary['t0']:.6g} m, "
          f"compliance = {summary['compliance']:.6g} W K/m")
    return 0


def _h_text(h: float) -> str:
    """h as sweep prints it: distinct for distinct h (shortest round-trip repr)."""
    if h.is_integer():
        return str(int(h))
    return repr(h)


def _h_label(h: float) -> str:
    """File-name label of h: its printed text with "." as "p" and "-" as "m"."""
    return _h_text(h).replace(".", "p").replace("-", "m")


def cmd_sweep(args: argparse.Namespace) -> int:
    if len(set(args.h_values)) < len(args.h_values):
        raise DomainError(f"--h-values repeats a value: {args.h_values}")
    sols, summaries = zip(*[_closed_form(args, _problem_from_args(args, h=h))
                            for h in args.h_values])
    with _writing_to(args.out_dir):
        for h, sol in zip(args.h_values, sols):
            _write_tables(args, sol, f"_h{_h_label(h)}")
        write_table_csv(args.out_dir / "summary.csv", ("h", *summaries[0]), args.h_values,
                        *([summary[key] for summary in summaries] for key in summaries[0]))
    for h, summary in zip(args.h_values, summaries):
        print(f"h = {_h_text(h)}: L = {summary['L']:.6g} m, t0 = {summary['t0']:.6g} m")
    return 0


def _threshold_checks(problem: FinProblem, profile: ThicknessProfile,
                      check: OptimalityCheck, check_tip: bool
                      ) -> list[tuple[str, float, float, str]]:
    """(name, value, limit, cause) of each optimality check; a NaN value fails.

    theta(tip) = 0 holds only at the optimal length, so tip_temp_ratio is
    checked only where the length is meant to be optimal (check_tip).  The
    cause says what makes a check fail, where that is known: a NaN slope
    means the taper fit had fewer than two nodes between positive faces.
    """
    slope_target = 2.0 * problem.h / problem.k
    slope_err = abs(check.thickness_slope - slope_target) / slope_target
    slope_cause = ""
    if np.isnan(slope_err):
        support = int(np.count_nonzero(profile.values))
        slope_cause = (
            f"the support has {support} face{'s' if support != 1 else ''}, "
            "and the taper fit needs at least three" if support < 3 else
            "fewer than two interior nodes outside the tip zone lie between "
            "positive faces"
        )
    tip = [("tip_temp_ratio", check.tip_temp_ratio, MAX_TIP_RATIO, "")] if check_tip else []
    return [
        ("grad_temp_cv", check.grad_temp_cv, MAX_GRAD_CV, ""),
        *tip,
        ("thickness_slope_err", slope_err, MAX_SLOPE_ERR, slope_cause),
        ("selfadjoint_gap", check.selfadjoint_gap, MAX_SELFADJOINT_GAP, ""),
    ]


def _area_check(problem: FinProblem, profile: ThicknessProfile,
                spacing: float) -> tuple[str, float, float, str]:
    """(name, value, limit, cause) of verify's check that the profile read
    from a table with rows at most `spacing` apart spends the area budget.

    The value is |area - A| / A, with the midpoint-rule area of the faces.
    The optimum at any length has t'' = 2h/k on its support and meets it
    with t = t' = 0, so |t''| <= 2h/k on the whole fin.  Reading such a
    profile errs in two ways:

    - linear interpolation between rows at most D apart errs by at most
      (2h/k) D^2 / 8 at each face, so by L (2h/k) D^2 / 8 over the fin;
    - the midpoint rule on n faces of width dx errs from the integral by
      at most L (2h/k) dx^2 / 24.

    So a table of a profile whose integral is A reads an area within
    (h L / k) (D^2 / 4 + dx^2 / 12) of A; over A, that is the limit.  On
    top comes (n + 4) eps for the rounding of the sum of n face values,
    of dx and of the product, which sets the limit only on very fine
    meshes or very short fins.  The closed form sampled at n + 1 evenly
    spaced rows and read on n cells has its interpolation error, +dx^2/8,
    partly cancelled by the quadrature's, -dx^2/24: at L* it reads
    exactly 1/(2 n^2) against a limit of 1/n^2 + (n + 4) eps.  optimize's
    table, whose faces meet the budget by their own midpoint sum, reads it
    to rounding on its own mesh.
    """
    mesh = profile.mesh
    scale = problem.h * mesh.length / (problem.k * problem.area)
    limit = (scale * (spacing**2 / 4.0 + mesh.dx**2 / 12.0)
             + (mesh.n_cells + 4) * float(np.finfo(np.float64).eps))
    value = abs(profile.area - problem.area) / problem.area
    cause = "" if value <= limit else f"the budget is {problem.area:.6g} m^2"
    return "area_err", value, limit, cause


def _report_checks(checks: list[tuple[str, float, float, str]]) -> bool:
    """Print one PASS/FAIL line per check; a failed check names its cause."""
    all_ok = True
    for name, value, limit, cause in checks:
        ok = value <= limit
        all_ok = all_ok and ok
        suffix = f": {cause}" if cause else ""  # only a failed check has a cause
        print(f"{'PASS' if ok else 'FAIL'} {name}: {value:.3e} (limit {limit:.3e}){suffix}")
    return all_ok


def _optimize_payload(report, breakdown, checks, args) -> dict:
    payload = {
        "length": report.length,
        "compliance": report.compliance,
        "lagrange_multiplier": report.lagrange_multiplier,
        "biot": breakdown.biot,
        "certificate": {
            "lagrange_multiplier": report.lagrange_multiplier,
            **dataclasses.asdict(report.certificate),
        },
        "optimality": dataclasses.asdict(report.optimality),
        "checks": {
            name: {"value": value, "limit": limit, "passed": value <= limit}
            for name, value, limit, _ in checks
        },
        "versions": {
            "finopt": __version__,
            "numpy": np.__version__,
            "orjson": orjson.__version__,
            "kernel": kernels.get_backend(),
        },
        "config": _config_echo(
            args, "optimize", h=args.h, n_cells=args.n_cells,
            fixed_length=args.fixed_length,
        ),
    }
    if report.long_fin is not None:
        payload["length_search"] = {
            "long_fin_length": report.long_fin.length,
            "long_fin_support_faces": report.long_fin.certificate.support_faces,
        }
    return payload


def cmd_optimize(args: argparse.Namespace) -> int:
    problem = _problem_from_args(args)
    options = OptimizerOptions(n_cells=args.n_cells)
    if args.fixed_length is not None:
        report = optimize_profile(problem, args.fixed_length, options)
    else:
        report = optimize_length(problem, options)

    breakdown = resistance_breakdown(problem, report.compliance, report.length)
    checks = _threshold_checks(problem, report.profile, report.optimality,
                               check_tip=args.fixed_length is None)
    # No zero face past the support may want to grow: its gradient density,
    # over the multiplier, stays at most 1 up to the solve's rounding.
    checks.append(("certificate", report.certificate.floored_density_ratio,
                   1.0 + DENSITY_SLACK, ""))

    # Thickness lives on the faces.  The table holds every face value, framed
    # by rows at 0 and L extrapolated from the end faces, so verify on the
    # same mesh interpolates each face back to its own value.
    mesh, t_f = report.profile.mesh, report.profile.values
    root, tip = max(1.5 * t_f[0] - 0.5 * t_f[1], 0.0), max(1.5 * t_f[-1] - 0.5 * t_f[-2], 0.0)
    with _writing_to(args.out_dir):
        write_json(args.out_dir / "report.json",
                   _optimize_payload(report, breakdown, checks, args))
        write_profile_csv(args.out_dir / "profile.csv",
                          np.concatenate(([0.0], mesh.faces, [mesh.length])),
                          np.concatenate(([root], t_f, [tip])))
        write_temperature_csv(args.out_dir / "temperature.csv",
                              mesh.nodes, report.temperature.values)

    support = report.certificate.support_faces
    print(f"optimized fin: L = {report.length:.6g} m, "
          f"compliance = {report.compliance:.6g} W K/m, "
          f"support {support} of {mesh.n_cells} faces")
    return 0 if _report_checks(checks) else 1


def cmd_verify(args: argparse.Namespace) -> int:
    problem = _problem_from_args(args)
    xs, ts = read_profile_csv(args.profile)
    if abs(xs[0]) > 1e-9 * xs[-1]:
        raise ProfileFormatError(
            f"{args.profile}: profile must start at x = 0, got {xs[0]}"
        )
    length, spacing = float(xs[-1]), float(np.max(np.diff(xs)))
    mesh = Mesh(args.n_cells, length)
    faces = np.interp(mesh.faces, xs, ts)
    faces.flags.writeable = False  # the profile keeps it without a copy
    profile = ThicknessProfile(mesh, faces)

    theta = solve_temperature(problem, profile)
    check = evaluate_profile_optimality(problem, profile, theta)
    breakdown = resistance_breakdown(problem, compliance(problem, theta), length)
    print(f"profile: L = {length:.6g} m, area = {profile.area:.6g} m^2, "
          f"biot = {breakdown.biot:.4g}")
    checks = _threshold_checks(problem, profile, check, check_tip=True)
    checks.append(_area_check(problem, profile, spacing))
    return 0 if _report_checks(checks) else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``finopt`` parser, built once per process.

    Parsing leaves the parser unchanged and returns a fresh Namespace, so
    every ``main`` call shares it.
    """
    parser = argparse.ArgumentParser(
        prog="finopt",
        description="Optimal cooling-fin design: closed forms, finite-volume "
                    "verification, and shape optimization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analytic", help="closed-form optimum for one configuration")
    _add_physics_args(p)
    _add_table_args(p)
    p.set_defaults(func=cmd_analytic)

    p = sub.add_parser("sweep", help="closed-form optima across h values")
    _add_physics_args(p, with_h=False)
    p.add_argument("--h-values", type=float, nargs="+",
                   default=[20.0, 50.0, 100.0, 200.0],
                   help="convection coefficients to sweep (default 20 50 100 200)")
    _add_table_args(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("optimize", help="numerical shape/length optimization")
    _add_physics_args(p)
    p.add_argument("--n-cells", type=int, default=1000,
                   help="mesh cells for the discrete model (default 1000)")
    p.add_argument("--fixed-length", type=float, default=None,
                   help="skip the length search and optimize at this length, m")
    p.add_argument("--out-dir", type=Path, default=Path("."),
                   help="directory for output files (default .)")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("verify", help="optimality checks for a profile CSV")
    p.add_argument("profile", type=Path, help="profile table with columns x,t")
    _add_physics_args(p)
    p.add_argument("--n-cells", type=int, default=1000)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, ProfileFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SolverError, OptimizationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
