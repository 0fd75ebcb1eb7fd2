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
positive faces.  optimize also checks the certificate.

optimize's profile.csv has a row at x = 0, one at each face and one at
x = L, so verify on the same number of cells reads every face back
exactly and reproduces the run's compliance.

Exit codes: 0 success, 1 numerical failure or failed optimality checks,
2 usage or configuration errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from pathlib import Path

import numpy as np

from . import __version__, kernels
from .analytic import (
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
    format_float,
    read_profile_csv,
    write_json,
    write_profile_csv,
    write_table_json,
    write_temperature_csv,
)

SUMMARY_KEYS = (
    "L", "t0", "theta0", "compliance",
    "r_fin", "r_cond", "r_conv", "biot", "duffin_flux",
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


def _write_optimum(args: argparse.Namespace, problem: FinProblem,
                   suffix: str = "") -> dict:
    """Write the closed-form optimum's sampled tables; return its summary.

    The tables are profile{suffix} and temperature{suffix} in args.format.
    """
    if args.samples < 2:
        raise DomainError(f"--samples must be at least 2, got {args.samples}")
    sol = optimal_solution(problem)
    xs = np.linspace(0.0, sol.length, args.samples)
    t = np.asarray(sol.thickness(xs))
    theta = np.asarray(sol.temperature(xs))

    out = args.out_dir
    out.mkdir(parents=True, exist_ok=True)
    if args.format == "csv":
        write_profile_csv(out / f"profile{suffix}.csv", xs, t)
        write_temperature_csv(out / f"temperature{suffix}.csv", xs, theta)
    else:
        write_table_json(out / f"profile{suffix}.json", ("x", "t", "t_half"),
                         xs, t, 0.5 * t)
        write_table_json(out / f"temperature{suffix}.json", ("x", "theta"), xs, theta)

    breakdown = sol.resistances()
    return {
        "L": sol.length,
        "t0": sol.root_thickness,
        "theta0": sol.root_temp_diff,
        "compliance": sol.compliance,
        "r_fin": breakdown.r_fin,
        "r_cond": breakdown.r_cond,
        "r_conv": breakdown.r_conv,
        "biot": breakdown.biot,
        "duffin_flux": duffin_equivalent_flux(problem),
    }


def _config_echo(args: argparse.Namespace, command: str, **extra) -> dict:
    echo = {"command": command, "k": args.k, "area": args.area, "q0": args.q0}
    echo.update(extra)
    return echo


def cmd_analytic(args: argparse.Namespace) -> int:
    summary = _write_optimum(args, _problem_from_args(args))
    summary["config"] = _config_echo(args, "analytic", h=args.h,
                                     samples=args.samples, format=args.format)
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
    problems = [(h, _problem_from_args(args, h=h)) for h in args.h_values]

    summary_lines = [",".join(("h",) + SUMMARY_KEYS)]
    for h, problem in problems:
        summary = _write_optimum(args, problem, f"_h{_h_label(h)}")
        summary_lines.append(
            ",".join([format_float(h)] + [format_float(summary[k]) for k in SUMMARY_KEYS])
        )
        print(f"h = {_h_text(h)}: L = {summary['L']:.6g} m, t0 = {summary['t0']:.6g} m")
    (args.out_dir / "summary.csv").write_text("\n".join(summary_lines) + "\n")
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

    args.out_dir.mkdir(parents=True, exist_ok=True)
    write_json(args.out_dir / "report.json",
               _optimize_payload(report, breakdown, checks, args))
    # Thickness lives on the faces.  The table holds every face value, framed
    # by rows at 0 and L extrapolated from the end faces, so verify on the
    # same mesh interpolates each face back to its own value.
    mesh, t_f = report.profile.mesh, report.profile.values
    root, tip = max(1.5 * t_f[0] - 0.5 * t_f[1], 0.0), max(1.5 * t_f[-1] - 0.5 * t_f[-2], 0.0)
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
    length = float(xs[-1])
    mesh = Mesh(args.n_cells, length)
    profile = ThicknessProfile(mesh, np.interp(mesh.faces, xs, ts))

    theta = solve_temperature(problem, profile)
    check = evaluate_profile_optimality(problem, profile, theta)
    breakdown = resistance_breakdown(problem, compliance(problem, theta), length)
    print(f"profile: L = {length:.6g} m, area = {profile.area:.6g} m^2, "
          f"biot = {breakdown.biot:.4g}")
    checks = _threshold_checks(problem, profile, check, check_tip=True)
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
