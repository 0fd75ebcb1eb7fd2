"""Acceptance gate: ten numbered criteria, one test (and one line) each.

Each test prints a single ``[PASS]``/``[FAIL]`` line (visible with ``-s``;
``pytest -v`` shows the same verdicts as test outcomes).  Tolerances are
the contract values, not what the implementation happens to achieve.
"""

import dataclasses

import numpy as np
import pytest

from finopt import (
    FinProblem,
    OptimizerOptions,
    compliance,
    compliance_gradient,
    duffin_equivalent_flux,
    energy_balance_residual,
    optimal_compliance,
    optimal_length,
    optimal_resistance_breakdown,
    optimal_temperature,
    optimal_thickness,
    optimize_length,
    optimize_profile,
    refine_and_estimate_order,
    resistance_breakdown,
    solve_adjoint,
    solve_temperature,
)
from finopt.sensitivity import interior_face_count
from conftest import (
    ORACLE_RECT,
    cosh_theta,
    five_reference_profiles,
    optimal_profile,
    rectangular_profile,
)

K, AREA, Q0 = 200.0, 1.6e-4, 20.0


@pytest.fixture(scope="module")
def problem():
    return FinProblem(k=K, h=20.0, area=AREA, q0=Q0)


@pytest.fixture(scope="module")
def fixed_report(problem):
    return optimize_profile(problem, optimal_length(problem), OptimizerOptions())


@pytest.fixture(scope="module")
def searched_reports(problem):
    reports = {}
    for h in (20.0, 200.0):
        p = dataclasses.replace(problem, h=h)
        reports[h] = (p, optimize_length(p, OptimizerOptions()))
    return reports


def check(num, name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d} {name}: {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_01_analytic_optimum_values(problem):
    L = optimal_length(problem)
    t0 = optimal_thickness(problem, 0.0)
    theta0 = optimal_temperature(problem, 0.0)
    c = optimal_compliance(problem)
    ok = (
        abs(L - 0.16869) <= 1e-4
        and abs(t0 - 2.846e-3) <= 1e-5
        and abs(theta0 - 5.928) <= 1e-2
        and abs(c - 118.56) <= 0.1
    )
    check(1, "analytic optimum", ok,
          f"L={L:.6f} t0={t0:.6e} theta0={theta0:.4f} compliance={c:.3f}")


def test_criterion_02_uniform_fin_oracle_and_order(problem):
    L = optimal_length(problem)
    profile = rectangular_profile(problem, 1000)
    theta = solve_temperature(problem, profile)
    exact = cosh_theta(problem, ORACLE_RECT["t"], L, profile.mesh.nodes)
    max_rel = float(np.max(np.abs(theta.values - exact) / exact))

    study = refine_and_estimate_order(
        problem,
        lambda n: rectangular_profile(problem, n),
        exact=ORACLE_RECT["theta0"],
        n_cells=(250, 500, 1000),
    )
    ok = max_rel <= 1e-3 and study.order is not None and study.order >= 1.8
    check(2, "uniform-fin oracle", ok,
          f"max rel err={max_rel:.3e} observed order={study.order:.3f}")


def test_criterion_03_optimal_profile_solve(problem):
    profile = optimal_profile(problem, 1000)
    theta = solve_temperature(problem, profile)
    theta0 = optimal_temperature(problem, 0.0)
    rel = abs(theta.root_value - theta0) / theta0

    x = profile.mesh.nodes
    coeffs = np.polyfit(x, theta.values, 1)
    affinity = float(np.max(np.abs(theta.values - np.polyval(coeffs, x)))) / theta0
    ok = rel <= 5e-3 and affinity <= 1e-2
    check(3, "optimal-profile solve", ok,
          f"theta0 rel err={rel:.3e} affinity deviation={affinity:.3e}")


def test_criterion_04_energy_balance(problem, fixed_report):
    profiles = five_reference_profiles(problem, n_cells=1000)
    profiles.append(fixed_report.profile)
    worst = 0.0
    for profile in profiles:
        theta = solve_temperature(problem, profile)
        worst = max(worst, energy_balance_residual(problem, theta, profile))
    ok = worst <= 1e-10
    check(4, "energy balance", ok, f"worst residual={worst:.3e} over {len(profiles)} solves")


def test_criterion_05_self_adjointness(problem):
    worst = 0.0
    profiles = five_reference_profiles(problem, n_cells=600)
    for profile in profiles:
        theta = solve_temperature(problem, profile)
        w = solve_adjoint(problem, profile)
        gap = float(np.max(np.abs(w.values - theta.values))) / theta.root_value
        worst = max(worst, gap)
    ok = worst <= 1e-10
    check(5, "self-adjointness", ok, f"worst gap={worst:.3e} over {len(profiles)} profiles")


def test_criterion_06_adjoint_vs_finite_differences(problem):
    from finopt import finite_difference_gradient

    profile = optimal_profile(problem, 64)
    theta = solve_temperature(problem, profile)
    w = solve_adjoint(problem, profile)
    grad = compliance_gradient(problem, profile, theta, w)
    step = 1e-6 * profile.values[0]
    worst = 0.0
    for f in range(interior_face_count(profile.mesh)):
        fd = finite_difference_gradient(problem, profile, f, step)
        worst = max(worst, abs(fd - grad.values[f]) / abs(grad.values[f]))
    ok = worst <= 1e-5
    check(6, "adjoint vs finite differences", ok, f"worst interior rel err={worst:.3e}")


def test_criterion_07_fixed_length_optimization(problem, fixed_report):
    exact_c = optimal_compliance(problem)
    c_rel = abs(fixed_report.compliance - exact_c) / exact_c

    faces = fixed_report.profile.mesh.faces
    target = optimal_thickness(problem, faces, fixed_report.length)
    mask = faces <= 0.9 * fixed_report.length
    profile_rel = float(
        np.max(np.abs(fixed_report.profile.values[mask] - target[mask]))
    ) / target[0]

    c = np.array([row.compliance for row in fixed_report.history])
    worst_rise = float(np.max(np.diff(c) / c[:-1]))
    ok = c_rel <= 1e-2 and profile_rel <= 2e-2 and worst_rise <= 1e-12
    check(7, "fixed-length optimizer", ok,
          f"compliance rel={c_rel:.3e} profile Linf rel={profile_rel:.3e} "
          f"worst history rise={worst_rise:.3e}")


def test_criterion_08_length_search_pipeline(searched_reports):
    details = []
    ok = True
    for h, (p, report) in searched_reports.items():
        exact = optimal_length(p)
        l_rel = abs(report.length - exact) / exact
        oc = report.optimality
        slope_target = 2.0 * p.h / p.k
        slope_rel = abs(oc.thickness_slope - slope_target) / slope_target
        ok = ok and (
            l_rel <= 1e-2
            and oc.tip_temp_ratio <= 2e-2
            and oc.grad_temp_cv <= 1e-2
            and slope_rel <= 2e-2
        )
        details.append(
            f"h={h:g}: L rel={l_rel:.2e} tip={oc.tip_temp_ratio:.2e} "
            f"cv={oc.grad_temp_cv:.2e} slope rel={slope_rel:.2e}"
        )
    check(8, "length search", ok, "; ".join(details))


def test_criterion_09_biot_discrimination(problem, searched_reports):
    exact_biot = optimal_resistance_breakdown(problem).biot

    _, report = searched_reports[20.0]
    optimized = resistance_breakdown(problem, report.compliance, report.length)

    L = optimal_length(problem)
    rect = rectangular_profile(problem, 1000)
    rect_c = compliance(problem, solve_temperature(problem, rect))
    rect_biot = resistance_breakdown(problem, rect_c, L).biot

    ok = (
        exact_biot == 1.0
        and abs(optimized.biot - 1.0) <= 0.05
        and abs(rect_biot - 1.0) > 0.05
    )
    check(9, "biot discrimination", ok,
          f"analytic={exact_biot!r} optimized={optimized.biot:.6f} "
          f"rectangular={rect_biot:.4f}")


def test_criterion_10_duffin_equivalence(problem, fixed_report):
    flux = duffin_equivalent_flux(problem)
    driven = dataclasses.replace(problem, q0=flux)

    theta0_analytic = optimal_temperature(driven, 0.0)
    profile = optimal_profile(driven, 1000)
    theta0_solver = solve_temperature(driven, profile).root_value

    report = optimize_profile(driven, fixed_report.length, OptimizerOptions())
    profile_gap = float(
        np.max(
            np.abs(report.profile.values - fixed_report.profile.values)
            / fixed_report.profile.values
        )
    )
    ok = (
        abs(flux - 3.3738) <= 1e-4
        and abs(theta0_analytic - 1.0) <= 1e-3
        and abs(theta0_solver - 1.0) <= 1e-3
        and profile_gap <= 1e-12
    )
    check(10, "duffin equivalence", ok,
          f"flux={flux:.5f} theta0 analytic={theta0_analytic:.12f} "
          f"solver={theta0_solver:.8f} profile rel gap={profile_gap:.3e}")
