"""Kernel solves per answer: each public entry point makes a pinned number.

Every temperature and adjoint solve goes through
finopt.kernels.solve_spd_tridiagonal, so counting its calls counts the
solves.  A change that adds a solve has to change these numbers.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings

import finopt.kernels
from finopt import (
    FinProblem,
    OptimizerOptions,
    compliance,
    evaluate_profile_optimality,
    feasible_constant_profile,
    optimal_length,
    optimize_length,
    optimize_profile,
    solve_temperature,
    variational_compliance,
)
from finopt.cli import main
from finopt.mesh import TemperatureField
from conftest import (
    DECADES,
    ORACLE_H20,
    draw_fin,
    random_feasible_profile,
)

BASE = ["--k", "200", "--h", "20", "--area", "1.6e-4", "--q0", "20"]


@pytest.fixture
def problem():
    return FinProblem(k=200.0, h=20.0, area=1.6e-4, q0=20.0)


@pytest.fixture
def solves(monkeypatch):
    """A list that gets the row count of every kernel solve."""
    calls = []
    solve = finopt.kernels.solve_spd_tridiagonal

    def counted(rowsum, off, first, last):
        calls.append(len(rowsum))
        return solve(rowsum, off, first, last)

    monkeypatch.setattr(finopt.kernels, "solve_spd_tridiagonal", counted)
    return calls


def test_optimize_profile_makes_one(problem, solves):
    # The result's solve is also the adjoint of the self-adjoint
    # compliance; the constant start is a closed form.
    optimize_profile(problem, optimal_length(problem), OptimizerOptions(200))
    assert len(solves) == 1


def test_optimize_length_makes_two(problem, solves):
    # The long fin's certifying solve, then one optimize_profile.
    optimize_length(problem, OptimizerOptions(200))
    assert len(solves) == 2


def test_cli_length_run_makes_two(tmp_path, solves):
    assert main(["optimize", *BASE, "--n-cells", "300", "--out-dir", str(tmp_path)]) == 0
    assert len(solves) == 2


def test_cli_fixed_length_run_makes_one(tmp_path, solves):
    code = main(["optimize", *BASE, "--fixed-length", f"{ORACLE_H20['L']!r}",
                 "--n-cells", "300", "--out-dir", str(tmp_path)])
    assert code == 0
    assert len(solves) == 1


def test_cli_verify_makes_two(tmp_path, solves):
    # The temperature, and the adjoint in its own elimination order.
    assert main(["analytic", *BASE, "--samples", "301", "--out-dir", str(tmp_path)]) == 0
    assert solves == []
    code = main(["verify", str(tmp_path / "profile.csv"), *BASE, "--n-cells", "300"])
    assert code == 0
    assert solves == [301, 301]


def assert_same_bits(check, expected):
    for name, value in dataclasses.asdict(expected).items():
        bits = np.float64(getattr(check, name)).tobytes()
        assert bits == np.float64(value).tobytes(), name


@pytest.mark.parametrize("run", ["at L*", "at 0.5 L*", "at 3 L*", "length"])
@given(**DECADES)
@settings(max_examples=10, deadline=None)
def test_metrics_take_the_temperature_as_adjoint(run, log_k, log_h, log_area, log_q0, log_n):
    # The report's metrics are those of its own solve, passed as the
    # adjoint: they equal a fresh evaluation so given, and the gap is 0.
    problem = FinProblem(
        k=10.0**log_k, h=10.0**log_h, area=10.0**log_area, q0=10.0**log_q0
    )
    options = OptimizerOptions(round(10.0**log_n))
    if run == "length":
        report = optimize_length(problem, options)
    else:
        factor = {"at L*": 1.0, "at 0.5 L*": 0.5, "at 3 L*": 3.0}[run]
        report = optimize_profile(problem, factor * optimal_length(problem), options)
    theta = report.temperature
    assert_same_bits(
        report.optimality,
        evaluate_profile_optimality(problem, report.profile, theta, adjoint=theta),
    )
    assert report.optimality.selfadjoint_gap == 0.0


def test_only_theta_itself_skips_the_gap_arithmetic(problem):
    # Any other adjoint object is compared with theta, even an equal one.
    profile = random_feasible_profile(problem, 500, seed=4)
    theta = solve_temperature(problem, profile)
    check = evaluate_profile_optimality(problem, profile, theta, adjoint=theta)
    assert np.float64(check.selfadjoint_gap).tobytes() == np.float64(0.0).tobytes()
    equal = TemperatureField(theta.mesh, theta.values.copy())
    assert evaluate_profile_optimality(
        problem, profile, theta, adjoint=equal
    ).selfadjoint_gap == 0.0
    off = TemperatureField(theta.mesh, theta.values + 1e-9 * theta.root_value)
    gap = evaluate_profile_optimality(problem, profile, theta, adjoint=off).selfadjoint_gap
    assert gap == pytest.approx(1e-9, rel=1e-6)


def test_history_reads_the_constant_start():
    # The start row's area error and the result row's largest relative
    # change, from the constant start's array.  On short fins the optimum
    # is nearly linear, and the thinnest face can be the one farthest
    # from the start.
    rng = np.random.default_rng(5)
    for _ in range(200):
        problem, n, length = draw_fin(rng, (-6, 1))
        report = optimize_profile(problem, length, OptimizerOptions(n))
        start = feasible_constant_profile(report.profile.mesh, problem.area)
        area_error = abs(start.area - problem.area) / problem.area
        change = np.abs(report.profile.values - start.values) / start.values
        assert report.history[0].area_error == area_error
        assert report.history[1].max_change == float(np.max(change))


def test_report_temperature_is_the_load_solve(problem):
    report = optimize_profile(problem, optimal_length(problem), OptimizerOptions(300))
    theta = solve_temperature(problem, report.profile)
    assert np.array_equal(report.temperature.values, theta.values)
    assert report.compliance == compliance(problem, report.temperature)


def test_start_row_is_the_solved_constant_fin():
    # The closed form against the energy form of the constant fin's solve.
    rng = np.random.default_rng(3)
    for _ in range(300):
        problem, n, length = draw_fin(rng, (-1, 1))
        report = optimize_profile(problem, length, OptimizerOptions(n))
        start = feasible_constant_profile(report.profile.mesh, problem.area)
        solved = variational_compliance(
            problem, start, solve_temperature(problem, start)
        )
        assert abs(report.history[0].compliance / solved - 1.0) <= 1e-14
