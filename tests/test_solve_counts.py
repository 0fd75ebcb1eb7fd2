"""Kernel solves per answer: each public entry point makes a pinned number.

Every temperature and adjoint solve goes through
finopt.kernels.solve_spd_tridiagonal, so counting its calls counts the
solves.  A change that adds a solve has to change these numbers.
"""

import dataclasses

import numpy as np
import pytest

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
from conftest import ORACLE_H20, draw_fin, optimal_profile, random_feasible_profile

BASE = ["--k", "200", "--h", "20", "--area", "1.6e-4", "--q0", "20"]


@pytest.fixture
def problem():
    return FinProblem(k=200.0, h=20.0, area=1.6e-4, q0=20.0)


@pytest.fixture
def solves(monkeypatch):
    """A list that gets the row count of every kernel solve."""
    calls = []
    solve = finopt.kernels.solve_spd_tridiagonal

    def counted(rowsum, off, rhs):
        calls.append(len(rowsum))
        return solve(rowsum, off, rhs)

    monkeypatch.setattr(finopt.kernels, "solve_spd_tridiagonal", counted)
    return calls


def test_optimize_profile_makes_two(problem, solves):
    # The result and its adjoint; the constant start is a closed form.
    optimize_profile(problem, optimal_length(problem), OptimizerOptions(200))
    assert len(solves) == 2


def test_optimize_length_makes_three(problem, solves):
    # The long fin's certifying solve, then one optimize_profile.
    optimize_length(problem, OptimizerOptions(200))
    assert len(solves) == 3


def test_cli_length_run_makes_three(tmp_path, solves):
    assert main(["optimize", *BASE, "--n-cells", "300", "--out-dir", str(tmp_path)]) == 0
    assert len(solves) == 3


def test_cli_fixed_length_run_makes_two(tmp_path, solves):
    code = main(["optimize", *BASE, "--fixed-length", f"{ORACLE_H20['L']!r}",
                 "--n-cells", "300", "--out-dir", str(tmp_path)])
    assert code == 0
    assert len(solves) == 2


def test_cli_verify_makes_two(tmp_path, solves):
    assert main(["analytic", *BASE, "--samples", "301", "--out-dir", str(tmp_path)]) == 0
    assert solves == []
    code = main(["verify", str(tmp_path / "profile.csv"), *BASE, "--n-cells", "300"])
    assert code == 0
    assert solves == [301, 301]


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


@pytest.mark.parametrize("n_cells", [64, 1000])
@pytest.mark.parametrize("shape", ["optimal", "random"])
def test_passing_theta_changes_no_metric(problem, n_cells, shape):
    if shape == "optimal":
        profile = optimal_profile(problem, n_cells)
    else:
        profile = random_feasible_profile(problem, n_cells, seed=n_cells)
    given = evaluate_profile_optimality(
        problem, profile, solve_temperature(problem, profile)
    )
    solved = evaluate_profile_optimality(problem, profile)
    for name, value in dataclasses.asdict(solved).items():
        bits = np.float64(getattr(given, name)).tobytes()
        assert bits == np.float64(value).tobytes(), name
