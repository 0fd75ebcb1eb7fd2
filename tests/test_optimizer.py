"""Fixed-length OC iteration, optimal length, and optimality verification."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finopt import (
    DomainError,
    FinProblem,
    OptimizationError,
    OptimizerOptions,
    duffin_equivalent_flux,
    evaluate_profile_optimality,
    feasible_constant_profile,
    optimal_compliance,
    optimal_length,
    optimal_thickness,
    optimize_length,
    optimize_profile,
    verify_optimality,
)
from finopt.mesh import Mesh, ThicknessProfile
from finopt.optimizer import _face_integral, _oc_step
from conftest import ORACLE_H20, optimal_profile, rectangular_profile

N_CELLS = 1000


@pytest.fixture(scope="module")
def problem():
    return FinProblem(k=200.0, h=20.0, area=1.6e-4, q0=20.0)


@pytest.fixture(scope="module")
def fixed_length_report(problem):
    return optimize_profile(problem, optimal_length(problem), OptimizerOptions())


@pytest.fixture(scope="module")
def searched_report(problem):
    return optimize_length(problem, OptimizerOptions())


class TestOptionsValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_cells": 3},
            {"n_cells": 10.5},
            {"max_inner_iters": 0},
            {"oc_damping": 0.0},
            {"oc_damping": 1.5},
            {"move_limit": 0.0},
            {"move_limit": 1.0},
            {"converge_tol": -1.0},
            {"max_inner_iters": 2.5},
        ],
    )
    def test_rejects_bad_options(self, kwargs):
        with pytest.raises(DomainError):
            OptimizerOptions(**kwargs)

    def test_defaults_are_valid(self):
        opts = OptimizerOptions()
        assert opts.n_cells == N_CELLS


class TestFeasibleStart:
    def test_constant_profile_matches_budget(self, problem):
        mesh = Mesh(N_CELLS, optimal_length(problem))
        start = feasible_constant_profile(mesh, problem.area)
        assert start.area == pytest.approx(problem.area, rel=1e-14)


class TestFixedLengthOptimization:
    def test_compliance_close_to_closed_form(self, problem, fixed_length_report):
        exact = optimal_compliance(problem)
        assert fixed_length_report.compliance == pytest.approx(exact, rel=1e-5)

    def test_profile_matches_taper_outside_tip_zone(self, problem, fixed_length_report):
        report = fixed_length_report
        faces = report.profile.mesh.faces
        target = optimal_thickness(problem, faces, report.length)
        mask = faces <= 0.9 * report.length
        gap = np.max(np.abs(report.profile.values[mask] - target[mask]))
        assert gap <= 1e-5 * target[0]

    def test_history_is_monotone_within_slack(self, fixed_length_report):
        c = np.array([row.compliance for row in fixed_length_report.history])
        rises = np.diff(c) / c[:-1]
        assert np.max(rises) <= 1e-12

    def test_history_starts_at_feasible_constant(self, problem, fixed_length_report):
        first = fixed_length_report.history[0]
        assert first.max_change == np.inf
        assert first.area_error <= 1e-12

    def test_every_iteration_keeps_the_area_budget(self, fixed_length_report):
        for row in fixed_length_report.history:
            assert row.area_error <= 1e-10

    def test_final_profile_area(self, problem, fixed_length_report):
        assert fixed_length_report.profile.area == pytest.approx(
            problem.area, rel=1e-10
        )

    def test_converged_change_below_tolerance(self, fixed_length_report):
        assert fixed_length_report.history[-1].max_change <= 1e-8
        assert fixed_length_report.inner_iterations < 500
        assert fixed_length_report.converged

    def test_lagrange_multiplier_close_to_closed_form(self, problem, fixed_length_report):
        assert fixed_length_report.lagrange_multiplier == pytest.approx(
            ORACLE_H20["lagrange"], rel=1e-5
        )

    def test_restart_from_converged_profile_is_a_fixed_point(
        self, problem, fixed_length_report
    ):
        report = optimize_profile(
            problem,
            fixed_length_report.length,
            OptimizerOptions(),
            initial_profile=fixed_length_report.profile,
        )
        assert report.inner_iterations <= 3
        assert np.allclose(
            report.profile.values, fixed_length_report.profile.values, rtol=1e-7
        )

    def test_floored_closed_form_profile_is_near_fixed_point(
        self, problem, fixed_length_report
    ):
        # starting at the closed form only has to resolve the tip transition,
        # so it converges well before the constant cold start does
        start = optimal_profile(problem, N_CELLS)
        report = optimize_profile(
            problem, optimal_length(problem), OptimizerOptions(), initial_profile=start
        )
        assert report.inner_iterations <= fixed_length_report.inner_iterations - 50

    def test_load_invariance_is_bitwise(self, problem, fixed_length_report):
        length = fixed_length_report.length
        for q0 in (2.0 * problem.q0, duffin_equivalent_flux(problem)):
            other = optimize_profile(
                dataclasses.replace(problem, q0=q0), length, OptimizerOptions()
            )
            assert np.array_equal(
                other.profile.values, fixed_length_report.profile.values
            )

    def test_compliance_scales_with_load_squared(self, problem, fixed_length_report):
        doubled = optimize_profile(
            dataclasses.replace(problem, q0=2.0 * problem.q0),
            fixed_length_report.length,
            OptimizerOptions(),
        )
        assert doubled.compliance == 4.0 * fixed_length_report.compliance
        assert doubled.lagrange_multiplier == pytest.approx(
            4.0 * fixed_length_report.lagrange_multiplier, rel=1e-15
        )

    def test_rejects_zero_load(self, problem):
        cold = dataclasses.replace(problem, q0=0.0)
        with pytest.raises(DomainError):
            optimize_profile(cold, 0.1, OptimizerOptions())

    def test_unreachable_area_budget_raises(self, problem):
        # Half again the budget on every face: the 20 % move limit cannot
        # bring the area back in one step, so the step's area check fails.
        length = optimal_length(problem)
        mesh = Mesh(200, length)
        start = ThicknessProfile.constant(mesh, 1.5 * problem.area / length)
        with pytest.raises(OptimizationError, match="area budget"):
            optimize_profile(
                problem, length, OptimizerOptions(n_cells=200), initial_profile=start
            )

    def test_rejects_initial_profile_on_wrong_mesh(self, problem):
        wrong = rectangular_profile(problem, 123)
        with pytest.raises(DomainError):
            optimize_profile(
                problem, optimal_length(problem), OptimizerOptions(), initial_profile=wrong
            )


def _oc_inputs(case):
    """(values, density, floor) for one hand-made OC step input."""
    rng = np.random.default_rng(7)
    floor = 1e-6
    values = rng.uniform(2e-4, 2e-3, 60)
    density = rng.uniform(1e2, 6e2, 60)
    if case == "zero_density":
        density[40:] = 0.0
    elif case == "at_floor":
        values[45:] = floor
        density[45:] = rng.uniform(0.0, 1e-3, 15)
    elif case == "tiny_density":
        density[30] = 1e-203
    elif case == "equal_density":
        density[:] = 3e2
    elif case == "four_faces":
        values, density = values[:4], density[:4]
    return values, density, floor


class TestOcStep:
    DX = 1e-3
    ETA = 0.5
    MOVE = 0.2

    @pytest.mark.parametrize("budget", [0.97, 1.0, 1.03])
    @pytest.mark.parametrize(
        "case",
        ["zero_density", "at_floor", "tiny_density", "equal_density", "four_faces"],
    )
    def test_meets_budget_with_the_oc_update(self, case, budget):
        values, density, floor = _oc_inputs(case)
        target = budget * _face_integral(values, self.DX)
        lam, new = _oc_step(
            values, density, target, floor, self.DX, self.ETA, self.MOVE
        )
        assert abs(_face_integral(new, self.DX) - target) <= 1e-14 * target
        factor = np.clip((density / lam) ** self.ETA, 1.0 - self.MOVE, 1.0 + self.MOVE)
        np.testing.assert_allclose(
            new, np.maximum(values * factor, floor), rtol=1e-12, atol=0.0
        )

    def test_vanished_density_raises(self):
        values, density, floor = _oc_inputs("equal_density")
        with pytest.raises(OptimizationError, match="vanished"):
            _oc_step(
                values, np.zeros_like(density), _face_integral(values, self.DX),
                floor, self.DX, self.ETA, self.MOVE,
            )


class TestOptimalityMetrics:
    def test_converged_run_passes_thresholds(self, fixed_length_report):
        oc = fixed_length_report.optimality
        assert oc.grad_temp_cv <= 1e-2
        assert oc.tip_temp_ratio <= 2e-2
        assert oc.selfadjoint_gap <= 1e-10

    def test_gradient_mean_matches_closed_form(self, problem, fixed_length_report):
        oc = fixed_length_report.optimality
        L = fixed_length_report.length
        expected = -problem.q0 / (problem.h * L * L)
        assert oc.grad_temp_mean == pytest.approx(expected, rel=1e-3)

    def test_thickness_slope_matches_closed_form(self, problem, fixed_length_report):
        oc = fixed_length_report.optimality
        assert oc.thickness_slope == pytest.approx(
            2.0 * problem.h / problem.k, rel=1e-6
        )

    def test_closed_form_profile_has_linear_thickness_gradient(self, problem):
        profile = optimal_profile(problem, N_CELLS)
        oc = evaluate_profile_optimality(problem, profile)
        assert oc.thickness_grad_linfit_residual <= 1e-10

    def test_rectangular_profile_flagged_nonoptimal(self, problem):
        profile = rectangular_profile(problem, N_CELLS)
        oc = evaluate_profile_optimality(problem, profile)
        assert oc.grad_temp_cv > 0.1

    def test_verify_optimality_consistent_with_report(self, problem, fixed_length_report):
        oc = verify_optimality(fixed_length_report, problem)
        assert oc.grad_temp_cv == pytest.approx(
            fixed_length_report.optimality.grad_temp_cv, rel=1e-12
        )


class TestLengthSearch:
    def test_recovers_closed_form_length(self, problem, searched_report):
        exact = optimal_length(problem)
        assert searched_report.length == pytest.approx(exact, rel=1e-3)

    @pytest.mark.parametrize("n_cells", [32, 200, 450])
    def test_recovers_closed_form_length_on_coarser_meshes(self, problem, n_cells):
        report = optimize_length(problem, OptimizerOptions(n_cells=n_cells))
        assert report.length == pytest.approx(optimal_length(problem), rel=1e-3)

    @given(
        log_k=st.floats(0.0, 3.0),
        log_h=st.floats(0.0, 3.0),
        log_area=st.floats(-6.0, -3.0),
        log_q0=st.floats(-1.0, 3.0),
        n_cells=st.integers(32, 1000),
    )
    @settings(max_examples=12, deadline=None)
    def test_recovers_closed_form_across_decades(
        self, log_k, log_h, log_area, log_q0, n_cells
    ):
        # The problem has one dimensionless form, so the closed-form length
        # and compliance are exact oracles for every drawn problem.
        drawn = FinProblem(
            k=10.0**log_k, h=10.0**log_h, area=10.0**log_area, q0=10.0**log_q0
        )
        report = optimize_length(drawn, OptimizerOptions(n_cells=n_cells))
        assert report.converged
        assert abs(report.length / optimal_length(drawn) - 1.0) <= 1e-2
        assert abs(report.compliance / optimal_compliance(drawn) - 1.0) <= 1e-2

    def test_high_h_case(self):
        hot = FinProblem(k=200.0, h=200.0, area=1.6e-4, q0=20.0)
        report = optimize_length(hot, OptimizerOptions())
        assert report.length == pytest.approx(optimal_length(hot), rel=1e-2)

    def test_too_coarse_mesh_raises(self, problem):
        # Four cells on the long fin leave one face inside the support fit
        # window, too few to fit a line: the length search must fail loudly.
        with pytest.raises(OptimizationError, match="too coarse"):
            optimize_length(problem, OptimizerOptions(n_cells=4))

    def test_unconverged_long_fin_raises(self, problem):
        with pytest.raises(OptimizationError, match="did not converge"):
            optimize_length(problem, OptimizerOptions(max_inner_iters=40))

    def test_searched_compliance_beats_nearby_lengths(self, problem, searched_report):
        # left/right probes confirm an interior minimum was found
        for factor in (0.9, 1.1):
            probe = optimize_profile(
                problem, factor * searched_report.length, OptimizerOptions()
            )
            assert probe.compliance >= searched_report.compliance
