"""Direct optimal profile, its OC oracle, optimal length, and optimality checks."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from finopt import (
    DomainError,
    FinProblem,
    LongFin,
    OptimalityCertificate,
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
    resistance_breakdown,
)
from finopt import kernels
from finopt.mesh import Mesh, ThicknessProfile
from finopt.optimizer import (
    OC_FLOOR_RATIO,
    _face_integral,
    _fit_line,
    _long_fin_length,
    _oc_step,
    _optimize_profile_oc,
    _solve_optimality_conditions,
)
from finopt.sensitivity import TIP_EXCLUSION, interior_face_count
from finopt.solver import assemble_fin_system, solve_temperature
from conftest import DECADES, ORACLE_H20, optimal_profile, rectangular_profile

N_CELLS = 1000


@pytest.fixture(scope="module")
def problem():
    return FinProblem(k=200.0, h=20.0, area=1.6e-4, q0=20.0)


@pytest.fixture(scope="module")
def fixed_length_report(problem):
    return optimize_profile(problem, optimal_length(problem), OptimizerOptions())


@pytest.fixture(scope="module")
def oracle_run(problem):
    """(profile, lagrange_multiplier, history) of the OC oracle on the long fin.

    At L* the support's last face is too thin for the oracle to settle
    within its 500 steps (see test_agrees_with_oc_oracle).
    """
    return _optimize_profile_oc(problem, _long_fin_length(problem, N_CELLS), N_CELLS)


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
        # n_cells is range-checked; the OC knobs went with the iteration, so
        # passing one at all is a TypeError.
        error = DomainError if "n_cells" in kwargs else TypeError
        with pytest.raises(error):
            OptimizerOptions(**kwargs)

    def test_initial_profile_argument_is_gone(self, problem):
        start = rectangular_profile(problem, N_CELLS)
        with pytest.raises(TypeError):
            optimize_profile(
                problem, optimal_length(problem), OptimizerOptions(),
                initial_profile=start,
            )

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

    def test_history_is_monotone_within_slack(self, fixed_length_report, oracle_run):
        # The report's history is the constant start and the result; the
        # oracle's is every OC step.
        for history in (fixed_length_report.history, oracle_run[2]):
            c = np.array([row.compliance for row in history])
            rises = np.diff(c) / c[:-1]
            assert np.max(rises) <= 1e-12

    def test_history_starts_at_feasible_constant(self, problem, fixed_length_report):
        first = fixed_length_report.history[0]
        assert first.max_change == np.inf
        assert first.area_error <= 1e-12

    def test_every_iteration_keeps_the_area_budget(self, fixed_length_report, oracle_run):
        for row in fixed_length_report.history + oracle_run[2]:
            assert row.area_error <= 1e-10

    def test_final_profile_area(self, problem, fixed_length_report):
        assert fixed_length_report.profile.area == pytest.approx(
            problem.area, rel=1e-10
        )

    def test_converged_change_below_tolerance(self, oracle_run):
        history = oracle_run[2]
        assert history[-1].max_change <= 1e-8
        assert len(history) - 1 < 500

    def test_lagrange_multiplier_close_to_closed_form(self, problem, fixed_length_report):
        assert fixed_length_report.lagrange_multiplier == pytest.approx(
            ORACLE_H20["lagrange"], rel=1e-5
        )

    def test_restart_from_converged_profile_is_a_fixed_point(
        self, problem, fixed_length_report
    ):
        # The directly solved profile is a fixed point of the OC oracle.
        profile, _, history = _optimize_profile_oc(
            problem,
            fixed_length_report.length,
            N_CELLS,
            initial_profile=fixed_length_report.profile,
        )
        assert len(history) - 1 <= 3
        assert np.allclose(
            profile.values, fixed_length_report.profile.values, rtol=1e-7
        )

    def test_closed_form_profile_is_near_fixed_point(self, problem, oracle_run):
        # The closed-form taper, zero past L*, only has to settle on the
        # discrete mesh, so the oracle converges well before the constant
        # cold start does.
        length = _long_fin_length(problem, N_CELLS)
        start = ThicknessProfile.from_callable(
            Mesh(N_CELLS, length),
            lambda x: optimal_thickness(problem, np.minimum(x, optimal_length(problem))),
        )
        _, _, history = _optimize_profile_oc(
            problem, length, N_CELLS, initial_profile=start
        )
        assert history[-1].max_change <= 1e-8
        assert len(history) <= len(oracle_run[2]) - 50

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

    def test_length_run_rejects_zero_load(self, problem):
        cold = dataclasses.replace(problem, q0=0.0)
        with pytest.raises(DomainError):
            optimize_length(cold, OptimizerOptions())

    def test_unreachable_area_budget_raises(self, problem):
        # Half again the budget on every face: the oracle's 20 % move limit
        # cannot bring the area back in one step, so the step's check fails.
        length = optimal_length(problem)
        mesh = Mesh(200, length)
        start = ThicknessProfile.constant(mesh, 1.5 * problem.area / length)
        with pytest.raises(OptimizationError, match="area budget"):
            _optimize_profile_oc(problem, length, 200, initial_profile=start)

    @pytest.mark.parametrize("length", [0.0, -1.0, math.nan, math.inf, 1e300, 1e-300])
    def test_rejects_unusable_lengths(self, problem, length):
        # The closed form takes (L*/dx)^3: it overflows at 1e-300 and
        # underflows at 1e300.
        with pytest.raises(DomainError):
            optimize_profile(problem, length)

    def test_rejects_initial_profile_on_wrong_mesh(self, problem):
        wrong = rectangular_profile(problem, 123)
        with pytest.raises(DomainError):
            _optimize_profile_oc(
                problem, optimal_length(problem), N_CELLS, initial_profile=wrong
            )

    def test_far_too_long_fin_solves(self, problem):
        # 200 closed-form lengths on 1000 cells: the budget fills five faces
        # and the other 995 are zero.
        report = optimize_profile(problem, 200.0 * optimal_length(problem))
        assert report.certificate.support_faces == 5
        assert np.all(report.profile.values[5:] == 0.0)
        assert report.certificate.area_error <= 1e-10
        assert report.certificate.floored_density_ratio <= 1.0


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
        oc = evaluate_profile_optimality(problem, profile, solve_temperature(problem, profile))
        assert oc.thickness_grad_linfit_residual <= 1e-10

    def test_rectangular_profile_flagged_nonoptimal(self, problem):
        profile = rectangular_profile(problem, N_CELLS)
        oc = evaluate_profile_optimality(problem, profile, solve_temperature(problem, profile))
        assert oc.grad_temp_cv > 0.1

    def test_gradient_metric_skips_zero_faces(self, problem):
        # Only the last face, in the tip zone, is positive: no face that the
        # gradient metric measures carries heat, so it flags the profile.
        values = np.zeros(10)
        values[-1] = 1e-3
        profile = ThicknessProfile(Mesh(10, optimal_length(problem)), values)
        oc = evaluate_profile_optimality(problem, profile, solve_temperature(problem, profile))
        assert oc.grad_temp_cv == math.inf and oc.grad_temp_mean == 0.0

    @pytest.mark.parametrize("seed", range(8))
    def test_gradient_spread_has_the_bits_of_np_std(self, problem, seed):
        # The metric sums np.std's terms in place; np.std is the oracle.
        rng = np.random.default_rng(seed)
        n_cells = int(rng.integers(4, 3000))
        values = rng.random(n_cells) * 1e-3
        values[rng.random(n_cells) < 0.2] = 0.0
        profile = ThicknessProfile(Mesh(n_cells, optimal_length(problem)), values)
        theta = solve_temperature(problem, profile)
        oc = evaluate_profile_optimality(problem, profile, theta)
        faces = interior_face_count(profile.mesh)
        slopes = np.diff(theta.values[: faces + 1]) / profile.mesh.dx
        slopes = slopes[values[:faces] > 0.0]
        expected = float(np.std(slopes)) / abs(float(np.mean(slopes)))
        assert np.float64(oc.grad_temp_cv).tobytes() == np.float64(expected).tobytes()

    @pytest.mark.parametrize("factor", [1.25, 1.5, 3.0, 10.0])
    def test_slope_fit_skips_zero_faces(self, problem, factor):
        # Past L* the optimum's support ends inside the window; over the
        # support the taper is t'' = 2 h / k exactly, so the fit over the
        # nodes between positive faces meets it to rounding.
        report = optimize_profile(problem, factor * optimal_length(problem))
        assert report.certificate.support_faces < N_CELLS
        oc = report.optimality
        assert abs(oc.thickness_slope / (2.0 * problem.h / problem.k) - 1.0) <= 1e-12
        assert oc.thickness_grad_linfit_residual <= 1e-12

    def test_slope_fit_without_zero_faces_is_the_window_fit(self, problem):
        # With every face positive the fit runs over the whole window, as
        # it did before zero faces were left out.
        profile = rectangular_profile(problem, N_CELLS)
        profile = profile.with_values(
            profile.values * np.linspace(1.5, 0.5, N_CELLS)
        )
        mesh = profile.mesh
        positions = mesh.nodes[1:-1]
        window = positions <= (1.0 - TIP_EXCLUSION) * mesh.length
        expected, _ = _fit_line(
            positions[window] - mesh.length,
            (np.diff(profile.values) / mesh.dx)[window],
        )
        oc = evaluate_profile_optimality(problem, profile, solve_temperature(problem, profile))
        assert oc.thickness_slope == expected

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("support", [1, 2])
    def test_slope_is_nan_below_two_fit_nodes(self, problem, support):
        values = np.zeros(10)
        values[:support] = 1e-3
        profile = ThicknessProfile(Mesh(10, optimal_length(problem)), values)
        oc = evaluate_profile_optimality(problem, profile, solve_temperature(problem, profile))
        assert math.isnan(oc.thickness_slope)
        assert math.isnan(oc.thickness_grad_linfit_residual)

    def test_given_temperature_must_share_the_mesh(self, problem):
        profile = optimal_profile(problem, N_CELLS)
        other = optimal_profile(problem, N_CELLS // 2)
        with pytest.raises(DomainError, match="different meshes"):
            evaluate_profile_optimality(
                problem, profile, solve_temperature(problem, other)
            )

    def test_verify_optimality_consistent_with_report(self, problem, fixed_length_report):
        profile = fixed_length_report.profile
        oc = evaluate_profile_optimality(problem, profile, solve_temperature(problem, profile))
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
        assert abs(report.length / optimal_length(drawn) - 1.0) <= 1e-2
        assert abs(report.compliance / optimal_compliance(drawn) - 1.0) <= 1e-2

    @pytest.mark.parametrize("n_cells", range(8, 32))
    def test_recovers_closed_form_on_coarse_meshes(self, problem, n_cells):
        # L/L* - 1 = 1 / (12 j (j + 1)) with j = n // 3: 1.4e-2 at n = 8,
        # falling to 1.0e-3 at n = 30 and 31.
        report = optimize_length(problem, OptimizerOptions(n_cells=n_cells))
        assert abs(report.length / optimal_length(problem) - 1.0) <= 2e-2
        assert abs(report.compliance / optimal_compliance(problem) - 1.0) <= 1e-2

    def test_keeps_the_long_fin_run(self, problem, searched_report):
        long_fin = searched_report.long_fin
        assert long_fin.length == _long_fin_length(problem, N_CELLS)
        assert isinstance(long_fin, LongFin)
        # The closed-form length is the midpoint of face n // 3, the first
        # zero face, and the root of the temperature lies just past it.
        support = long_fin.certificate.support_faces
        assert support == N_CELLS // 3
        assert np.all(long_fin.profile.values[support:] == 0.0)
        edge = long_fin.profile.mesh.faces[support]
        assert 0.0 < searched_report.length / edge - 1.0 <= 1e-5
        assert 0.0 < long_fin.certificate.floored_density_ratio <= 1.0

    def test_high_h_case(self):
        hot = FinProblem(k=200.0, h=200.0, area=1.6e-4, q0=20.0)
        report = optimize_length(hot, OptimizerOptions())
        assert report.length == pytest.approx(optimal_length(hot), rel=1e-2)

    def test_four_cells_give_the_length_law(self, problem):
        # One face on the long fin's support: L/L* - 1 = 1 / (12 * 1 * 2).
        report = optimize_length(problem, OptimizerOptions(n_cells=4))
        assert report.long_fin.certificate.support_faces == 1
        assert report.length / optimal_length(problem) - 1.0 == pytest.approx(
            1.0 / 24.0, rel=1e-9
        )

    def test_searched_compliance_beats_nearby_lengths(self, problem, searched_report):
        # Left/right probes at the searched cell size.  (At a fixed cell count
        # a longer fin spreads its support over fewer, coarser cells, which
        # costs it a factor (3m^2 + 1) / (3m^2 + 2) on m faces.)  The shorter
        # fin is worse.  The longer one ends in zero faces past the same
        # support and the same profile, so it is the same discrete problem:
        # its compliance is not lower up to the rounding of the two solves.
        for factor in (0.9, 1.1):
            probe = optimize_profile(
                problem,
                factor * searched_report.length,
                OptimizerOptions(n_cells=round(factor * N_CELLS)),
            )
            if factor < 1.0:
                assert probe.compliance >= searched_report.compliance
            else:
                m = searched_report.certificate.support_faces
                assert probe.certificate.support_faces == m
                assert np.all(probe.profile.values[m:] == 0.0)
                assert probe.compliance >= searched_report.compliance * (1.0 - 1e-13)


def _drawn_problem(log_k, log_h, log_area, log_q0):
    return FinProblem(k=10.0**log_k, h=10.0**log_h, area=10.0**log_area, q0=10.0**log_q0)


class TestExactDiscreteLaws:
    """The exact laws of the discrete optimum (_solve_optimality_conditions).

    They hold to rounding for every problem and mesh, which the loose
    closed-form checks above and acceptance criterion 9 (|Biot - 1| <= 0.05)
    cannot show.  The closed form rounds each face a few times, and the
    compliance comes from one kernel solve: over 1500 draws the worst
    errors were 6.7e-16 (C), 1.6e-15 (Biot) and 4.2e-16 (length).  The
    @examples reached 7.0e-14 (C), 1.4e-13 (Biot) and 7.5e-15 (length)
    with the prefix sums the closed form replaced.
    """

    @given(**DECADES)
    @example(log_k=2.3, log_h=1.3, log_area=-3.8, log_q0=1.3, log_n=math.log10(4.0))
    @example(log_k=2.3, log_h=1.3, log_area=-3.8, log_q0=1.3, log_n=5.0)
    @example(log_k=1.75, log_h=0.86, log_area=-4.07, log_q0=0.93, log_n=4.89)
    @settings(max_examples=40, deadline=None)
    def test_compliance_and_biot_at_the_closed_form_length(
        self, log_k, log_h, log_area, log_q0, log_n
    ):
        # C_n(L*) = C* (3n^2 + 1) / (3n^2 + 2), Biot_n = 3n^2 / (3n^2 + 2).
        drawn = _drawn_problem(log_k, log_h, log_area, log_q0)
        n = round(10.0**log_n)
        length = optimal_length(drawn)
        report = optimize_profile(drawn, length, OptimizerOptions(n_cells=n))
        assert report.certificate.support_faces == n
        compliance_law = (3 * n * n + 1) / (3 * n * n + 2)
        ratio = report.compliance / optimal_compliance(drawn)
        assert abs(ratio / compliance_law - 1.0) <= 2e-15
        biot = resistance_breakdown(drawn, report.compliance, length).biot
        assert abs(biot / (3 * n * n / (3 * n * n + 2)) - 1.0) <= 4e-15

    @given(**DECADES)
    @example(log_k=2.3, log_h=1.3, log_area=-3.8, log_q0=1.3, log_n=math.log10(4.0))
    @example(log_k=2.3, log_h=1.3, log_area=-3.8, log_q0=1.3, log_n=5.0)
    @example(log_k=1.45, log_h=2.02, log_area=-4.97, log_q0=2.95, log_n=4.44)
    @settings(max_examples=40, deadline=None)
    def test_optimal_length(self, log_k, log_h, log_area, log_q0, log_n):
        # L / L* - 1 = 1 / (12 j (j + 1)) with j = n // 3 faces on the long
        # fin's support.  Past n of about 1e3 the law is below 1e-6 and the
        # rounding of L / L*, up to about 5e-16, exceeds 1e-9 of it.
        drawn = _drawn_problem(log_k, log_h, log_area, log_q0)
        n = round(10.0**log_n)
        report = optimize_length(drawn, OptimizerOptions(n_cells=n))
        j = n // 3
        assert report.long_fin.certificate.support_faces == j
        law = 1.0 / (12.0 * j * (j + 1))
        excess = report.length / optimal_length(drawn) - 1.0
        assert abs(excess - law) <= 1e-9 * law + 2e-15


def _prefix_sum_optimum(problem, length, n_cells):
    """The closed form's oracle: every support at once, then a search.

    For each support m = 1..n the area budget fixes the root of theta,
    r_m = (k area / dx + sum_{j<=m} j c_j x_j) / sum_{j<=m} j c_j with
    c_j = 2 h w_j, by prefix sums in m; the support is the largest m with
    r_m > x_m, and each active face is a reversed cumulative sum of what
    the nodes past it shed.  The sums run in np.longdouble: in float64
    their own rounding reaches 1.5e-13 of r at 1e5 cells, above the 1e-13
    the closed form is held to.  Returns (values, support, root).
    """
    mesh = Mesh(n_cells, length)
    x = mesh.nodes.astype(np.longdouble)
    convection = 2 * np.longdouble(problem.h) * mesh.node_weights.astype(np.longdouble)
    k = np.longdouble(problem.k)
    weights = np.arange(1, n_cells + 1, dtype=np.longdouble) * convection[1:]
    roots = np.cumsum(weights * x[1:]) + k * np.longdouble(problem.area) / mesh.dx
    roots /= np.cumsum(weights)
    support = int(np.flatnonzero(roots > x[1:])[-1]) + 1
    root = roots[support - 1]
    shed = (root - x[1 : support + 1]) * convection[1 : support + 1]
    values = np.zeros(n_cells)
    values[:support] = np.cumsum(shed[::-1])[::-1] / k
    return values, support, float(root)


# The three problems of the result tables: the baseline, a high-h fin and a
# low-conductivity one, all scaled copies of one dimensionless problem.
ORACLE_PROBLEMS = {
    "k200-h20": FinProblem(k=200.0, h=20.0, area=1.6e-4, q0=20.0),
    "k200-h200": FinProblem(k=200.0, h=200.0, area=1.6e-4, q0=20.0),
    "k3.7-h812": FinProblem(k=3.7, h=812.0, area=2.3e-6, q0=0.31),
}
LENGTHS = {
    "L*": lambda p, n: optimal_length(p),
    "0.8L*": lambda p, n: 0.8 * optimal_length(p),
    "long": _long_fin_length,
}


def _assert_matches_oracle(problem, length, n_cells, warm=False):
    """The direct solve and the converged OC oracle reach one profile.

    The oracle gets 5000 steps: with a node near the support edge it needs
    up to 2546.  warm starts it at the direct profile, which must then be
    its fixed point.
    """
    report = optimize_profile(problem, length, OptimizerOptions(n_cells=n_cells))
    profile, lam, history = _optimize_profile_oc(
        problem, length, n_cells, max_iters=5000,
        initial_profile=report.profile if warm else None,
    )
    assert history[-1].max_change <= 1e-8, "the oracle did not converge"
    values = report.profile.values
    assert np.max(np.abs(profile.values - values)) <= 1e-9 * values[0]
    assert abs(history[-1].compliance / report.compliance - 1.0) <= 1e-13
    assert abs(lam / report.lagrange_multiplier - 1.0) <= 1e-8
    # The oracle's faces past the support sit exactly at its floor, so its
    # support is the KKT support: the direct solve's m is neither short nor
    # long.
    floor = _oc_floor(problem, length)
    assert np.count_nonzero(profile.values > floor) == report.certificate.support_faces
    return report, history


def _oc_floor(problem, length):
    return OC_FLOOR_RATIO * (problem.h / problem.k) * length * length


def _tail_flux_recursion(conductance, convection):
    """phi_j, the heat past node j per unit theta_j, by the tip-to-root loop.

    The oracle: a chain of links each in series with all that lies beyond
    it; a zero link gives phi = 0.
    """
    n = convection.size - 1
    phi = np.zeros(n + 1)
    for j in range(n - 1, -1, -1):
        a = convection[j + 1] + phi[j + 1]
        phi[j] = conductance[j] * a / (conductance[j] + a)
    return phi


TAIL_LENGTHS = {
    "0.3L*": lambda p, n: 0.3 * optimal_length(p),
    "L*": lambda p, n: optimal_length(p),
    "long": _long_fin_length,
}


class TestDirectSolve:
    @pytest.mark.parametrize("length", list(TAIL_LENGTHS))
    @pytest.mark.parametrize("n_cells", [4, 8, 200, 4000, 100_000])
    @pytest.mark.parametrize("name", list(ORACLE_PROBLEMS))
    def test_tail_flux_matches_recursion(self, name, n_cells, length):
        # The heat the solved optimum sheds past each node, summed from the
        # tip, against theta_j * phi_j of the recursion.  Past the support
        # both are exactly zero.  The two sums run over up to n terms, so
        # they part by up to about n ulps (2.2e-12 at 1e5 cells).
        problem = ORACLE_PROBLEMS[name]
        length = TAIL_LENGTHS[length](problem, n_cells)
        report = optimize_profile(problem, length, OptimizerOptions(n_cells=n_cells))
        profile, mesh = report.profile, report.profile.mesh
        theta = solve_temperature(problem, profile).values
        conductance = problem.k * profile.values / mesh.dx
        convection = 2.0 * problem.h * mesh.node_weights
        shed = np.cumsum((convection * theta)[::-1])[::-1][1:]
        phi = _tail_flux_recursion(conductance, convection)
        m = report.certificate.support_faces
        assert np.all(shed[m:] == 0.0) and np.all(phi[m:] == 0.0)
        ratio = shed[:m] / (phi[:m] * theta[:m])
        assert np.max(np.abs(ratio - 1.0)) <= 5e-17 * n_cells + 1e-13

    @given(**DECADES, log_factor=st.floats(-1.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_closed_form_matches_prefix_sums(
        self, log_k, log_h, log_area, log_q0, log_n, log_factor
    ):
        # Short of L* the support is the whole fin, at L* it just is, on
        # the long fin it is n // 3 faces, and a drawn length lands anywhere.
        drawn = _drawn_problem(log_k, log_h, log_area, log_q0)
        n = round(10.0**log_n)
        closed_form = optimal_length(drawn)
        for length in (
            0.3 * closed_form,
            closed_form,
            _long_fin_length(drawn, n),
            closed_form * 10.0**log_factor,
        ):
            values, _, support, root = _solve_optimality_conditions(drawn, length, n)
            expected, expected_support, expected_root = _prefix_sum_optimum(
                drawn, length, n
            )
            assert support == expected_support
            assert np.max(np.abs(values - expected)) <= 1e-13 * expected[0]
            assert abs(root / expected_root - 1.0) <= 1e-13

    @pytest.mark.parametrize("length", list(LENGTHS))
    @pytest.mark.parametrize("n_cells", [32, 200, 1000, 4000])
    @pytest.mark.parametrize("name", list(ORACLE_PROBLEMS))
    def test_agrees_with_oc_oracle(self, name, n_cells, length):
        # At L* the support reaches the tip node, and its last face is about
        # t0 / (3 n^3) thick.  From 200 cells on, that face conducts under
        # 1e-3 of what its node sheds, so its density hardly depends on it
        # and each OC step moves it only a little.  Cold, the oracle still
        # changes it by 2.1e-3 per step after 500 steps and by 8.0e-5 after
        # 5000 (1000 cells), so there it starts at the direct profile and
        # checks that this is its fixed point.
        problem = ORACLE_PROBLEMS[name]
        warm = length == "L*" and n_cells >= 200
        _assert_matches_oracle(
            problem, LENGTHS[length](problem, n_cells), n_cells, warm=warm
        )

    @pytest.mark.parametrize(
        ("n_cells", "factor"), [(8, 1), (16, 1), (32, 1), (64, 1), (60, 3), (96, 3)]
    )
    def test_oracle_stall_cases(self, problem, n_cells, factor):
        # The OC loop needs 351 to 2546 iterations here: a node sits near
        # the support edge.  The direct solve has no iteration to stall.
        _, history = _assert_matches_oracle(
            problem, factor * optimal_length(problem), n_cells
        )
        assert len(history) - 1 > 300

    @pytest.mark.parametrize("factor", [1.1, 3.0])
    def test_support_is_maximal(self, problem, factor):
        # Lift the first zero face to 1e-6 (h/k) L^2, paid for by the root
        # face: the oracle takes it back down to its floor, so no longer
        # support is optimal.
        length = factor * optimal_length(problem)
        report = optimize_profile(problem, length, OptimizerOptions(n_cells=200))
        m = report.certificate.support_faces
        assert m < 200
        lift = 1e-6 * (problem.h / problem.k) * length * length
        values = np.array(report.profile.values)
        values[m] += lift
        values[0] -= lift
        profile, _, _ = _optimize_profile_oc(
            problem, length, 200, max_iters=5000,
            initial_profile=report.profile.with_values(values),
        )
        floor = _oc_floor(problem, length)
        assert np.all(profile.values[m:] == floor)
        assert np.count_nonzero(profile.values > floor) == m

    def test_certificate(self, fixed_length_report):
        # At L* the support is the whole fin: no face is zero.
        certificate = fixed_length_report.certificate
        assert isinstance(certificate, OptimalityCertificate)
        assert certificate.support_faces == N_CELLS
        assert certificate.density_spread <= 1e-9
        assert certificate.floored_density_ratio == 0.0
        assert certificate.area_error <= 1e-10
        assert fixed_length_report.inner_iterations == 1

    def test_whole_fin_active_below_the_optimal_length(self, problem):
        report = optimize_profile(
            problem, 0.8 * optimal_length(problem), OptimizerOptions(n_cells=200)
        )
        assert report.certificate.support_faces == 200
        assert report.certificate.floored_density_ratio == 0.0

    @pytest.mark.parametrize("n_cells", [4, 1000, 100_000])
    @pytest.mark.parametrize("factor", [1e-8, 1e-6, 1e-4])
    @pytest.mark.parametrize("name", list(ORACLE_PROBLEMS))
    def test_very_short_fins(self, name, factor, n_cells):
        # The conductances exceed the convection by up to ~1e20 here; the
        # kernel eliminates on the row sums, so the solve stays positive
        # definite and q0 theta(0) meets the closed form q0^2 g r (measured
        # up to 2.4e-15).
        problem = ORACLE_PROBLEMS[name]
        length = factor * optimal_length(problem)
        report = optimize_profile(problem, length, OptimizerOptions(n_cells))
        _, slope, _, root = _solve_optimality_conditions(problem, length, n_cells)
        exact = problem.q0 * problem.q0 * slope * root
        assert abs(report.compliance / exact - 1.0) <= 1e-14

    def test_hundred_thousand_cells(self, problem):
        report = optimize_profile(
            problem, optimal_length(problem), OptimizerOptions(n_cells=100_000)
        )
        assert report.certificate.floored_density_ratio <= 1.0
        assert report.certificate.density_spread <= 1e-9
        assert abs(report.compliance / optimal_compliance(problem) - 1.0) <= 1e-8
        check = evaluate_profile_optimality(
            problem, report.profile, solve_temperature(problem, report.profile)
        )
        assert check.selfadjoint_gap <= 1e-10
        assert check.grad_temp_cv <= 1e-9


def _fit_windows(problem, n_cells):
    """The (x, y) pairs the line fit sees, on optimized profiles.

    evaluate_profile_optimality fits dt/dx against x - L on interior nodes
    outside the tip zone; "support" is sqrt(t) on the long fin's support
    faces, a falling line like the closed form's.
    """
    report = optimize_profile(problem, optimal_length(problem), OptimizerOptions(n_cells))
    mesh = report.profile.mesh
    positions = mesh.nodes[1:-1]
    window = positions <= (1.0 - TIP_EXCLUSION) * mesh.length
    dtdx = np.diff(report.profile.values) / mesh.dx
    windows = {"optimality": (positions[window] - mesh.length, dtdx[window])}

    long_fin = optimize_profile(
        problem, _long_fin_length(problem, n_cells), OptimizerOptions(n_cells)
    )
    m = long_fin.certificate.support_faces
    faces, values = long_fin.profile.mesh.faces, long_fin.profile.values
    windows["support"] = (faces[:m], np.sqrt(values[:m]))
    return windows


class TestLineFit:
    # At 10 cells the long fin's support holds three faces for all three
    # problems.  The window's two end points are a two-point fit: a pair of
    # neighbours on a fine mesh would measure the conditioning of the fit,
    # not the formula.
    @pytest.mark.parametrize("cut", ["whole", "ends"])
    @pytest.mark.parametrize("kind", ["optimality", "support"])
    @pytest.mark.parametrize("n_cells", [10, 32, 1000, 100_000])
    @pytest.mark.parametrize("name", list(ORACLE_PROBLEMS))
    def test_matches_polyfit(self, name, n_cells, kind, cut):
        x, y = _fit_windows(ORACLE_PROBLEMS[name], n_cells)[kind]
        if cut == "ends":
            x, y = x[[0, -1]], y[[0, -1]]
        slope, intercept = _fit_line(x, y)
        expected_slope, expected_intercept = np.polyfit(x, y, 1)
        assert abs(slope / expected_slope - 1.0) <= 1e-12
        # dt/dx against x - L has an intercept near zero, so the lines are
        # compared where they are fitted, relative to the data.
        gap = (slope - expected_slope) * x + (intercept - expected_intercept)
        assert np.max(np.abs(gap)) <= 1e-12 * np.max(np.abs(y))


class TestOcOracle:
    def test_stops_unconverged_at_the_iteration_cap(self, problem):
        _, _, history = _optimize_profile_oc(
            problem, optimal_length(problem), N_CELLS, max_iters=40
        )
        assert len(history) - 1 == 40
        assert history[-1].max_change > 1e-8


class TestPaperClaims:
    @given(
        log_k=st.floats(0.0, 3.0),
        log_h=st.floats(0.0, 3.0),
        log_area=st.floats(-6.0, -3.0),
        log_q0=st.floats(-1.0, 3.0),
        n_cells=st.integers(8, 4000),
    )
    @settings(max_examples=25, deadline=None)
    def test_one_dimensionless_profile(self, log_k, log_h, log_area, log_q0, n_cells):
        # With x / L* and t k / (h L*^2) every problem is the same problem,
        # so the scaled optimal profiles coincide.
        drawn = FinProblem(
            k=10.0**log_k, h=10.0**log_h, area=10.0**log_area, q0=10.0**log_q0
        )
        scaled = []
        for p in (drawn, ORACLE_PROBLEMS["k200-h20"]):
            length = optimal_length(p)
            report = optimize_profile(p, length, OptimizerOptions(n_cells=n_cells))
            scaled.append(report.profile.values * p.k / (p.h * length * length))
        assert np.max(np.abs(scaled[0] - scaled[1])) <= 1e-14

    def test_same_optimum_at_fixed_root_temperature(self, problem, fixed_length_report):
        # The optimum of compliance at a fixed heat input also maximizes the
        # heat rate at a fixed root temperature: q = theta0 / R.  The two
        # solves round the convection, next to conductances 5e5 times larger,
        # in different orders: they agree to about 1e-12, not to eps.
        theta0 = 50.0
        profile = fixed_length_report.profile
        resistance = fixed_length_report.compliance / problem.q0**2
        assert abs(_heat_rate(problem, profile, theta0) * resistance / theta0 - 1) <= 1e-11

        best = _heat_rate(problem, profile, theta0)
        m = fixed_length_report.certificate.support_faces
        rng = np.random.default_rng(11)
        for _ in range(20):
            direction = rng.standard_normal(m)
            direction -= direction.mean()
            values = np.array(profile.values)
            values[:m] *= 1.0 + 1e-3 * direction / np.max(np.abs(direction))
            values[:m] *= (problem.area / profile.mesh.dx - values[m:].sum()) / values[
                :m
            ].sum()
            perturbed = profile.with_values(values)
            assert abs(perturbed.area / problem.area - 1.0) <= 1e-12
            assert _heat_rate(problem, perturbed, theta0) <= best * (1.0 + 1e-12)


def _heat_rate(problem, profile, theta0):
    """Heat rate into the fin with its root held at theta0.

    The nodes past the root are solved with theta0 as a boundary value; the
    heat rate is what the fin sheds, a sum of positive terms.
    """
    convection, off = assemble_fin_system(problem, profile)
    # Row 1's link to the root moves to the right-hand side, but its
    # conductance stays on row 1's diagonal, so the row sum gains it.
    rowsum = convection[1:].copy()
    rowsum[0] -= off[0]
    rest = kernels.solve_spd_tridiagonal(rowsum, off[1:], -off[0] * theta0, 0.0)
    theta = np.concatenate(([theta0], rest))
    return 2.0 * problem.h * math.fsum(theta * profile.mesh.node_weights)
