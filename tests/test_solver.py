"""Discrete fin solves against closed-form oracles and conservation laws."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finopt.kernels
from finopt import (
    DomainError,
    FinProblem,
    assemble_fin_system,
    compliance,
    energy_balance_residual,
    optimal_length,
    refine_and_estimate_order,
    solve_temperature,
    thickness_floor,
    variational_compliance,
)
from finopt.mesh import Mesh, TemperatureField, ThicknessProfile
from conftest import (
    ORACLE_H20,
    ORACLE_RECT,
    ORACLE_RECT_THICK,
    cosh_theta,
    five_reference_profiles,
    optimal_profile,
    rectangular_profile,
    triangular_profile,
)


class TestAssembly:
    def test_matrix_is_spd_tridiagonal(self, base_problem):
        profile = rectangular_profile(base_problem, 50)
        rowsum, off = assemble_fin_system(base_problem, profile)
        assert rowsum.shape == (51,)
        assert off.shape == (50,)
        assert np.all(off < 0.0)
        # the row sums are the convection, with no conductance rounded in;
        # positive row sums make the matrix strictly diagonally dominant
        mesh = profile.mesh
        assert np.array_equal(rowsum, 2.0 * base_problem.h * mesh.node_weights)
        assert np.all(rowsum > 0.0)

    @given(
        log_k=st.floats(-6.0, 8.0), log_h=st.floats(-6.0, 8.0),
        log_length=st.floats(-8.0, 2.0), n_cells=st.integers(4, 300),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_two_arrays_with_the_bits_of_the_node_weight_form(
        self, log_k, log_h, log_length, n_cells, seed
    ):
        # 2h * node_weights and -(k t / dx) are the oracle, bit for bit.
        problem = FinProblem(k=10.0**log_k, h=10.0**log_h, area=1.0, q0=1.0)
        values = np.random.default_rng(seed).random(n_cells)
        values[::7] = 0.0
        profile = ThicknessProfile(Mesh(n_cells, 10.0**log_length), values)
        mesh = profile.mesh
        rowsum, off = assemble_fin_system(problem, profile)
        expected = 2.0 * problem.h * mesh.node_weights
        assert rowsum.tobytes() == expected.tobytes()
        assert off.tobytes() == (-(problem.k * profile.values / mesh.dx)).tobytes()
        assert rowsum.base is None and off.base is None

    def test_rhs_is_root_load_only(self, base_problem, monkeypatch):
        # The one load, q0 on the root's row, goes to the kernel as a number.
        profile = rectangular_profile(base_problem, 20)
        loads = []
        solve = finopt.kernels.solve_spd_tridiagonal

        def recording(rowsum, off, first, last):
            loads.append((first, last))
            return solve(rowsum, off, first, last)

        monkeypatch.setattr(finopt.kernels, "solve_spd_tridiagonal", recording)
        solve_temperature(base_problem, profile)
        assert loads == [(base_problem.q0, 0.0)]


class TestUniformFinOracle:
    def test_matches_cosh_solution(self, base_problem):
        L = optimal_length(base_problem)
        profile = rectangular_profile(base_problem, 1000)
        theta = solve_temperature(base_problem, profile)
        exact = cosh_theta(base_problem, ORACLE_RECT["t"], L, profile.mesh.nodes)
        rel = np.abs(theta.values - exact) / exact
        assert np.max(rel) <= 1e-3

    def test_root_temperature_oracles(self, base_problem):
        L = optimal_length(base_problem)
        for oracle in (ORACLE_RECT, ORACLE_RECT_THICK):
            profile = rectangular_profile(base_problem, 1000, thickness=oracle["t"])
            theta = solve_temperature(base_problem, profile)
            assert theta.root_value == pytest.approx(oracle["theta0"], rel=5e-4)

    def test_observed_order_is_second(self, base_problem):
        study = refine_and_estimate_order(
            base_problem,
            lambda n: rectangular_profile(base_problem, n),
            n_cells=(250, 500, 1000),
            exact=ORACLE_RECT["theta0"],
        )
        assert study.order is not None
        assert study.order >= 1.8


class TestOptimalProfile:
    def test_root_temperature_within_half_percent(self, base_problem):
        profile = optimal_profile(base_problem, 1000)
        theta = solve_temperature(base_problem, profile)
        assert theta.root_value == pytest.approx(ORACLE_H20["theta0"], rel=5e-3)

    def test_temperature_is_affine(self, base_problem):
        profile = optimal_profile(base_problem, 1000)
        theta = solve_temperature(base_problem, profile)
        x = profile.mesh.nodes
        coeffs = np.polyfit(x, theta.values, 1)
        deviation = np.max(np.abs(theta.values - np.polyval(coeffs, x)))
        assert deviation <= 1e-2 * ORACLE_H20["theta0"]

    def test_tip_temperature_near_zero(self, base_problem):
        profile = optimal_profile(base_problem, 1000)
        theta = solve_temperature(base_problem, profile)
        assert theta.tip_value <= 1e-3 * theta.root_value


class TestEnergyBalance:
    def test_residual_small_on_varied_profiles(self, base_problem):
        for profile in five_reference_profiles(base_problem, n_cells=400):
            theta = solve_temperature(base_problem, profile)
            assert energy_balance_residual(base_problem, theta, profile) <= 1e-10

    def test_uniform_field_scaling_shows_up_as_residual(self, base_problem):
        profile = rectangular_profile(base_problem, 300)
        theta = solve_temperature(base_problem, profile)
        scaled = TemperatureField(theta.mesh, 1.1 * theta.values)
        residual = energy_balance_residual(base_problem, scaled, profile)
        assert residual == pytest.approx(0.1, rel=1e-9)

    def test_zero_heat_input(self, base_problem):
        cold = dataclasses.replace(base_problem, q0=0.0)
        profile = rectangular_profile(cold, 100)
        theta = solve_temperature(cold, profile)
        assert np.all(theta.values == 0.0)
        assert energy_balance_residual(cold, theta, profile) == 0.0

    def test_mesh_mismatch_rejected(self, base_problem):
        profile = rectangular_profile(base_problem, 100)
        other = rectangular_profile(base_problem, 200)
        theta = solve_temperature(base_problem, profile)
        with pytest.raises(DomainError):
            energy_balance_residual(base_problem, theta, other)


class TestLinearity:
    def test_doubling_q0_doubles_theta_bitwise(self, base_problem):
        profile = triangular_profile(base_problem, 200)
        theta = solve_temperature(base_problem, profile)
        doubled = solve_temperature(
            dataclasses.replace(base_problem, q0=2.0 * base_problem.q0), profile
        )
        assert np.array_equal(doubled.values, 2.0 * theta.values)

    @given(scale=st.floats(0.1, 10.0))
    @settings(max_examples=25, deadline=None)
    def test_general_scaling(self, scale):
        problem = FinProblem(k=200.0, h=20.0, area=1.6e-4, q0=20.0)
        profile = rectangular_profile(problem, 64)
        theta = solve_temperature(problem, profile)
        scaled = solve_temperature(
            dataclasses.replace(problem, q0=scale * problem.q0), profile
        )
        assert np.allclose(scaled.values, scale * theta.values, rtol=1e-13)


class TestComplianceEvaluations:
    def test_compliance_definition(self, base_problem):
        profile = rectangular_profile(base_problem, 150)
        theta = solve_temperature(base_problem, profile)
        assert compliance(base_problem, theta) == base_problem.q0 * theta.root_value

    def test_variational_form_agrees(self, base_problem):
        for profile in five_reference_profiles(base_problem, n_cells=300):
            theta = solve_temperature(base_problem, profile)
            direct = compliance(base_problem, theta)
            recovered = variational_compliance(base_problem, profile, theta)
            assert recovered == pytest.approx(direct, rel=1e-10)

    @given(
        n_cells=st.integers(4, 20000),
        log_spread=st.floats(0.0, 6.0),
        factor=st.floats(0.3, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_pairwise_sum_meets_exact_sum(self, n_cells, log_spread, factor, seed):
        # Random admissible profiles: thickness log-uniform over up to six
        # decades below A/L.
        problem = FinProblem(k=200.0, h=20.0, area=1.6e-4, q0=20.0)
        length = factor * optimal_length(problem)
        rng = np.random.default_rng(seed)
        values = (problem.area / length) * 10.0 ** rng.uniform(-log_spread, 0.0, n_cells)
        profile = ThicknessProfile(Mesh(n_cells, length), values)
        theta = solve_temperature(problem, profile)
        exact = _exactly_summed_variational_compliance(problem, profile, theta)
        bound = math.ceil(math.log2(n_cells)) * np.finfo(np.float64).eps
        recovered = variational_compliance(problem, profile, theta)
        assert abs(recovered - exact) <= bound * abs(exact)

    def test_pairwise_sum_on_hundred_thousand_cells(self, base_problem):
        profile = optimal_profile(base_problem, 100_000)
        theta = solve_temperature(base_problem, profile)
        exact = _exactly_summed_variational_compliance(base_problem, profile, theta)
        bound = math.ceil(math.log2(100_000)) * np.finfo(np.float64).eps
        recovered = variational_compliance(base_problem, profile, theta)
        assert abs(recovered - exact) <= bound * abs(exact)

    def test_variational_form_checks_meshes(self, base_problem):
        profile = rectangular_profile(base_problem, 100)
        theta = solve_temperature(base_problem, profile)
        other = rectangular_profile(base_problem, 200)
        with pytest.raises(DomainError):
            variational_compliance(base_problem, other, theta)


class TestFloorAndFailure:
    def test_floor_value(self, base_problem):
        assert thickness_floor(base_problem, optimal_length(base_problem)) == 0.0

    def test_zero_root_face_isolates_the_root_node(self, base_problem):
        # The root node keeps its half cell of convection, h dx, and sheds
        # all of q0 there; nothing reaches the nodes past the zero face.
        mesh = Mesh(50, 0.1)
        values = np.full(50, 1e-3)
        values[0] = 0.0
        profile = ThicknessProfile(mesh, values)
        theta = solve_temperature(base_problem, profile)
        expected = base_problem.q0 / (base_problem.h * mesh.dx)
        assert theta.root_value == pytest.approx(expected, rel=1e-15)
        assert np.all(theta.values[1:] == 0.0)
        assert energy_balance_residual(base_problem, theta, profile) <= 1e-15

    @pytest.mark.parametrize("zero_from", [30, 49])
    def test_zero_faces_cut_off_the_tip(self, base_problem, zero_from):
        # Faces zero_from.. are zero: every node past face zero_from - 1
        # stays at theta = 0, and the rest matches a dense solve.
        mesh = Mesh(50, 0.1)
        values = np.full(50, 1e-3)
        values[zero_from:] = 0.0
        profile = ThicknessProfile(mesh, values)
        theta = solve_temperature(base_problem, profile)
        assert np.all(theta.values[zero_from + 1 :] == 0.0)
        assert np.all(theta.values[: zero_from + 1] > 0.0)
        rowsum, off = assemble_fin_system(base_problem, profile)
        rhs = np.zeros(51)
        rhs[0] = base_problem.q0
        matrix = np.diag(rowsum) + np.diag(off, 1) + np.diag(off, -1)
        matrix[np.arange(1, 51), np.arange(1, 51)] -= off
        matrix[np.arange(50), np.arange(50)] -= off
        np.testing.assert_allclose(
            theta.values, np.linalg.solve(matrix, rhs), rtol=1e-12, atol=0.0
        )
        assert energy_balance_residual(base_problem, theta, profile) <= 1e-10

    def test_floor_requires_positive_length(self, base_problem):
        with pytest.raises(DomainError):
            thickness_floor(base_problem, 0.0)


class TestRefinementStudyPaths:
    def test_needs_three_meshes(self, base_problem):
        with pytest.raises(DomainError):
            refine_and_estimate_order(
                base_problem,
                lambda n: rectangular_profile(base_problem, n),
                n_cells=(100, 200),
                exact=ORACLE_RECT["theta0"],
            )

    def test_needs_increasing_meshes(self, base_problem):
        with pytest.raises(DomainError):
            refine_and_estimate_order(
                base_problem,
                lambda n: rectangular_profile(base_problem, n),
                n_cells=(200, 100, 400),
                exact=ORACLE_RECT["theta0"],
            )

    def test_identical_values_inconclusive(self, base_problem):
        # q0 = 0 gives theta = 0 on every mesh, so each error is the same 1.0.
        cold = dataclasses.replace(base_problem, q0=0.0)
        study = refine_and_estimate_order(
            cold, lambda n: rectangular_profile(cold, n), n_cells=(250, 500, 1000), exact=1.0
        )
        assert study.errors == (1.0, 1.0, 1.0)
        assert study.order is None
        assert "not monotonically decreasing" in study.note

    def test_exact_value_hit_is_inconclusive(self, base_problem):
        cold = dataclasses.replace(base_problem, q0=0.0)
        study = refine_and_estimate_order(
            cold, lambda n: rectangular_profile(cold, n), n_cells=(250, 500, 1000), exact=0.0
        )
        assert study.order is None
        assert "vanished" in study.note

    def test_generator_must_honor_cell_count(self, base_problem):
        with pytest.raises(DomainError):
            refine_and_estimate_order(
                base_problem,
                lambda n: rectangular_profile(base_problem, 100),
                n_cells=(250, 500, 1000),
                exact=ORACLE_RECT["theta0"],
            )


def _exactly_summed_variational_compliance(problem, profile, theta):
    """2 b.theta - theta.A.theta with both energy sums exactly rounded: the oracle."""
    rowsum, off = assemble_fin_system(problem, profile)
    values = theta.values
    conduction = -off * np.square(np.diff(values))
    convection = rowsum * np.square(values)
    energy = math.fsum(conduction.tolist()) + math.fsum(convection.tolist())
    return 2.0 * problem.q0 * theta.root_value - energy
