"""Adjoint consistency, gradient correctness, and finite-difference checks."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finopt.kernels
import finopt.solver
from finopt import (
    DomainError,
    FinProblem,
    SolverError,
    compliance_gradient,
    finite_difference_gradient,
    optimal_lagrange_multiplier,
    optimal_length,
    solve_adjoint,
    solve_temperature,
)
from finopt.sensitivity import (
    TIP_EXCLUSION,
    interior_face_count,
    interior_node_count,
)
from finopt.mesh import Mesh, ThicknessProfile
from conftest import (
    five_reference_profiles,
    optimal_profile,
    random_feasible_profile,
    rectangular_profile,
)


def gradient_of(problem, profile):
    theta = solve_temperature(problem, profile)
    w = solve_adjoint(problem, profile)
    return compliance_gradient(problem, profile, theta, w)


class TestSelfAdjointness:
    def test_adjoint_equals_primal_on_five_profiles(self, base_problem):
        # the compliance load makes the problem self-adjoint: w = theta up
        # to the rounding of two elimination orders
        for profile in five_reference_profiles(base_problem):
            theta = solve_temperature(base_problem, profile)
            w = solve_adjoint(base_problem, profile)
            gap = np.max(np.abs(w.values - theta.values)) / theta.root_value
            assert gap <= 1e-10

    def test_high_h_case(self, high_h_problem):
        profile = optimal_profile(high_h_problem, 500)
        theta = solve_temperature(high_h_problem, profile)
        w = solve_adjoint(high_h_problem, profile)
        gap = np.max(np.abs(w.values - theta.values)) / theta.root_value
        assert gap <= 1e-10

    @given(
        log_k=st.floats(-1.0, 3.0),
        log_h=st.floats(-1.0, 4.0),
        log_q0=st.floats(-2.0, 3.0),
        n_cells=st.integers(4, 4000),
        factor=st.floats(0.3, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_adjoint_matches_primal_to_rounding(
        self, log_k, log_h, log_q0, n_cells, factor, seed
    ):
        # The adjoint load dC/dtheta of C = q0 theta(0) is the heat input,
        # so w solves the primal's system, tip first: the two differ only
        # by the rounding of two elimination orders.  Over 3000 draws of
        # this domain the gap max |w - theta| / theta(0) was at most
        # 1.2e-15, and over 400 optimal profiles from 1e-8 to 10 L* on 4 to
        # 1e5 cells at most 4.1e-15; 1e-14 bounds both.
        problem = FinProblem(k=10.0**log_k, h=10.0**log_h, area=1e-4, q0=10.0**log_q0)
        length = factor * optimal_length(problem)
        rng = np.random.default_rng(seed)
        values = (problem.area / length) * 10.0 ** rng.uniform(-3.0, 0.0, n_cells)
        profile = ThicknessProfile(Mesh(n_cells, length), values)
        w = solve_adjoint(problem, profile).values
        theta = solve_temperature(problem, profile).values
        assert np.max(np.abs(w - theta)) <= 1e-14 * theta[0]

    def test_adjoint_is_solved_tip_first(self, base_problem, monkeypatch):
        # The kernel gets the system with its nodes reversed: the root's
        # load row last.
        profile = optimal_profile(base_problem, 200)
        loads = []
        solve = finopt.kernels.solve_spd_tridiagonal

        def recording(rowsum, off, first, last):
            loads.append((first, last))
            return solve(rowsum, off, first, last)

        monkeypatch.setattr(finopt.kernels, "solve_spd_tridiagonal", recording)
        w = solve_adjoint(base_problem, profile)
        ((first, last),) = loads
        assert last == base_problem.q0 and first == 0.0
        assert w.values[0] > w.values[-1]

    def test_reversed_solve_names_failed_row_in_mesh_order(
        self, base_problem, monkeypatch
    ):
        # Row 499 of 1001 gets a zero diagonal; reversed it is row 501.  The
        # adjoint assembles the reversed profile, whose rows come tip first.
        profile = rectangular_profile(base_problem, 1000)
        rowsum, off = np.full(1001, 2.0), np.full(1000, -1.0)
        rowsum[[0, -1]] = 3.0
        rowsum[499] = -2.0

        def faulty(problem, assembled):
            in_mesh_order = assembled is profile
            return (rowsum if in_mesh_order else rowsum[::-1]), off

        monkeypatch.setattr(finopt.solver, "assemble_fin_system", faulty)
        for solve in (solve_temperature, solve_adjoint):
            with pytest.raises(SolverError, match=r"at row 499\)$"):
                solve(base_problem, profile)

    def test_reversed_solve_rejects_non_finite_values(self, base_problem, monkeypatch):
        profile = rectangular_profile(base_problem, 100)
        monkeypatch.setattr(
            finopt.kernels, "solve_spd_tridiagonal",
            lambda rowsum, off, first, last: np.full(rowsum.shape[0], np.nan),
        )
        with pytest.raises(SolverError, match="non-finite"):
            solve_adjoint(base_problem, profile)

    def test_zero_load_gives_zero_adjoint(self, base_problem):
        cold = dataclasses.replace(base_problem, q0=0.0)
        profile = rectangular_profile(cold, 100)
        assert np.all(solve_adjoint(cold, profile).values == 0.0)


class TestGradientStructure:
    def test_gradient_is_nonpositive(self, base_problem):
        # thickening any face can only improve (or not hurt) conduction
        for profile in five_reference_profiles(base_problem):
            grad = gradient_of(base_problem, profile)
            assert np.all(grad.values <= 0.0)

    def test_density_matches_values(self, base_problem):
        profile = optimal_profile(base_problem, 200)
        grad = gradient_of(base_problem, profile)
        dx = profile.mesh.dx
        assert np.allclose(grad.density, -grad.values / dx, rtol=1e-15)

    def test_lagrange_shift_near_closed_form(self, base_problem):
        profile = optimal_profile(base_problem, 1000)
        grad = gradient_of(base_problem, profile)
        lam = optimal_lagrange_multiplier(base_problem)
        assert grad.lagrange_shift == pytest.approx(lam, rel=1e-2)

    def test_density_constant_inside_on_optimal_profile(self, base_problem):
        profile = optimal_profile(base_problem, 1000)
        grad = gradient_of(base_problem, profile)
        d = grad.density[: interior_face_count(profile.mesh)]
        assert np.std(d) / np.mean(d) <= 1e-3

    @pytest.mark.parametrize("zero_from", [0, 30])
    def test_zero_faces_have_a_finite_gradient(self, base_problem, zero_from):
        # Faces zero_from.. carry no heat.  The first of them still has the
        # one-sided gradient -k (theta / dx)^2 dx of its hot side; past it
        # both sides sit at theta = 0 and the gradient vanishes.
        values = np.full(50, 1e-3)
        values[zero_from:] = 0.0
        profile = ThicknessProfile(Mesh(50, 0.1), values)
        grad = gradient_of(base_problem, profile)
        assert np.all(np.isfinite(grad.values)) and np.all(grad.values <= 0.0)
        theta = solve_temperature(base_problem, profile).values
        dx = profile.mesh.dx
        edge = -base_problem.k * (theta[zero_from] / dx) ** 2 * dx
        assert grad.values[zero_from] == pytest.approx(edge, rel=1e-14)
        assert np.all(grad.values[zero_from + 1 :] == 0.0)
        if zero_from > 0:
            face = zero_from - 1
            fd = finite_difference_gradient(
                base_problem, profile, face, 1e-4 * values[face]
            )
            assert fd == pytest.approx(grad.values[face], rel=1e-6)
        with pytest.raises(DomainError, match="negative face"):
            finite_difference_gradient(base_problem, profile, zero_from, 1e-9)

    def test_mismatched_meshes_rejected(self, base_problem):
        profile = rectangular_profile(base_problem, 100)
        other = rectangular_profile(base_problem, 200)
        theta = solve_temperature(base_problem, profile)
        w = solve_adjoint(base_problem, profile)
        theta_other = solve_temperature(base_problem, other)
        w_other = solve_adjoint(base_problem, other)
        with pytest.raises(DomainError):
            compliance_gradient(base_problem, profile, theta_other, w)
        with pytest.raises(DomainError):
            compliance_gradient(base_problem, profile, theta, w_other)


class TestInteriorMask:
    def test_excludes_tip_zone_only(self):
        mesh = Mesh(100, 1.0)
        count = interior_face_count(mesh)
        # the root face is kept, faces past 90% of the length are dropped
        faces = mesh.faces
        assert np.all(faces[:count] <= (1.0 - TIP_EXCLUSION) * mesh.length)
        assert np.all(faces[count:] > (1.0 - TIP_EXCLUSION) * mesh.length)
        assert count == 90

    @given(n_cells=st.integers(4, 100000), log_length=st.floats(-8.0, 4.0))
    @settings(max_examples=200, deadline=None)
    def test_counts_are_the_leading_positions(self, n_cells, log_length):
        # The windows are prefixes of Mesh.faces and of the interior nodes,
        # counted exactly as the masks over those arrays count them.
        mesh = Mesh(n_cells, 10.0**log_length)
        limit = (1.0 - TIP_EXCLUSION) * mesh.length
        faces = mesh.faces <= limit
        nodes = mesh.nodes[1:-1] <= limit
        assert np.all(faces[: interior_face_count(mesh)])
        assert not np.any(faces[interior_face_count(mesh) :])
        assert np.all(nodes[: interior_node_count(mesh)])
        assert not np.any(nodes[interior_node_count(mesh) :])


class TestFiniteDifferenceAgreement:
    def test_optimal_profile_interior_faces(self, base_problem):
        # n = 64, central step of 1e-6 times the root thickness
        profile = optimal_profile(base_problem, 64)
        grad = gradient_of(base_problem, profile)
        step = 1e-6 * profile.values[0]
        worst = 0.0
        for f in range(interior_face_count(profile.mesh)):
            fd = finite_difference_gradient(base_problem, profile, f, step)
            worst = max(worst, abs(fd - grad.values[f]) / abs(grad.values[f]))
        assert worst <= 1e-5

    @pytest.mark.parametrize(
        "problem",
        [
            pytest.param(FinProblem(k=200.0, h=20.0, area=1.6e-4, q0=20.0), id="k200-h20"),
            pytest.param(FinProblem(k=3.7, h=812.0, area=2.3e-6, q0=0.31), id="k3.7-h812"),
        ],
    )
    def test_root_faces_on_a_fine_mesh(self, problem):
        # At 16000 cells the conductances exceed the convection by ~1e8; a
        # diagonal that rounds the convection puts the central difference
        # off by 3e-5 here, against a truncation error of about 1e-6.
        profile = optimal_profile(problem, 16000)
        grad = gradient_of(problem, profile)
        for f in (0, 1):
            step = 1e-3 * profile.values[f]
            fd = finite_difference_gradient(problem, profile, f, step)
            assert abs(fd - grad.values[f]) <= 1e-5 * abs(grad.values[f])

    def test_rectangular_profile_interior_faces(self, base_problem):
        # the uniform fin's gradient nearly vanishes toward the tip, so the
        # central difference is round-off limited there; bound accordingly
        profile = rectangular_profile(base_problem, 64)
        grad = gradient_of(base_problem, profile)
        step = 1e-6 * profile.values[0]
        for f in range(interior_face_count(profile.mesh)):
            fd = finite_difference_gradient(base_problem, profile, f, step)
            err = abs(fd - grad.values[f])
            assert err <= 1e-4 * abs(grad.values[f]) + 1e-12

    def test_random_profile_directional_agreement(self, base_problem):
        profile = random_feasible_profile(base_problem, 80, seed=5)
        grad = gradient_of(base_problem, profile)
        rng = np.random.default_rng(11)
        direction = rng.standard_normal(80)
        direction /= np.max(np.abs(direction))
        step = 1e-4 * float(np.min(profile.values))
        plus = profile.with_values(profile.values + step * direction)
        minus = profile.with_values(profile.values - step * direction)
        c_plus = base_problem.q0 * solve_temperature(base_problem, plus).root_value
        c_minus = base_problem.q0 * solve_temperature(base_problem, minus).root_value
        fd = (c_plus - c_minus) / (2.0 * step)
        exact = float(np.dot(grad.values, direction))
        assert fd == pytest.approx(exact, rel=1e-5)

    def test_step_sign_symmetry_is_exact(self, base_problem):
        profile = rectangular_profile(base_problem, 64)
        step = 1e-6 * profile.values[0]
        plus = finite_difference_gradient(base_problem, profile, 10, step)
        minus = finite_difference_gradient(base_problem, profile, 10, -step)
        assert plus == minus

    def test_step_shrink_converges_quadratically(self, base_problem):
        profile = rectangular_profile(base_problem, 64)
        grad = gradient_of(base_problem, profile)
        f = 5
        t0 = profile.values[0]
        err_coarse = abs(
            finite_difference_gradient(base_problem, profile, f, 1e-2 * t0)
            - grad.values[f]
        )
        err_fine = abs(
            finite_difference_gradient(base_problem, profile, f, 1e-3 * t0)
            - grad.values[f]
        )
        # tenfold smaller step should cut the truncation error ~100x
        assert err_fine <= 0.05 * err_coarse


class TestFiniteDifferenceValidation:
    def test_rejects_zero_or_nonfinite_step(self, base_problem):
        profile = rectangular_profile(base_problem, 64)
        with pytest.raises(DomainError):
            finite_difference_gradient(base_problem, profile, 3, 0.0)
        with pytest.raises(DomainError):
            finite_difference_gradient(base_problem, profile, 3, float("nan"))

    def test_rejects_out_of_range_face(self, base_problem):
        profile = rectangular_profile(base_problem, 64)
        with pytest.raises(DomainError):
            finite_difference_gradient(base_problem, profile, 64, 1e-9)

    def test_rejects_step_that_breaks_the_floor(self, base_problem):
        profile = optimal_profile(base_problem, 64)
        tip_face = profile.mesh.n_cells - 1
        with pytest.raises(DomainError):
            finite_difference_gradient(
                base_problem, profile, tip_face, 10.0 * profile.values[tip_face]
            )
