"""Closed-form optimum: frozen oracles and structural identities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finopt import (
    DomainError,
    FinProblem,
    duffin_equivalent_flux,
    optimal_compliance,
    optimal_lagrange_multiplier,
    optimal_length,
    optimal_resistance_breakdown,
    optimal_solution,
    optimal_temperature,
    optimal_thickness,
    resistance_breakdown,
)
from conftest import DECADES, ORACLE_H20, ORACLE_H200, ORACLE_RECT

REL = 1e-14  # closed forms should agree with the hand oracles to round-off

physics = st.builds(
    FinProblem,
    k=st.floats(1.0, 1e3),
    h=st.floats(1.0, 1e3),
    area=st.floats(1e-6, 1e-2),
    q0=st.floats(0.1, 1e3),
)


@pytest.mark.parametrize("oracle", [ORACLE_H20, ORACLE_H200], ids=["h20", "h200"])
class TestFrozenOracles:
    def _problem(self, oracle):
        return FinProblem(k=200.0, h=oracle["h"], area=1.6e-4, q0=20.0)

    def test_length(self, oracle):
        assert optimal_length(self._problem(oracle)) == pytest.approx(
            oracle["L"], rel=REL
        )

    def test_root_thickness(self, oracle):
        p = self._problem(oracle)
        assert optimal_thickness(p, 0.0) == pytest.approx(oracle["t0"], rel=REL)

    def test_root_temperature(self, oracle):
        p = self._problem(oracle)
        assert optimal_temperature(p, 0.0) == pytest.approx(oracle["theta0"], rel=REL)

    def test_compliance(self, oracle):
        assert optimal_compliance(self._problem(oracle)) == pytest.approx(
            oracle["compliance"], rel=REL
        )

    def test_lagrange_multiplier(self, oracle):
        assert optimal_lagrange_multiplier(self._problem(oracle)) == pytest.approx(
            oracle["lagrange"], rel=REL
        )

    def test_duffin_flux(self, oracle):
        assert duffin_equivalent_flux(self._problem(oracle)) == pytest.approx(
            oracle["duffin"], rel=REL
        )


class TestShape:
    def test_profile_vanishes_at_tip_exactly(self, base_problem):
        L = optimal_length(base_problem)
        assert optimal_thickness(base_problem, L) == 0.0
        assert optimal_temperature(base_problem, L) == 0.0

    def test_profile_is_quadratic_taper(self, base_problem):
        L = optimal_length(base_problem)
        x = np.linspace(0.0, L, 7)
        t = optimal_thickness(base_problem, x)
        expected = (base_problem.h / base_problem.k) * (L - x) ** 2
        assert np.allclose(t, expected, rtol=1e-15)

    def test_temperature_is_affine(self, base_problem):
        L = optimal_length(base_problem)
        x = np.linspace(0.0, L, 9)
        theta = optimal_temperature(base_problem, x)
        theta0 = optimal_temperature(base_problem, 0.0)
        assert np.allclose(theta, theta0 * (1.0 - x / L), rtol=1e-14)

    def test_positions_outside_fin_rejected(self, base_problem):
        L = optimal_length(base_problem)
        with pytest.raises(DomainError):
            optimal_thickness(base_problem, -0.01)
        with pytest.raises(DomainError):
            optimal_temperature(base_problem, 1.01 * L)

    def test_profile_integral_equals_area_budget(self, base_problem):
        # exact identity: integral of (h/k)(L-x)^2 over [0, L] is the budget
        L = optimal_length(base_problem)
        x = np.linspace(0.0, L, 200001)
        t = optimal_thickness(base_problem, x)
        integral = np.trapezoid(t, x)
        assert integral == pytest.approx(base_problem.area, rel=1e-9)


class TestIdentities:
    def test_compliance_is_q0_times_theta0(self, base_problem):
        c = optimal_compliance(base_problem)
        theta0 = optimal_temperature(base_problem, 0.0)
        assert c == pytest.approx(base_problem.q0 * theta0, rel=1e-15)

    @given(problem=physics)
    @settings(max_examples=200, deadline=None)
    def test_biot_is_exactly_one(self, problem):
        breakdown = optimal_resistance_breakdown(problem)
        assert breakdown.biot == 1.0
        assert breakdown.r_fin == breakdown.r_cond + breakdown.r_conv

    @given(problem=physics)
    @settings(max_examples=200, deadline=None)
    def test_duffin_flux_equals_h_times_length(self, problem):
        flux = duffin_equivalent_flux(problem)
        assert flux == pytest.approx(problem.h * optimal_length(problem), rel=1e-14)

    @given(problem=physics)
    @settings(max_examples=200, deadline=None)
    def test_duffin_drive_gives_unit_root_temperature(self, problem):
        from dataclasses import replace

        driven = replace(problem, q0=duffin_equivalent_flux(problem))
        assert optimal_temperature(driven, 0.0) == pytest.approx(1.0, rel=1e-13)

    @given(problem=physics)
    @settings(max_examples=100, deadline=None)
    def test_length_scales_as_cube_root_of_area(self, problem):
        from dataclasses import replace

        L1 = optimal_length(problem)
        L8 = optimal_length(replace(problem, area=8.0 * problem.area))
        assert L8 == pytest.approx(2.0 * L1, rel=1e-14)

    @given(problem=physics)
    @settings(max_examples=100, deadline=None)
    def test_resistance_chain(self, problem):
        # r_fin = theta0 / q0 = 1 / (h L)
        breakdown = optimal_resistance_breakdown(problem)
        L = optimal_length(problem)
        assert breakdown.r_fin == pytest.approx(1.0 / (problem.h * L), rel=1e-14)
        assert breakdown.r_conv == pytest.approx(0.5 / (problem.h * L), rel=1e-14)


class TestResistanceBreakdownGeneric:
    def test_rectangular_fin_oracle(self, base_problem):
        L = optimal_length(base_problem)
        c = base_problem.q0 * ORACLE_RECT["theta0"]
        breakdown = resistance_breakdown(base_problem, c, L)
        assert breakdown.biot == pytest.approx(ORACLE_RECT["biot"], rel=1e-12)

    def test_rejects_zero_q0(self):
        p = FinProblem(k=200.0, h=20.0, area=1.6e-4, q0=0.0)
        with pytest.raises(DomainError):
            resistance_breakdown(p, 1.0, 0.1)

    def test_rejects_bad_inputs(self, base_problem):
        with pytest.raises(DomainError):
            resistance_breakdown(base_problem, -1.0, 0.1)
        with pytest.raises(DomainError):
            resistance_breakdown(base_problem, 1.0, 0.0)


class TestOptimalSolutionBundle:
    def test_fields_agree_with_functions(self, base_problem):
        sol = optimal_solution(base_problem)
        assert sol.length == optimal_length(base_problem)
        assert sol.root_thickness == optimal_thickness(base_problem, 0.0)
        assert sol.root_temp_diff == optimal_temperature(base_problem, 0.0)
        assert sol.compliance == optimal_compliance(base_problem)
        assert sol.resistances().biot == 1.0

    def test_callables_sample_the_closed_form(self, base_problem):
        sol = optimal_solution(base_problem)
        x = np.array([0.0, 0.3 * sol.length, sol.length])
        assert np.allclose(
            sol.thickness(x), optimal_thickness(base_problem, x), rtol=1e-15
        )
        assert np.allclose(
            sol.temperature(x), optimal_temperature(base_problem, x), rtol=1e-15
        )

    def test_root_values_are_the_sampled_first_row(self):
        # t0 and theta0 are the closed forms at x = 0, so a table sampled
        # from x = 0 starts with them bit for bit, and every scalar
        # position gets the bits of the same position in an array.
        rng = np.random.default_rng(33)
        for _ in range(1000):
            p = FinProblem(k=10.0 ** rng.uniform(-1, 3), h=10.0 ** rng.uniform(0, 3),
                           area=10.0 ** rng.uniform(-7, -3), q0=10.0 ** rng.uniform(-1, 3))
            sol = optimal_solution(p)
            x = np.linspace(0.0, sol.length, 7)
            t, theta = sol.thickness(x), sol.temperature(x)
            assert sol.root_thickness == t[0]
            assert sol.root_temp_diff == theta[0]
            assert [sol.thickness(float(xi)) for xi in x] == t.tolist()
            assert [sol.temperature(float(xi)) for xi in x] == theta.tolist()


class TestOutsideFloat64:
    # (k, h, area, q0) of valid problems whose L* underflows to 0 or overflows.
    @pytest.mark.parametrize("args", [(1e-300, 1e300, 1e-300, 1.0),
                                      (1e300, 1e-300, 1e10, 1.0)],
                             ids=["length-zero", "length-inf"])
    def test_length_out_of_range_is_a_domain_error(self, args):
        with pytest.raises(DomainError, match="closed-form length L"):
            optimal_length(FinProblem(*args))

    # q0 / (h L*^2) is 2.2e166 and 1.0e233 here: its square overflows.
    @pytest.mark.parametrize("args", [(1.0, 1.0, 1e-250, 1.0), (1.0, 1.0, 1e-200, 1e100)])
    def test_multiplier_out_of_range_is_a_domain_error(self, args):
        with pytest.raises(DomainError, match="closed-form Lagrange multiplier .* is inf"):
            optimal_lagrange_multiplier(FinProblem(*args))

    @given(log_k=DECADES["log_k"], log_h=DECADES["log_h"],
           log_area=DECADES["log_area"], log_q0=DECADES["log_q0"])
    @settings(max_examples=500, deadline=None)
    def test_finite_multiplier_keeps_its_bits(self, log_k, log_h, log_area, log_q0):
        problem = FinProblem(k=10.0**log_k, h=10.0**log_h, area=10.0**log_area,
                             q0=10.0**log_q0)
        L = optimal_length(problem)
        expected = problem.k * (problem.q0 / (problem.h * L * L)) ** 2
        assert optimal_lagrange_multiplier(problem) == expected
