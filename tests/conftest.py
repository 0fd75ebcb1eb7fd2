"""Shared fixtures and profile builders for the test suite.

Oracle values used across the tests were computed independently with the
stdlib math module (see the ORACLE dicts) and are frozen here; tests
compare library output against these constants, not against other library
calls.
"""

import math

import numpy as np
import pytest
from hypothesis import strategies as st

from finopt import FinProblem, optimal_length
from finopt.mesh import Mesh, ThicknessProfile

# Baseline configuration every module is exercised with:
# k = 200 W/(m K), A = 1.6e-4 m^2, q0 = 20 W/m, h = 20 or 200 W/(m^2 K).
K, AREA, Q0 = 200.0, 1.6e-4, 20.0

# Hand-computed closed forms for the baseline configuration.
ORACLE_H20 = {
    "h": 20.0,
    "L": 0.16868653306034986,
    "t0": 0.0028455146435920507,
    "theta0": 5.928155507483438,
    "compliance": 118.56311014966874,
    "lagrange": 247006.47947847648,
    "duffin": 3.373730661206997,
}
ORACLE_H200 = {
    "h": 200.0,
    "L": 0.07829735282337728,
    "t0": 0.0061304754591484266,
    "theta0": 1.2771823873225883,
    "compliance": 25.543647746451764,
    "lagrange": 53215.93280510782,
    "duffin": 15.659470564675452,
}

# Uniform fin of the same area (t = A/L) at h = 20, from the cosh solution.
ORACLE_RECT = {
    "t": 0.0009485048811973501,
    "m": 14.520956109204286,
    "theta0": 7.369532881624072,
    "biot": 1.4862819041508288,
}
# Uniform fin with t = 2A/L (root thickness of the triangular profile).
ORACLE_RECT_THICK = {
    "t": 0.0018970097623947002,
    "m": 10.267866534130576,
    "theta0": 5.465714027385231,
}


# Log10 of k, h, area, q0 and n_cells, over the decades the package serves.
DECADES = {
    "log_k": st.floats(-1.0, 3.0),
    "log_h": st.floats(0.0, 4.0),
    "log_area": st.floats(-7.0, -3.0),
    "log_q0": st.floats(-2.0, 3.0),
    "log_n": st.floats(math.log10(4.0), 5.0),
}


@pytest.fixture
def base_problem():
    return FinProblem(k=K, h=20.0, area=AREA, q0=Q0)


@pytest.fixture
def high_h_problem():
    return FinProblem(k=K, h=200.0, area=AREA, q0=Q0)


def cosh_theta(problem, thickness, length, x):
    """Closed-form temperature of a uniform fin with an insulated tip."""
    m = math.sqrt(2.0 * problem.h / (problem.k * thickness))
    x = np.asarray(x, dtype=np.float64)
    scale = problem.q0 / (problem.k * thickness * m * math.sinh(m * length))
    return scale * np.cosh(m * (length - x))


def draw_fin(rng, log_lengths):
    """(problem, n_cells, length) drawn log-uniform from rng.

    k, h, area and q0 span four, three, four and four decades, n_cells
    [4, 1e5], and the length log_lengths = (lo, hi) decades of the optimal
    length.
    """
    problem = FinProblem(
        k=10.0 ** rng.uniform(-1, 3), h=10.0 ** rng.uniform(0, 3),
        area=10.0 ** rng.uniform(-7, -3), q0=10.0 ** rng.uniform(-1, 3),
    )
    n_cells = round(10.0 ** rng.uniform(math.log10(4.0), 5.0))
    length = 10.0 ** rng.uniform(*log_lengths) * optimal_length(problem)
    return problem, n_cells, length


def optimal_profile(problem, n_cells, length=None):
    """Closed-form quadratic taper sampled at the faces."""
    if length is None:
        length = optimal_length(problem)
    mesh = Mesh(n_cells, length)
    ratio = problem.h / problem.k
    return ThicknessProfile.from_callable(mesh, lambda x: ratio * (length - x) ** 2)


def rectangular_profile(problem, n_cells, length=None, thickness=None):
    if length is None:
        length = optimal_length(problem)
    if thickness is None:
        thickness = problem.area / length
    return ThicknessProfile.constant(Mesh(n_cells, length), thickness)


def triangular_profile(problem, n_cells, length=None):
    """Linear taper with the same area budget, sampled at the faces."""
    if length is None:
        length = optimal_length(problem)
    mesh = Mesh(n_cells, length)
    root = 2.0 * problem.area / length
    return ThicknessProfile.from_callable(mesh, lambda x: root * (1.0 - x / length))


def random_feasible_profile(problem, n_cells, seed, length=None):
    """Random positive profile between 0.2 and 1.8 times A/L."""
    if length is None:
        length = optimal_length(problem)
    mesh = Mesh(n_cells, length)
    rng = np.random.default_rng(seed)
    scale = problem.area / length
    values = scale * (0.2 + 1.6 * rng.random(n_cells))
    return ThicknessProfile(mesh, values)


def five_reference_profiles(problem, n_cells=400):
    """Optimal, rectangular, triangular, and two random feasible profiles."""
    return [
        optimal_profile(problem, n_cells),
        rectangular_profile(problem, n_cells),
        triangular_profile(problem, n_cells),
        random_feasible_profile(problem, n_cells, seed=20),
        random_feasible_profile(problem, n_cells, seed=200),
    ]
