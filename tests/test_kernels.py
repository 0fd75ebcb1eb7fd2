"""Direct tests of the tridiagonal kernel against its Thomas-loop oracle."""

import numpy as np
import pytest

import finopt.solver
from finopt import (
    FinProblem,
    OptimizerOptions,
    SolverError,
    assemble_fin_system,
    kernels,
    optimize_profile,
    solve_temperature,
    thickness_floor,
)
from finopt._kernels_py import solve_thomas
from finopt.mesh import Mesh, ThicknessProfile
from finopt.optimizer import _long_fin_length
from conftest import optimal_profile, rectangular_profile


def random_spd_system(n, seed):
    rng = np.random.default_rng(seed)
    off = -rng.uniform(0.1, 2.0, n - 1)
    diag = np.zeros(n)
    diag[:-1] -= off
    diag[1:] -= off
    diag += rng.uniform(0.05, 1.0, n)  # diagonally dominant -> SPD
    rhs = rng.standard_normal(n)
    return diag, off, rhs


def dense(diag, off):
    a = np.diag(diag)
    a += np.diag(off, 1) + np.diag(off, -1)
    return a


@pytest.mark.parametrize("n", [1, 2, 3, 17, 256, 1001])
def test_matches_dense_solve(n):
    diag, off, rhs = random_spd_system(n, seed=n)
    x = kernels.solve_spd_tridiagonal(diag, off, rhs)
    x_ref = np.linalg.solve(dense(diag, off), rhs)
    assert np.allclose(x, x_ref, rtol=1e-12, atol=1e-14)


def test_residual_is_small():
    diag, off, rhs = random_spd_system(2000, seed=7)
    x = kernels.solve_spd_tridiagonal(diag, off, rhs)
    r = dense(diag, off) @ x - rhs
    assert np.max(np.abs(r)) <= 1e-12 * np.max(np.abs(rhs))


def test_scalar_system():
    x = kernels.solve_spd_tridiagonal([4.0], [], [8.0])
    assert x.shape == (1,)
    assert x[0] == 2.0


def test_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        kernels.solve_spd_tridiagonal([1.0, 2.0], [0.1, 0.2], [1.0, 1.0])
    with pytest.raises(ValueError):
        kernels.solve_spd_tridiagonal([1.0, 2.0], [0.1], [1.0])
    with pytest.raises(ValueError):
        kernels.solve_spd_tridiagonal([], [], [])
    # Lengths along the first axis match; the second axis must not be
    # broadcast through the solve.
    with pytest.raises(ValueError, match="1-D"):
        kernels.solve_spd_tridiagonal(
            np.full((2, 2), 4.0), np.full((1, 2), -1.0), np.ones((2, 2))
        )


def test_rejects_non_spd_pivot():
    # indefinite matrix: elimination hits a nonpositive pivot
    with pytest.raises(np.linalg.LinAlgError):
        kernels.solve_spd_tridiagonal([1.0, 1.0], [-2.0], [1.0, 1.0])
    with pytest.raises(np.linalg.LinAlgError):
        kernels.solve_spd_tridiagonal([-1.0, 1.0], [0.0], [1.0, 1.0])


def indefinite_system(n=1001):
    """diag 1, off -2: the first level's pivots are 1, the second's -7."""
    return np.ones(n), np.full(n - 1, -2.0), np.ones(n)


def with_diagonal_entry(row, value, n=1001):
    """Diagonally dominant system (diag 4, off -1) with one diagonal entry replaced."""
    diag, off = np.full(n, 4.0), np.full(n - 1, -1.0)
    diag[row] = value
    return diag, off, np.ones(n)


@pytest.mark.parametrize(
    "system",
    [
        pytest.param(indefinite_system(), id="indefinite"),
        # Row 501 is odd: its pivot is its own diagonal, checked at the
        # first level, where every other pivot is 4.
        pytest.param(with_diagonal_entry(501, 0.0), id="zero-odd-pivot"),
        pytest.param(with_diagonal_entry(501, np.nan), id="nan-first-level"),
        pytest.param(with_diagonal_entry(500, np.nan), id="nan-later-level"),
        pytest.param(with_diagonal_entry(0, np.nan), id="nan-thomas-tail"),
    ],
)
def test_rejects_non_spd_inside_reduction(system):
    assert system[0].shape[0] > kernels.THOMAS_ROWS
    with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
        kernels.solve_spd_tridiagonal(*system)


def test_first_level_pivot_names_its_row():
    with pytest.raises(np.linalg.LinAlgError, match="at row 501"):
        kernels.solve_spd_tridiagonal(*with_diagonal_entry(501, 0.0))


def test_solver_maps_reduction_failure_to_solver_error(base_problem, monkeypatch):
    profile = rectangular_profile(base_problem, 1000)
    monkeypatch.setattr(
        finopt.solver, "assemble_fin_system", lambda problem, profile: indefinite_system()
    )
    with pytest.raises(SolverError, match="direct solve failed"):
        solve_temperature(base_problem, profile)


def test_reports_one_backend():
    assert kernels.available_backends() == [kernels.get_backend()]


# ---------------------------------------------------------------------------
# The Thomas loop as the oracle


def test_equals_thomas_bitwise_up_to_cutoff():
    for n in range(1, kernels.THOMAS_ROWS + 1):
        diag, off, rhs = random_spd_system(n, seed=n)
        x = kernels.solve_spd_tridiagonal(diag, off, rhs)
        assert np.array_equal(x, solve_thomas(diag, off, rhs)), n


ORACLE_SIZES = sorted(
    {2**k + d for k in range(1, 13) for d in (-1, 0, 1)} | {3000}
)


@pytest.mark.parametrize("n", ORACLE_SIZES)
def test_agrees_with_thomas(n):
    diag, off, rhs = random_spd_system(n, seed=1000 + n)
    x = kernels.solve_spd_tridiagonal(diag, off, rhs)
    ref = solve_thomas(diag, off, rhs)
    assert np.max(np.abs(x - ref)) <= 1e-13 * np.max(np.abs(ref))


def thomas_longdouble(diag, off, rhs):
    """The Thomas loop in extended precision: the reference for fin systems."""
    d = diag.astype(np.longdouble)
    e = off.astype(np.longdouble)
    x = rhs.astype(np.longdouble)
    for i in range(1, d.shape[0]):
        w = e[i - 1] / d[i - 1]
        d[i] -= w * e[i - 1]
        x[i] -= w * x[i - 1]
    x[-1] /= d[-1]
    for i in range(d.shape[0] - 2, -1, -1):
        x[i] = (x[i] - e[i] * x[i + 1]) / d[i]
    return x


FIN_PROBLEMS = {
    "k200-h20": FinProblem(k=200.0, h=20.0, area=1.6e-4, q0=20.0),
    "k3.7-h812": FinProblem(k=3.7, h=812.0, area=2.3e-6, q0=0.31),
}

#: Root error both kernels must meet against the extended-precision solve
#: of the same float64 matrix.  The fin matrices are close to singular
#: (conductances exceed the convection by up to ~1e10 at 1e5 cells); the
#: Thomas loop's root error reaches ~6e-10 there.
ROOT_RTOL = 1e-9

#: The reduction's own bound: it eliminates on row sums, so it does not
#: lose the convection to cancellation.  It sits above the reference's own
#: error (up to 4e-13 at 1e5 cells); a reduction on the diagonal reaches
#: 5e-9.
REDUCTION_ROOT_RTOL = 1e-12

_long_fins = {}


def long_fin_profile(name, n):
    """Optimised long-fin profile with its floored tail.

    1000 and 20000 cells are optimised directly; 1e5 cells samples the
    20000-cell optimum, which costs one optimisation less than optimising
    at 1e5 cells.
    """
    problem = FIN_PROBLEMS[name]
    n_opt = min(n, 20000)
    if (name, n_opt) not in _long_fins:
        length = _long_fin_length(problem, n_opt)
        _long_fins[name, n_opt] = optimize_profile(
            problem, length, OptimizerOptions(n_cells=n_opt)
        ).profile
    profile = _long_fins[name, n_opt]
    if n == n_opt:
        return profile
    mesh = Mesh(n, profile.mesh.length)
    values = np.interp(mesh.faces, profile.mesh.faces, profile.values)
    return ThicknessProfile(
        mesh, np.maximum(values, thickness_floor(problem, mesh.length))
    )


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps > 1e-18, reason="long double is not extended precision"
)
@pytest.mark.parametrize("n", [1000, 20000, 100000])
@pytest.mark.parametrize("kind", ["closed-form", "long-fin"])
@pytest.mark.parametrize("name", sorted(FIN_PROBLEMS))
def test_fin_root_error_against_long_double(name, kind, n):
    problem = FIN_PROBLEMS[name]
    if kind == "closed-form":
        profile = optimal_profile(problem, n)
    else:
        profile = long_fin_profile(name, n)
        assert np.any(profile.values <= thickness_floor(problem, profile.mesh.length))
    diag, off, rhs = assemble_fin_system(problem, profile)
    root = float(thomas_longdouble(diag, off, rhs)[0])
    reduction = kernels.solve_spd_tridiagonal(diag, off, rhs)[0]
    loop = solve_thomas(diag, off, rhs)[0]
    assert abs(loop - root) <= ROOT_RTOL * root
    assert abs(reduction - root) <= ROOT_RTOL * root
    assert abs(reduction - root) <= REDUCTION_ROOT_RTOL * root
