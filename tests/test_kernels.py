"""Direct tests of the tridiagonal kernel.

The oracles are the cyclic reduction with a full right-hand side, the
Thomas loop on row sums in extended precision and the discrete constant
fin in closed form.
"""

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
    solve_adjoint,
    solve_temperature,
)
from finopt.mesh import Mesh, ThicknessProfile
from finopt.optimizer import _long_fin_length
from conftest import draw_fin, optimal_profile, rectangular_profile


def random_spd_system(n, seed):
    """Diagonally dominant (so SPD) (rowsum, off, first, last)."""
    rng = np.random.default_rng(seed)
    off = -rng.uniform(0.1, 2.0, n - 1)
    rowsum = rng.uniform(0.05, 1.0, n)
    first, last = rng.standard_normal(2)
    return rowsum, off, float(first), float(last)


def end_load_rhs(n, first, last):
    """The right-hand side first * e_0 + last * e_(n-1) as an array."""
    rhs = np.zeros(n)
    rhs[0] += first
    rhs[-1] += last
    return rhs


def dense(rowsum, off):
    d = np.array(rowsum, dtype=np.float64)
    d[:-1] -= off
    d[1:] -= off
    return np.diag(d) + np.diag(off, 1) + np.diag(off, -1)


@pytest.mark.parametrize("n", [1, 2, 3, 17, 256, 1001])
def test_matches_dense_solve(n):
    rowsum, off, first, last = random_spd_system(n, seed=n)
    x = kernels.solve_spd_tridiagonal(rowsum, off, first, last)
    x_ref = np.linalg.solve(dense(rowsum, off), end_load_rhs(n, first, last))
    assert np.allclose(x, x_ref, rtol=1e-12, atol=1e-14)


def test_residual_is_small():
    rowsum, off, first, last = random_spd_system(2000, seed=7)
    x = kernels.solve_spd_tridiagonal(rowsum, off, first, last)
    rhs = end_load_rhs(2000, first, last)
    r = dense(rowsum, off) @ x - rhs
    assert np.max(np.abs(r)) <= 1e-12 * np.max(np.abs(rhs))


def test_scalar_system():
    x = kernels.solve_spd_tridiagonal([4.0], [], 8.0, 0.0)
    assert x.shape == (1,)
    assert x[0] == 2.0
    # One row is both the first and the last: its load is the sum.
    assert kernels.solve_spd_tridiagonal([4.0], [], 6.0, 2.0)[0] == 2.0


def test_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        kernels.solve_spd_tridiagonal([1.0, 2.0], [0.1, 0.2], 1.0, 1.0)
    with pytest.raises(ValueError):
        kernels.solve_spd_tridiagonal([1.0, 2.0], [], 1.0, 0.0)
    with pytest.raises(ValueError):
        kernels.solve_spd_tridiagonal([], [], 0.0, 0.0)
    # Lengths along the first axis match; the second axis must not be
    # broadcast through the solve.
    with pytest.raises(ValueError, match="1-D"):
        kernels.solve_spd_tridiagonal(
            np.full((2, 2), 4.0), np.full((1, 2), -1.0), 1.0, 1.0
        )
    # The loads are numbers, not a right-hand side.
    with pytest.raises(TypeError):
        kernels.solve_spd_tridiagonal([1.0, 2.0], [0.1], [1.0, 1.0], 0.0)


def test_rejects_non_spd_pivot():
    # indefinite matrices: elimination hits a nonpositive pivot.  Diagonal
    # (1, 1) with off -2 has row sums -1; diagonal (-1, 1) with off 0 keeps
    # its diagonal as row sums.
    with pytest.raises(np.linalg.LinAlgError):
        kernels.solve_spd_tridiagonal([-1.0, -1.0], [-2.0], 1.0, 1.0)
    with pytest.raises(np.linalg.LinAlgError):
        kernels.solve_spd_tridiagonal([-1.0, 1.0], [0.0], 1.0, 1.0)


def indefinite_system(n=1001):
    """diag 1, off -2: the first level's pivots are 1, the second's -7.

    The row sums are 1 - 2 - 2 = -3 inside and 1 - 2 = -1 at the ends.
    """
    rowsum = np.full(n, -3.0)
    rowsum[[0, -1]] = -1.0
    return rowsum, np.full(n - 1, -2.0), 1.0, 1.0


def with_rowsum_entry(row, value, n=1001):
    """Diagonally dominant system (diag 4, off -1) with one row sum replaced.

    Its row sums are 2 inside and 3 at the ends; an inside row sum of -2
    makes that row's diagonal 0.
    """
    rowsum, off = np.full(n, 2.0), np.full(n - 1, -1.0)
    rowsum[[0, -1]] = 3.0
    rowsum[row] = value
    return rowsum, off, 1.0, 1.0


@pytest.mark.parametrize(
    "system",
    [
        pytest.param(indefinite_system(), id="indefinite"),
        # Row 501 is odd: its pivot is its own diagonal, checked at the
        # first level, where every other pivot is 4.
        pytest.param(with_rowsum_entry(501, -2.0), id="zero-odd-pivot"),
        pytest.param(with_rowsum_entry(501, np.nan), id="nan-first-level"),
        pytest.param(with_rowsum_entry(500, np.nan), id="nan-later-level"),
        pytest.param(with_rowsum_entry(0, np.nan), id="nan-thomas-tail"),
    ],
)
def test_rejects_non_spd_inside_reduction(system):
    assert system[0].shape[0] > kernels.THOMAS_ROWS
    with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
        kernels.solve_spd_tridiagonal(*system)


def test_first_level_pivot_names_its_row():
    with pytest.raises(np.linalg.LinAlgError, match="at row 501"):
        kernels.solve_spd_tridiagonal(*with_rowsum_entry(501, -2.0))


def test_tail_pivot_names_its_row():
    # Row 512 of 1001 stays even through the four levels down to 63 rows,
    # where it is row 32 of the Thomas tail.
    with pytest.raises(np.linalg.LinAlgError, match=r"at row 512\)$"):
        kernels.solve_spd_tridiagonal(*with_rowsum_entry(512, -1e6))


def test_pivot_error_keeps_its_pivot_and_row():
    # The solver names a reversed-order failure in mesh order from these.
    with pytest.raises(np.linalg.LinAlgError) as failure:
        kernels.solve_spd_tridiagonal(*with_rowsum_entry(512, -1e6))
    assert failure.value.row == 512
    assert failure.value.pivot < 0.0


def test_solver_maps_reduction_failure_to_solver_error(base_problem, monkeypatch):
    # A negative convection makes every row sum negative: the matrix is
    # indefinite (the constant vector has negative energy).
    def negative_convection(problem, profile):
        convection, off = assemble_fin_system(problem, profile)
        return -convection, off

    profile = rectangular_profile(base_problem, 1000)
    monkeypatch.setattr(finopt.solver, "assemble_fin_system", negative_convection)
    with pytest.raises(SolverError, match="direct solve failed"):
        solve_temperature(base_problem, profile)


def test_reports_one_backend():
    assert kernels.available_backends() == [kernels.get_backend()]


# ---------------------------------------------------------------------------
# The cyclic reduction with a full right-hand side as the oracle


def reduction_with_rhs(rowsum, off, rhs):
    """The kernel's reduction carrying an n-long right-hand side b.

    Each level also reduces b: b_next = b_even - a b_odd_left - c
    b_odd_right, and the back substitution starts each odd row from its b.
    The kernel carries only the loads on the first and the last row, so
    for such a b it must return the same bits.
    """
    s = np.asarray(rowsum, dtype=np.float64)
    e = np.asarray(off, dtype=np.float64)
    b = np.asarray(rhs, dtype=np.float64)
    levels = []
    while s.shape[0] > kernels.THOMAS_ROWS:
        e_left, e_right, s_odd, b_odd = e[0::2], e[1::2], s[1::2], b[1::2]
        n_odd, n_right = s_odd.shape[0], e_right.shape[0]
        d_odd = s_odd - e_left
        d_odd[:n_right] -= e_right
        assert d_odd.min() > 0.0
        a = e_left / d_odd
        c = e_right / d_odd[:n_right]
        s_next = s[0::2].copy()
        s_next[:n_odd] -= a * s_odd
        s_next[1:] -= c * s_odd[:n_right]
        b_next = b[0::2].copy()
        b_next[:n_odd] -= a * b_odd
        b_next[1:] -= c * b_odd[:n_right]
        levels.append((d_odd, e_left, e_right, b_odd))
        s, e, b = s_next, np.negative(a[:n_right] * e_right), b_next

    s, e, x = s.tolist(), e.tolist() + [0.0], b.tolist()
    pivots = []
    w = sigma = x_prev = 0.0
    for i, s_i in enumerate(s):
        sigma = s_i - w * sigma
        x_prev = x[i] = x[i] - w * x_prev
        p = sigma - e[i]
        assert p > 0.0
        pivots.append(p)
        w = e[i] / p
    x[-1] /= pivots[-1]
    for i in range(len(x) - 2, -1, -1):
        x[i] = (x[i] - e[i] * x[i + 1]) / pivots[i]

    result = np.empty(len(rowsum))
    result[:: 1 << len(levels)] = x
    for level in range(len(levels) - 1, -1, -1):
        d_odd, e_left, e_right, b_odd = levels[level]
        n_odd, n_right = d_odd.shape[0], e_right.shape[0]
        step = 1 << level
        even, odd = result[:: 2 * step], result[step :: 2 * step]
        odd[:] = b_odd - e_left * even[:n_odd]
        odd[:n_right] -= e_right * even[1:]
        odd /= d_odd
    return result


def odd_last_rows(m):
    """Levels l >= 1 of an m-row reduction whose last row is odd."""
    levels, rows = [], m
    while rows > kernels.THOMAS_ROWS:
        if rows % 2 == 0 and rows != m:
            levels.append(rows)
        rows = (rows + 1) // 2
    return levels


#: Every size to 300, and sizes about the powers of two and a few thousand.
BITWISE_SIZES = sorted(
    set(range(1, 301))
    | {2**k + d for k in range(7, 13) for d in range(-2, 3)}
    | {1000, 1001, 1002, 1003, 3000, 3001, 3002}
)


def assert_same_bits(x, ref):
    assert x.dtype == ref.dtype == np.float64
    assert x.tobytes() == ref.tobytes()


def test_end_loads_match_full_rhs_bitwise():
    # Loads on row 0, on row m - 1 and on both; an odd last row passes its
    # load to the next level's last row.
    assert sum(1 for m in BITWISE_SIZES if odd_last_rows(m)) > 100
    for m in BITWISE_SIZES:
        rowsum, off, first, last = random_spd_system(m, seed=m)
        for loads in ((first, 0.0), (0.0, last), (first, last)):
            x = kernels.solve_spd_tridiagonal(rowsum, off, *loads)
            ref = reduction_with_rhs(rowsum, off, end_load_rhs(m, *loads))
            assert_same_bits(x, ref)


@pytest.mark.parametrize("m", [65, 130, 1000, 4097])
def test_zero_links_match_full_rhs_bitwise(m):
    # A zero link, +0 or -0 as a zero face assembles, cuts the system; the
    # rows cut off from a load get exact zeros, with their signs.
    rowsum, off, first, last = random_spd_system(m, seed=m)
    rng = np.random.default_rng(m)
    cut = rng.random(m - 1) < 0.1
    off[cut] = np.where(rng.random(cut.sum()) < 0.5, 0.0, -0.0)
    off[m // 2 : 3 * m // 4] = -0.0
    for loads in ((first, 0.0), (0.0, last), (first, last)):
        x = kernels.solve_spd_tridiagonal(rowsum, off, *loads)
        assert np.any(x == 0.0)
        assert_same_bits(x, reduction_with_rhs(rowsum, off, end_load_rhs(m, *loads)))


def test_fin_system_matches_full_rhs_bitwise_in_both_orders():
    # 1e5 rows of the long fin, with its tail of zero faces.  Tip first the
    # row sums read the same, and the off-diagonal is the reversed one.
    problem = FIN_PROBLEMS["k200-h20"]
    profile = long_fin_profile("k200-h20", 100000)
    rowsum, off = assemble_fin_system(problem, profile)
    rhs = end_load_rhs(rowsum.shape[0], problem.q0, 0.0)
    theta = kernels.solve_spd_tridiagonal(rowsum, off, problem.q0, 0.0)
    assert_same_bits(theta, reduction_with_rhs(rowsum, off, rhs))
    assert_same_bits(theta, solve_temperature(problem, profile).values)

    tip_first = ThicknessProfile(profile.mesh, profile.values[::-1])
    rowsum_r, off_r = assemble_fin_system(problem, tip_first)
    assert rowsum_r.tobytes() == rowsum[::-1].tobytes()
    assert off_r.tobytes() == off[::-1].tobytes()
    w = kernels.solve_spd_tridiagonal(rowsum_r, off_r, 0.0, problem.q0)
    assert_same_bits(w, reduction_with_rhs(rowsum[::-1], off[::-1], rhs[::-1]))
    assert_same_bits(w[::-1].copy(), solve_adjoint(problem, profile).values)


@pytest.mark.parametrize("solve", [solve_temperature, solve_adjoint])
def test_solves_hand_the_kernel_contiguous_arrays(base_problem, monkeypatch, solve):
    # Tip first too: the kernel copies no reversed view.
    seen = []
    kernel = kernels.solve_spd_tridiagonal

    def recording(rowsum, off, first, last):
        seen.append((rowsum, off))
        return kernel(rowsum, off, first, last)

    monkeypatch.setattr(kernels, "solve_spd_tridiagonal", recording)
    solve(base_problem, rectangular_profile(base_problem, 1000))
    ((rowsum, off),) = seen
    for array in (rowsum, off):
        assert isinstance(array, np.ndarray) and array.dtype == np.float64
        assert array.flags.c_contiguous


# ---------------------------------------------------------------------------
# The Thomas loop on row sums in extended precision as the oracle


def thomas_longdouble(rowsum, off, rhs):
    """The Thomas loop on row sums in extended precision: the unrounded model.

    sigma_i = s_i - (e_{i-1} / p_{i-1}) sigma_{i-1} is what row i sums to
    after elimination and p_i = sigma_i - e_i its pivot.  With s > 0 and
    e < 0 both add positive terms, so no conductance cancels the convection.
    The kernel's tail is this loop in float64.
    """
    s = np.asarray(rowsum, dtype=np.longdouble)
    e = np.append(np.asarray(off, dtype=np.longdouble), 0)
    x = rhs.astype(np.longdouble)
    p = np.empty_like(s)
    sigma = s[0]
    p[0] = sigma - e[0]
    for i in range(1, s.shape[0]):
        w = e[i - 1] / p[i - 1]
        sigma = s[i] - w * sigma
        p[i] = sigma - e[i]
        x[i] -= w * x[i - 1]
    x[-1] /= p[-1]
    for i in range(s.shape[0] - 2, -1, -1):
        x[i] = (x[i] - e[i] * x[i + 1]) / p[i]
    return x


#: Error against the oracle on random diagonally dominant systems, relative
#: to the largest unknown: up to 3.5e-16 measured, for the Thomas tail alone
#: (at most THOMAS_ROWS rows) and through the reduction levels alike, and
#: 4.3e-16 where long double is double.
LONG_DOUBLE_RTOL = 1e-15


def test_tail_agrees_with_long_double_up_to_cutoff():
    for n in range(1, kernels.THOMAS_ROWS + 1):
        rowsum, off, first, last = random_spd_system(n, seed=n)
        x = kernels.solve_spd_tridiagonal(rowsum, off, first, last)
        ref = thomas_longdouble(rowsum, off, end_load_rhs(n, first, last))
        assert np.max(np.abs(x - ref)) <= LONG_DOUBLE_RTOL * np.max(np.abs(ref)), n


ORACLE_SIZES = sorted(
    {2**k + d for k in range(1, 13) for d in (-1, 0, 1)} | {3000}
)


@pytest.mark.parametrize("n", ORACLE_SIZES)
def test_agrees_with_thomas(n):
    rowsum, off, first, last = random_spd_system(n, seed=1000 + n)
    x = kernels.solve_spd_tridiagonal(rowsum, off, first, last)
    ref = thomas_longdouble(rowsum, off, end_load_rhs(n, first, last))
    assert np.max(np.abs(x - ref)) <= LONG_DOUBLE_RTOL * np.max(np.abs(ref))


FIN_PROBLEMS = {
    "k200-h20": FinProblem(k=200.0, h=20.0, area=1.6e-4, q0=20.0),
    "k3.7-h812": FinProblem(k=3.7, h=812.0, area=2.3e-6, q0=0.31),
}

#: Root error against the extended-precision solve of the same matrix.  The
#: fin matrices are close to singular (conductances exceed the convection by
#: up to ~1e10 at 1e5 cells), but the kernel takes the row sums and
#: eliminates on them, through the Thomas tail too, so it never loses the
#: convection to cancellation (measured up to 7.5e-16; a Thomas loop on the
#: float64 diagonal is off by up to 2.2e-8).
ROOT_RTOL = 1e-14

_long_fins = {}


def long_fin_profile(name, n):
    """Optimised long-fin profile with its tail of zero faces.

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
    return ThicknessProfile(
        mesh, np.interp(mesh.faces, profile.mesh.faces, profile.values)
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
        assert np.any(profile.values == 0.0)
    rowsum, off = assemble_fin_system(problem, profile)
    rhs = end_load_rhs(rowsum.shape[0], problem.q0, 0.0)
    root = float(thomas_longdouble(rowsum, off, rhs)[0])
    reduction = kernels.solve_spd_tridiagonal(rowsum, off, problem.q0, 0.0)[0]
    assert abs(reduction - root) <= ROOT_RTOL * root


# ---------------------------------------------------------------------------
# The discrete constant fin in closed form as the oracle


def constant_fin_temperature(problem, mesh, thickness):
    """theta of a constant fin on the mesh, in closed form, in long double.

    With a = k t / dx and sinh(mu / 2) = sqrt(h dx^2 / (2 k t)),
    theta_i = q0 cosh((n - i) mu) / (a sinh(mu) sinh(n mu)).  Written with
    exponentials, since sinh(n mu) overflows past n mu of about 710.
    """
    ld = np.longdouble
    n, dx, t = mesh.n_cells, ld(mesh.dx), ld(thickness)
    k, h, q0 = ld(problem.k), ld(problem.h), ld(problem.q0)
    half = np.sqrt(h * dx * dx / (2 * k * t))
    sinh_mu = 2 * half * np.sqrt(1 + half * half)
    mu = 2 * np.arcsinh(half)
    i = np.arange(n + 1, dtype=ld)
    shape = np.exp(-i * mu) + np.exp((i - 2 * n) * mu)
    return q0 * shape / (k * t / dx * sinh_mu * -np.expm1(-2 * n * mu))


#: Node-wise relative error of the kernel against the constant fin: up to
#: 1.7e-14 over these draws and 1.9e-14 over 2000.  A Thomas tail on the
#: float64 diagonal is off by up to 8.1e-5 over these draws (722 cells at
#: 1.1e-3 optimal lengths).
CONSTANT_FIN_RTOL = 1e-13


def test_constant_fin_node_wise():
    rng = np.random.default_rng(20)
    for _ in range(200):
        problem, n, length = draw_fin(rng, (-3, 1))
        mesh = Mesh(n, length)
        thickness = problem.area / length
        theta = solve_temperature(problem, ThicknessProfile.constant(mesh, thickness))
        exact = constant_fin_temperature(problem, mesh, thickness)
        error = np.max(np.abs(theta.values / exact - 1))
        assert error <= CONSTANT_FIN_RTOL, (problem, n, length)
