"""Direct tests of the tridiagonal kernel and its backend dispatch."""

import numpy as np
import pytest

from finopt import (
    FinProblem,
    OptimizerOptions,
    kernels,
    optimal_length,
    optimize_profile,
)


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


def test_rejects_non_spd_pivot():
    # indefinite matrix: elimination hits a nonpositive pivot
    with pytest.raises(np.linalg.LinAlgError):
        kernels.solve_spd_tridiagonal([1.0, 1.0], [-2.0], [1.0, 1.0])
    with pytest.raises(np.linalg.LinAlgError):
        kernels.solve_spd_tridiagonal([-1.0, 1.0], [0.0], [1.0, 1.0])


def test_backend_dispatch_roundtrip():
    initial = kernels.get_backend()
    assert initial in kernels.available_backends()
    try:
        for name in kernels.available_backends():
            kernels.set_backend(name)
            assert kernels.get_backend() == name
    finally:
        kernels.set_backend(initial)
    with pytest.raises(ValueError):
        kernels.set_backend("fortran")


@pytest.mark.skipif(
    len(kernels.available_backends()) < 2,
    reason="compiled backend not built",
)
def test_backends_bitwise_identical():
    initial = kernels.get_backend()
    diag, off, rhs = random_spd_system(1500, seed=42)
    problem = FinProblem(k=200.0, h=20.0, area=1.6e-4, q0=20.0)
    results = {}
    compliance = {}
    try:
        for name in kernels.available_backends():
            kernels.set_backend(name)
            results[name] = kernels.solve_spd_tridiagonal(diag, off, rhs)
            compliance[name] = optimize_profile(
                problem, optimal_length(problem), OptimizerOptions(n_cells=200)
            ).compliance
    finally:
        kernels.set_backend(initial)
    reference = kernels.available_backends()[0]
    ref = results.pop(reference)
    for name, x in results.items():
        assert np.array_equal(ref, x), f"{name} differs from reference backend"
        assert compliance[name] == compliance[reference], \
            f"{name} optimizes to a different compliance"
