"""Kernel dispatch: compiled extension when available, pure Python otherwise.

The compiled backend is active when it built.  :func:`set_backend` switches
at runtime, to compare the two implementations against each other; both
produce bitwise-identical results.
"""

from __future__ import annotations

import numpy as np

from . import _kernels_py

try:
    from . import _kernels
except ImportError:
    _kernels = None

_IMPLS = {"python": _kernels_py}
if _kernels is not None:
    _IMPLS["cython"] = _kernels

_backend = "cython" if _kernels is not None else "python"


def available_backends() -> list[str]:
    return sorted(_IMPLS)


def get_backend() -> str:
    return _backend


def set_backend(name: str) -> None:
    if name not in _IMPLS:
        raise ValueError(
            f"unknown backend {name!r}; installed backends: {sorted(_IMPLS)}"
        )
    global _backend
    _backend = name


def solve_spd_tridiagonal(
    diag: np.ndarray, off: np.ndarray, rhs: np.ndarray
) -> np.ndarray:
    """Solve the SPD tridiagonal system defined by (diag, off) for rhs.

    Pure function; safe to call from multiple threads as long as nobody
    flips the backend concurrently.
    """
    diag = np.ascontiguousarray(diag, dtype=np.float64)
    off = np.ascontiguousarray(off, dtype=np.float64)
    rhs = np.ascontiguousarray(rhs, dtype=np.float64)
    m = diag.shape[0]
    if m < 1:
        raise ValueError("empty system")
    if off.shape[0] != m - 1:
        raise ValueError(f"off-diagonal has length {off.shape[0]}, expected {m - 1}")
    if rhs.shape[0] != m:
        raise ValueError(f"rhs has length {rhs.shape[0]}, expected {m}")
    return _IMPLS[_backend].solve_spd_tridiagonal(diag, off, rhs)
