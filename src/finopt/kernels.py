"""Tridiagonal solve for symmetric positive definite systems with end loads.

A matrix is given by its row sums and its one off-diagonal, which serves
as both the sub- and the superdiagonal: it is symmetric by construction,
and no caller forms its diagonal.  In the fin model the row sums are the
convection, which a diagonal would round away next to conductances up to
~1e10 times larger.  The right-hand side is a load on the first row and
one on the last, passed as two numbers: the fin model's one load is the
root's heat input, on the first row in mesh order and on the last with
the nodes numbered tip first.

Odd-even cyclic reduction (Hockney, J. ACM 12, 1965) in whole-array numpy
operations.  The odd rows of a tridiagonal system couple only to even
rows, so one level eliminates all of them at once and leaves a tridiagonal
system on the even rows, half the size.  Row 0 is even at every level, and
a load on an odd last row moves to the row before it, the next level's
last row, so the loads stay two numbers and a level reduces only the row
sums and the off-diagonal.  Once at most THOMAS_ROWS rows remain, a Thomas
loop solves them, and the odd unknowns are recovered level by level on
the way back.  The loop eliminates on the row sums too, as in the GTH
algorithm for M-matrices (Grassmann, Taksar & Heyman, Oper. Res. 33,
1985): no diagonal is formed anywhere.

Each level is Gaussian elimination on a symmetric permutation of the
matrix, odd rows first, so the odd diagonals of every level and the pivots
of the Thomas tail are the LDL^T pivots of that permutation: the matrix is
positive definite exactly when all of them are positive.  A nonpositive or
NaN pivot raises LinAlgError naming its row of the matrix.  For the
diagonally dominant systems of the fin model the reduction is stable
(Heller, SIAM J. Numer. Anal. 13, 1976).
"""

from __future__ import annotations

import numpy as np
from numpy.linalg import LinAlgError

#: Largest system handed to the Thomas loop.  Below about this size one
#: level's fixed cost of seventeen numpy calls (about 26 us) exceeds the
#: loop's time for the half of the rows the level removes (0.3 to 0.5 us a
#: row).  Measured on 130 to 10^4 rows (2-core x86, Python 3.11, numpy
#: 2.4): 48 to 128 are equally fast within about 20 %; 16 and 32 are up to
#: 90 % and 50 % slower, 256 up to 25 %.  Another cutoff changes the
#: elimination order, and so the last bits of every solve.
THOMAS_ROWS = 64

_BACKEND = "cyclic-reduction"


def available_backends() -> list[str]:
    """Names of the installed kernels: there is one."""
    return [_BACKEND]


def get_backend() -> str:
    """Name of the kernel in use, for run records."""
    return _BACKEND


def not_positive_definite(pivot: float, row: int) -> LinAlgError:
    """The error for a nonpositive or NaN pivot at a row of the matrix.

    The error keeps both as its pivot and row attributes.
    """
    err = LinAlgError(f"matrix is not positive definite (pivot {pivot:g} at row {row})")
    err.pivot, err.row = pivot, row
    return err


def solve_spd_tridiagonal(
    rowsum: np.ndarray, off: np.ndarray, first: float, last: float
) -> np.ndarray:
    """Solve the SPD tridiagonal system defined by (rowsum, off) for end loads.

    ``rowsum`` holds the row sums of the matrix (length m), ``off`` its
    sub/super diagonal (length m - 1); the diagonal is rowsum - off_left -
    off_right.  The right-hand side is first * e_0 + last * e_(m-1): a load
    on the first row and one on the last, the only rows the fin model
    loads.  Raises ValueError for inputs of the wrong shape and
    numpy.linalg.LinAlgError (see not_positive_definite) when the matrix is
    not positive definite.
    Pure function; safe to call from multiple threads.
    """
    s = np.ascontiguousarray(rowsum, dtype=np.float64)
    off = np.ascontiguousarray(off, dtype=np.float64)
    first, last = float(first), float(last)
    if s.ndim != 1 or off.ndim != 1:
        raise ValueError(
            f"rowsum and off must be 1-D, got shapes {s.shape} and {off.shape}"
        )
    m = s.shape[0]
    if m < 1:
        raise ValueError("empty system")
    if off.shape[0] != m - 1:
        raise ValueError(f"off-diagonal has length {off.shape[0]}, expected {m - 1}")

    # The levels carry row sums s = d + e_left + e_right instead of the
    # diagonal.  In the fin model s is the convection, small next to the
    # conductances -e, and every level's d = s - e_left - e_right and
    # s_next = s - (e / d) s sum positive terms where d_next = d - e**2 / d
    # would cancel.  Row j of level l is row j * 2**l of the matrix.  A
    # level allocates three half-size arrays: the pivots d, the next row
    # sums and c, which becomes the next off-diagonal.  The multipliers a
    # and the products go into the result array, not yet in use, and the
    # back substitution's products into the c of the level above, no
    # longer in use either: a fresh n-long temporary costs a page-in at
    # 1e5 rows.  The caller's arrays are only read.
    result = np.empty(m)
    e = off
    levels = []
    while s.shape[0] > THOMAS_ROWS:
        # Odd row j couples to even rows j (left) and j + 1 (right); the
        # last odd row of an even-sized system has no right neighbour.
        e_left, e_right, s_odd = e[0::2], e[1::2], s[1::2]
        n_odd, n_right = s_odd.shape[0], e_right.shape[0]
        d_odd = s_odd - e_left
        d_odd[:n_right] -= e_right
        if not d_odd.min() > 0.0:
            j = int(np.argmin(d_odd > 0.0))
            raise not_positive_definite(d_odd[j], (2 * j + 1) << len(levels))
        a = np.divide(e_left, d_odd, out=result[:n_odd])
        c = e_right / d_odd[:n_right]
        product = result[n_odd : 2 * n_odd]
        s_next = s[0::2].copy()
        s_next[:n_odd] -= np.multiply(a, s_odd, out=product)
        s_next[1:] -= np.multiply(c, s_odd[:n_right], out=product[:n_right])
        # An odd last row keeps its load for its back substitution and
        # passes -a times it to the row before it.
        odd_last = last if n_right < n_odd else None
        if odd_last is not None:
            last = 0.0 - float(a[-1]) * last
        e_next = np.multiply(a[:n_right], e_right, out=c)
        s, e = s_next, np.negative(e_next, out=e_next)
        levels.append((d_odd, e_left, e_right, odd_last, e))

    # The Thomas tail on row sums: sigma is what row i sums to once the rows
    # above it are eliminated and p = sigma - e_i its pivot.  With s > 0 and
    # e < 0 both add positive terms.  The loop runs on Python floats, which
    # is several times faster than indexing numpy arrays element by element.
    s, e = s.tolist(), e.tolist() + [0.0]
    x = [0.0] * len(s)
    x[0] += first
    x[-1] += last
    pivots = []
    w = sigma = x_prev = 0.0
    for i, s_i in enumerate(s):
        sigma = s_i - w * sigma
        x_prev = x[i] = x[i] - w * x_prev
        p = sigma - e[i]
        if not p > 0.0:
            raise not_positive_definite(p, i << len(levels))
        pivots.append(p)
        w = e[i] / p
    x[-1] /= pivots[-1]
    for i in range(len(x) - 2, -1, -1):
        x[i] = (x[i] - e[i] * x[i + 1]) / pivots[i]

    # Back substitution into strided views of the result: the unknowns of
    # level l are every 2**l-th entry, its odd rows the ones in between.
    # An unloaded odd row is -(e_left x_left + e_right x_right) / d, negated
    # as 0 - p, which rounds a zero product to +0 as the loaded form b - p
    # does.  np.negative(odd, out=odd) would give -0 there, and on numpy
    # 2.4.6 it also returns wrong values in place on a view whose stride is
    # 8 elements, the odd rows of level 2.
    result[:: 1 << len(levels)] = x
    for level in range(len(levels) - 1, -1, -1):
        d_odd, e_left, e_right, odd_last, spent = levels[level]
        n_odd, n_right = d_odd.shape[0], e_right.shape[0]
        step = 1 << level
        even, odd = result[:: 2 * step], result[step :: 2 * step]
        np.subtract(0.0, np.multiply(e_left, even[:n_odd], out=odd), out=odd)
        if odd_last is not None:
            odd[-1] = odd_last - e_left[-1] * even[n_odd - 1]
        odd[:n_right] -= np.multiply(e_right, even[1:], out=spent)
        odd /= d_odd
    return result
