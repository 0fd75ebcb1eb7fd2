"""Thomas elimination for symmetric positive definite tridiagonal systems.

One sequential pass of Gaussian elimination without pivoting.  It is the
tail of the cyclic-reduction kernel in ``kernels``, which hands it every
system of at most ``kernels.THOMAS_ROWS`` rows with the diagonal it forms
from the row sums, and, applied to a whole system, that kernel's test
oracle.  The loops run on Python floats
(lists), which is several times faster than indexing numpy arrays element
by element.
"""

import numpy as np
from numpy.linalg import LinAlgError


def solve_thomas(diag, off, rhs):
    """Solve A x = rhs for symmetric tridiagonal positive definite A.

    ``diag`` is the main diagonal, ``off`` the sub/super diagonal (one
    shorter); both are float64 arrays of matching length.  A nonpositive
    (or NaN) pivot raises ``numpy.linalg.LinAlgError``.
    """
    d = diag.tolist()
    e = off.tolist()
    m = len(d)
    dp = [0.0] * m
    x = rhs.tolist()

    dp[0] = d[0]
    for i in range(1, m):
        if not dp[i - 1] > 0.0:
            raise LinAlgError(
                "matrix is not positive definite (pivot %g at row %d)"
                % (dp[i - 1], i - 1)
            )
        w = e[i - 1] / dp[i - 1]
        dp[i] = d[i] - w * e[i - 1]
        x[i] = x[i] - w * x[i - 1]

    if not dp[m - 1] > 0.0:
        raise LinAlgError(
            "matrix is not positive definite (pivot %g at row %d)"
            % (dp[m - 1], m - 1)
        )
    x[m - 1] = x[m - 1] / dp[m - 1]
    for i in range(m - 2, -1, -1):
        x[i] = (x[i] - e[i] * x[i + 1]) / dp[i]
    return np.asarray(x, dtype=np.float64)
