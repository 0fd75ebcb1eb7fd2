"""Exception types shared across the package.

The split matters for the CLI: configuration and input problems exit with
status 2, numerical failures with status 1.
"""


class DomainError(ValueError):
    """Invalid physical parameters, mesh configuration, or out-of-range input."""


class SolverError(RuntimeError):
    """The discrete system could not be solved reliably."""


class OptimizationError(RuntimeError):
    """The optimizer failed: no locatable support, diverging compliance, or similar."""


class ProfileFormatError(ValueError):
    """A profile table on disk is malformed; the message names the bad line."""
