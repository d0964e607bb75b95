"""Exception types shared across the package.

The class decides the CLI's exit code:

* 2 -- ValidationError, or an output that cannot be written;
* 3 -- CapacityError and its subclasses (a missing stationary law, failed
  monotonicity, Perron or stationary convergence), plus OverflowError until
  the crude coefficient is kept as a log;
* 1 -- the bug guards EigenConsistencyError and CouplingOrderError.
"""


class MonochainError(Exception):
    """Base class for all package errors."""


class ValidationError(MonochainError, ValueError):
    """Malformed input: bad composition, mismatched dimensions, invalid spec."""


class CapacityError(MonochainError):
    """Beyond what the program computes: a state space or TV curve over its cap,
    a label range past 2^64, or an urn addition law past the float range.
    The subclasses below name the other capability failures."""


class PerronConvergenceError(CapacityError):
    """Power iteration on the reduced mutation matrix failed to converge."""


class NoMonotoneConditionError(CapacityError):
    """Mutation matrix satisfies none of the dominated-row monotonicity conditions."""


class EigenConsistencyError(MonochainError):
    """Constructed eigenfunction failed its internal row-wise eigen check."""


class UnknownStationaryError(CapacityError):
    """No closed-form stationary law is available for the requested model."""


class StationaryConvergenceError(CapacityError):
    """No verified stationary distribution: the kernel is reducible or periodic,
    or the result failed the residual check."""


class CouplingOrderError(MonochainError):
    """A coupled step emitted a pair violating the dominance order (bug guard)."""
