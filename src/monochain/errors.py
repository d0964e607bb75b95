"""Exception types shared across the package.

The CLI maps these onto exit codes: ValidationError -> 2, the capability
failures (capacity, missing stationary law, failed monotonicity / Perron
convergence) -> 3, anything else -> 1.
"""


class MonochainError(Exception):
    """Base class for all package errors."""


class ValidationError(MonochainError, ValueError):
    """Malformed input: bad composition, mismatched dimensions, invalid spec."""


class CapacityError(MonochainError):
    """State space exceeds the configured enumeration cap."""


class PerronConvergenceError(MonochainError):
    """Power iteration on the reduced mutation matrix failed to converge."""


class NoMonotoneConditionError(MonochainError):
    """Mutation matrix satisfies none of the dominated-row monotonicity conditions."""


class EigenConsistencyError(MonochainError):
    """Constructed eigenfunction failed its internal row-wise eigen check."""


class UnknownStationaryError(MonochainError):
    """No closed-form stationary law is available for the requested model."""


class StationaryConvergenceError(MonochainError):
    """No verified stationary distribution: the kernel is reducible or periodic,
    or the result failed the residual check."""


class CouplingOrderError(MonochainError):
    """A coupled step emitted a pair violating the dominance order (bug guard)."""
