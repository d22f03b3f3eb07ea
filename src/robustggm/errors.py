"""Exception types shared across the package."""


class RobustGgmError(Exception):
    """Base class for all estimation-related errors."""


class NotPositiveDefinite(RobustGgmError):
    """A matrix required to be positive definite is not.

    ``pivot`` is the 0-based index at which the Cholesky factorization
    broke down.
    """

    def __init__(self, pivot, message=None):
        self.pivot = pivot
        super().__init__(message or f"matrix not positive definite (pivot {pivot})")


class DimensionMismatch(RobustGgmError):
    """Operands have incompatible shapes."""


class EmptyDataset(RobustGgmError):
    """An operation received a dataset with zero observations."""


class NonPositiveDiagonal(RobustGgmError):
    """The input covariance-like matrix has a non-positive diagonal entry."""


class MaxStepsExceeded(RobustGgmError):
    """The graphical-lasso solver ran out of Newton steps before meeting
    the KKT tolerance.  Carries the last iterate, its KKT residual and
    the number of steps taken."""

    def __init__(self, omega, residual, steps):
        self.omega = omega
        self.residual = residual
        self.steps = steps
        super().__init__(
            f"no convergence after {steps} Newton steps (KKT residual {residual:.3e})"
        )


class DegenerateScatter(RobustGgmError):
    """The weighted scatter matrix collapsed (a diagonal entry is zero),
    typically because the weights concentrated on a single observation,
    or it is singular where lambda = 0 needs it positive definite."""


class DegenerateSample(RobustGgmError):
    """A univariate sample carries no usable scale information."""


class DegenerateColumn(RobustGgmError):
    """A data column is constant (or has zero scale under the chosen
    normalization)."""


class SupportCollision(RobustGgmError):
    """Generated precision entries on the requested support cancelled to
    (near) zero and could not be resampled away."""


class InputError(RobustGgmError):
    """Malformed user input (files, flags, hyperparameter ranges)."""
