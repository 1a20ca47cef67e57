"""Exception types shared across the library."""


class PlgdError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(PlgdError, ValueError):
    """Operands live in incompatible spaces."""


class SolverCapExceeded(PlgdError, ValueError):
    """A dense eigensolve was requested above the supported dimension."""


class MissingCertificate(PlgdError, ValueError):
    """A required constant (Lipschitz bound, infimum, ...) is not available."""


class InvalidConfig(PlgdError, ValueError):
    """A configuration value is outside its documented range."""


class InvalidDataset(PlgdError, ValueError):
    """A dataset violates a structural assumption."""


class NumericFailure(PlgdError, ArithmeticError):
    """A computation produced a non-finite or out-of-domain value.

    ``iteration`` is the descent iteration whose evaluation failed, when
    the failure happened inside a descent run (0 is the initial point).
    """

    def __init__(self, message: str = "", iteration: int | None = None):
        super().__init__(message)
        self.iteration = iteration
