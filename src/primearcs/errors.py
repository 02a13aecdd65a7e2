"""Exception hierarchy shared by all modules.

Exit-code mapping used by the CLI: ValidationError -> 2,
ConvergenceError -> 3, ResourceLimitError -> 4.
"""


class PrimeArcsError(Exception):
    """Base class for all package errors."""


class ValidationError(PrimeArcsError):
    """Bad input: out-of-range argument, malformed config, broken table."""


def require_tol(tol: float) -> None:
    """ValidationError unless 0 < tol < inf: an adaptive loop stops on
    err <= tol, which a nan, zero or negative tol never satisfies."""
    if not 0.0 < tol < float("inf"):
        raise ValidationError(f"tol must be positive and finite, got {tol}")


class TableIntegrityError(ValidationError):
    """A prime-table file failed structural validation on load."""


class ConvergenceError(PrimeArcsError):
    """A quadrature did not reach the requested tolerance.

    Carries the best estimate computed so far in ``best`` and the
    estimated error in ``est_error``.
    """

    def __init__(self, message, best=None, est_error=None):
        super().__init__(message)
        self.best = best
        self.est_error = est_error


class ResourceLimitError(PrimeArcsError):
    """An operation would exceed its configured memory/work budget."""


class PrecisionError(PrimeArcsError):
    """High-precision carrier ran out of trustworthy digits.

    ``max_depth`` names the last continued-fraction term that is still
    reliable with the declared input precision.
    """

    def __init__(self, message, max_depth=None):
        super().__init__(message)
        self.max_depth = max_depth
