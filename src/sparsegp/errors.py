"""Exception types shared across the library."""


class SparseGpError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(SparseGpError):
    """Array shapes are inconsistent with each other or with a model."""


class FactorizationFailed(SparseGpError):
    """Cholesky failed at every rung of the jitter ladder."""


class NoConvergence(SparseGpError):
    """A numerical routine did not converge: a tridiagonal eigensolve of
    the Lanczos iteration behind `operator_norm` raised LinAlgError."""


class UnsupportedKernel(SparseGpError):
    """The requested operation is not implemented for this kernel family."""


class InvalidCount(SparseGpError, ValueError):
    """A count is out of range (inducing points, Monte-Carlo samples) or
    inducing points are duplicated."""


class InvalidParameter(SparseGpError, ValueError):
    """A model parameter is out of range (noise variance, ridge,
    lengthscale, polynomial degree or offset, input dimension d, selection
    strategy, report format) or does not fit the others (states on
    different inducing sets)."""


class NonFiniteValue(SparseGpError, ValueError):
    """An array that must be finite holds a NaN or an infinity (a dataset,
    or a matrix to factor, such as an overflowed Gram)."""


class ParseError(SparseGpError):
    """A CSV row could not be parsed; carries the offending line number."""

    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class EmptyFile(SparseGpError):
    """A CSV file contained no data rows."""


class InternalInconsistency(SparseGpError):
    """Two mathematically equivalent computation paths disagreed."""
