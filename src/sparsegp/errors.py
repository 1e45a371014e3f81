"""Exception types shared across the library."""


class SparseGpError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(SparseGpError):
    """Array shapes are inconsistent with each other or with a model."""


class FactorizationFailed(SparseGpError):
    """Cholesky failed at every rung of the jitter ladder."""


class NoConvergence(SparseGpError):
    """A numerical routine did not converge: the symmetric eigensolve
    behind `operator_norm` raised LinAlgError."""


class UnsupportedKernel(SparseGpError):
    """The requested operation is not implemented for this kernel family."""


class InvalidCount(SparseGpError, ValueError):
    """A count is out of range (inducing points, Monte-Carlo samples) or
    inducing points are duplicated."""


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
