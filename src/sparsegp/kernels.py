"""Positive-definite kernels and their Gram matrices.

Two families are provided: the Gaussian (squared-exponential) kernel
exp(-||x - x'||^2 / gamma^2) and the polynomial kernel (x.x' + c)^m.
Points are row-major (n, d) arrays; d = 1 is the common case in tests.
Each kernel's pivot_rows(X, Z) returns p -> k(z_p, X) (Z = X by
default), the one-row body behind every row of the K_ZX that
nystrom_factor solves its features from: greedy inducing selection
evaluates its pivot rows with it, and nystrom_factor builds the rows over
Z with it when there are none. The Gaussian kernel takes the row norms of
X once for all rows.
Every function the library fits is a KernelExpansion over some centers.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (DimensionMismatch, InvalidParameter, NonFiniteValue,
                     UnsupportedKernel)


def as_points(x, input_dim: int) -> np.ndarray:
    """Coerce scalars / 1-d arrays / 2-d arrays to an (n, d) point matrix."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        x = x.reshape(1, 1)
    elif x.ndim == 1:
        # A single point of dimension d, or n points in 1-d.
        if input_dim == 1:
            x = x.reshape(-1, 1)
        else:
            x = x.reshape(1, -1)
    if x.ndim != 2 or x.shape[1] != input_dim:
        raise DimensionMismatch(
            f"expected points of dimension {input_dim}, got array of shape {x.shape}"
        )
    return x


# A Gram is built in row blocks of about this many entries (256 KB), each
# kept in cache through its six passes. At n = 4000 on a 2-vCPU x86-64 VM
# blocks of 8K to 128K entries took 0.25-0.34 s, whole-matrix passes 0.55 s.
_BLOCK_ENTRIES = 32768


def _check_input_dim(input_dim: int) -> None:
    if input_dim < 1:
        raise InvalidParameter(f"input dimension d must be >= 1, got {input_dim}")


def _check_lengthscale(gamma: float) -> None:
    """InvalidParameter unless gamma > 0, 0 < gamma^2 < inf and 2 / gamma^2 <
    inf: every Gram entry divides by gamma^2, and the mixed second
    derivative is 2 / gamma^2."""
    if not 0 < gamma < np.inf:
        raise InvalidParameter(f"length-scale gamma must be finite and > 0, got {gamma:g}")
    if not 0 < float(gamma) * float(gamma) < np.inf:
        raise InvalidParameter(f"length-scale gamma needs gamma^2 finite and > 0, got {gamma:g}")
    if 2.0 / (float(gamma) * float(gamma)) == np.inf:
        raise InvalidParameter(f"length-scale gamma needs 2/gamma^2 finite, got {gamma:g}")


@dataclass(frozen=True)
class GaussianKernel:
    """k(x, x') = exp(-||x - x'||^2 / gamma^2), so k(x, x) = 1."""

    lengthscale: float = 1.0
    input_dim: int = 1

    def __post_init__(self):
        _check_input_dim(self.input_dim)
        _check_lengthscale(self.lengthscale)

    def gram(self, A, B=None) -> np.ndarray:
        A = as_points(A, self.input_dim)
        B = A if B is None else as_points(B, self.input_dim)
        return self._gram(A, B, np.einsum("ij,ij->i", B, B))

    def pivot_rows(self, X, Z=None):
        """p -> k(z_p, X) for the rows z_p of Z (default X), bit for bit
        gram(Z[p:p+1], X)[0], with the row norms of X taken once for all
        rows rather than once per row."""
        X = as_points(X, self.input_dim)
        Z = X if Z is None else as_points(Z, self.input_dim)
        x2 = np.einsum("ij,ij->i", X, X)
        return lambda p: self._gram(Z[p:p + 1], X, x2)[0]

    def _gram(self, A: np.ndarray, B: np.ndarray, b2: np.ndarray) -> np.ndarray:
        """k(A, B) given b2, the row norms of B.

        The same operations, in the same order, as
        exp(-max(|a|^2 + |b|^2 - 2 a.b, 0) / ls^2), but in the buffer of
        A @ B.T and a few rows at a time, so that each row block stays in
        cache through all six passes: a fresh n x n temporary costs more
        in pages than in arithmetic. einsum takes the row norms without an
        (n, d) temporary. numpy computes A @ A.T by a symmetric rank-k
        update, which is exactly symmetric, and every later pass is
        elementwise, so a self-Gram is exactly symmetric as built."""
        a2 = np.einsum("ij,ij->i", A, A)
        K = A @ B.T
        rows = max(1, _BLOCK_ENTRIES // max(1, K.shape[1]))
        for start in range(0, K.shape[0], rows):
            block = K[start:start + rows]
            block *= 2.0
            np.subtract(a2[start:start + rows, None] + b2, block, out=block)
            np.maximum(block, 0.0, out=block)
            np.negative(block, out=block)
            # A quotient past the largest float is -inf, whose exp is the 0.0
            # that the kernel value underflows to anyway.
            with np.errstate(over="ignore"):
                block /= self.lengthscale**2
            np.exp(block, out=block)
        return K

    def diag(self, X) -> np.ndarray:
        """k(x_i, x_i) for each row of X, without building the Gram matrix."""
        return np.ones(as_points(X, self.input_dim).shape[0])

    def mixed_second_derivative(self, j: int, x) -> float:
        """d/dx_j d/dx'_j k(x, x') at x' = x; constant 2 / gamma^2."""
        as_points(x, self.input_dim)
        if not 0 <= j < self.input_dim:
            raise DimensionMismatch(f"coordinate {j} out of range for d={self.input_dim}")
        return 2.0 / self.lengthscale**2


@dataclass(frozen=True)
class PolynomialKernel:
    """k(x, x') = (x.x' + offset)^degree."""

    degree: int = 1
    offset: float = 0.0
    input_dim: int = 1

    def __post_init__(self):
        _check_input_dim(self.input_dim)
        if not (isinstance(self.degree, numbers.Integral) and self.degree >= 1):
            raise InvalidParameter(f"degree must be an integer >= 1, got {self.degree}")
        if not 0 <= self.offset < np.inf:
            raise InvalidParameter(f"offset must be finite and nonnegative, got {self.offset}")

    def pivot_rows(self, X, Z=None):
        """p -> k(z_p, X) for the rows z_p of Z (default X), through gram."""
        X = as_points(X, self.input_dim)
        Z = X if Z is None else as_points(Z, self.input_dim)
        return lambda p: self.gram(Z[p:p + 1], X)[0]

    def gram(self, A, B=None) -> np.ndarray:
        A = as_points(A, self.input_dim)
        B = A if B is None else as_points(B, self.input_dim)
        # An overflow is reported once, as a typed error, not as warnings.
        with np.errstate(over="ignore", invalid="ignore"):
            K = A @ B.T
            K += self.offset
            np.power(K, self.degree, out=K)
        return self._finite(K, A, B)

    def diag(self, X) -> np.ndarray:
        """k(x_i, x_i) for each row of X, without building the Gram matrix."""
        X = as_points(X, self.input_dim)
        with np.errstate(over="ignore"):
            return self._finite((np.sum(X * X, axis=1) + self.offset) ** self.degree, X)

    def _finite(self, K: np.ndarray, *inputs: np.ndarray) -> np.ndarray:
        if np.isfinite(K).all():
            return K
        if not all(np.isfinite(X).all() for X in inputs):
            raise NonFiniteValue("polynomial kernel inputs contain NaN or Inf")
        raise NonFiniteValue(
            f"the polynomial Gram overflows at degree {self.degree}; "
            "lower the degree or rescale the inputs")

    def mixed_second_derivative(self, j: int, x) -> float:
        raise UnsupportedKernel("mixed second derivative implemented for the Gaussian family only")


Kernel = GaussianKernel | PolynomialKernel


@dataclass(frozen=True)
class KernelExpansion:
    """f = sum_j coef_j k(., c_j), a function in the span of the kernel
    sections at the rows c_j of `centers`. The exact KRR fit and GP mean
    are expansions over the training inputs X, the Nystrom ridge fit and
    the SVGP mean expansions over the inducing points Z."""

    kernel: Kernel
    centers: np.ndarray
    coef: np.ndarray

    def predict_many(self, X) -> np.ndarray:
        """f at each row of X: k_XC coef."""
        return self.kernel.gram(X, self.centers) @ self.coef

    def rkhs_norm_sq(self) -> float:
        """||f||^2 = coef^T k_CC coef."""
        return float(self.coef @ self.kernel.gram(self.centers) @ self.coef)


def make_kernel(family: str, input_dim: int = 1, *, gamma: float = 1.0,
                degree: int = 1, offset: float = 0.0) -> Kernel:
    """Build a kernel from a config-style description."""
    if family == "gaussian":
        return GaussianKernel(lengthscale=gamma, input_dim=input_dim)
    if family == "polynomial":
        return PolynomialKernel(degree=degree, offset=offset, input_dim=input_dim)
    raise UnsupportedKernel(f"unknown kernel family {family!r}")
