"""Exact kernel ridge regression and exact GP posteriors.

These are the ground truths the sparse approximations are later measured
against. Throughout, the GP prior mean is zero. The GP posterior mean is
a KernelExpansion over the training inputs X with coefficients
alpha = (k_XX + s2 I)^{-1} y; the KRR fit at ridge lambda is that mean at
s2 = n * lambda. `noise_of_ridge` is the one place a ridge is turned into
that noise variance: the Nystrom ridge fit and `SparseProblem.at_ridge`
convert through it too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import DimensionMismatch, InvalidParameter
from .kernels import Kernel, KernelExpansion
from .linalg import SpdFactor, _check_positive, logdet, lower_solve, noise_factor, solve


@dataclass(frozen=True)
class GpPosterior:
    mean: KernelExpansion  # over X, coef alpha = (k_XX + s2 I)^{-1} y
    targets: np.ndarray  # the y the posterior was fit to
    factor: SpdFactor  # Cholesky factor of k_XX + s2 I

    @classmethod
    def from_factor(cls, kernel: Kernel, data: Dataset, F: SpdFactor) -> GpPosterior:
        """The posterior of `data` given F, the Cholesky factor of k_XX + s2 I."""
        return cls(KernelExpansion(kernel, data.inputs, solve(F, data.targets)), data.targets, F)

    def cov(self, A, B=None) -> np.ndarray:
        """Posterior covariance k_AB - k_AX (k_XX + s2 I)^{-1} k_XB, |A| x |B|;
        B=None gives the exactly symmetric |A| x |A| matrix."""
        kernel, X = self.mean.kernel, self.mean.centers
        Wa = lower_solve(self.factor, kernel.gram(A, X).T)  # column i is L^{-1} k_X(a_i)
        Wb = Wa if B is None else lower_solve(self.factor, kernel.gram(B, X).T)
        return kernel.gram(A, B) - Wa.T @ Wb

    def log_evidence(self) -> float:
        """log N(y; 0, k_XX + s2 I) for the targets y the posterior was fit to."""
        n = self.mean.centers.shape[0]
        return float(-0.5 * logdet(self.factor) - 0.5 * (self.targets @ self.mean.coef)
                     - 0.5 * n * np.log(2.0 * np.pi))


def noise_of_ridge(n: int, ridge: float) -> float:
    """The noise variance s2 = n * ridge linked to the ridge `ridge` over n
    points. InvalidParameter unless ridge is positive and finite, or when
    n * ridge overflows to inf."""
    _check_positive(ridge, "ridge")
    _check_positive(n * float(ridge), "n * ridge")
    return n * float(ridge)


def fit_krr(kernel: Kernel, data: Dataset, ridge: float) -> KernelExpansion:
    """Solve the regularized least-squares problem over the full RKHS: the
    GP posterior mean at noise_var = n * ridge, whose coefficients solve
    (k_XX + n*ridge*I) alpha = y."""
    return fit_gpr(kernel, data, noise_of_ridge(data.n, ridge)).mean


def fit_gpr(kernel: Kernel, data: Dataset, noise_var: float) -> GpPosterior:
    """Exact GP posterior with zero prior mean."""
    return GpPosterior.from_factor(kernel, data, noise_factor(kernel.gram(data.inputs), noise_var))


def regularized_risk(f_values_at_X: np.ndarray, rkhs_norm_sq: float,
                     data: Dataset, ridge: float) -> float:
    """R_n(f; y) = (1/n) sum (y_i - f(x_i))^2 + ridge * ||f||^2."""
    f_values_at_X = np.asarray(f_values_at_X, dtype=float).ravel()
    if f_values_at_X.shape[0] != data.n:
        raise DimensionMismatch(
            f"{f_values_at_X.shape[0]} function values for {data.n} targets"
        )
    if rkhs_norm_sq < 0:
        raise InvalidParameter("rkhs_norm_sq must be nonnegative")
    resid = data.targets - f_values_at_X
    return float(np.mean(resid**2) + ridge * rkhs_norm_sq)
