"""Exact kernel ridge regression and exact GP posteriors.

These are the ground truths the sparse approximations are later measured
against. Throughout, the GP prior mean is zero and the KRR coefficients
solve (k_XX + n*lambda*I) alpha = y.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .kernels import Kernel, as_points
from .linalg import SpdFactor, factor_spd, logdet, solve


@dataclass(frozen=True)
class KrrModel:
    kernel: Kernel
    train_inputs: np.ndarray
    coefficients: np.ndarray
    ridge: float

    def predict(self, x) -> float:
        """Prediction k_X(x)^T alpha at a single point."""
        x = as_points(x, self.kernel.input_dim)
        kx = self.kernel.gram(self.train_inputs, x)[:, 0]
        return float(kx @ self.coefficients)

    def predict_many(self, X) -> np.ndarray:
        X = as_points(X, self.kernel.input_dim)
        return self.kernel.gram(X, self.train_inputs) @ self.coefficients

    def rkhs_norm_sq(self) -> float:
        """||f||^2 via the Gram quadratic form alpha^T k_XX alpha."""
        K = self.kernel.gram(self.train_inputs)
        return float(self.coefficients @ K @ self.coefficients)


@dataclass(frozen=True)
class GpPosterior:
    kernel: Kernel
    train_inputs: np.ndarray
    noise_var: float
    alpha: np.ndarray
    factor: SpdFactor

    def mean(self, x) -> float:
        x = as_points(x, self.kernel.input_dim)
        kx = self.kernel.gram(self.train_inputs, x)[:, 0]
        return float(kx @ self.alpha)

    def cov(self, x, x2) -> float:
        """Posterior covariance k(x,x') - k_X(x)^T (k_XX + s2 I)^{-1} k_X(x')."""
        x = as_points(x, self.kernel.input_dim)
        x2 = as_points(x2, self.kernel.input_dim)
        kx = self.kernel.gram(self.train_inputs, x)[:, 0]
        kx2 = self.kernel.gram(self.train_inputs, x2)[:, 0]
        prior = self.kernel.gram(x, x2)[0, 0]
        return float(prior - kx @ solve(self.factor, kx2))

    def variance(self, x) -> float:
        return self.cov(x, x)

    def log_evidence(self, y) -> float:
        """log N(y; 0, k_XX + s2 I) for the targets y the posterior was fit to."""
        n = self.train_inputs.shape[0]
        return float(-0.5 * logdet(self.factor) - 0.5 * (y @ self.alpha)
                     - 0.5 * n * np.log(2.0 * np.pi))


def fit_krr(kernel: Kernel, data: Dataset, ridge: float) -> KrrModel:
    """Solve the regularized least-squares problem over the full RKHS."""
    if ridge <= 0:
        raise ValueError("ridge must be positive")
    n = data.n
    K = kernel.gram(data.inputs)
    F = factor_spd(K + n * ridge * np.eye(n), jitter_ladder=[0.0])
    alpha = solve(F, data.targets)
    return KrrModel(kernel=kernel, train_inputs=data.inputs,
                    coefficients=alpha, ridge=ridge)


def fit_gpr(kernel: Kernel, data: Dataset, noise_var: float) -> GpPosterior:
    """Exact GP posterior with zero prior mean."""
    if noise_var <= 0:
        raise ValueError("noise_var must be positive")
    K = kernel.gram(data.inputs)
    F = factor_spd(K + noise_var * np.eye(data.n), jitter_ladder=[0.0])
    alpha = solve(F, data.targets)
    return GpPosterior(kernel=kernel, train_inputs=data.inputs,
                       noise_var=noise_var, alpha=alpha, factor=F)


def log_marginal_likelihood(kernel: Kernel, data: Dataset, noise_var: float) -> float:
    """log N(y; 0, k_XX + noise_var * I)."""
    return fit_gpr(kernel, data, noise_var).log_evidence(data.targets)


def regularized_risk(f_values_at_X: np.ndarray, rkhs_norm_sq: float,
                     data: Dataset, ridge: float) -> float:
    """R_n(f; y) = (1/n) sum (y_i - f(x_i))^2 + ridge * ||f||^2."""
    f_values_at_X = np.asarray(f_values_at_X, dtype=float).ravel()
    if f_values_at_X.shape[0] != data.n:
        from .errors import DimensionMismatch

        raise DimensionMismatch(
            f"{f_values_at_X.shape[0]} function values for {data.n} targets"
        )
    if rkhs_norm_sq < 0:
        raise ValueError("rkhs_norm_sq must be nonnegative")
    resid = data.targets - f_values_at_X
    return float(np.mean(resid**2) + ridge * rkhs_norm_sq)
