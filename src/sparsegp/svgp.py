"""Sparse variational GP: the (Z, mu, Sigma) family, its ELBO, and the
closed-form optimum.

Every member of the family is read in the Nystrom feature coordinates
v(x) = L_Z^{-1} k_Z(x), L_Z = chol(k_ZZ), with the state whitened to
u = L_Z^{-1} mu and R = L_Z^{-1} L_Sigma. The mean is m^nu(x) = v(x)^T u,
the covariance is k(x, x') - q(x, x') + phi(x)^T phi(x') with
phi(x) = R^T v(x), and 2 KL(N(mu, Sigma) || N(0, k_ZZ)) =
||R||_F^2 + ||u||^2 - m + log|k_ZZ| - log|Sigma|. The ELBO is computed
fully in closed form (Gaussian likelihood) on V = v(X), and the four-term
expansion of -2*sigma^2*ELBO is exposed with the Gaussian normalization
constant n*sigma^2*log(2*pi*sigma^2) carried explicitly so the identity
holds exactly.

The optimum is read from the whitened factorization NystromFactor: with
A = V / s, L_B = chol(I + A A^T) and c = L_B^{-1} A y / s,
mu* = L_Z L_B^{-T} c and Sigma* = W^T W for W = L_B^{-1} L_Z^T; the
optimal ELBO is `NystromFactor.elbo`, its posterior mean and variance are
`NystromFactor.mean` and `NystromFactor.optimal_var`.
`fixed_point_solver` stays in raw k_ZX k_XZ coordinates as an independent
reference and returns raw (mu, Sigma) arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import DimensionMismatch, InvalidParameter
from .kernels import Kernel
from .linalg import SpdFactor, factor_spd, logdet, lower_solve, solve, upper_solve
from .nystrom import InducingSet, NystromFactor, _features, _trace_gap


@dataclass(frozen=True)
class SvgpState:
    """Variational triple: inducing points plus Gaussian (mu, Sigma)."""

    inducing: InducingSet
    mu: np.ndarray
    sigma_factor: SpdFactor

    @property
    def m(self) -> int:
        return self.inducing.m

    @property
    def sigma(self) -> np.ndarray:
        return self.sigma_factor.reconstruct()


def make_state(ind: InducingSet, mu, sigma) -> SvgpState:
    mu = np.asarray(mu, dtype=float).ravel()
    sigma = np.asarray(sigma, dtype=float)
    if mu.shape[0] != ind.m or sigma.shape != (ind.m, ind.m):
        raise DimensionMismatch(
            f"mu {mu.shape} / sigma {sigma.shape} inconsistent with m={ind.m}"
        )
    return SvgpState(inducing=ind, mu=mu, sigma_factor=factor_spd(sigma, jitter_ladder=[0.0]))


def psi_forward(ind: InducingSet, mu) -> np.ndarray:
    """Span coefficients alpha = k_ZZ^{-1} mu of the interpolant of mu at Z,
    which is the orthogonal projection onto M of any f with f_Z = mu."""
    mu = np.asarray(mu, dtype=float).ravel()
    return solve(ind.kzz_factor, mu)


def psi_inverse(ind: InducingSet, alpha) -> np.ndarray:
    """Recover mu = f_Z from span coefficients (f = k_Z(.)^T alpha)."""
    alpha = np.asarray(alpha, dtype=float).ravel()
    Kzz = ind.kernel.gram(ind.points)
    return Kzz @ alpha


def _whitened(state: SvgpState) -> tuple[np.ndarray, np.ndarray]:
    """u = L_Z^{-1} mu and R = L_Z^{-1} L_Sigma."""
    kzz = state.inducing.kzz_factor
    return lower_solve(kzz, state.mu), lower_solve(kzz, state.sigma_factor.lower)


def feature_map_phi(state: SvgpState, X) -> np.ndarray:
    """phi(x) = R^T v(x) = Sigma^{1/2} k_ZZ^{-1} k_Z(x), one row per row of X.
    The covariance of the state's GP is k^nu(x, x') = k(x, x') - q(x, x')
    + phi(x)^T phi(x'), and the Gram of phi on Z is Sigma."""
    return (_whitened(state)[1].T @ _features(state.inducing, X)).T


def _state_terms(state: SvgpState, data: Dataset, V: np.ndarray):
    """The parts of the ELBO that depend on (mu, Sigma), on V = v(X):
    ||y - V^T u||^2, the spread sum_i ||R^T v_i||^2, ||u||^2 and
    ||R||_F^2 - m + log|k_ZZ| - log|Sigma| (the Sigma part of 2 KL)."""
    u, R = _whitened(state)
    resid = data.targets - V.T @ u
    RV = R.T @ V
    kl_sigma = (float(np.sum(R * R)) - state.m + logdet(state.inducing.kzz_factor)
                - logdet(state.sigma_factor))
    return float(resid @ resid), float(np.sum(RV * RV)), float(u @ u), kl_sigma


def _elbo_value(n: int, noise_var: float, trace_gap: float, resid_sq: float,
                spread: float, u_sq: float, kl_sigma: float) -> float:
    fit = (-0.5 * n * np.log(2.0 * np.pi * noise_var)
           - (resid_sq + trace_gap + spread) / (2.0 * noise_var))
    return fit - 0.5 * (u_sq + kl_sigma)


def _data_features(ind: InducingSet, data: Dataset, noise_var: float):
    """V = v(X) and tr(k_XX - q_XX), shared by every state on `ind`."""
    if noise_var <= 0:
        raise InvalidParameter("noise_var must be positive")
    V = _features(ind, data.inputs)
    return V, _trace_gap(ind.kernel.diag(data.inputs), V)


def elbos(states: list[SvgpState], data: Dataset, noise_var: float) -> np.ndarray:
    """Closed-form ELBO of each state; all states share one inducing set.

    V = v(X) and the trace gap are built once; each state keeps its own
    terms, so elbos(states)[i] is exactly elbo(states[i])."""
    ind = states[0].inducing
    if any(s.inducing is not ind for s in states):
        raise ValueError("elbos takes states on one inducing set")
    V, t = _data_features(ind, data, noise_var)
    return np.array([_elbo_value(data.n, noise_var, t, *_state_terms(s, data, V))
                     for s in states])


def elbo(state: SvgpState, data: Dataset, noise_var: float) -> float:
    """Closed-form ELBO: -KL(N(mu,Sigma) || N(0,k_ZZ)) + expected log-lik."""
    return float(elbos([state], data, noise_var)[0])


@dataclass(frozen=True)
class ElboBreakdown:
    """Terms of the exact expansion of -2*sigma^2*ELBO.

    fit_plus_norm + sigma_quadratic + kl_regularizer + residual_trace
    + normalization == total_check, where total_check = -2*sigma^2*ELBO and
    normalization = n*sigma^2*log(2*pi*sigma^2) is the Gaussian likelihood
    constant (independent of the variational parameters).
    """

    fit_plus_norm: float
    sigma_quadratic: float
    kl_regularizer: float
    residual_trace: float
    normalization: float
    total_check: float

    def term_sum(self) -> float:
        return (self.fit_plus_norm + self.sigma_quadratic
                + self.kl_regularizer + self.residual_trace + self.normalization)


def elbo_breakdown(state: SvgpState, data: Dataset, noise_var: float) -> ElboBreakdown:
    """Split -2*sigma^2*ELBO into its parameter-wise pieces.

    fit_plus_norm depends only on mu (and Z): the subspace least-squares
    objective sum (y_i - m^nu(x_i))^2 + sigma^2 mu^T k_ZZ^{-1} mu.
    sigma_quadratic and kl_regularizer depend only on Sigma (and Z);
    residual_trace only on Z.
    """
    V, t = _data_features(state.inducing, data, noise_var)
    terms = _state_terms(state, data, V)
    resid_sq, spread, u_sq, kl_sigma = terms
    n = data.n
    return ElboBreakdown(
        fit_plus_norm=resid_sq + noise_var * u_sq,
        sigma_quadratic=spread,
        kl_regularizer=noise_var * kl_sigma,
        residual_trace=t,
        normalization=float(n * noise_var * np.log(2.0 * np.pi * noise_var)),
        total_check=-2.0 * noise_var * _elbo_value(n, noise_var, t, *terms),
    )


def optimal_parameters(fac: NystromFactor) -> SvgpState:
    """Closed-form ELBO maximizer, read from a built whitened factor:

    mu*    = k_ZZ (s2 k_ZZ + k_ZX k_XZ)^{-1} k_ZX y    = L_Z L_B^{-T} c
    Sigma* = k_ZZ (k_ZZ + s2^{-1} k_ZX k_XZ)^{-1} k_ZZ = W^T W, W = L_B^{-1} L_Z^T
    """
    ind = fac.inducing
    Lz = ind.kzz_factor.lower
    W = lower_solve(fac.b_factor, Lz.T)
    return make_state(ind, Lz @ upper_solve(fac.b_factor, fac.c), W.T @ W)


def fixed_point_solver(kernel: Kernel, data: Dataset, ind: InducingSet,
                       noise_var: float) -> tuple[np.ndarray, np.ndarray]:
    """Raw-coordinate reference for `optimal_parameters`: the ELBO
    stationarity conditions solved with one factor of M = s2 k_ZZ + k_ZX k_XZ.

    Sigma^{-1} = k_ZZ^{-1} M k_ZZ^{-1} / s2 gives Sigma = s2 k_ZZ M^{-1} k_ZZ;
    (s2^{-1} k_ZX k_XZ k_ZZ^{-1} + I) mu = s2^{-1} k_ZX y gives
    mu = k_ZZ M^{-1} k_ZX y. Neither condition involves the other parameter.
    Returns the arrays (mu, Sigma) unfactored: Sigma can be indefinite at
    round-off when k_ZZ is ill-conditioned.
    """
    if noise_var <= 0:
        raise InvalidParameter("noise_var must be positive")
    Kzx = kernel.gram(ind.points, data.inputs)
    Kzz = kernel.gram(ind.points)
    F = factor_spd(noise_var * Kzz + Kzx @ Kzx.T)
    sigma = noise_var * Kzz @ solve(F, Kzz)
    return Kzz @ solve(F, Kzx @ data.targets), 0.5 * (sigma + sigma.T)
