"""Sparse variational GP: the (Z, mu, Sigma) family, its ELBO, and the
closed-form optimum.

The ELBO is computed fully in closed form (Gaussian likelihood), and the
four-term expansion of -2*sigma^2*ELBO is exposed with the Gaussian
normalization constant n*sigma^2*log(2*pi*sigma^2) carried explicitly so
the identity holds exactly.

The optimum comes from the whitened factorization NystromFactor: with
v(x) = L_Z^{-1} k_Z(x), A = L_Z^{-1} k_ZX / s, L_B = chol(I + A A^T) and
c = L_B^{-1} A y / s, mu* = L_Z L_B^{-T} c, Sigma* = W^T W for
W = L_B^{-1} L_Z^T, and the optimal ELBO follows from the determinant
lemma in O(n m^2). The optimal posterior's mean m* and variance
k*(x, x) = k - ||v||^2 + ||L_B^{-1} v||^2 are `NystromFactor.mean` and
`NystromFactor.optimal_var`.
`fixed_point_solver` and `mu_stationarity_residual` stay in raw
k_ZX k_XZ coordinates as independent references.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import DimensionMismatch, InvalidParameter
from .kernels import Kernel, as_points
from .linalg import SpdFactor, factor_spd, logdet, lower_solve, solve, upper_solve
from .nystrom import InducingSet, NystromFactor, nystrom_factor


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


def feature_map_phi(state: SvgpState, x) -> np.ndarray:
    """phi(x) = Sigma^{1/2} k_ZZ^{-1} k_Z(x). The covariance of the state's
    GP is k^nu(x, x') = k(x, x') - q(x, x') + phi(x)^T phi(x'), and the Gram
    of phi on Z is Sigma."""
    ind = state.inducing
    kx = ind.kernel.gram(ind.points, as_points(x, ind.kernel.input_dim))[:, 0]
    return state.sigma_factor.lower.T @ solve(ind.kzz_factor, kx)


def _data_pieces(ind: InducingSet, data: Dataset):
    """The state-free ELBO pieces: k_XZ, A = k_ZZ^{-1} k_ZX (column i is
    k_ZZ^{-1} k_Z(x_i)), diag k_XX and diag q_XX."""
    Kxz = ind.kernel.gram(data.inputs, ind.points)
    A = solve(ind.kzz_factor, Kxz.T)
    return Kxz, A, ind.kernel.diag(data.inputs), np.sum(Kxz * A.T, axis=1)


def _state_pieces(state: SvgpState, Kxz: np.ndarray, A: np.ndarray):
    """The pieces that depend on (mu, Sigma): m^nu at X, diag of
    k_XZ k_ZZ^{-1} Sigma k_ZZ^{-1} k_ZX and KL(N(mu, Sigma) || N(0, k_ZZ))."""
    ind = state.inducing
    mean_at_X = Kxz @ solve(ind.kzz_factor, state.mu)
    diag_qnu = np.sum(A * (state.sigma @ A), axis=0)
    kl = 0.5 * (
        np.trace(solve(ind.kzz_factor, state.sigma))
        + state.mu @ solve(ind.kzz_factor, state.mu)
        - state.m
        + logdet(ind.kzz_factor)
        - logdet(state.sigma_factor)
    )
    return mean_at_X, diag_qnu, float(kl)


def _elbo_value(data: Dataset, noise_var: float, diag_k, diag_q,
                mean_at_X, diag_qnu, kl: float) -> float:
    n = data.n
    resid_sq = float(np.sum((data.targets - mean_at_X) ** 2))
    var_sum = float(np.sum(diag_k - diag_q + diag_qnu))
    fit = -0.5 * n * np.log(2.0 * np.pi * noise_var) - (resid_sq + var_sum) / (2.0 * noise_var)
    return fit - kl


def elbos(states: list[SvgpState], data: Dataset, noise_var: float) -> np.ndarray:
    """Closed-form ELBO of each state; all states share one inducing set.

    k_XZ, k_ZZ^{-1} k_ZX, diag k and diag q are built once; each state keeps
    its own KL, fit and variance terms, so elbos(states)[i] is exactly
    elbo(states[i])."""
    if noise_var <= 0:
        raise InvalidParameter("noise_var must be positive")
    ind = states[0].inducing
    if any(s.inducing is not ind for s in states):
        raise ValueError("elbos takes states on one inducing set")
    Kxz, A, diag_k, diag_q = _data_pieces(ind, data)
    return np.array([_elbo_value(data, noise_var, diag_k, diag_q,
                                 *_state_pieces(s, Kxz, A)) for s in states])


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
    if noise_var <= 0:
        raise InvalidParameter("noise_var must be positive")
    ind = state.inducing
    Kxz, A, diag_k, diag_q = _data_pieces(ind, data)
    mean_at_X, diag_qnu, kl = _state_pieces(state, Kxz, A)
    n = data.n
    fit_plus_norm = float(
        np.sum((data.targets - mean_at_X) ** 2)
        + noise_var * state.mu @ solve(ind.kzz_factor, state.mu)
    )
    sigma_quadratic = float(np.sum(diag_qnu))
    kl_regularizer = float(noise_var * (
        np.trace(solve(ind.kzz_factor, state.sigma))
        + logdet(ind.kzz_factor) - logdet(state.sigma_factor)
        - state.m
    ))
    residual_trace = float(np.sum(diag_k - diag_q))
    normalization = float(n * noise_var * np.log(2.0 * np.pi * noise_var))
    total = -2.0 * noise_var * _elbo_value(data, noise_var, diag_k, diag_q,
                                           mean_at_X, diag_qnu, kl)
    return ElboBreakdown(
        fit_plus_norm=fit_plus_norm,
        sigma_quadratic=sigma_quadratic,
        kl_regularizer=kl_regularizer,
        residual_trace=residual_trace,
        normalization=normalization,
        total_check=total,
    )


def optimal_parameters(kernel: Kernel, data: Dataset, ind: InducingSet,
                       noise_var: float) -> SvgpState:
    """Closed-form ELBO maximizer:

    mu*    = k_ZZ (s2 k_ZZ + k_ZX k_XZ)^{-1} k_ZX y    = L_Z L_B^{-T} c
    Sigma* = k_ZZ (k_ZZ + s2^{-1} k_ZX k_XZ)^{-1} k_ZZ = W^T W, W = L_B^{-1} L_Z^T
    """
    return state_from_factor(nystrom_factor(kernel, data, ind, noise_var))


def state_from_factor(fac: NystromFactor) -> SvgpState:
    """(mu*, Sigma*) read from an already built whitened factor."""
    ind = fac.inducing
    Lz = ind.kzz_factor.lower
    W = lower_solve(fac.b_factor, Lz.T)
    return make_state(ind, Lz @ upper_solve(fac.b_factor, fac.c), W.T @ W)


def optimal_elbo(kernel: Kernel, data: Dataset, ind: InducingSet, noise_var: float) -> float:
    """ELBO at (mu*, Sigma*):

    -1/2 logdet(q_XX + s2 I) - 1/2 y^T (q_XX + s2 I)^{-1} y
    - n/2 log 2pi - tr(k_XX - q_XX) / (2 s2)

    By the determinant lemma logdet(q_XX + s2 I) = n log s2 + logdet(L_B L_B^T);
    no n x n matrix is formed: O(n m^2).
    """
    return elbo_from_factor(nystrom_factor(kernel, data, ind, noise_var))


def elbo_from_factor(fac: NystromFactor) -> float:
    """The optimal ELBO read from an already built whitened factor."""
    n, s2 = fac.inputs.shape[0], fac.noise_var
    return float(
        -0.5 * n * np.log(2.0 * np.pi * s2)
        - 0.5 * logdet(fac.b_factor)
        - 0.5 * fac.fit_quad
        - fac.trace_gap / (2.0 * s2)
    )


def fixed_point_solver(kernel: Kernel, data: Dataset, ind: InducingSet,
                       noise_var: float) -> SvgpState:
    """Raw-coordinate reference for `optimal_parameters`: the ELBO
    stationarity conditions solved with one factor of M = s2 k_ZZ + k_ZX k_XZ.

    Sigma^{-1} = k_ZZ^{-1} M k_ZZ^{-1} / s2 gives Sigma = s2 k_ZZ M^{-1} k_ZZ;
    (s2^{-1} k_ZX k_XZ k_ZZ^{-1} + I) mu = s2^{-1} k_ZX y gives
    mu = k_ZZ M^{-1} k_ZX y. Neither condition involves the other parameter.
    """
    if noise_var <= 0:
        raise InvalidParameter("noise_var must be positive")
    Kzx = kernel.gram(ind.points, data.inputs)
    Kzz = kernel.gram(ind.points)
    F = factor_spd(noise_var * Kzz + Kzx @ Kzx.T)
    sigma = noise_var * Kzz @ solve(F, Kzz)
    return make_state(ind, Kzz @ solve(F, Kzx @ data.targets), 0.5 * (sigma + sigma.T))


def mu_stationarity_residual(kernel: Kernel, data: Dataset, state: SvgpState,
                             noise_var: float) -> float:
    """Max-abs residual of the mu stationarity condition at the given state."""
    ind = state.inducing
    Kzx = kernel.gram(ind.points, data.inputs)
    B = Kzx @ Kzx.T
    lhs = B @ solve(ind.kzz_factor, state.mu) / noise_var + state.mu
    rhs = Kzx @ data.targets / noise_var
    return float(np.max(np.abs(lhs - rhs)))
