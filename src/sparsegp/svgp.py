"""Sparse variational GP: the (Z, mu, Sigma) family, its ELBO, and the
closed-form optimum.

A state is stored whitened: u = L_Z^{-1} mu and a triangular R with
R R^T = L_Z^{-1} Sigma L_Z^{-T}, L_Z = chol(k_ZZ). Every member of the
family is read in the Nystrom feature coordinates v(x) = L_Z^{-1} k_Z(x):
the mean is m^nu(x) = v(x)^T u, the covariance is
k(x, x') - q(x, x') + phi(x)^T phi(x') with phi(x) = R^T v(x), and
2 KL(N(mu, Sigma) || N(0, k_ZZ)) = ||u||^2 + ||R||_F^2 - m - 2 sum log|R_ii|,
with no log-det of k_ZZ or Sigma. The ELBO is computed fully in closed form
(Gaussian likelihood) as minus its four-term expansion of -2*sigma^2*ELBO
over 2*sigma^2, with the Gaussian normalization constant
n*sigma^2*log(2*pi*sigma^2) carried explicitly.

Each function of a problem (`elbos`, `elbo`, `elbo_breakdown`,
`stationarity_residual`, `optimal_parameters`) takes the problem's
NystromFactor, so V = v(X) and the trace gap are built once, by
`nystrom_factor`. All but `optimal_parameters` read only its V, trace gap,
data and noise variance, and reject a state on another inducing set.

The optimum is read from the whitened factorization NystromFactor: with
A = V / s and L_B = chol(I + A A^T), u* = L_B^{-T} L_B^{-1} A y / s (so
mu* = L_Z u*) and R* = L_B^{-T} (so Sigma* = L_Z L_B^{-T} L_B^{-1} L_Z^T);
the optimal ELBO is `NystromFactor.elbo`, its posterior mean and variance
are `NystromFactor.mean` and `NystromFactor.optimal_var`.
`stationarity_residual` certifies a state as that optimum in the same
whitened coordinates, with matrix products only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidParameter
from .linalg import factor_spd, lower_solve, solve, upper_solve
from .nystrom import InducingSet, NystromFactor, _features


@dataclass(frozen=True)
class SvgpState:
    """Variational triple, whitened: inducing points Z, u = L_Z^{-1} mu and
    a triangular R with R R^T = L_Z^{-1} Sigma L_Z^{-T}."""

    inducing: InducingSet
    u: np.ndarray
    R: np.ndarray

    @property
    def m(self) -> int:
        return self.inducing.m

    @property
    def mu(self) -> np.ndarray:
        return self.inducing.kzz_factor.lower @ self.u

    @property
    def sigma(self) -> np.ndarray:
        LR = self.inducing.kzz_factor.lower @ self.R
        return LR @ LR.T


def make_state(ind: InducingSet, mu, sigma) -> SvgpState:
    """The state of raw (mu, Sigma), whitened once; Sigma is factored
    without jitter, so R = L_Z^{-1} chol(Sigma) is lower triangular."""
    mu = np.asarray(mu, dtype=float).ravel()
    sigma = np.asarray(sigma, dtype=float)
    if mu.shape[0] != ind.m or sigma.shape != (ind.m, ind.m):
        raise DimensionMismatch(
            f"mu {mu.shape} / sigma {sigma.shape} inconsistent with m={ind.m}"
        )
    L_sigma = factor_spd(sigma, jitter_ladder=[0.0]).lower
    return SvgpState(ind, lower_solve(ind.kzz_factor, mu), lower_solve(ind.kzz_factor, L_sigma))


def psi_forward(ind: InducingSet, mu) -> np.ndarray:
    """Span coefficients alpha = k_ZZ^{-1} mu of the interpolant of mu at Z,
    which is the orthogonal projection onto M of any f with f_Z = mu."""
    mu = np.asarray(mu, dtype=float).ravel()
    return solve(ind.kzz_factor, mu)


def psi_inverse(ind: InducingSet, alpha) -> np.ndarray:
    """Recover mu = f_Z = k_ZZ alpha = L_Z L_Z^T alpha from span
    coefficients (f = k_Z(.)^T alpha), on the set's factor of k_ZZ."""
    L = ind.kzz_factor.lower
    return L @ (L.T @ np.asarray(alpha, dtype=float).ravel())


def feature_map_phi(state: SvgpState, X) -> np.ndarray:
    """phi(x) = R^T v(x) = Sigma^{1/2} k_ZZ^{-1} k_Z(x), one row per row of X.
    The covariance of the state's GP is k^nu(x, x') = k(x, x') - q(x, x')
    + phi(x)^T phi(x'), and the Gram of phi on Z is Sigma."""
    return (state.R.T @ _features(state.inducing, X)).T


@dataclass(frozen=True)
class ElboBreakdown:
    """Terms of the exact expansion of -2*sigma^2*ELBO, whose sum is
    `term_sum`; normalization = n*sigma^2*log(2*pi*sigma^2) is the Gaussian
    likelihood constant (independent of the variational parameters).

    fit_plus_norm depends only on mu (and Z): the subspace least-squares
    objective sum (y_i - m^nu(x_i))^2 + sigma^2 mu^T k_ZZ^{-1} mu.
    sigma_quadratic (sum_i ||R^T v_i||^2) and kl_regularizer
    (sigma^2 (||R||_F^2 - m - 2 sum log|R_ii|)) depend only on Sigma (and
    Z); residual_trace tr(k_XX - q_XX) only on Z.
    """

    fit_plus_norm: float
    sigma_quadratic: float
    kl_regularizer: float
    residual_trace: float
    normalization: float

    def term_sum(self) -> float:
        return (self.fit_plus_norm + self.sigma_quadratic
                + self.kl_regularizer + self.residual_trace + self.normalization)


def _check_states(fac: NystromFactor, states: list[SvgpState]) -> None:
    """InvalidParameter unless every state is on the factor's inducing set."""
    if any(s.inducing is not fac.inducing for s in states):
        raise InvalidParameter(
            "a state is not on the factor's inducing set; build the factor "
            "on the states' inducing set")


def _breakdowns(fac: NystromFactor, states: list[SvgpState]) -> list[ElboBreakdown]:
    """The breakdown of each state, on the factor's V = v(X) and trace gap."""
    _check_states(fac, states)
    V, y, s2 = fac.features, fac.data.targets, fac.noise_var
    normalization = float(fac.data.n * s2 * np.log(2.0 * np.pi * s2))
    out = []
    for s in states:
        resid = y - V.T @ s.u
        RV = s.R.T @ V
        kl_sigma = (float(np.sum(s.R * s.R)) - s.m
                    - 2.0 * float(np.sum(np.log(np.abs(np.diag(s.R))))))
        out.append(ElboBreakdown(fit_plus_norm=float(resid @ resid) + s2 * float(s.u @ s.u),
                                 sigma_quadratic=float(np.sum(RV * RV)),
                                 kl_regularizer=s2 * kl_sigma,
                                 residual_trace=fac.trace_gap, normalization=normalization))
    return out


def elbos(fac: NystromFactor, states: list[SvgpState]) -> np.ndarray:
    """Closed-form ELBO of each state, -term_sum / (2 sigma^2), on the
    factor's problem; elbos(fac, states)[i] is exactly elbo(fac, states[i])."""
    return np.array([-bd.term_sum() / (2.0 * fac.noise_var)
                     for bd in _breakdowns(fac, states)])


def elbo(fac: NystromFactor, state: SvgpState) -> float:
    """Closed-form ELBO: -KL(N(mu,Sigma) || N(0,k_ZZ)) + expected log-lik."""
    return float(elbos(fac, [state])[0])


def elbo_breakdown(fac: NystromFactor, state: SvgpState) -> ElboBreakdown:
    """Split -2*sigma^2*ELBO into its parameter-wise pieces."""
    return _breakdowns(fac, [state])[0]


def optimal_parameters(fac: NystromFactor) -> SvgpState:
    """Closed-form ELBO maximizer, read from a built whitened factor:

    mu*    = k_ZZ (s2 k_ZZ + k_ZX k_XZ)^{-1} k_ZX y    = L_Z u*
    Sigma* = k_ZZ (k_ZZ + s2^{-1} k_ZX k_XZ)^{-1} k_ZZ = L_Z R* R*^T L_Z^T,
    R* = L_B^{-T} (upper triangular). Nothing is factored here.
    """
    return SvgpState(fac.inducing, fac.u, upper_solve(fac.b_factor, np.eye(fac.inducing.m)))


def stationarity_residual(fac: NystromFactor, state: SvgpState) -> float:
    """Largest absolute entry of the ELBO's stationarity equations at
    `state`, with the factor's V = v(X) and P = I + V V^T / s2:
    u - V (y - V^T u) / s2 (= -dELBO/du) and R^T P R - I (zero iff
    R R^T = P^{-1}). Matrix products only: P is neither factored nor solved
    with, and the factor's L_B and u are not read, so the residual does not
    repeat the arithmetic of `optimal_parameters`."""
    _check_states(fac, [state])
    V, s2 = fac.features, fac.noise_var
    grad = state.u - V @ (fac.data.targets - V.T @ state.u) / s2
    RV = state.R.T @ V
    cov = state.R.T @ state.R + RV @ RV.T / s2 - np.eye(state.m)
    return max(float(np.max(np.abs(grad))), float(np.max(np.abs(cov))))
