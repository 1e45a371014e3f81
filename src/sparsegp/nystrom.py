"""Low-rank machinery built on a set of inducing points Z.

Holds the span subspace M = span(k(., z_1), ..., k(., z_m)), the
degenerate kernel q(x, x') = k_Z(x)^T k_ZZ^{-1} k_Z(x'), ridge regression
restricted to M (two equivalent routes), the whitened factorization
NystromFactor behind the posterior of a GP with prior kernel q and the
optimal variational posterior, and two inducing-point selection
strategies.

q(x, x') = v(x)^T v(x') with the feature map v(x) = L_Z^{-1} k_Z(x),
L_Z = chol(k_ZZ). `fit_nystrom` stays in raw beta coordinates as a
reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import InvalidCount
from .kernels import Kernel, as_points
from .linalg import SpdFactor, factor_spd, lower_solve, solve, upper_solve


@dataclass(frozen=True)
class InducingSet:
    kernel: Kernel
    points: np.ndarray
    kzz_factor: SpdFactor

    @property
    def m(self) -> int:
        return self.points.shape[0]


def make_inducing(kernel: Kernel, Z) -> InducingSet:
    """Validate Z and factor k_ZZ (with the jitter ladder as a safety net)."""
    Z = as_points(Z, kernel.input_dim)
    if Z.shape[0] < 1:
        raise InvalidCount("need at least one inducing point")
    # Duplicated rows make k_ZZ exactly singular; reject before factoring.
    uniq = np.unique(Z, axis=0)
    if uniq.shape[0] != Z.shape[0]:
        raise InvalidCount("duplicated inducing points")
    F = factor_spd(kernel.gram(Z))
    return InducingSet(kernel=kernel, points=Z, kzz_factor=F)


@dataclass(frozen=True)
class NystromModel:
    """Ridge regression restricted to M: f(x) = k_Z(x)^T beta."""

    kernel: Kernel
    inducing: InducingSet
    beta: np.ndarray
    ridge: float

    def predict(self, x) -> float:
        x = as_points(x, self.kernel.input_dim)
        kx = self.kernel.gram(self.inducing.points, x)[:, 0]
        return float(kx @ self.beta)

    def predict_many(self, X) -> np.ndarray:
        X = as_points(X, self.kernel.input_dim)
        return self.kernel.gram(X, self.inducing.points) @ self.beta

    def rkhs_norm_sq(self) -> float:
        Kzz = self.kernel.gram(self.inducing.points)
        return float(self.beta @ Kzz @ self.beta)


def _features(ind: InducingSet, X) -> np.ndarray:
    """Nystrom features v(x) = L_Z^{-1} k_Z(x), one column per row of X."""
    return lower_solve(ind.kzz_factor, ind.kernel.gram(X, ind.points).T)


def q_diag(ind: InducingSet, X) -> np.ndarray:
    """q(x, x) = ||v(x)||^2 at each row of X."""
    V = _features(ind, X)
    return np.einsum("ij,ij->j", V, V)


def q_gram(ind: InducingSet, A, B=None) -> np.ndarray:
    """Gram matrix of q: k_AZ k_ZZ^{-1} k_ZB = V_A^T V_B."""
    Va = _features(ind, A)
    if B is None:
        return Va.T @ Va
    return Va.T @ _features(ind, B)


@dataclass(frozen=True)
class NystromFactor:
    """Whitened factorization of one (kernel, data, Z, s2) problem.

    With V = L_Z^{-1} k_ZX (q_XX = V^T V), A = V / s, L_B = chol(I + A A^T)
    and c = L_B^{-1} A y / s: k_ZZ + s2^{-1} k_ZX k_XZ = L_Z L_B L_B^T L_Z^T.
    I + A A^T has eigenvalues in [1, 1 + ||A||^2], so this stays accurate
    where the raw system is nearly singular. V and A are not kept.
    """

    inducing: InducingSet
    inputs: np.ndarray  # the training inputs X
    noise_var: float
    b_factor: SpdFactor
    c: np.ndarray
    mean_coef: np.ndarray  # k_ZZ^{-1} mu* = L_Z^{-T} L_B^{-T} c
    trace_gap: float  # tr(k_XX - q_XX)
    fit_quad: float  # y^T (q_XX + s2 I)^{-1} y

    def mean(self, X) -> np.ndarray:
        """m*(X) = k_XZ L_Z^{-T} L_B^{-T} c, one value per row of X: the mean
        of both the DTC and the optimal variational posterior."""
        return self.inducing.kernel.gram(X, self.inducing.points) @ self.mean_coef

    def dtc_var(self, X) -> np.ndarray:
        """DTC posterior variance
        k_Z(x)^T (k_ZZ + s2^{-1} k_ZX k_XZ)^{-1} k_Z(x) = ||w(x)||^2,
        w = L_B^{-1} v, at each row of X, in O(P m^2)."""
        W = lower_solve(self.b_factor, _features(self.inducing, X))
        return np.einsum("ij,ij->j", W, W)

    def optimal_var(self, X) -> np.ndarray:
        """Variance k*(x, x) = k(x, x) - ||v||^2 + ||w||^2 of the optimal
        variational posterior at each row of X, in O(P m^2), evaluated
        without going through `dtc_var`."""
        V = _features(self.inducing, X)
        W = lower_solve(self.b_factor, V)
        return (self.inducing.kernel.diag(X) - np.einsum("ij,ij->j", V, V)
                + np.einsum("ij,ij->j", W, W))

    def quad_forms(self, Y) -> np.ndarray:
        """y^T (q_XX + s2 I)^{-1} y for each column y of Y, by Woodbury in
        O(n m S) for S columns."""
        V = _features(self.inducing, self.inputs)
        _, e, r = _woodbury(self.b_factor, V, Y, self.noise_var)
        return np.einsum("ij,ij->j", r, r) / self.noise_var + np.einsum("ij,ij->j", e, e)


def _trace_gap(diag_k: np.ndarray, V: np.ndarray) -> float:
    return float(np.sum(diag_k - np.einsum("ij,ij->j", V, V)))


def _woodbury(b_factor: SpdFactor, V: np.ndarray, Y: np.ndarray, noise_var: float):
    """c = L_B^{-1} V Y / s2, e = L_B^{-T} c and the residual r = Y - V^T e.

    (q_XX + s2 I)^{-1} Y = r / s2, so y^T (q_XX + s2 I)^{-1} y is
    ||r||^2 / s2 + ||e||^2, not ||y||^2 / s2 - ||c||^2 (which cancels).
    """
    c = lower_solve(b_factor, V @ Y) / noise_var
    e = upper_solve(b_factor, c)
    r = V.T @ e
    np.subtract(Y, r, out=r)  # no second n x S temporary for many columns
    return c, e, r


def nystrom_factor(kernel: Kernel, data: Dataset, ind: InducingSet,
                   noise_var: float) -> NystromFactor:
    """Build the whitened factorization in O(n m^2)."""
    if noise_var <= 0:
        raise ValueError("noise_var must be positive")
    V = lower_solve(ind.kzz_factor, kernel.gram(data.inputs, ind.points).T)
    b_factor = factor_spd(np.eye(ind.m) + V @ V.T / noise_var)
    c, e, r = _woodbury(b_factor, V, data.targets, noise_var)
    return NystromFactor(inducing=ind, inputs=data.inputs, noise_var=noise_var,
                         b_factor=b_factor, c=c,
                         mean_coef=upper_solve(ind.kzz_factor, e),
                         trace_gap=_trace_gap(kernel.diag(data.inputs), V),
                         fit_quad=float(r @ r / noise_var + e @ e))


def fit_nystrom(kernel: Kernel, data: Dataset, ind: InducingSet, ridge: float) -> NystromModel:
    """Minimize the ridge objective over M directly in beta coordinates.

    beta solves (n*ridge*k_ZZ + k_ZX k_XZ) beta = k_ZX y; O(n m^2 + m^3).
    """
    if ridge <= 0:
        raise ValueError("ridge must be positive")
    n = data.n
    Kxz = kernel.gram(data.inputs, ind.points)
    Kzz = kernel.gram(ind.points)
    A = n * ridge * Kzz + Kxz.T @ Kxz
    beta = solve(factor_spd(A), Kxz.T @ data.targets)
    return NystromModel(kernel=kernel, inducing=ind, beta=beta, ridge=ridge)


def fit_nystrom_via_q(kernel: Kernel, data: Dataset, ind: InducingSet, ridge: float) -> NystromModel:
    """Solve KRR with the approximate kernel q and map back to M coordinates.

    KRR with kernel q gives f(x) = q_X(x)^T (q_XX + n*ridge*I)^{-1} y; with
    q_X(x) = k_XZ k_ZZ^{-1} k_Z(x) this is k_Z(x)^T beta for
    beta = k_ZZ^{-1} k_ZX (q_XX + n*ridge*I)^{-1} y.
    """
    if ridge <= 0:
        raise ValueError("ridge must be positive")
    n = data.n
    Qxx = q_gram(ind, data.inputs)
    F = factor_spd(Qxx + n * ridge * np.eye(n), jitter_ladder=[0.0])
    gamma = solve(F, data.targets)
    Kzx = kernel.gram(ind.points, data.inputs)
    beta = solve(ind.kzz_factor, Kzx @ gamma)
    return NystromModel(kernel=kernel, inducing=ind, beta=beta, ridge=ridge)


def trace_gap(ind: InducingSet, X) -> float:
    """tr(k_XX - q_XX), the central low-rank deficiency diagnostic."""
    return _trace_gap(ind.kernel.diag(X), _features(ind, X))


def select_inducing(kernel: Kernel, data: Dataset, m: int, strategy: str = "greedy_trace",
                    seed: int = 0) -> InducingSet:
    """Pick m training inputs as inducing points.

    "uniform": m distinct indices without replacement, seeded.
    "greedy_trace": pivoted-Cholesky greedy; at each step take the point
    with the largest residual diagonal k(x,x) - q_current(x,x), breaking
    ties in favor of the lowest index. Only the diagonal and the m pivot
    columns of k_XX are evaluated: O(nm) memory and O(nm^2) time.
    """
    n = data.n
    if not 1 <= m <= n:
        raise InvalidCount(f"m must be in [1, {n}], got {m}")
    X = data.inputs
    if strategy == "uniform":
        rng = np.random.default_rng(seed)
        idx = np.sort(rng.choice(n, size=m, replace=False))
    elif strategy == "greedy_trace":
        resid = kernel.diag(X)
        L = np.zeros((n, m))
        idx = []
        for step in range(m):
            # argmax returns the lowest index among ties.
            pivot = int(np.argmax(resid))
            if resid[pivot] <= 0:
                # Residual exhausted: matrix rank reached; pad with any
                # not-yet-chosen indices (lowest first) to honor the count.
                remaining = [i for i in range(n) if i not in idx]
                idx.extend(remaining[: m - step])
                break
            idx.append(pivot)
            k_pivot = kernel.gram(X, X[pivot:pivot + 1])[:, 0]
            col = (k_pivot - L[:, :step] @ L[pivot, :step]) / np.sqrt(resid[pivot])
            L[:, step] = col
            resid = resid - col**2
            resid[pivot] = -np.inf
        idx = np.array(idx[:m])
    else:
        raise ValueError(f"unknown selection strategy {strategy!r}")
    return make_inducing(kernel, X[idx])
