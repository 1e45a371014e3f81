"""Low-rank machinery built on a set of inducing points Z.

Holds the span subspace M = span(k(., z_1), ..., k(., z_m)), the
degenerate kernel q(x, x') = k_Z(x)^T k_ZZ^{-1} k_Z(x'), ridge regression
restricted to M, the whitened factorization NystromFactor behind the
posterior of a GP with prior kernel q and the optimal variational
posterior, and two inducing-point selection strategies. The ridge fit and
the posterior mean are KernelExpansions over Z.

q(x, x') = v(x)^T v(x') with the feature map v(x) = L_Z^{-1} k_Z(x),
L_Z = chol(k_ZZ). k_ZZ is built and factored once per inducing set, in
`make_inducing`, and every reader of k_ZZ reads that factor L_Z.
`fit_nystrom` stays in raw beta coordinates as a reference: it solves the
stacked least-squares problem [K_XZ; sqrt(n ridge) L_Z^T] beta ~ [y; 0]
by one R-only QR, never forming V or a whitened factor. The second route
to the same fit, KRR with the kernel q, is
`SparseProblem.ridge_fit_via_q`, which reads (q_XX + s2 I)^{-1} y from
its problem's explicit q pass.

Row j of K_ZX is defined once, as k(z_j, X) by the kernel's one-row body
(`pivot_rows`). Greedy selection evaluates those rows and its set keeps
them; `nystrom_factor` solves its V from them, or from the same rows
built over Z. The independent sides of the cross-checks (`q_gram` and
`_features`, `fit_nystrom`, and the problem's K_XZ in bounds) build
their cross Grams with `gram` and never read these rows or V.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .data import Dataset
from .errors import InvalidCount, InvalidParameter
from .kernels import Kernel, KernelExpansion, as_points
from .linalg import (SpdFactor, _check_positive, _substitute, factor_spd, logdet, lower_solve,
                     upper_solve)

# Greedy selection stops once every residual k(x,x) - q(x,x) is at most
# this share of max k(x,x): below it the residuals are round-off.
PIVOT_RTOL = 1e-12


@dataclass(frozen=True)
class InducingSet:
    """Inducing points Z and the factor of k_ZZ.

    A set picked by greedy selection also carries `selection`: a copy of
    the inputs X it was picked from and K_ZX over them, m x n, row j
    k(z_j, X) by the kernel's one-row body (`pivot_rows`): the rows the
    selection evaluated for its pivots and its padded points. A copy, so
    that inputs changed in place later are not taken for the ones the
    rows were built over. `nystrom_factor` on
    those inputs solves its V from these rows, once per set, and every
    factor on the set shares that V. A set made from Z alone (uniform
    selection, `make_inducing`) carries None, and `nystrom_factor` builds
    the same rows over Z.
    """

    kernel: Kernel
    points: np.ndarray
    kzz_factor: SpdFactor
    selection: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)

    @property
    def m(self) -> int:
        return self.points.shape[0]

    @cached_property
    def selection_features(self) -> np.ndarray:
        """V = L_Z^{-1} K_ZX over the selection's inputs, solved on first read."""
        return lower_solve(self.kzz_factor, self.selection[1])


def make_inducing(kernel: Kernel, Z) -> InducingSet:
    """Validate Z and factor k_ZZ (with the jitter ladder as a safety net):
    the one build and factor of k_ZZ per set, which every reader of k_ZZ
    reads as L_Z. The set carries no selection rows."""
    Z = as_points(Z, kernel.input_dim)
    if Z.shape[0] < 1:
        raise InvalidCount("need at least one inducing point")
    # Duplicated rows make k_ZZ exactly singular; reject before factoring.
    uniq = np.unique(Z, axis=0)
    if uniq.shape[0] != Z.shape[0]:
        raise InvalidCount("duplicated inducing points")
    F = factor_spd(kernel.gram(Z))
    return InducingSet(kernel=kernel, points=Z, kzz_factor=F)


def _check_kernel(kernel: Kernel, ind: InducingSet) -> None:
    """InvalidParameter unless `kernel` is the one `ind` factored k_ZZ with."""
    if kernel != ind.kernel:
        raise InvalidParameter(
            f"kernel {kernel} is not the inducing set's kernel {ind.kernel}; "
            "build the inducing set with this kernel")


def _features(ind: InducingSet, X) -> np.ndarray:
    """Nystrom features v(x) = L_Z^{-1} k_Z(x), one column per row of X."""
    return lower_solve(ind.kzz_factor, ind.kernel.gram(X, ind.points).T)


def _factor_features(ind: InducingSet, X: np.ndarray) -> np.ndarray:
    """The V = L_Z^{-1} K_ZX that `nystrom_factor` reads, with row j of
    K_ZX k(z_j, X) by the kernel's one-row body: the set's selection
    features on the inputs it was selected from, else solved from the
    same rows built over Z. Both give V bit for bit."""
    if ind.selection is not None and np.array_equal(ind.selection[0], X):
        return ind.selection_features
    row = ind.kernel.pivot_rows(X, ind.points)
    return lower_solve(ind.kzz_factor, np.array([row(j) for j in range(ind.m)]))


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
    and u = L_B^{-T} L_B^{-1} A y / s: k_ZZ + s2^{-1} k_ZX k_XZ =
    L_Z L_B L_B^T L_Z^T, and u = L_Z^{-1} mu* is the whitened optimal mean.
    I + A A^T has eigenvalues in [1, 1 + ||A||^2], so this stays accurate
    where the raw system is nearly singular. V is kept; A is not. V is
    solved from K_ZX built row by row by the kernel's one-row body (the
    selection's rows when there are any), never from an n x m Gram.
    """

    inducing: InducingSet
    data: Dataset
    noise_var: float
    features: np.ndarray  # V = v(X), m x n: q_XX = V^T V; shared with the inducing set
    b_factor: SpdFactor
    u: np.ndarray
    # m* = k_Z(.)^T L_Z^{-T} u over Z: the mean of both the DTC and
    # the optimal variational posterior; its coef is k_ZZ^{-1} mu*.
    mean: KernelExpansion
    trace_gap: float  # tr(k_XX - q_XX)
    # The optimal ELBO -n/2 log(2 pi s2) - 1/2 log|L_B L_B^T|
    # - 1/2 y^T (q_XX + s2 I)^{-1} y - tr(k_XX - q_XX) / (2 s2): the q-model
    # evidence (determinant lemma) minus the trace penalty, in O(n m^2).
    elbo: float
    # m*(X) = V^T u at the training inputs: y - fitted is bit for bit the
    # Woodbury residual. It equals mean.predict_many(X) up to round-off.
    fitted: np.ndarray

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


def _trace_gap(diag_k: np.ndarray, V: np.ndarray) -> float:
    return float(np.sum(diag_k - np.einsum("ij,ij->j", V, V)))


def _woodbury(b_factor: SpdFactor, V: np.ndarray, Y: np.ndarray, noise_var: float):
    """e = L_B^{-T} c for c = L_B^{-1} V Y / s2, and V^T e.

    With the residual r = Y - V^T e, (q_XX + s2 I)^{-1} Y = r / s2, so
    y^T (q_XX + s2 I)^{-1} y is ||r||^2 / s2 + ||e||^2, not
    ||y||^2 / s2 - ||c||^2 (which cancels).
    """
    e = upper_solve(b_factor, lower_solve(b_factor, V @ Y) / noise_var)
    return e, V.T @ e


def nystrom_factor(kernel: Kernel, data: Dataset, ind: InducingSet,
                   noise_var: float) -> NystromFactor:
    """Build the whitened factorization in O(n m^2), reading V from
    `_factor_features`: no n x m Gram is built."""
    _check_positive(noise_var, "noise_var")
    _check_kernel(kernel, ind)
    V = _factor_features(ind, data.inputs)
    b_factor = factor_spd(np.eye(ind.m) + V @ V.T / noise_var)
    u, fitted = _woodbury(b_factor, V, data.targets, noise_var)
    r = data.targets - fitted
    mean_coef = upper_solve(ind.kzz_factor, u)
    t = _trace_gap(kernel.diag(data.inputs), V)
    fit_quad = float(r @ r / noise_var + u @ u)  # y^T (q_XX + s2 I)^{-1} y
    elbo = float(-0.5 * data.n * np.log(2.0 * np.pi * noise_var) - 0.5 * logdet(b_factor)
                 - 0.5 * fit_quad - t / (2.0 * noise_var))
    return NystromFactor(inducing=ind, data=data, noise_var=noise_var, features=V,
                         b_factor=b_factor, u=u,
                         mean=KernelExpansion(kernel, ind.points, mean_coef),
                         trace_gap=t, elbo=elbo, fitted=fitted)


def fit_nystrom(kernel: Kernel, data: Dataset, ind: InducingSet,
                ridge: float) -> KernelExpansion:
    """Minimize the ridge objective over M directly in beta coordinates.

    f = k_Z(.)^T beta minimizes ||K_XZ beta - y||^2 + n ridge ||L_Z^T beta||^2,
    with L_Z the set's factor of k_ZZ, so beta is the least-squares
    solution of [sqrt(n ridge) L_Z^T; K_XZ] beta = [0; y]. One R-only QR
    of the (m + n) x (m + 1) matrix [sqrt(n ridge) L_Z^T 0; K_XZ y] gives R
    and, in its last column, Q^T [0; y]; beta is one triangular solve.
    This keeps cond(k_ZZ) from being squared, as the normal equations
    (n ridge k_ZZ + k_ZX k_XZ) beta = k_ZX y would; O(n m^2). It never
    reads V or a whitened factor. InvalidParameter if n ridge overflows.

    The L_Z block goes on top because that order measured closer to a
    50-digit solve: at verify --n 300 --m 20, 3.6e-9 against 9.4e-9 with
    K_XZ on top, where psi_maps_mu_star_to_beta then read 9.97e-9 on one
    OpenBLAS thread and 1.04e-8 on two (2-vCPU x86-64 VM).
    """
    _check_positive(ridge, "ridge")
    _check_positive(data.n * float(ridge), "n * ridge")  # it may overflow to inf
    _check_kernel(kernel, ind)
    m, scale = ind.m, np.sqrt(data.n * float(ridge))
    stacked = np.block([[scale * ind.kzz_factor.lower.T, np.zeros((m, 1))],
                        [kernel.gram(data.inputs, ind.points), data.targets[:, None]]])
    R = np.linalg.qr(stacked, mode="r")
    return KernelExpansion(kernel, ind.points, _substitute(R[:m, :m], R[:m, m], lower=False))


def trace_gap(ind: InducingSet, X) -> float:
    """tr(k_XX - q_XX), the central low-rank deficiency diagnostic."""
    return _trace_gap(ind.kernel.diag(X), _features(ind, X))


def _distinct_rows(X: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The first row of each distinct input of X and each row's input, by
    the same np.unique as make_inducing; InvalidCount if fewer than m."""
    _, first, group = np.unique(X, axis=0, return_index=True, return_inverse=True)
    if first.shape[0] < m:
        raise InvalidCount(f"the data have {first.shape[0]} distinct inputs, fewer than "
                           f"--m {m}; lower --m")
    return first, group


def select_inducing(kernel: Kernel, data: Dataset, m: int, strategy: str = "greedy_trace",
                    seed: int = 0) -> InducingSet:
    """Pick m training inputs as inducing points.

    "uniform": m distinct indices without replacement, seeded.
    "greedy_trace": pivoted-Cholesky greedy; at each step take the point
    with the largest residual diagonal k(x,x) - q_current(x,x), breaking
    ties in favor of the lowest index. Only the diagonal and the m pivot
    rows of k_XX are evaluated, by kernel.pivot_rows, which takes the row
    norms of X once per selection: O(nm) memory and O(nm^2) time. Each
    pivot row, and the row of each padded point, is kept in one m x n
    K_ZX that the returned set carries as its `selection`, so
    `nystrom_factor` on the data evaluates no kernel value again. The
    partial factor is kept row-major, m x n, with row j the j-th pivot
    column, so each step reads and writes contiguous rows. Selection
    stops once the largest residual is at most PIVOT_RTOL * max k(x,x)
    (Harbrecht, Peters & Schneider 2012): past the kernel's numerical
    rank the residuals are round-off, and a pivot taken there would
    depend on the order of a sum. The rest of the m points are then the
    lowest unchosen indices.

    Both strategies take each distinct input once, at its first row, so a
    repeated input never yields duplicated inducing points: uniform draws
    from those first rows, and greedy pads from the first rows of the
    inputs no pivot has taken. InvalidCount when m exceeds the number of
    distinct inputs.
    """
    n = data.n
    if not 1 <= m <= n:
        raise InvalidCount(f"m must be in [1, {n}], got {m}")
    X = data.inputs
    if strategy == "uniform":
        rng = np.random.default_rng(seed)
        idx = np.sort(rng.choice(np.sort(_distinct_rows(X, m)[0]), size=m, replace=False))
        return make_inducing(kernel, X[idx])
    if strategy != "greedy_trace":
        raise InvalidParameter(f"unknown selection strategy {strategy!r}")
    resid = kernel.diag(X)
    pivot_row = kernel.pivot_rows(X)
    floor = PIVOT_RTOL * np.max(resid)
    Kzx = np.empty((m, n))  # row j: k(z_j, X), kept with the set
    Lt = np.empty((m, n))
    idx = []
    for step in range(m):
        # argmax returns the lowest index among ties.
        pivot = int(np.argmax(resid))
        if resid[pivot] <= floor:
            # Numerical rank reached: pad with the first rows of the
            # inputs no pivot has taken, lowest first, to honor the count.
            first, group = _distinct_rows(X, m)
            idx.extend(np.sort(np.delete(first, group[idx]))[: m - step])
            for j in range(step, m):
                Kzx[j] = pivot_row(idx[j])
            break
        idx.append(pivot)
        Kzx[step] = pivot_row(pivot)
        row = Lt[step]
        np.subtract(Kzx[step], Lt[:step, pivot] @ Lt[:step], out=row)
        row /= np.sqrt(resid[pivot])
        resid -= np.square(row)
        resid[pivot] = -np.inf
    return replace(make_inducing(kernel, X[idx]), selection=(X.copy(), Kzx))
