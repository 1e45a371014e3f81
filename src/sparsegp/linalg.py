"""Dense SPD linear algebra: jittered Cholesky factors, solves, log-dets,
and the operator norm of a symmetric matrix.

Every matrix inverse in the library goes through :func:`factor_spd` +
:func:`solve`; nothing forms an explicit inverse. :func:`operator_norm`
takes the largest absolute eigenvalue by a Lanczos iteration, which
touches the matrix only through matrix-vector products, in place of a
dense O(n^3) eigensolve.

numpy and scipy each bundle an OpenBLAS with its own thread pool, and a
pool's workers busy-wait for a while after each level-3 call. Every
factorization, eigensolve and multi-column solve therefore runs on numpy's
library, the one every ``@`` already uses, so scipy's pool never wakes to
compete with it: the Lanczos matrix-vector products are ``@`` and its
small tridiagonal eigensolves ``np.linalg.eigh``. A triangular solve with
a matrix right-hand side goes through ``np.linalg.solve`` on an upper
triangle (L^T, or L reversed on both axes): partial pivoting makes no row
exchange there, so the LU is the triangle itself and the solve is a
substitution. That LU solve costs
several times more per column than scipy's trsm, so a wide right-hand
side is solved by blocked substitution instead, whose work is matrix
products on numpy's BLAS. Vector right-hand sides keep scipy's O(k^2)
triangular solves; those are level-2 calls, which never wake scipy's
pool. Nothing here sets a thread count: the caller's BLAS settings are
left as they are.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, FactorizationFailed, NoConvergence, NonFiniteValue

# Relative rungs, scaled by mean(diag) of the input matrix.
DEFAULT_JITTER_LADDER = (0.0, 1e-12, 1e-10, 1e-8, 1e-6)

# A right-hand side with more than _LU_COLUMNS_PER_ROW columns per row of
# the factor is solved by blocked substitution in row blocks of
# _SUBSTITUTION_BLOCK, a narrower one by np.linalg.solve. On a 2-vCPU
# x86-64 VM (2 OpenBLAS threads), np.linalg.solve took 8.8 ms on 64 x 4000
# and the substitution 1.9 ms; on 24 x 24, 0.02 ms against 0.08 ms (the
# substitution's Python loop costs a few microseconds per row).
_LU_COLUMNS_PER_ROW = 4
_SUBSTITUTION_BLOCK = 16

# operator_norm's start vector is drawn from this seed, and its Ritz
# residual is measured against this machine epsilon.
_LANCZOS_SEED = 0
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class SpdFactor:
    """Lower-triangular Cholesky factor of A + jitter*I.

    Attributes
    ----------
    lower : (n, n) lower-triangular with strictly positive diagonal.
    jitter_used : the diagonal shift that made the factorization succeed.
    """

    lower: np.ndarray
    jitter_used: float

    @property
    def matrix_dim(self) -> int:
        return self.lower.shape[0]

    def reconstruct(self) -> np.ndarray:
        """Return lower @ lower.T, i.e. A + jitter_used*I."""
        return self.lower @ self.lower.T


def _symmetric_copy(A) -> np.ndarray:
    """A private copy of (A + A.T)/2, exactly symmetric; NonFiniteValue if A
    holds a NaN or an infinity."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"expected square matrix, got shape {A.shape}")
    S = A + A.T
    S *= 0.5
    if not np.isfinite(S).all():
        raise NonFiniteValue("array must not contain infs or NaNs")
    return S


def factor_spd(A: np.ndarray, jitter_ladder=None) -> SpdFactor:
    """Cholesky-factor a symmetric matrix, escalating jitter until it works.

    The input is symmetrized as (A + A.T)/2 first, so round-off asymmetry
    from kernel evaluation is tolerated. The ladder entries are relative:
    the actual shift is rung * mean(diag(A)) (or rung alone for a zero
    diagonal).

    Raises
    ------
    NonFiniteValue
        If A holds a NaN or an infinity (an overflowed Gram, say).
    FactorizationFailed
        If no rung of the ladder yields a positive-definite matrix.
    """
    A = _symmetric_copy(A)
    if jitter_ladder is None:
        jitter_ladder = DEFAULT_JITTER_LADDER
    scale = float(np.mean(np.diag(A))) if A.shape[0] else 1.0
    if scale <= 0.0:
        scale = 1.0
    n = A.shape[0]
    diag = A.diagonal().copy()
    for rung in jitter_ladder:
        jitter = float(rung) * scale
        # Each rung shifts the private copy's diagonal in place;
        # np.linalg.cholesky factors its own copy and leaves A as it is. A.T
        # is the same matrix, and numpy copies its Fortran order fastest.
        A.flat[::n + 1] = diag + jitter
        try:
            lower = np.linalg.cholesky(A.T)
        except np.linalg.LinAlgError:
            continue
        return SpdFactor(lower=lower, jitter_used=jitter)
    raise FactorizationFailed(
        f"Cholesky failed at every jitter rung {tuple(jitter_ladder)} "
        f"(matrix dim {n})"
    )


def solve(F: SpdFactor, B: np.ndarray) -> np.ndarray:
    """Return (A + jitter*I)^{-1} B via two triangular solves."""
    B = np.asarray(B, dtype=float)
    if B.shape[0] != F.matrix_dim:
        raise DimensionMismatch(
            f"factor dim {F.matrix_dim} does not match rhs leading dim {B.shape[0]}"
        )
    if B.ndim == 1:
        return scipy.linalg.cho_solve((F.lower, True), B)
    return upper_solve(F, lower_solve(F, B))


def lower_solve(F: SpdFactor, B: np.ndarray) -> np.ndarray:
    """Return L^{-1} B, L = F.lower: B in the coordinates whitened by F."""
    B = np.asarray(B, dtype=float)
    if B.ndim == 1:
        return scipy.linalg.solve_triangular(F.lower, B, lower=True)
    if B.shape[1] > _LU_COLUMNS_PER_ROW * B.shape[0]:
        return _forward_substitution(F.lower, B)
    # L reversed on both axes is upper triangular: forward substitution on L.
    return np.linalg.solve(F.lower[::-1, ::-1], B[::-1])[::-1]


def upper_solve(F: SpdFactor, B: np.ndarray) -> np.ndarray:
    """Return L^{-T} B, L = F.lower; solve(F, B) is upper_solve(F, lower_solve(F, B))."""
    B = np.asarray(B, dtype=float)
    if B.ndim == 1:
        return scipy.linalg.solve_triangular(F.lower, B, lower=True, trans="T")
    if B.shape[1] > _LU_COLUMNS_PER_ROW * B.shape[0]:
        # L^T reversed on both axes is lower triangular.
        return _forward_substitution(F.lower.T[::-1, ::-1], B[::-1])[::-1].copy()
    return np.linalg.solve(F.lower.T, B)


def _forward_substitution(L: np.ndarray, B: np.ndarray) -> np.ndarray:
    """L^{-1} B for lower-triangular L, one block of rows at a time: the
    block is updated by one matrix product with the rows already solved,
    then solved row by row."""
    n = L.shape[0]
    X = np.array(B, dtype=float, order="C")  # rows contiguous for the row steps
    for start in range(0, n, _SUBSTITUTION_BLOCK):
        stop = min(start + _SUBSTITUTION_BLOCK, n)
        X[start:stop] -= L[start:stop, :start] @ X[:start]
        for i in range(start, stop):
            X[i] -= L[i, start:i] @ X[start:i]
            X[i] /= L[i, i]
    return X


def logdet(F: SpdFactor) -> float:
    """log det of the factored matrix (A + jitter*I)."""
    return 2.0 * float(np.sum(np.log(np.diag(F.lower))))


def operator_norm(A: np.ndarray) -> float:
    """Largest absolute eigenvalue ||A||_2 of a symmetric matrix, by Lanczos.

    The iteration starts from a fixed-seed vector and reorthogonalises each
    new Lanczos vector against all earlier ones (twice), so repeat calls
    return the same bits. After step j it takes the Ritz value theta of
    largest magnitude, an eigenvalue of the j x j tridiagonal T_j, and
    stops once the Ritz residual |beta_j s_j| (s_j the last entry of its
    eigenvector) is at most eps |theta|: A then has an eigenvalue within
    eps |theta| of theta. It also stops on breakdown (beta_j = 0: the
    Krylov space is invariant) and at j = n, where T_n is similar to A.
    A matrix whose spectrum decays fast, such as k_XX - q_XX, takes few
    steps: 6 to 28 on the verify configurations up to n = 2000.
    NoConvergence if a tridiagonal eigensolve fails.
    """
    A = _symmetric_copy(A)
    n = A.shape[0]
    if n == 0:
        return 0.0
    Q = np.empty((n, n))  # the Lanczos vectors, one per row; rows fill as j grows
    alpha, beta = np.empty(n), np.empty(n)
    q = np.random.default_rng(_LANCZOS_SEED).standard_normal(n)
    q /= np.linalg.norm(q)
    for j in range(n):
        Q[j] = q
        w = A @ q
        if j:
            w -= beta[j - 1] * Q[j - 1]
        alpha[j] = q @ w
        w -= alpha[j] * q
        basis = Q[:j + 1]
        for _ in range(2):
            w -= (basis @ w) @ basis
        beta[j] = np.linalg.norm(w)
        try:
            # eigh reads the lower triangle: the diagonal and the subdiagonal.
            thetas, S = np.linalg.eigh(np.diag(alpha[:j + 1]) + np.diag(beta[:j], -1))
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(f"Lanczos tridiagonal eigensolve failed at step "
                                f"{j + 1}: {exc}") from exc
        k = int(np.argmax(np.abs(thetas)))
        theta = abs(float(thetas[k]))
        if j + 1 == n or beta[j] * abs(S[-1, k]) <= _EPS * theta:
            break
        q = w / beta[j]
    return theta
