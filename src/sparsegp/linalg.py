"""Dense SPD linear algebra: jittered Cholesky factors, solves, log-dets.

Every matrix inverse in the library goes through :func:`factor_spd` +
:func:`solve`; nothing forms an explicit inverse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, FactorizationFailed, NoConvergence

# Relative rungs, scaled by mean(diag) of the input matrix.
DEFAULT_JITTER_LADDER = (0.0, 1e-12, 1e-10, 1e-8, 1e-6)


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


def factor_spd(A: np.ndarray, jitter_ladder=None) -> SpdFactor:
    """Cholesky-factor a symmetric matrix, escalating jitter until it works.

    The input is symmetrized as (A + A.T)/2 first, so round-off asymmetry
    from kernel evaluation is tolerated. The ladder entries are relative:
    the actual shift is rung * mean(diag(A)) (or rung alone for a zero
    diagonal).

    Raises
    ------
    FactorizationFailed
        If no rung of the ladder yields a positive-definite matrix.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"expected square matrix, got shape {A.shape}")
    A = 0.5 * (A + A.T)  # exactly symmetric, so A.T is the same matrix
    if jitter_ladder is None:
        jitter_ladder = DEFAULT_JITTER_LADDER
    scale = float(np.mean(np.diag(A))) if A.shape[0] else 1.0
    if scale <= 0.0:
        scale = 1.0
    n = A.shape[0]
    for rung in jitter_ladder:
        jitter = float(rung) * scale
        # One private copy per rung, shifted in place and factored in place;
        # its transpose is Fortran-ordered, so LAPACK needs no copy of its own.
        work = A.copy()
        work.flat[::n + 1] += jitter
        try:
            lower = scipy.linalg.cholesky(work.T, lower=True, overwrite_a=True)
        except scipy.linalg.LinAlgError:
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
    return scipy.linalg.cho_solve((F.lower, True), B)


def lower_solve(F: SpdFactor, B: np.ndarray) -> np.ndarray:
    """Return L^{-1} B, L = F.lower: B in the coordinates whitened by F."""
    return scipy.linalg.solve_triangular(F.lower, B, lower=True)


def upper_solve(F: SpdFactor, B: np.ndarray) -> np.ndarray:
    """Return L^{-T} B, L = F.lower; solve(F, B) is upper_solve(F, lower_solve(F, B))."""
    return scipy.linalg.solve_triangular(F.lower, B, lower=True, trans="T")


def logdet(F: SpdFactor) -> float:
    """log det of the factored matrix (A + jitter*I)."""
    return 2.0 * float(np.sum(np.log(np.diag(F.lower))))


def operator_norm(A: np.ndarray, rel_tol: float = 1e-10, max_iters: int = 10_000) -> float:
    """Largest absolute eigenvalue of a symmetric matrix.

    Uses a dense symmetric eigensolve; the power-iteration fallback only
    kicks in if the eigensolve itself fails, and raises NoConvergence when
    it cannot reach `rel_tol` within `max_iters`.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"expected square matrix, got shape {A.shape}")
    A = 0.5 * (A + A.T)
    try:
        return float(np.max(np.abs(scipy.linalg.eigvalsh(A))))
    except scipy.linalg.LinAlgError:
        pass
    # Power iteration on A with a deterministic start.
    n = A.shape[0]
    v = np.ones(n) / np.sqrt(n)
    prev = 0.0
    for _ in range(max_iters):
        w = A @ v
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            return 0.0
        v = w / norm
        if abs(norm - prev) <= rel_tol * max(1.0, abs(norm)):
            return norm
        prev = norm
    raise NoConvergence(f"power iteration did not converge in {max_iters} iterations")
