"""Dense SPD linear algebra: jittered Cholesky factors, solves, log-dets,
and the operator norm of a symmetric matrix, on numpy alone.

Every matrix inverse in the library goes through :func:`factor_spd` (or
:func:`noise_factor`) + :func:`solve`; nothing forms an explicit inverse.
:func:`operator_norm` takes the largest absolute eigenvalue by a Lanczos
iteration, which touches the matrix only through matrix-vector products,
in place of a dense O(n^3) eigensolve.

numpy has no triangular solve, so triangular systems are solved by
blocked substitution, whose work is matrix products and small LU solves
on numpy's BLAS. Nothing here sets a thread count: the caller's BLAS
settings are left as they are.

Symmetry is tested once, where a matrix is factored or its norm taken:
:func:`factor_spd`, :func:`noise_factor` and :func:`operator_norm` read
a writeable, finite, exactly symmetric matrix in place (every self-Gram
of :mod:`sparsegp.kernels` is one) and any other one from a validated
(A + A.T)/2 copy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DimensionMismatch, FactorizationFailed, InvalidParameter, NoConvergence,
                     NonFiniteValue)

# Relative rungs, scaled by mean(diag) of the input matrix.
DEFAULT_JITTER_LADDER = (0.0, 1e-12, 1e-10, 1e-8, 1e-6)

# _substitute solves a right-hand side of more than _LU_COLUMNS_PER_ROW
# columns per row of the factor row by row in blocks of _SUBSTITUTION_BLOCK
# rows, a narrower one by LU per block of _LU_BLOCK rows. On a 2-vCPU x86-64
# VM the routes meet near 4 columns per row at k = 64 (row by row 0.58 ms
# against 0.72 ms on 64 x 256, 2.1 ms against 13.7 ms on 64 x 4096, 0.48 ms
# against 0.09 ms on 64 x 32). A vector takes 0.03 ms at k = 24, 0.4 ms at
# k = 400 and 3 ms at k = 2000; blocks of 16 or 64 rows were slower.
_LU_COLUMNS_PER_ROW = 4
_SUBSTITUTION_BLOCK = 16
_LU_BLOCK = 32

# Symmetry is tested on tiles of this many rows and columns.
_TILE = 128

# operator_norm's start vector is drawn from this seed, and its Ritz
# residual is measured against this machine epsilon.
_LANCZOS_SEED = 0
_EPS = float(np.finfo(float).eps)
# operator_norm's basis starts with room for this many Lanczos vectors.
_LANCZOS_ROWS = 16


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


def _symmetric(A) -> np.ndarray:
    """A itself if it is writeable, finite and exactly symmetric, else
    _symmetric_copy(A): the same values either way."""
    A = np.asarray(A, dtype=float)
    if A.flags.writeable and _is_exactly_symmetric(A):
        return A
    return _symmetric_copy(A)


def factor_spd(A: np.ndarray, jitter_ladder=None) -> SpdFactor:
    """Cholesky-factor a symmetric matrix, escalating jitter until it works.

    The matrix factored is (A + A.T)/2, so round-off asymmetry is
    tolerated. The ladder entries are relative: the actual shift is
    rung * mean(diag(A)) (or rung alone for a zero diagonal).

    A writeable, finite, exactly symmetric A is not copied: each rung's
    shift is written to its own diagonal and the saved diagonal is put
    back, also if every rung fails, so no other thread may read A
    meanwhile. Any other A is factored from a private (A + A.T)/2 copy.

    Raises
    ------
    NonFiniteValue
        If A holds a NaN or an infinity (an overflowed Gram, say).
    FactorizationFailed
        If no rung of the ladder yields a positive-definite matrix.
    """
    if jitter_ladder is None:
        jitter_ladder = DEFAULT_JITTER_LADDER
    return _factor_symmetric(_symmetric(A), jitter_ladder)


def _check_positive(value: float, name: str) -> None:
    """InvalidParameter unless value is positive and finite; a NaN is not
    positive."""
    if not value > 0:
        raise InvalidParameter(f"{name} must be positive")
    if value == np.inf:
        raise InvalidParameter(f"{name} must be finite, got inf")


def noise_factor(gram: np.ndarray, noise_var: float) -> SpdFactor:
    """Cholesky factor of gram + noise_var I, without jitter (k_XX + s2 I,
    q_XX + s2 I): bit for bit factor_spd(gram + noise_var * I, [0.0]).

    gram is read as factor_spd reads A: a writeable, finite, exactly
    symmetric gram gets noise_var on its own diagonal, which is put back
    afterwards, also if the factorization fails, so no other thread may
    read gram meanwhile; any other gram is shifted in a private copy."""
    _check_positive(noise_var, "noise_var")
    return _factor_symmetric(_symmetric(gram), (0.0,), shift=noise_var)


def _is_exactly_symmetric(A: np.ndarray) -> bool:
    """Whether A is square, finite and equal to A.T bit for bit, compared
    tile by tile, on and above the diagonal, with no n x n temporary."""
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        return False
    n = A.shape[0]
    bits = A.view(np.int64)
    tiles = ((slice(i, i + _TILE), slice(j, j + _TILE))
             for i in range(0, n, _TILE) for j in range(i, n, _TILE))
    return all(np.isfinite(A[rows, cols]).all()
               and np.array_equal(bits[rows, cols], bits[cols, rows].T)
               for rows, cols in tiles)


def _factor_symmetric(A: np.ndarray, jitter_ladder, shift: float = 0.0) -> SpdFactor:
    """factor_spd on A + shift I, for an exactly symmetric A whose diagonal
    it shifts in place for each rung and puts back before it returns."""
    n = A.shape[0]
    diag = A.diagonal().copy()
    shifted = diag + shift
    scale = float(np.mean(shifted)) if n else 1.0
    if scale <= 0.0:
        scale = 1.0
    try:
        for rung in jitter_ladder:
            jitter = float(rung) * scale
            # np.linalg.cholesky factors its own copy and leaves A as it is.
            # A.T is the same matrix, and numpy copies its Fortran order fastest.
            A.flat[::n + 1] = shifted + jitter
            try:
                lower = np.linalg.cholesky(A.T)
            except np.linalg.LinAlgError:
                continue
            return SpdFactor(lower=lower, jitter_used=jitter)
    finally:
        A.flat[::n + 1] = diag
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
    return upper_solve(F, lower_solve(F, B))


def lower_solve(F: SpdFactor, B: np.ndarray) -> np.ndarray:
    """Return L^{-1} B, L = F.lower: B in the coordinates whitened by F."""
    return _substitute(F.lower, B, lower=True)


def upper_solve(F: SpdFactor, B: np.ndarray) -> np.ndarray:
    """Return L^{-T} B, L = F.lower; solve(F, B) is upper_solve(F, lower_solve(F, B))."""
    return _substitute(F.lower.T, B, lower=False)


def _substitute(T: np.ndarray, B, lower: bool) -> np.ndarray:
    """T^{-1} B for triangular T, one block of rows at a time in the order
    of substitution: the rows already solved are folded into the block by
    one matrix product, then the block is solved. A wide B has it solved
    row by row; a narrower one (a vector, say) by LU on the diagonal
    block, made upper triangular (reversed on both axes if lower), where
    partial pivoting exchanges no rows."""
    k = T.shape[0]
    X = np.array(B, dtype=float, order="C")  # rows contiguous for the row steps
    wide = X.ndim == 2 and X.shape[1] > _LU_COLUMNS_PER_ROW * k
    size = _SUBSTITUTION_BLOCK if wide else _LU_BLOCK
    starts = range(0, k, size) if lower else range((k - 1) // size * size, -1, -size)
    for start in starts:
        block = slice(start, min(start + size, k))
        done = slice(0, start) if lower else slice(block.stop, k)
        X[block] -= T[block, done] @ X[done]
        if not wide:
            D = T[block, block]
            X[block] = (np.linalg.solve(D[::-1, ::-1], X[block][::-1])[::-1] if lower
                        else np.linalg.solve(D, X[block]))
            continue
        rows = range(start, block.stop)
        for i in rows if lower else reversed(rows):
            within = slice(start, i) if lower else slice(i + 1, block.stop)
            X[i] -= T[i, within] @ X[within]
            X[i] /= T[i, i]
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
    A is read as factor_spd reads it: in place if it is writeable, finite
    and exactly symmetric, as (A + A.T)/2 from a copy otherwise.
    NoConvergence if a tridiagonal eigensolve fails.
    """
    A = _symmetric(A)
    n = A.shape[0]
    if n == 0:
        return 0.0
    # The Lanczos vectors, one per row; the rows double when they fill, so
    # the basis holds O(steps n) floats, not n x n.
    Q = np.empty((min(n, _LANCZOS_ROWS), n))
    alpha, beta = np.empty(n), np.empty(n)
    q = np.random.default_rng(_LANCZOS_SEED).standard_normal(n)
    q /= np.linalg.norm(q)
    for j in range(n):
        if j == len(Q):
            Q = np.vstack([Q, np.empty((min(j, n - j), n))])
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
