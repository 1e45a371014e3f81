import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from sparsegp.data import Dataset
from sparsegp import linalg
from sparsegp.errors import (DimensionMismatch, FactorizationFailed, InvalidParameter,
                             NoConvergence, NonFiniteValue)
from sparsegp.harness import ExperimentConfig, make_problem, run_verification
from sparsegp.kernels import GaussianKernel
from sparsegp.linalg import (factor_spd, logdet, lower_solve, noise_factor, operator_norm, solve,
                             upper_solve)
from sparsegp.nystrom import q_gram, select_inducing


def random_spd(n, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    return A @ A.T + n * np.eye(n)


def test_identity_factor():
    F = factor_spd(np.eye(3), jitter_ladder=[0.0])
    assert np.allclose(F.lower, np.eye(3))
    assert F.jitter_used == 0.0


def test_hand_cholesky_2x2():
    F = factor_spd(np.array([[4.0, 2.0], [2.0, 3.0]]), jitter_ladder=[0.0])
    assert np.allclose(F.lower, [[2.0, 0.0], [1.0, np.sqrt(2.0)]])


def test_rank_one_needs_jitter():
    v = np.array([1.0, 1.0])
    A = np.outer(v, v)
    F = factor_spd(A)
    assert F.jitter_used > 0
    recon = F.lower @ F.lower.T
    assert np.linalg.norm(recon - (A + F.jitter_used * np.eye(2)), "fro") \
        <= 1e-10 * np.linalg.norm(A, "fro")


def test_factor_diag_positive():
    F = factor_spd(random_spd(12, 0))
    assert np.all(np.diag(F.lower) > 0)


@pytest.mark.parametrize("n", [1, 7, 300])
def test_noise_factor_is_bit_identical_to_factoring_the_shifted_gram(n):
    # ((K + s2 I) + (K + s2 I)^T) / 2 and (K + K^T) / 2 + s2 I agree bit for
    # bit, also for a Gram with round-off asymmetry.
    rng = np.random.default_rng(n)
    K = GaussianKernel(lengthscale=1.0).gram(rng.uniform(-3.0, 3.0, size=(n, 1)))
    K += 1e-17 * rng.standard_normal((n, n))
    before = K.copy()
    F = noise_factor(K, 0.1)
    expected = factor_spd(K + 0.1 * np.eye(n), jitter_ladder=[0.0])
    assert np.array_equal(F.lower, expected.lower)
    assert F.jitter_used == 0.0
    assert np.array_equal(K, before)
    for bad in (0.0, -0.1, np.nan):
        with pytest.raises(InvalidParameter, match="noise_var must be positive"):
            noise_factor(K, bad)


@pytest.mark.parametrize("n", [2, 129, 300])
def test_noise_factor_shifts_a_symmetric_gram_in_place_and_restores_it(n, symmetric_copies):
    K = GaussianKernel(lengthscale=1.0).gram(
        np.random.default_rng(n).uniform(-3.0, 3.0, size=(n, 1)))
    assert np.array_equal(K, K.T)
    before = K.copy()
    expected = factor_spd(K + 0.1 * np.eye(n), jitter_ladder=[0.0])
    assert np.array_equal(noise_factor(K, 0.1).lower, expected.lower)
    assert symmetric_copies == []
    assert np.array_equal(K.view(np.int64), before.view(np.int64))
    # a Gram with a NaN or an infinity goes to the validated copy, which raises
    for bad in (np.nan, np.inf):
        G = K.copy()
        G[0, 1] = G[1, 0] = bad
        with pytest.raises(NonFiniteValue):
            noise_factor(G, 0.1)
    # a read-only Gram is copied, not shifted, and gives the same factor
    K.setflags(write=False)
    assert np.array_equal(noise_factor(K, 0.1).lower, expected.lower)
    assert symmetric_copies == [(n, n)] * 3
    assert np.array_equal(K.view(np.int64), before.view(np.int64))


def test_noise_factor_restores_the_gram_when_the_factorization_fails():
    K = np.diag([1.0, -5.0, 2.0])
    K[0, 2] = K[2, 0] = 0.5
    before = K.copy()
    with pytest.raises(FactorizationFailed):
        noise_factor(K, 0.1)
    assert np.array_equal(K.view(np.int64), before.view(np.int64))


@pytest.mark.parametrize("n", [1, 127, 128, 129, 300])
def test_tile_symmetrize_matches_the_whole_matrix_formula(n):
    # every self-Gram is exactly symmetric, so only an asymmetric matrix
    # exercises the tiled test and the copy
    K = np.random.default_rng(n).standard_normal((n, n))
    expected = K + K.T
    expected *= 0.5
    assert linalg._is_exactly_symmetric(K) == (n == 1)
    S = linalg._symmetric(K)
    assert (S is K) == (n == 1)
    assert np.array_equal(S.view(np.int64), expected.view(np.int64))
    assert linalg._is_exactly_symmetric(S)
    # one bit off in the last tile, below the diagonal, is seen
    if n > 1:
        S[-1, 0] = np.nextafter(S[-1, 0], np.inf)
        assert not linalg._is_exactly_symmetric(S)


def test_factor_spd_factors_an_exactly_symmetric_matrix_in_place(symmetric_copies):
    A = random_spd(300, 8)
    assert np.array_equal(A, A.T)
    before = A.copy()
    # the factor of the (A + A.T)/2 copy that factor_spd used to take
    expected = np.linalg.cholesky(0.5 * (A + A.T))
    assert np.array_equal(factor_spd(A).lower, expected)
    # a rank-one matrix succeeds on a later rung, an indefinite one fails on every rung
    rank_one = np.outer([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    indefinite = np.diag([1.0, -5.0, 2.0])
    indefinite[0, 2] = indefinite[2, 0] = 0.5
    saved = [(M, M.copy()) for M in (A, rank_one, indefinite)]
    assert factor_spd(rank_one).jitter_used > 0
    with pytest.raises(FactorizationFailed):
        factor_spd(indefinite)
    for M, copy in saved:
        assert np.array_equal(M.view(np.int64), copy.view(np.int64))
    assert symmetric_copies == []
    # a read-only matrix is copied and gives the same factor
    A.setflags(write=False)
    assert np.array_equal(factor_spd(A).lower, expected)
    assert symmetric_copies == [A.shape]
    # a matrix with round-off asymmetry is factored as (A + A.T)/2 from a copy
    B = before + np.triu(np.full(A.shape, 1e-12), 1)
    B_bits = B.copy()
    assert np.array_equal(factor_spd(B).lower, np.linalg.cholesky(0.5 * (B + B.T)))
    assert symmetric_copies == [A.shape, B.shape]
    assert np.array_equal(B.view(np.int64), B_bits.view(np.int64))
    assert np.array_equal(A.view(np.int64), before.view(np.int64))


def test_factorization_failed():
    with pytest.raises(FactorizationFailed):
        factor_spd(np.diag([1.0, -5.0]), jitter_ladder=[0.0])


def test_solve_identity():
    F = factor_spd(np.eye(4), jitter_ladder=[0.0])
    B = np.arange(8.0).reshape(4, 2)
    assert np.allclose(solve(F, B), B)


def test_solve_2x2_inverse():
    F = factor_spd(np.array([[4.0, 2.0], [2.0, 3.0]]), jitter_ladder=[0.0])
    inv = solve(F, np.eye(2))
    assert np.allclose(inv, [[3 / 8, -1 / 4], [-1 / 4, 1 / 2]])


def test_solve_round_trip():
    A = random_spd(20, 1)
    F = factor_spd(A, jitter_ladder=[0.0])
    B = np.random.default_rng(2).standard_normal((20, 3))
    assert np.allclose(A @ solve(F, B), B, atol=1e-8)


def test_solve_dimension_mismatch():
    F = factor_spd(np.eye(3), jitter_ladder=[0.0])
    with pytest.raises(DimensionMismatch):
        solve(F, np.zeros(4))


def test_logdet_identity():
    assert logdet(factor_spd(np.eye(5), jitter_ladder=[0.0])) == pytest.approx(0.0)


def test_logdet_diag():
    F = factor_spd(np.diag([2.0, 3.0]), jitter_ladder=[0.0])
    assert logdet(F) == pytest.approx(np.log(6.0))


def test_logdet_eigenvalue_oracle():
    A = random_spd(10, 3)
    expected = float(np.sum(np.log(np.linalg.eigvalsh(A))))
    assert logdet(factor_spd(A, jitter_ladder=[0.0])) == pytest.approx(expected, abs=1e-8)


def test_logdet_inverse_cancels():
    A = random_spd(8, 4)
    F = factor_spd(A, jitter_ladder=[0.0])
    Finv = factor_spd(solve(F, np.eye(8)), jitter_ladder=[0.0])
    assert logdet(F) + logdet(Finv) == pytest.approx(0.0, abs=1e-8)


def assert_matches_dense_eigensolve(A):
    """operator_norm(A) is max |eig(A)| of the dense eigensolve to 1e-12
    relative, or to n eps max |A_ij| when that is looser: a gap k - q at
    round-off level has no more digits to agree on."""
    expected = float(np.max(np.abs(np.linalg.eigvalsh(A))))
    tol = max(1e-12 * expected, A.shape[0] * np.finfo(float).eps * np.max(np.abs(A)))
    assert abs(operator_norm(A) - expected) <= tol, (operator_norm(A), expected)


def test_operator_norm_diag():
    assert operator_norm(np.diag([1.0, -3.0, 2.0])) == pytest.approx(3.0, rel=1e-12)


def test_operator_norm_zero():
    assert operator_norm(np.zeros((4, 4))) == 0.0


def test_operator_norm_one_by_one():
    assert operator_norm(np.array([[-2.5]])) == 2.5


def test_operator_norm_eigensolver_oracle():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((15, 15))
    A = 0.5 * (A + A.T)
    assert_matches_dense_eigensolve(A)


@pytest.mark.parametrize("n", [2, 7, 40, 150])
@pytest.mark.parametrize("seed", range(3))
def test_operator_norm_on_random_indefinite_matrices(n, seed):
    rng = np.random.default_rng(100 * n + seed)
    A = rng.standard_normal((n, n))
    A = A + A.T
    # shift the spectrum so that either end may hold the largest |eigenvalue|
    A += rng.uniform(-2.0, 2.0) * np.sqrt(n) * np.eye(n)
    assert_matches_dense_eigensolve(A)


# The regression configs of ROADMAP item 1 with n <= 800.
ITEM1_CONFIGS = [
    {}, {"d": 3}, {"kernel_family": "polynomial"}, {"n": 300, "m": 20},
    {"n": 800, "m": 40}, {"n": 60, "m": 30, "noise_var": 1e-4},
    {"select": "uniform", "n": 800, "m": 40},
]
# The pool of the verify-mid benchmark workload at seed 1.
VERIFY_MID_POOL = [{"n": 400, "m": 24, "seed": int(s)}
                   for s in np.random.SeedSequence(1).generate_state(8)]


@pytest.mark.parametrize("over", ITEM1_CONFIGS + VERIFY_MID_POOL)
def test_operator_norm_of_the_nystrom_gap_matches_the_dense_eigensolve(over):
    prob, _, _ = make_problem(ExperimentConfig(**over))
    assert_matches_dense_eigensolve(prob.kxx - q_gram(prob.ind, prob.data.inputs))


def test_operator_norm_repeats_bit_for_bit():
    prob, _, _ = make_problem(ExperimentConfig(n=400, m=24))
    gap = prob.kxx - q_gram(prob.ind, prob.data.inputs)
    first = operator_norm(gap)
    assert all(operator_norm(gap) == first for _ in range(3))


def test_operator_norm_raises_no_convergence_when_the_eigensolve_fails(monkeypatch):
    def failing(A, *args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    # the tridiagonal eigensolve of each Lanczos step
    monkeypatch.setattr(np.linalg, "eigh", failing)
    with pytest.raises(NoConvergence, match="did not converge"):
        operator_norm(np.eye(3))
    # the explicit q pass takes ||k - q||_2, so each check that reads it
    # reports the typed error; the excess-risk bound reads the whitened
    # factor's trace gap alone and still passes
    report = run_verification(ExperimentConfig(n=30, m=5, mc_samples=500))
    checks = {c.name: c for c in report.checks}
    assert checks["quadratic_form_gap"].status == "error"
    assert checks["quadratic_form_gap"].detail.startswith("NoConvergence")
    assert checks["excess_risk_bound"].status == "pass"


def test_operator_norm_reads_an_exactly_symmetric_matrix_without_a_copy(symmetric_copies):
    prob = make_problem(ExperimentConfig(n=400, m=24))[0]
    gap = prob.kxx - q_gram(prob.ind, prob.data.inputs)
    assert np.array_equal(gap, gap.T)
    expected = operator_norm(0.5 * (gap + gap.T))
    assert operator_norm(gap) == expected
    assert symmetric_copies == []
    # a read-only matrix is copied, by the rule factor_spd follows
    read_only = gap.copy()
    read_only.setflags(write=False)
    assert operator_norm(read_only) == expected
    assert symmetric_copies == [gap.shape]
    # A matrix that is not exactly symmetric is still read as (A + A^T)/2.
    A = gap + np.triu(np.full(gap.shape, 1e-3), 1)
    assert operator_norm(A) == operator_norm(0.5 * (A + A.T))
    for bad in (np.nan, np.inf):
        G = gap.copy()
        G[3, 5] = G[5, 3] = bad
        with pytest.raises(NonFiniteValue):
            operator_norm(G)
    with pytest.raises(DimensionMismatch):
        operator_norm(gap[:, :-1])


def test_operator_norm_basis_grows_with_the_steps_taken():
    # A Nystrom gap takes a few dozen Lanczos steps, so the basis must not
    # be n x n: the traced peak stays below a quarter of one n x n matrix.
    n = 1000
    kernel = GaussianKernel(lengthscale=1.0)
    X = np.random.default_rng(7).uniform(-3.0, 3.0, size=(n, 1))
    G = kernel.gram(X) - q_gram(select_inducing(kernel, Dataset(X, np.zeros(n)), 20), X)
    expected = operator_norm(G)
    tracemalloc.start()
    try:
        assert operator_norm(G) == expected
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8 / 4


@pytest.mark.parametrize("seed", range(5))
def test_operator_norm_below_trace_for_spd(seed):
    A = random_spd(7, seed)
    assert operator_norm(A) <= np.trace(A) + 1e-10


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_raises_value_error(bad):
    A = random_spd(4, 6)
    A[1, 2] = bad
    # NonFiniteValue is also a ValueError, for callers that catch that
    with pytest.raises(NonFiniteValue, match="infs or NaNs"):
        factor_spd(A)
    with pytest.raises(NonFiniteValue, match="infs or NaNs"):
        operator_norm(A)


def greedy_kzz_factor(m, n=400):
    """The factor of a greedy Gaussian k_ZZ on n uniform points in [-3, 3],
    as in a mid-size verify run (cond(L) 1e5 to 1e8), and k_ZX."""
    kernel = GaussianKernel(lengthscale=1.0)
    X = np.random.default_rng(m).uniform(-3.0, 3.0, size=(n, 1))
    ind = select_inducing(kernel, Dataset(X, np.zeros(n)), m)
    return ind.kzz_factor, kernel.gram(ind.points, X)


def exact_substitution(T, B, lower):
    """T^{-1} B in exact rational arithmetic, for triangular T."""
    k = T.shape[0]
    rows = range(k) if lower else range(k - 1, -1, -1)
    X = [[Fraction(0)] * B.shape[1] for _ in range(k)]
    for i in rows:
        done = range(i) if lower else range(i + 1, k)
        for c in range(B.shape[1]):
            acc = Fraction(float(B[i, c])) - sum(Fraction(float(T[i, j])) * X[j][c]
                                                 for j in done)
            X[i][c] = acc / Fraction(float(T[i, i]))
    return np.array([[float(v) for v in row] for row in X])


@pytest.mark.parametrize("m", [1, 24, 40, 64, 70])
@pytest.mark.parametrize("side", ["lower", "upper"])
@pytest.mark.parametrize("width", ["vector", "narrow", "wide"])
def test_triangular_solves_match_scipy_on_ill_conditioned_kzz(m, side, width):
    # A vector and m columns take the blocked LU route (m = 1, 24 and 40 are
    # one or two partial blocks of rows, 64 two full ones, 70 three), all 400
    # columns the row-by-row substitution.
    F, B = greedy_kzz_factor(m)
    B = {"vector": B[:, 0], "narrow": B[:, :m], "wide": B}[width]
    T = F.lower if side == "lower" else F.lower.T
    ours = (lower_solve if side == "lower" else upper_solve)(F, B)
    theirs = scipy.linalg.solve_triangular(T, B, lower=side == "lower")
    assert ours.shape == B.shape
    cond = np.linalg.cond(F.lower)
    assert m == 1 or cond > 1e5
    rel = np.linalg.norm(ours - theirs) / np.linalg.norm(theirs)
    # Two backward-stable substitutions agree to 1e-10 at cond(L) = 1e5;
    # each one's forward error grows with cond(L).
    assert rel <= 1e-10 * cond / 1e5
    # Backward error at working precision.
    assert (np.linalg.norm(T @ ours - B)
            <= 1e-14 * np.linalg.norm(T) * np.linalg.norm(ours))
    # On three columns, no further from the exact solution than scipy.
    B, ours, theirs = (x.reshape(m, -1) for x in (B, ours, theirs))
    cols = [0, B.shape[1] // 2, B.shape[1] - 1]
    exact = exact_substitution(T, B[:, cols], lower=side == "lower")
    err = np.linalg.norm(ours[:, cols] - exact)
    assert err <= 2.0 * np.linalg.norm(theirs[:, cols] - exact) + 1e-15 * np.linalg.norm(exact)


@pytest.mark.parametrize("k", [5, 200])
def test_matrix_and_vector_solves_agree(k):
    A = random_spd(20, 7)
    F = factor_spd(A, jitter_ladder=[0.0])
    B = np.random.default_rng(8).standard_normal((20, k))
    for fn in (lower_solve, upper_solve, solve):
        X = fn(F, B)
        assert X.shape == (20, k)
        for j in range(0, k, 7):
            col = fn(F, B[:, j])
            assert col.shape == (20,)
            np.testing.assert_allclose(X[:, j], col, rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(A @ solve(F, B), B, atol=1e-10)
