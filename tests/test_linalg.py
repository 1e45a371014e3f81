from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from sparsegp.data import Dataset
from sparsegp.errors import DimensionMismatch, FactorizationFailed, NoConvergence
from sparsegp.harness import ExperimentConfig, run_verification
from sparsegp.kernels import GaussianKernel
from sparsegp.linalg import factor_spd, logdet, lower_solve, operator_norm, solve, upper_solve
from sparsegp.nystrom import select_inducing


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
    recon = F.reconstruct()
    assert np.linalg.norm(recon - (A + F.jitter_used * np.eye(2)), "fro") \
        <= 1e-10 * np.linalg.norm(A, "fro")


def test_factor_diag_positive():
    F = factor_spd(random_spd(12, 0))
    assert np.all(np.diag(F.lower) > 0)


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


def test_operator_norm_diag():
    assert operator_norm(np.diag([1.0, -3.0, 2.0])) == pytest.approx(3.0)


def test_operator_norm_zero():
    assert operator_norm(np.zeros((4, 4))) == 0.0


def test_operator_norm_eigensolver_oracle():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((15, 15))
    A = 0.5 * (A + A.T)
    expected = float(np.max(np.abs(np.linalg.eigvalsh(A))))
    assert operator_norm(A) == pytest.approx(expected, abs=1e-8)


def test_operator_norm_raises_no_convergence_when_the_eigensolve_fails(monkeypatch):
    def failing(A):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", failing)
    with pytest.raises(NoConvergence, match="did not converge"):
        operator_norm(np.eye(3))
    # the checks that read ||k - q||_2 report the typed error
    report = run_verification(ExperimentConfig(n=30, m=5, mc_samples=500))
    for name in ("quadratic_form_gap", "excess_risk_bound"):
        check = next(c for c in report.checks if c.name == name)
        assert check.status == "error", name
        assert check.detail.startswith("NoConvergence"), name


@pytest.mark.parametrize("seed", range(5))
def test_operator_norm_below_trace_for_spd(seed):
    A = random_spd(7, seed)
    assert operator_norm(A) <= np.trace(A) + 1e-10


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_raises_value_error(bad):
    A = random_spd(4, 6)
    A[1, 2] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        factor_spd(A)
    with pytest.raises(ValueError, match="infs or NaNs"):
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


@pytest.mark.parametrize("m", [24, 40, 64])
@pytest.mark.parametrize("side", ["lower", "upper"])
@pytest.mark.parametrize("width", ["narrow", "wide"])
def test_triangular_solves_match_scipy_on_ill_conditioned_kzz(m, side, width):
    # m columns take the LU route, all 400 the blocked substitution.
    F, B = greedy_kzz_factor(m)
    if width == "narrow":
        B = B[:, :m]
    T = F.lower if side == "lower" else F.lower.T
    ours = (lower_solve if side == "lower" else upper_solve)(F, B)
    theirs = scipy.linalg.solve_triangular(T, B, lower=side == "lower")
    cond = np.linalg.cond(F.lower)
    assert cond > 1e5
    rel = np.linalg.norm(ours - theirs) / np.linalg.norm(theirs)
    # Two backward-stable substitutions agree to 1e-10 at cond(L) = 1e5;
    # each one's forward error grows with cond(L).
    assert rel <= 1e-10 * cond / 1e5
    # Backward error at working precision.
    assert (np.linalg.norm(T @ ours - B)
            <= 1e-14 * np.linalg.norm(T) * np.linalg.norm(ours))
    # On three columns, no further from the exact solution than scipy.
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
