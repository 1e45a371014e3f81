import numpy as np
import pytest
import scipy.stats

from sparsegp.data import Dataset
from sparsegp.errors import InvalidParameter
from sparsegp.exact import fit_gpr, fit_krr, regularized_risk
from sparsegp.kernels import GaussianKernel, KernelExpansion


@pytest.fixture
def kernel():
    return GaussianKernel(lengthscale=1.0)


def random_dataset(n, seed, d=1, kernel=None):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-3, 3, size=(n, d))
    y = rng.standard_normal(n)
    y *= min(1.0, 10.0 / np.linalg.norm(y))
    return Dataset(X, y)


def span_rkhs_norm_sq(kernel, X, coef):
    return float(coef @ kernel.gram(X) @ coef)


def test_krr_scalar_case(kernel):
    data = Dataset(np.array([[0.0]]), np.array([2.0]))
    model = fit_krr(kernel, data, ridge=1.0)
    assert model.coef == pytest.approx([1.0])
    assert model.predict_many([0.0]) == pytest.approx([1.0])


def test_krr_zero_targets(kernel):
    data = random_dataset(6, 0)
    data = Dataset(data.inputs, np.zeros(6))
    model = fit_krr(kernel, data, ridge=0.3)
    assert np.allclose(model.coef, 0.0)
    assert np.array_equal(model.predict_many([1.234]), [0.0])


def test_krr_coefficients_solve_system(kernel):
    data = random_dataset(9, 1)
    lam = 0.05
    model = fit_krr(kernel, data, lam)
    K = kernel.gram(data.inputs)
    resid = (K + 9 * lam * np.eye(9)) @ model.coef - data.targets
    assert np.linalg.norm(resid) <= 1e-8 * np.linalg.norm(data.targets)


def test_krr_minimality_random_probes(kernel):
    data = random_dataset(5, 2)
    lam = 0.1
    model = fit_krr(kernel, data, lam)

    def objective(coef):
        vals = kernel.gram(data.inputs) @ coef
        return np.mean((data.targets - vals) ** 2) \
            + lam * span_rkhs_norm_sq(kernel, data.inputs, coef)

    best = objective(model.coef)
    rng = np.random.default_rng(3)
    for _ in range(20):
        assert best <= objective(rng.standard_normal(5)) + 1e-12


def test_krr_far_prediction_decays(kernel):
    data = random_dataset(5, 4)
    model = fit_krr(kernel, data, 0.1)
    assert abs(model.predict_many([50.0])[0]) <= 1e-6


def test_krr_near_interpolation(kernel):
    X = np.array([[-2.0], [0.0], [2.0], [4.0]])
    y = np.array([1.0, -0.5, 2.0, 0.3])
    model = fit_krr(kernel, Dataset(X, y), ridge=1e-12)
    assert model.predict_many(X) == pytest.approx(y, abs=1e-4)


def test_fit_krr_is_the_gp_mean_at_n_ridge(kernel):
    # one factor-and-solve: n * ridge is the same float as the old
    # n * ridge * I shift, so the fit is bit for bit the GP mean
    data = random_dataset(11, 17)
    lam = 0.037
    krr = fit_krr(kernel, data, lam)
    mean = fit_gpr(kernel, data, data.n * lam).mean
    assert isinstance(krr, KernelExpansion)
    assert np.array_equal(krr.coef, mean.coef)
    assert np.array_equal(krr.centers, data.inputs)
    grid = np.linspace(-4, 4, 9)
    assert np.array_equal(krr.predict_many(grid), mean.predict_many(grid))


def test_gpr_scalar_case(kernel):
    data = Dataset(np.array([[0.0]]), np.array([2.0]))
    post = fit_gpr(kernel, data, noise_var=1.0)
    assert post.mean.predict_many([0.0]) == pytest.approx([1.0])
    assert post.cov([0.0])[0, 0] == pytest.approx(0.5)


def test_gpr_prior_recovery_large_noise(kernel):
    data = random_dataset(6, 5)
    post = fit_gpr(kernel, data, noise_var=1e12)
    assert abs(post.mean.predict_many([0.7])[0]) <= 1e-9
    assert post.cov([0.7])[0, 0] == pytest.approx(1.0, abs=1e-9)


def test_gpr_mean_equals_krr(kernel):
    # GP posterior mean == KRR prediction when noise_var = n * ridge
    data = random_dataset(12, 6)
    s2 = 0.4
    post = fit_gpr(kernel, data, s2)
    model = fit_krr(kernel, data, s2 / data.n)
    grid = np.linspace(-4, 4, 50)
    assert post.mean.predict_many(grid) == pytest.approx(model.predict_many(grid), abs=1e-8)


def test_posterior_cov_far_and_symmetry(kernel):
    data = random_dataset(6, 7)
    post = fit_gpr(kernel, data, 0.2)
    assert post.cov([60.0])[0, 0] == pytest.approx(1.0, abs=1e-6)
    a, b = [0.3], [-1.1]
    assert post.cov(a, b)[0, 0] == pytest.approx(post.cov(b, a)[0, 0], rel=1e-12)


def test_posterior_cov_psd(kernel):
    data = random_dataset(10, 8)
    post = fit_gpr(kernel, data, 0.2)
    pts = np.random.default_rng(9).uniform(-3, 3, size=8)
    C = post.cov(pts)
    assert np.array_equal(C, C.T)
    assert np.linalg.eigvalsh(C).min() >= -1e-8


def test_batched_cov_matches_dense_formula(kernel):
    # k_AB - k_AX (k_XX + s2 I)^{-1} k_XB by a dense solve, for A x B blocks
    # and for B = A, whose diagonal lies in [0, k(x, x)]
    data = random_dataset(12, 18)
    s2 = 0.15
    post = fit_gpr(kernel, data, s2)
    rng = np.random.default_rng(19)
    A, B = rng.uniform(-4, 4, size=(9, 1)), rng.uniform(-4, 4, size=(5, 1))
    X = data.inputs
    solved = np.linalg.solve(kernel.gram(X) + s2 * np.eye(12), kernel.gram(X, B))
    dense = kernel.gram(A, B) - kernel.gram(A, X) @ solved
    assert post.cov(A, B).shape == (9, 5)
    np.testing.assert_allclose(post.cov(A, B), dense, rtol=0, atol=1e-12)
    C = post.cov(A)
    solved = np.linalg.solve(kernel.gram(X) + s2 * np.eye(12), kernel.gram(X, A))
    np.testing.assert_allclose(C, kernel.gram(A) - kernel.gram(A, X) @ solved,
                               rtol=0, atol=1e-12)
    assert np.array_equal(C, C.T)
    assert np.linalg.eigvalsh(C).min() >= -1e-12
    assert np.all(np.diag(C) >= -1e-12) and np.all(np.diag(C) <= kernel.diag(A) + 1e-12)


def test_posterior_variance_bounded_by_prior(kernel):
    data = random_dataset(10, 10)
    post = fit_gpr(kernel, data, 0.1)
    v = np.diag(post.cov(np.linspace(-4, 4, 30)))
    assert np.all(-1e-10 <= v) and np.all(v <= 1.0 + 1e-10)


def test_posterior_variance_shrinks_with_data(kernel):
    rng = np.random.default_rng(11)
    X = rng.uniform(-2, 2, size=(8, 1))
    y = rng.standard_normal(8)
    small = fit_gpr(kernel, Dataset(X[:7], y[:7]), 0.1)
    full = fit_gpr(kernel, Dataset(X, y), 0.1)
    xs = np.linspace(-3, 3, 10)
    assert np.all(np.diag(full.cov(xs)) <= np.diag(small.cov(xs)) + 1e-10)


def test_lml_scalar_cases(kernel):
    zero = Dataset(np.array([[0.0]]), np.array([0.0]))
    base = -0.5 * np.log(2.0) - 0.5 * np.log(2 * np.pi)
    assert fit_gpr(kernel, zero, 1.0).log_evidence() == pytest.approx(base)
    two = Dataset(np.array([[0.0]]), np.array([2.0]))
    assert fit_gpr(kernel, two, 1.0).log_evidence() == pytest.approx(base - 1.0)


def test_lml_matches_mvn_logpdf(kernel):
    data = random_dataset(10, 12)
    s2 = 0.3
    cov = kernel.gram(data.inputs) + s2 * np.eye(10)
    expected = scipy.stats.multivariate_normal(mean=np.zeros(10), cov=cov) \
        .logpdf(data.targets)
    assert fit_gpr(kernel, data, s2).log_evidence() \
        == pytest.approx(expected, abs=1e-8)


def test_regularized_risk_zero_function(kernel):
    data = random_dataset(7, 13)
    risk = regularized_risk(np.zeros(7), 0.0, data, 0.1)
    assert risk == pytest.approx(np.mean(data.targets**2))


def test_regularized_risk_rejects_negative_norm(kernel):
    # InvalidParameter, so a verify check that trips it reports an error
    data = random_dataset(7, 13)
    with pytest.raises(InvalidParameter, match="nonnegative"):
        regularized_risk(np.zeros(7), -1e-3, data, 0.1)


def test_regularized_risk_quadratic_form_identity(kernel):
    # n * R_n(krr; y) with ridge = s2/n equals s2 * y^T (K + s2 I)^{-1} y
    data = random_dataset(15, 14)
    s2 = 0.5
    model = fit_krr(kernel, data, s2 / data.n)
    risk = regularized_risk(model.predict_many(data.inputs),
                            model.rkhs_norm_sq(), data, s2 / data.n)
    K = kernel.gram(data.inputs)
    quad = data.targets @ np.linalg.solve(K + s2 * np.eye(15), data.targets)
    assert data.n * risk == pytest.approx(s2 * quad, rel=1e-8)


def test_regularized_risk_minimality(kernel):
    data = random_dataset(8, 15)
    lam = 0.2
    model = fit_krr(kernel, data, lam)
    best = regularized_risk(model.predict_many(data.inputs),
                            model.rkhs_norm_sq(), data, lam)
    rng = np.random.default_rng(16)
    for _ in range(50):
        coef = rng.standard_normal(8)
        vals = kernel.gram(data.inputs) @ coef
        probe = regularized_risk(vals, span_rkhs_norm_sq(kernel, data.inputs, coef),
                                 data, lam)
        assert best <= probe + 1e-12
