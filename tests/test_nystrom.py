import numpy as np
import pytest

from sparsegp.data import Dataset
from sparsegp.errors import InvalidCount
from sparsegp.exact import fit_gpr, fit_krr
from sparsegp.kernels import GaussianKernel, PolynomialKernel
from sparsegp.nystrom import (fit_nystrom, fit_nystrom_via_q, make_inducing,
                              nystrom_factor, q_diag, q_gram, select_inducing,
                              trace_gap)
from sparsegp.svgp import psi_forward


@pytest.fixture
def kernel():
    return GaussianKernel(lengthscale=1.0)


def random_dataset(n, seed, d=1):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-3, 3, size=(n, d))
    y = rng.standard_normal(n)
    y *= min(1.0, 10.0 / np.linalg.norm(y))
    return Dataset(X, y)


def test_make_inducing_rejects_duplicates(kernel):
    with pytest.raises(InvalidCount):
        make_inducing(kernel, np.array([[0.0], [0.0]]))


def test_q_interpolates_at_inducing_points(kernel):
    Z = np.array([[-1.0], [0.5], [2.0]])
    ind = make_inducing(kernel, Z)
    # q agrees with k whenever one argument is an inducing point
    X = np.linspace(-3, 3, 7)[:, None]
    np.testing.assert_allclose(q_gram(ind, Z, X), kernel.gram(Z, X), rtol=0, atol=1e-10)
    np.testing.assert_allclose(q_gram(ind, X, Z), kernel.gram(X, Z), rtol=0, atol=1e-10)


def test_q_equals_k_when_inducing_covers_data(kernel):
    X = np.array([[-2.0], [0.0], [1.5]])
    ind = make_inducing(kernel, X)
    Q = q_gram(ind, X)
    assert np.allclose(Q, kernel.gram(X), atol=1e-10)


def test_q_gram_psd_and_dominated(kernel):
    rng = np.random.default_rng(0)
    X = rng.uniform(-3, 3, size=(12, 1))
    ind = make_inducing(kernel, rng.uniform(-3, 3, size=(4, 1)))
    Q = q_gram(ind, X)
    assert np.linalg.eigvalsh(0.5 * (Q + Q.T)).min() >= -1e-10
    # k - q is a positive-semidefinite residual, so its diagonal is nonnegative
    gap = kernel.gram(X) - Q
    assert np.linalg.eigvalsh(0.5 * (gap + gap.T)).min() >= -1e-8


def test_projection_fixes_span_elements(kernel):
    Z = np.array([[-1.0], [0.0], [1.0]])
    ind = make_inducing(kernel, Z)
    coef = np.array([0.5, -1.0, 2.0])

    def f(x):
        return sum(c * kernel(z, x) for c, z in zip(coef, Z))

    # psi_forward gives the coefficients k_ZZ^{-1} f_Z of the projection onto M
    proj_coef = psi_forward(ind, np.array([f(z) for z in Z]))
    for x in np.linspace(-3, 3, 9):
        val = float(proj_coef @ kernel.gram(Z, np.array([[x]]))[:, 0])
        assert val == pytest.approx(f(x), abs=1e-9)


def test_projection_evaluates_via_q(kernel):
    rng = np.random.default_rng(1)
    ind = make_inducing(kernel, rng.uniform(-3, 3, size=(4, 1)))
    # projecting a point evaluator reproduces q: P(k(., x))(x') = q(x, x')
    x = np.array([0.7])
    coef = psi_forward(ind, kernel.gram(ind.points, x[None, :]).ravel())
    x2 = np.array([[-1.2]])
    val = float(coef @ kernel.gram(ind.points, x2)[:, 0])
    assert val == pytest.approx(q_gram(ind, x[None, :], x2)[0, 0], abs=1e-10)


def test_fit_nystrom_routes_agree(kernel):
    # direct m x m system vs kernel-ridge regression under q
    data = random_dataset(30, 2)
    ind = make_inducing(kernel, np.array([[-2.0], [-0.5], [1.0], [2.5]]))
    lam = 0.01
    direct = fit_nystrom(kernel, data, ind, lam)
    via_q = fit_nystrom_via_q(kernel, data, ind, lam)
    assert np.allclose(direct.beta, via_q.beta, atol=1e-8)
    for x in np.linspace(-3, 3, 11):
        assert direct.predict(x) == pytest.approx(via_q.predict(x), abs=1e-8)


def test_fit_nystrom_exact_when_inducing_covers_data(kernel):
    data = random_dataset(10, 3)
    ind = make_inducing(kernel, data.inputs)
    lam = 0.05
    sparse = fit_nystrom(kernel, data, ind, lam)
    full = fit_krr(kernel, data, lam)
    for x in np.linspace(-3, 3, 11):
        assert sparse.predict(x) == pytest.approx(full.predict(x), abs=1e-8)


def test_dtc_matches_exact_when_inducing_covers_data(kernel):
    # with Z = X the mean matches the exact posterior everywhere, and the
    # covariance matches once the k - q residual is added back
    data = random_dataset(10, 4)
    ind = make_inducing(kernel, data.inputs)
    s2 = 0.3
    fac = nystrom_factor(kernel, data, ind, s2)
    exact = fit_gpr(kernel, data, s2)
    xs = np.linspace(-3, 3, 7)
    gaps = kernel.diag(xs) - q_diag(ind, xs)
    for x, mx, gap, var in zip(xs, fac.mean(xs), gaps, fac.dtc_var(xs)):
        assert mx == pytest.approx(exact.mean(x), abs=1e-8)
        assert gap + var == pytest.approx(exact.cov(x, x), abs=1e-8)
    # at the inducing points themselves the residual vanishes
    z = data.inputs[:1]
    assert fac.dtc_var(z)[0] == pytest.approx(exact.cov(z, z), abs=1e-8)


def test_dtc_mean_matches_nystrom_regression(kernel):
    # posterior mean of the sparse GP equals the sparse ridge fit at ridge = s2/n
    data = random_dataset(25, 5)
    ind = make_inducing(kernel, np.array([[-2.0], [0.0], [2.0]]))
    s2 = 0.4
    mean = nystrom_factor(kernel, data, ind, s2).mean
    model = fit_nystrom(kernel, data, ind, s2 / data.n)
    xs = np.linspace(-3, 3, 11)
    for x, mx in zip(xs, mean(xs)):
        assert mx == pytest.approx(model.predict(x), abs=1e-8)


def test_trace_gap_zero_when_inducing_covers_data(kernel):
    X = np.array([[-1.0], [0.0], [2.0]])
    ind = make_inducing(kernel, X)
    assert trace_gap(ind, X) == pytest.approx(0.0, abs=1e-10)


def test_trace_gap_matches_direct_sum(kernel):
    rng = np.random.default_rng(6)
    X = rng.uniform(-3, 3, size=(15, 1))
    ind = make_inducing(kernel, rng.uniform(-3, 3, size=(5, 1)))
    direct = sum(kernel(x, x) - q_gram(ind, x[None, :])[0, 0] for x in X)
    assert trace_gap(ind, X) == pytest.approx(direct, rel=1e-10)


def test_trace_gap_decreases_with_more_inducing(kernel):
    data = random_dataset(40, 7)
    gaps = [trace_gap(select_inducing(kernel, data, m), data.inputs)
            for m in (1, 3, 6, 10)]
    assert all(a >= b - 1e-10 for a, b in zip(gaps, gaps[1:]))


def test_select_inducing_greedy_avoids_cluster(kernel):
    # one far point plus a tight cluster: greedy picks one of each, never
    # both clustered points
    X = np.array([[0.0], [10.0], [10.001]])
    data = Dataset(X, np.zeros(3))
    ind = select_inducing(kernel, data, 2, strategy="greedy_trace")
    picked = sorted(ind.points.ravel().tolist())
    assert picked[0] == 0.0
    assert picked[1] in (10.0, 10.001)


def full_gram_greedy(kernel, X, m):
    """Reference greedy selection over the full n x n Gram matrix.

    Returns the chosen indices and whether the rank-exhausted padding
    branch ran.
    """
    n = X.shape[0]
    K = kernel.gram(X)
    resid = np.diag(K).copy()
    L = np.zeros((n, m))
    idx = []
    for step in range(m):
        pivot = int(np.argmax(resid))
        if resid[pivot] <= 0:
            remaining = [i for i in range(n) if i not in idx]
            idx.extend(remaining[: m - step])
            return np.array(idx[:m]), True
        idx.append(pivot)
        col = (K[:, pivot] - L[:, :step] @ L[pivot, :step]) / np.sqrt(resid[pivot])
        L[:, step] = col
        resid = resid - col**2
        resid[pivot] = -np.inf
    return np.array(idx), False


@pytest.mark.parametrize("seed", range(5))
def test_select_inducing_greedy_matches_full_gram_reference(kernel, seed):
    data = random_dataset(80, 30 + seed)
    ref, padded = full_gram_greedy(kernel, data.inputs, 12)
    assert not padded
    ind = select_inducing(kernel, data, 12, strategy="greedy_trace")
    assert np.array_equal(ind.points, data.inputs[ref])


def test_select_inducing_greedy_pads_past_rank_like_reference():
    # (x x' + 1)^2 in d=1 has rank 3, so asking for 5 points exhausts the
    # residual and pads with the lowest unchosen indices
    kernel = PolynomialKernel(degree=2, offset=1.0)
    data = random_dataset(10, 1)
    ref, padded = full_gram_greedy(kernel, data.inputs, 5)
    assert padded
    ind = select_inducing(kernel, data, 5, strategy="greedy_trace")
    assert np.array_equal(ind.points, data.inputs[ref])


def test_select_inducing_uniform_is_seeded_subset(kernel):
    data = random_dataset(20, 8)
    a = select_inducing(kernel, data, 5, strategy="uniform", seed=3)
    b = select_inducing(kernel, data, 5, strategy="uniform", seed=3)
    assert np.array_equal(a.points, b.points)
    rows = {tuple(r) for r in data.inputs}
    assert all(tuple(p) in rows for p in a.points)


def test_select_inducing_invalid_count(kernel):
    data = random_dataset(5, 9)
    with pytest.raises(InvalidCount):
        select_inducing(kernel, data, 0)
    with pytest.raises(InvalidCount):
        select_inducing(kernel, data, 6)
