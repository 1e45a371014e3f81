import numpy as np
import pytest

from sparsegp.bounds import (BoundRecord, SparseProblem, burt_upper_bound,
                             derivative_gap_bound, excess_risk,
                             excess_risk_upper_bound, expected_excess_risk_lower_bound,
                             expected_kl_sandwich, kl_to_exact_posterior,
                             quadratic_form_gap_bound, rkhs_distance_bound,
                             rkhs_distance_sq, worst_case_decompositions,
                             worst_case_residuals)
from sparsegp.data import Dataset
from sparsegp import bounds
from sparsegp.errors import InternalInconsistency, UnsupportedKernel
from sparsegp.exact import fit_krr
from sparsegp.kernels import GaussianKernel, PolynomialKernel
from sparsegp.linalg import logdet
from sparsegp.nystrom import fit_nystrom, make_inducing, q_gram, select_inducing, trace_gap


@pytest.fixture
def kernel():
    return GaussianKernel(lengthscale=1.0)


def random_dataset(n, seed, d=1):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-3, 3, size=(n, d))
    y = rng.standard_normal(n)
    y *= min(1.0, 10.0 / np.linalg.norm(y))
    return Dataset(X, y)


def random_inducing(kernel, m, seed):
    rng = np.random.default_rng(seed)
    return make_inducing(kernel, rng.uniform(-3, 3, size=(m, kernel.input_dim)))


def test_bound_record_slack_and_holds():
    assert BoundRecord("a", 1.0, 2.0).slack == 1.0
    assert BoundRecord("a", 1.0, 2.0).holds
    assert BoundRecord("a", 2.0, 1.0).slack == -1.0
    assert not BoundRecord("a", 2.0, 1.0).holds
    # tiny negative slack within rounding still counts as holding
    assert BoundRecord("a", 1.0 + 1e-12, 1.0).holds


def test_gap_diagnostics_orderings(kernel):
    data = random_dataset(25, 0)
    ind = random_inducing(kernel, 4, 1)
    prob = SparseProblem(kernel, data, ind, 0.3)
    t = float(np.trace(prob.kxx - prob.qxx))
    assert t >= prob.opnorm_gap >= 0
    assert logdet(prob.k_factor) >= logdet(prob.q_factor)
    assert t == pytest.approx(trace_gap(ind, data.inputs), rel=1e-10)
    assert prob.nystrom.trace_gap == pytest.approx(t, rel=1e-10)


def test_kl_zero_when_inducing_covers_data(kernel):
    data = random_dataset(12, 2)
    ind = make_inducing(kernel, data.inputs)
    assert kl_to_exact_posterior(SparseProblem(kernel, data, ind, 0.3)) == pytest.approx(0.0, abs=1e-8)


def test_kl_nonnegative_and_matches_explicit_formula(kernel):
    data = random_dataset(20, 3)
    ind = random_inducing(kernel, 4, 4)
    s2 = 0.3
    kl = kl_to_exact_posterior(SparseProblem(kernel, data, ind, s2))
    assert kl >= -1e-10
    n, y = data.n, data.targets
    Ck = kernel.gram(data.inputs) + s2 * np.eye(n)
    Cq = q_gram(ind, data.inputs) + s2 * np.eye(n)
    explicit = 0.5 * (np.linalg.slogdet(Cq)[1] - np.linalg.slogdet(Ck)[1]
                      + y @ np.linalg.solve(Cq, y) - y @ np.linalg.solve(Ck, y)
                      + trace_gap(ind, data.inputs) / s2)
    assert kl == pytest.approx(explicit, rel=1e-8, abs=1e-10)


def test_burt_bound_holds_and_intermediate_is_tighter(kernel):
    data = random_dataset(30, 5)
    ind = random_inducing(kernel, 5, 6)
    loose, tight = burt_upper_bound(SparseProblem(kernel, data, ind, 0.3))
    assert loose.holds and tight.holds
    assert loose.lhs == tight.lhs
    assert tight.rhs <= loose.rhs + 1e-12
    assert loose.lhs == pytest.approx(
        2 * kl_to_exact_posterior(SparseProblem(kernel, data, ind, 0.3)), rel=1e-10)


def test_quadratic_form_gap_bound(kernel):
    data = random_dataset(25, 7)
    ind = random_inducing(kernel, 4, 8)
    s2 = 0.4
    rec = quadratic_form_gap_bound(SparseProblem(kernel, data, ind, s2))
    assert rec.holds
    assert rec.lhs >= -1e-10
    n, y = data.n, data.targets
    Ck = kernel.gram(data.inputs) + s2 * np.eye(n)
    Cq = q_gram(ind, data.inputs) + s2 * np.eye(n)
    direct = y @ np.linalg.solve(Cq, y) - y @ np.linalg.solve(Ck, y)
    assert rec.lhs == pytest.approx(direct, rel=1e-8)


def test_excess_risk_nonnegative_and_zero_at_full_cover(kernel):
    data = random_dataset(15, 9)
    lam = 0.02
    assert excess_risk(SparseProblem(kernel, data, make_inducing(kernel, data.inputs),
                                     data.n * lam)) == pytest.approx(0.0, abs=1e-10)
    ind = random_inducing(kernel, 3, 10)
    assert excess_risk(SparseProblem(kernel, data, ind, data.n * lam)) >= -1e-10


def test_excess_risk_quadratic_form_identity(kernel):
    # n * (risk gap) = s2 * (quadratic-form gap) with s2 = n * ridge
    data = random_dataset(20, 11)
    lam = 0.02
    s2 = data.n * lam
    ind = random_inducing(kernel, 4, 12)
    n, y = data.n, data.targets
    Ck = kernel.gram(data.inputs) + s2 * np.eye(n)
    Cq = q_gram(ind, data.inputs) + s2 * np.eye(n)
    quad_diff = y @ np.linalg.solve(Cq, y) - y @ np.linalg.solve(Ck, y)
    assert n * excess_risk(SparseProblem(kernel, data, ind, s2)) == pytest.approx(
        s2 * quad_diff, rel=1e-8, abs=1e-12)


def test_excess_risk_upper_bounds_hold(kernel):
    data = random_dataset(30, 13)
    ind = random_inducing(kernel, 5, 14)
    rec_trace, rec_op = excess_risk_upper_bound(SparseProblem(kernel, data, ind, data.n * 0.01))
    assert rec_trace.holds and rec_op.holds
    assert rec_op.rhs <= rec_trace.rhs + 1e-12


def test_rkhs_distance_sq_zero_at_full_cover(kernel):
    data = random_dataset(12, 15)
    ind = make_inducing(kernel, data.inputs)
    assert rkhs_distance_sq(SparseProblem(kernel, data, ind, data.n * 0.05)) == pytest.approx(0.0, abs=1e-8)


def test_rkhs_distance_controls_pointwise_gap(kernel):
    # |f_exact(x) - f_sparse(x)|^2 <= ||f_exact - f_sparse||^2 k(x, x)
    data = random_dataset(20, 16)
    lam = 0.05
    ind = random_inducing(kernel, 4, 17)
    dist_sq = rkhs_distance_sq(SparseProblem(kernel, data, ind, data.n * lam))
    assert dist_sq >= -1e-12
    exact = fit_krr(kernel, data, lam)
    sparse = fit_nystrom(kernel, data, ind, lam)
    for x in np.linspace(-3, 3, 25):
        gap = exact.predict(x) - sparse.predict(x)
        assert gap**2 <= dist_sq * kernel(x, x) + 1e-10


def test_rkhs_distance_bound_holds(kernel):
    data = random_dataset(30, 18)
    ind = random_inducing(kernel, 5, 19)
    assert rkhs_distance_bound(SparseProblem(kernel, data, ind, data.n * 0.02)).holds


def test_derivative_gap_bound_holds(kernel):
    data = random_dataset(25, 20)
    ind = random_inducing(kernel, 5, 21)
    rec = derivative_gap_bound(SparseProblem(kernel, data, ind, 0.3), x=0.7, j=0)
    assert rec.lhs <= rec.rhs + 1e-4 * max(1.0, abs(rec.rhs))


def test_derivative_gap_bound_rejects_polynomial():
    data = random_dataset(10, 22)
    poly = PolynomialKernel(degree=2, offset=1.0)
    ind = make_inducing(poly, data.inputs[:3])
    with pytest.raises(UnsupportedKernel):
        derivative_gap_bound(SparseProblem(poly, data, ind, 0.3), x=0.0, j=0)


def test_worst_case_decomposition_residual(kernel):
    data = random_dataset(20, 23)
    ind = random_inducing(kernel, 4, 24)
    prob = SparseProblem(kernel, data, ind, 0.3)
    assert np.all(worst_case_residuals(prob, np.linspace(-2.9, 2.9, 11)) <= 1e-8)
    total, split = worst_case_decompositions(prob, 1.23)
    assert total[0] == pytest.approx(split[0], rel=1e-10)


def test_expected_kl_sandwich_brackets_monte_carlo(kernel):
    rng = np.random.default_rng(27)
    X = rng.uniform(-3, 3, size=(30, 1))
    data = Dataset(X, np.zeros(30))
    ind = select_inducing(kernel, data, 5)
    mc, hw, low, high = expected_kl_sandwich(SparseProblem(kernel, data, ind, 0.3),
                                             n_samples=2000, seed=1)
    assert 0 <= low <= high
    # the analytic sandwich must intersect the Monte-Carlo interval
    assert low <= mc + 3 * hw + 1e-12
    assert mc - 3 * hw <= high + 1e-12
    assert hw > 0


def test_expected_kl_sandwich_rejects_negative_trace_gap(kernel, monkeypatch):
    # q_XX above k_XX makes t < 0, which would invert the band [t/2s2, t/s2]
    monkeypatch.setattr(bounds, "q_gram",
                        lambda ind, X: kernel.gram(X) + 0.1 * np.eye(len(X)))
    rng = np.random.default_rng(28)
    X = rng.uniform(-3, 3, size=(20, 1))
    ind = make_inducing(kernel, X[:3])
    with pytest.raises(InternalInconsistency, match="trace gap t = .*reduce m"):
        expected_kl_sandwich(SparseProblem(kernel, Dataset(X, np.zeros(20)), ind, 0.3),
                             n_samples=200)


def test_expected_kl_sandwich_rejects_tiny_sample(kernel):
    rng = np.random.default_rng(28)
    X = rng.uniform(-3, 3, size=(10, 1))
    ind = make_inducing(kernel, X[:3])
    with pytest.raises(ValueError):
        expected_kl_sandwich(SparseProblem(kernel, Dataset(X, np.zeros(10)), ind, 0.3),
                             n_samples=10)


def test_expected_excess_risk_lower_bound_holds(kernel):
    rng = np.random.default_rng(29)
    X = rng.uniform(-3, 3, size=(30, 1))
    data = Dataset(X, np.zeros(30))
    ind = select_inducing(kernel, data, 5)
    rec, stderr = expected_excess_risk_lower_bound(SparseProblem(kernel, data, ind, data.n * 0.01),
                                                   n_samples=2000, seed=2)
    assert rec.lhs <= rec.rhs + 3 * stderr


def test_expected_kl_mc_is_seeded(kernel):
    rng = np.random.default_rng(30)
    X = rng.uniform(-3, 3, size=(15, 1))
    ind = make_inducing(kernel, X[:4])
    prob = SparseProblem(kernel, Dataset(X, np.zeros(15)), ind, 0.3)
    a = expected_kl_sandwich(prob, n_samples=500, seed=9)
    b = expected_kl_sandwich(prob, n_samples=500, seed=9)
    assert a == b
