import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsegp.errors import (DimensionMismatch, InvalidParameter, NonFiniteValue,
                             UnsupportedKernel)
from sparsegp.kernels import GaussianKernel, KernelExpansion, PolynomialKernel, make_kernel


def test_gaussian_diagonal_is_one():
    k = GaussianKernel(lengthscale=1.0)
    assert k.gram([[0.0]])[0, 0] == 1.0
    assert k.gram([[3.7]])[0, 0] == pytest.approx(1.0)


@pytest.mark.parametrize("k", [
    GaussianKernel(lengthscale=0.7, input_dim=3),
    PolynomialKernel(degree=3, offset=1.5, input_dim=3),
])
def test_diag_matches_gram_diagonal(k):
    X = np.random.default_rng(4).uniform(-3, 3, size=(40, 3))
    np.testing.assert_allclose(k.diag(X), np.diag(k.gram(X)), rtol=1e-12, atol=1e-12)


def test_gaussian_analytic_value():
    k = GaussianKernel(lengthscale=1.0)
    assert k.gram([[0.0]], [[1.0]])[0, 0] == pytest.approx(np.exp(-1.0))


def test_polynomial_value():
    k = PolynomialKernel(degree=2, offset=0.0)
    assert k.gram([[1.0]], [[2.0]])[0, 0] == 4.0


def test_polynomial_exact_with_offset():
    k = PolynomialKernel(degree=3, offset=1.5, input_dim=2)
    x = np.array([1.0, 2.0])
    x2 = np.array([-0.5, 0.25])
    assert k.gram(x[None, :], x2[None, :])[0, 0] == pytest.approx((x @ x2 + 1.5) ** 3)


def test_gram_single_point():
    for k, value in ((GaussianKernel(), 1.0),
                     (PolynomialKernel(degree=2, offset=1.0), (0.3 * 0.3 + 1.0) ** 2)):
        G = k.gram(np.array([[0.3]]))
        assert G.shape == (1, 1)
        assert G[0, 0] == pytest.approx(value)


def test_gram_cross():
    k = GaussianKernel()
    G = k.gram(np.array([[0.0]]), np.array([[0.0], [1.0]]))
    assert np.allclose(G, [[1.0, np.exp(-1.0)]])


def test_gram_matches_pointwise_eval():
    # each entry against the closed form at its pair of points
    rng = np.random.default_rng(0)
    A = rng.standard_normal((4, 2))
    B = rng.standard_normal((3, 2))
    gauss = GaussianKernel(lengthscale=0.7, input_dim=2)
    poly = PolynomialKernel(degree=3, offset=1.5, input_dim=2)
    G, P = gauss.gram(A, B), poly.gram(A, B)
    for i in range(4):
        for j in range(3):
            d2 = np.sum((A[i] - B[j]) ** 2)
            assert G[i, j] == pytest.approx(np.exp(-d2 / 0.7**2), abs=1e-14)
            assert P[i, j] == pytest.approx((A[i] @ B[j] + 1.5) ** 3, rel=1e-14)


@pytest.mark.parametrize("seed", range(4))
def test_gram_psd(seed):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2, 2, size=(6, 1))
    for k in (GaussianKernel(), PolynomialKernel(degree=2, offset=0.5)):
        eigs = np.linalg.eigvalsh(k.gram(X))
        assert eigs.min() >= -1e-10


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-3, 3), min_size=2, max_size=12, unique=True))
def test_gram_psd_property(xs):
    K = GaussianKernel().gram(np.array(xs).reshape(-1, 1))
    assert np.linalg.eigvalsh(K).min() >= -1e-10


def test_mixed_second_derivative_constant():
    k = GaussianKernel(lengthscale=1.0, input_dim=3)
    for x in (np.zeros(3), np.array([1.0, -2.0, 0.5])):
        for j in range(3):
            assert k.mixed_second_derivative(j, x) == pytest.approx(2.0)


def test_mixed_second_derivative_gamma2():
    assert GaussianKernel(lengthscale=2.0).mixed_second_derivative(0, 0.0) \
        == pytest.approx(0.5)


def test_mixed_second_derivative_finite_difference():
    k = GaussianKernel(lengthscale=1.3, input_dim=2)
    x = np.array([0.4, -0.9])
    h = 1e-4
    j = 1
    e = np.zeros(2)
    e[j] = h

    def kxx(a, b):
        return k.gram(a[None, :], b[None, :])[0, 0]

    # cross stencil for d/dx_j d/dx'_j k(x, x') at x' = x
    fd = (kxx(x + e, x + e) - kxx(x + e, x - e) - kxx(x - e, x + e) + kxx(x - e, x - e)) / (4 * h * h)
    assert fd == pytest.approx(k.mixed_second_derivative(j, x), abs=1e-5)


def test_polynomial_derivative_unsupported():
    with pytest.raises(UnsupportedKernel):
        PolynomialKernel(degree=2).mixed_second_derivative(0, 0.0)


def test_dimension_mismatch():
    k = GaussianKernel(input_dim=2)
    with pytest.raises(DimensionMismatch):
        k.gram(np.zeros((3, 5)))


def test_make_kernel():
    assert isinstance(make_kernel("gaussian", gamma=2.0), GaussianKernel)
    assert isinstance(make_kernel("polynomial", degree=3), PolynomialKernel)
    with pytest.raises(UnsupportedKernel):
        make_kernel("matern")


def _gram_with_sum_norms(A, B, lengthscale):
    """The Gaussian Gram with row norms taken as np.sum(A * A, axis=1)."""
    K = np.sum(A * A, axis=1)[:, None] + np.sum(B * B, axis=1)[None, :]
    K -= 2.0 * (A @ B.T)
    return np.exp(-np.maximum(K, 0.0) / lengthscale**2)


@pytest.mark.parametrize("d", [1, 2])
def test_gaussian_gram_matches_sum_norms_exactly_for_d_up_to_2(d):
    rng = np.random.default_rng(10 + d)
    k = GaussianKernel(lengthscale=1.3, input_dim=d)
    for _ in range(20):
        A = rng.uniform(-3, 3, size=(int(rng.integers(1, 200)), d))
        B = rng.uniform(-3, 3, size=(int(rng.integers(1, 40)), d))
        assert np.array_equal(k.gram(A, B), _gram_with_sum_norms(A, B, 1.3))


@pytest.mark.parametrize("d", range(3, 9))
def test_gaussian_gram_matches_sum_norms_to_rounding_for_d_above_2(d):
    rng = np.random.default_rng(10 + d)
    k = GaussianKernel(lengthscale=1.3, input_dim=d)
    for _ in range(20):
        A = rng.uniform(-3, 3, size=(int(rng.integers(1, 200)), d))
        B = rng.uniform(-3, 3, size=(int(rng.integers(1, 40)), d))
        # The row norms agree to within rounding ...
        np.testing.assert_allclose(np.einsum("ij,ij->i", A, A),
                                   np.sum(A * A, axis=1), rtol=1e-15, atol=0)
        # ... and a few ulps of |a|^2 + |b|^2 move the exponent by a few
        # eps * (|a|^2 + |b|^2) / ls^2, so K moves by K times that.
        old = _gram_with_sum_norms(A, B, 1.3)
        scale = (np.sum(A * A, axis=1)[:, None] + np.sum(B * B, axis=1)[None, :]) / 1.3**2
        assert np.all(np.abs(k.gram(A, B) - old) <= 8 * np.finfo(float).eps * scale * old)


@pytest.mark.parametrize("make", [
    lambda: GaussianKernel(lengthscale=0.0),
    lambda: PolynomialKernel(degree=0),
    lambda: PolynomialKernel(degree=2, offset=-1.0),
    lambda: GaussianKernel(input_dim=0),
    lambda: PolynomialKernel(input_dim=0),
    lambda: GaussianKernel(lengthscale=np.inf),  # the rank-1 all-ones kernel
    lambda: GaussianKernel(lengthscale=np.nan),
    lambda: GaussianKernel(lengthscale=1e200),  # gamma^2 overflows
    lambda: GaussianKernel(lengthscale=np.float64(1e-200)),  # gamma^2 underflows, no warning
])
def test_kernel_parameters_raise_typed_error(make):
    with pytest.raises(InvalidParameter):
        make()


@pytest.mark.parametrize("params, name", [
    (dict(offset=np.nan), "offset"), (dict(offset=np.inf), "offset"), (dict(degree=2.5), "degree"),
])
def test_polynomial_parameters_are_named_in_the_error(params, name):
    # a NaN offset or a fractional degree used to surface later, as an
    # overflowing Gram
    with pytest.raises(InvalidParameter, match=f"^{name} must be"):
        PolynomialKernel(**params)


def test_polynomial_gram_overflow_is_a_typed_error():
    # (2.9 * 2.8)^400 and 9^400 overflow: the Gram and the diagonal raise
    # instead of returning inf, and no RuntimeWarning escapes (pytest turns
    # one into an error)
    f = KernelExpansion(PolynomialKernel(degree=400), np.array([[2.9], [-2.5]]),
                        np.array([1.0, 1.0]))
    diag = PolynomialKernel(degree=400).diag
    for evaluate in (lambda: f.predict_many([[2.8]]), f.rkhs_norm_sq,
                     lambda: diag([[3.0]])):
        with pytest.raises(NonFiniteValue, match="lower the degree or rescale"):
            evaluate()
    assert np.isfinite(PolynomialKernel(degree=400).gram([[0.5], [-1.0]])).all()
    with pytest.raises(NonFiniteValue, match="inputs contain NaN"):
        KernelExpansion(PolynomialKernel(degree=2), [[1.0]], [1.0]).predict_many([[np.nan]])


def _reference_gaussian_gram(A, B, lengthscale):
    """The Gaussian Gram as whole-matrix passes with fresh n x n buffers."""
    K = (np.einsum("ij,ij->i", A, A)[:, None]
         + np.einsum("ij,ij->i", B, B)[None, :])
    AB = A @ B.T
    AB *= 2.0
    K -= AB
    np.maximum(K, 0.0, out=K)
    np.negative(K, out=K)
    K /= lengthscale**2
    np.exp(K, out=K)
    return K


def _reference_polynomial_gram(A, B, degree, offset):
    return (A @ B.T + offset) ** degree


def _assert_bit_symmetric(K):
    bits = K.view(np.int64)
    assert np.array_equal(bits, bits.T)


@pytest.mark.parametrize("n", [1, 127, 128, 129, 181, 182, 700])
@pytest.mark.parametrize("d", [1, 2, 3, 20])
def test_grams_are_bit_identical_to_whole_matrix_formulas(n, d):
    # A self-Gram is exactly symmetric as built, which lets linalg factor
    # it in place: numpy's A @ A.T is a symmetric rank-k update and every
    # later pass is elementwise, whatever the memory layout of the points.
    # The Gaussian Gram is built in row blocks of 32768 // n rows: n = 181
    # is one block, n = 182 two, n = 700 several.
    rng = np.random.default_rng(100 * n + d)
    rows = rng.uniform(-3, 3, size=(2 * n, d))
    A = rows[:n].copy()
    B = rng.uniform(-3, 3, size=(n // 2 + 1, d))
    layouts = (A, np.asfortranarray(A), rows[::2], A[rng.permutation(n)])
    gauss = GaussianKernel(lengthscale=0.9, input_dim=d)
    for X in layouts:
        K = gauss.gram(X)
        assert np.array_equal(K, _reference_gaussian_gram(X, X, 0.9))
        _assert_bit_symmetric(K)
    assert np.array_equal(gauss.gram(A, B), _reference_gaussian_gram(A, B, 0.9))
    assert np.array_equal(gauss.gram(B, A), _reference_gaussian_gram(B, A, 0.9))
    for degree in (1, 2, 3, 4):
        for offset in (0.0, 1.0):
            poly = PolynomialKernel(degree=degree, offset=offset, input_dim=d)
            # a layout changes only A @ A.T, which the power reads
            # elementwise; the slow powers 3 and 4 take the first layout
            for X in layouts if degree <= 2 else layouts[:1]:
                P = poly.gram(X)
                assert np.array_equal(P, _reference_polynomial_gram(X, X, degree, offset))
                _assert_bit_symmetric(P)
            assert np.array_equal(poly.gram(A, B),
                                  _reference_polynomial_gram(A, B, degree, offset))


@pytest.mark.parametrize("kernel", [
    lambda d: GaussianKernel(lengthscale=0.9, input_dim=d),
    lambda d: PolynomialKernel(degree=3, offset=1.0, input_dim=d),
], ids=["gaussian", "polynomial"])
@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_pivot_rows_are_bit_identical_to_one_row_grams(kernel, d):
    # greedy selection reads its pivot rows through pivot_rows, which takes
    # the row norms of X once, and nystrom_factor builds K_ZX over points Z
    # by it; each row must be the one-row Gram's bits, whatever the memory
    # layout of the points
    k = kernel(d)
    rng = np.random.default_rng(d)
    rows = rng.uniform(-3, 3, size=(2 * 300, d))
    Z = rng.uniform(-3, 3, size=(5, d))
    for X in (rows[:300].copy(), np.asfortranarray(rows[:300]), rows[::2]):
        pivot_row = k.pivot_rows(X)
        for p in (0, 1, 150, 299):
            row = pivot_row(p)
            assert row.shape == (300,)
            assert np.array_equal(row.view(np.int64), k.gram(X[p:p + 1], X)[0].view(np.int64))
        z_row = k.pivot_rows(X, Z)
        for j in range(5):
            assert np.array_equal(z_row(j).view(np.int64), k.gram(Z[j:j + 1], X)[0].view(np.int64))
