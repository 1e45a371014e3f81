"""The library's level-3 BLAS/LAPACK work stays on numpy's OpenBLAS: no
scipy factorization or eigensolve runs, and scipy's triangular solves see
only vector right-hand sides, so scipy's thread pool never wakes."""

import numpy as np
import pytest
import scipy.linalg

from sparsegp import cli, exact
from sparsegp.data import Dataset, synth_prior_dataset, write_csv
from sparsegp.harness import ExperimentConfig, run_verification
from sparsegp.kernels import GaussianKernel


@pytest.fixture
def scipy_level2_only(monkeypatch):
    def refuse(name):
        def call(*args, **kwargs):
            raise AssertionError(f"scipy.linalg.{name} called")
        return call

    def vectors_only(name, fn):
        def call(a, b, *args, **kwargs):
            if np.ndim(b) != 1:
                raise AssertionError(f"scipy.linalg.{name} called with a "
                                     f"{np.ndim(b)}-d right-hand side")
            return fn(a, b, *args, **kwargs)
        return call

    for name in ("cholesky", "eigvalsh"):
        monkeypatch.setattr(scipy.linalg, name, refuse(name))
    for name in ("cho_solve", "solve_triangular"):
        monkeypatch.setattr(scipy.linalg, name,
                            vectors_only(name, getattr(scipy.linalg, name)))


def test_verify_runs_without_scipy_level3_calls(scipy_level2_only):
    report = run_verification(ExperimentConfig())
    assert len(report.checks) == 17
    assert report.overall_pass, [c.to_dict() for c in report.checks if not c.passed]


def test_fit_svgp_runs_without_scipy_level3_calls(scipy_level2_only, tmp_path, capsys):
    kernel = GaussianKernel(lengthscale=1.0, input_dim=2)
    X = np.random.default_rng(50).uniform(-3, 3, size=(200, 2))
    path = tmp_path / "train.csv"
    write_csv(path, synth_prior_dataset(kernel, X, 0.1, seed=51))
    assert cli.main(["fit", "svgp", "--data", str(path), "--m", "12"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 200


def test_exact_posterior_cov_solves_with_a_vector(monkeypatch):
    # A matrix right-hand side would take the O(n^3) np.linalg.solve route.
    lower_solve = exact.lower_solve

    def vector_solve(F, B):
        assert np.ndim(B) == 1
        return lower_solve(F, B)

    monkeypatch.setattr(exact, "lower_solve", vector_solve)
    kernel = GaussianKernel(lengthscale=1.0)
    X = np.linspace(-3, 3, 30)[:, None]
    post = exact.fit_gpr(kernel, Dataset(X, np.sin(X[:, 0])), 0.1)
    assert 0.0 < post.cov([0.3], [0.3])[0, 0] < 1.0
    assert np.all(np.diag(post.cov([0.3, -1.0, 2.0])) < 1.0)
