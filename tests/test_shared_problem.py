"""One SparseProblem per verify run: the n x n matrices are built once, the
independent cross-checks still catch a broken side, and a failed build is
reported by every check that needs it without escaping the run."""

import subprocess
import sys
from functools import cached_property

import numpy as np
import pytest

from sparsegp import bounds, harness, nystrom, svgp
from sparsegp.data import Dataset
from sparsegp.errors import FactorizationFailed
from sparsegp.harness import ExperimentConfig, make_problem, run_verification, verify_problem
from sparsegp.kernels import GaussianKernel
from sparsegp.nystrom import NystromFactor, select_inducing

CHECK_NAMES = [name for name, _ in harness.CHECKS]

# Checks that read q_XX + s2 I of the problem at noise_var or
# q_XX + n ridge I of the ridge problem (the q route of nystrom_two_routes).
Q_CHECKS = {
    "nystrom_two_routes", "kl_two_path", "burt_bound", "burt_bound_intermediate",
    "quadratic_form_gap", "excess_risk_identity", "expected_kl_sandwich",
    "expected_excess_risk_lower_bound",
}
# Checks that read k_XX + n ridge I of the ridge problem; when the ridge is
# linked, that is the factor the prior draw was taken through.
RIDGE_K_CHECKS = {
    "excess_risk_identity", "excess_risk_bound", "rkhs_distance_bound",
    "expected_excess_risk_lower_bound",
}


def patch_factors(monkeypatch, wrap):
    """Replace factor_spd and noise_factor in every sparsegp module that
    imported them."""
    for name, mod in list(sys.modules.items()):
        for fn in ("factor_spd", "noise_factor"):
            if name.startswith("sparsegp.") and hasattr(mod, fn):
                monkeypatch.setattr(mod, fn, wrap(getattr(mod, fn)))


def count_member(monkeypatch, name, calls):
    """Replace the kept SparseProblem member `name` by one that appends its
    problem to `calls` on each evaluation."""
    fn = getattr(bounds.SparseProblem, name).func
    member = cached_property(lambda self: calls.append(self) or fn(self))
    member.__set_name__(bounds.SparseProblem, name)
    monkeypatch.setattr(bounds.SparseProblem, name, member)


def statuses(report):
    return {c.name: c.status for c in report.checks}


def test_verify_run_builds_each_n_by_n_matrix_once(monkeypatch):
    n = 400
    factor_dims, gram_shapes, eigen_shapes, logdet_dims = [], [], [], []

    def recording(factor_spd):
        def factor(A, *args, **kwargs):
            factor_dims.append(np.shape(A)[0])
            return factor_spd(A, *args, **kwargs)
        return factor

    patch_factors(monkeypatch, recording)
    for name, mod in list(sys.modules.items()):
        if name.startswith("sparsegp.") and hasattr(mod, "logdet"):
            monkeypatch.setattr(mod, "logdet", lambda F, fn=mod.logdet:
                                logdet_dims.append(F.lower.shape[0]) or fn(F))
    gram = GaussianKernel.gram

    def recording_gram(self, A, B=None):
        K = gram(self, A, B)
        gram_shapes.append(K.shape)
        return K

    monkeypatch.setattr(GaussianKernel, "gram", recording_gram)
    for name in ("eigh", "eigvalsh", "eig", "eigvals"):
        fn = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda A, *args, fn=fn, **kwargs:
                            eigen_shapes.append(np.shape(A)) or fn(A, *args, **kwargs))
    report = run_verification(ExperimentConfig(n=n, m=24))
    assert [c.name for c in report.checks] == CHECK_NAMES
    # k_XX + s2 I, shared by the prior draw and the problem, and q_XX + s2 I,
    # shared by the KL, the quadratic-form gap and the q route; k_XX, shared
    # by the prior draw and the problem. ||k - q||_2 is taken by Lanczos,
    # whose eigensolves are j x j for a few dozen steps j.
    assert factor_dims.count(n) <= 2
    assert gram_shapes.count((n, n)) <= 1
    # K_XZ by fit_nystrom, by the explicit q pass, and once for the excess
    # risk, the RKHS distance and the q route; nystrom_factor reads the rows
    # greedy selection evaluated.
    assert gram_shapes.count((n, 24)) + gram_shapes.count((24, n)) == 3
    # k_ZZ is built and factored once, by make_inducing; every other read
    # goes through that factor L_Z. The only other m x m factor is L_B.
    assert gram_shapes.count((24, 24)) == 1
    assert factor_dims.count(24) == 2
    # The evidence reads log det(k_XX + s2 I); the KL and both expected-value
    # bounds read the one kept log-det gap, which reads both factors once.
    assert 0 < logdet_dims.count(n) <= 3
    assert eigen_shapes and all(shape[0] < 100 for shape in eigen_shapes)


def kept_arrays(obj, seen):
    """Every array reachable from obj through instance attributes and
    tuples, each object visited once."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, tuple):
        for item in obj:
            yield from kept_arrays(item, seen)
    elif hasattr(obj, "__dict__"):
        for value in vars(obj).values():
            yield from kept_arrays(value, seen)


@pytest.mark.parametrize("link", [True, False])
def test_verify_run_builds_q_once_per_problem_and_keeps_two_n_by_n_arrays(monkeypatch, link):
    n = 400
    q_shapes, factor_dims = [], []
    q_gram = bounds.q_gram
    monkeypatch.setattr(bounds, "q_gram",
                        lambda ind, X: q_shapes.append(len(X)) or q_gram(ind, X))
    patch_factors(monkeypatch, lambda factor_spd: lambda A, *args, **kwargs: (
        factor_dims.append(np.shape(A)[0]) or factor_spd(A, *args, **kwargs)))
    config = ExperimentConfig(n=n, m=24, ridge=None if link else 0.01)
    instance = make_problem(config)
    checks = verify_problem(*instance, config.seed)
    assert [c.name for c in checks] == CHECK_NAMES
    # One explicit q pass per problem: one problem when the ridge is linked,
    # two when it is not.
    assert q_shapes == [n] * (1 if link else 2)
    # k_ZZ is factored once per inducing set, by make_inducing, and
    # I + V V^T / s2 once per problem; no ridge fit factors an m x m matrix.
    assert factor_dims.count(24) == (2 if link else 3)
    # Once every check has run, each problem keeps k_XX and the factor of
    # k_XX + s2 I and no other n x n array: not q_XX, the gap or the factor
    # of q_XX + s2 I.
    for prob in instance[:2]:
        square = [A for A in kept_arrays(prob, set()) if A.shape == (n, n)]
        assert len(square) == 2
        assert any(A is prob.kxx for A in square)
        assert any(A is prob.k_factor.lower for A in square)


def test_verify_run_leaves_scipy_sparse_unimported():
    code = ("import sys\n"
            "from sparsegp.harness import ExperimentConfig, run_verification\n"
            "report = run_verification(ExperimentConfig(n=60, m=8, mc_samples=200))\n"
            f"assert len(report.checks) == {len(harness.CHECKS)}\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    assert proc.stdout.strip() == "[]"


def test_kl_two_path_catches_a_wrong_q_gram(monkeypatch):
    q_gram = bounds.q_gram
    monkeypatch.setattr(bounds, "q_gram",
                        lambda ind, X: q_gram(ind, X) + 1e-3 * np.eye(len(X)))
    report = run_verification(ExperimentConfig(n=30, m=5, mc_samples=500))
    # The KL is evaluated once per problem, but a failed evaluation is not
    # kept: each check that reads it reports the error.
    for name in ("kl_two_path", "burt_bound", "burt_bound_intermediate"):
        check = next(c for c in report.checks if c.name == name)
        assert check.status == "error", name
        assert check.detail.startswith("InternalInconsistency"), name


@pytest.mark.parametrize("method", ["dtc_var", "optimal_var"])
def test_worst_case_decomposition_catches_a_wrong_variance(monkeypatch, method):
    var = getattr(NystromFactor, method)
    monkeypatch.setattr(NystromFactor, method, lambda self, X: var(self, X) + 1e-6)
    report = run_verification(ExperimentConfig(n=30, m=5, mc_samples=500))
    assert statuses(report)["worst_case_decomposition"] == "fail"


def test_worst_case_decomposition_fails_when_every_probe_collides(monkeypatch):
    monkeypatch.setattr(bounds, "training_collisions",
                        lambda prob, X: np.ones(len(X), dtype=bool))
    report = run_verification(ExperimentConfig(n=30, m=5, mc_samples=500))
    check = next(c for c in report.checks if c.name == "worst_case_decomposition")
    assert check.status == "fail"
    assert check.detail.endswith("over 0 probes, 100 skipped")


def test_probe_checks_state_their_probe_counts():
    report = run_verification(ExperimentConfig(n=30, m=5, mc_samples=500))
    detail = {c.name: c.detail for c in report.checks}
    assert detail["worst_case_decomposition"].endswith("over 100 probes, 0 skipped")
    assert detail["derivative_bound"].endswith("over 20 probes, 0 skipped")


def test_verify_run_shares_one_nystrom_factor_and_batches_its_probes(monkeypatch):
    problems, factors, grams, kls = [], [], [], []
    post_init = bounds.SparseProblem.__post_init__

    def recording_post_init(self):
        post_init(self)
        problems.append(self)

    monkeypatch.setattr(bounds.SparseProblem, "__post_init__", recording_post_init)
    for name, mod in list(sys.modules.items()):
        if name.startswith("sparsegp") and hasattr(mod, "nystrom_factor"):
            fn = mod.nystrom_factor
            monkeypatch.setattr(
                mod, "nystrom_factor",
                lambda *args, fn=fn: factors.append(args) or fn(*args))
    count_member(monkeypatch, "kl", kls)
    gram = GaussianKernel.gram

    def recording_gram(self, A, B=None):
        grams.append(None)
        return gram(self, A, B)

    monkeypatch.setattr(GaussianKernel, "gram", recording_gram)
    report = run_verification(ExperimentConfig(n=400, m=24))
    assert [c.name for c in report.checks] == CHECK_NAMES
    assert len(problems) == 1
    assert len(factors) <= len(problems)
    assert len(kls) == 1
    assert len(grams) <= 100


def assert_factor_failures(monkeypatch, link):
    n = 30
    config = ExperimentConfig(n=n, m=5, mc_samples=500, ridge=None if link else 0.01)
    healthy = statuses(run_verification(config))
    refuse = [True]

    def failing(factor_spd):
        def factor(A, *args, **kwargs):
            if refuse and np.shape(A)[0] == n:
                raise FactorizationFailed("refused n x n factor")
            return factor_spd(A, *args, **kwargs)
        return factor

    patch_factors(monkeypatch, failing)
    # The factor of k_XX + s2 I is built at set-up, for the prior draw: when
    # it fails, the run reports one set-up error.
    report = run_verification(config)
    assert [c.to_dict() for c in report.checks] == [{
        "name": "setup", "status": "error",
        "detail": "FactorizationFailed: refused n x n factor"}]

    # Refuse only the n x n factors built after set-up: the q side, and the
    # k side of an unlinked ridge problem, in each check that reads them.
    refuse.clear()
    instance = make_problem(config)
    refuse.append(True)
    checks = verify_problem(*instance, config.seed)
    assert [c.name for c in checks] == CHECK_NAMES
    needs = Q_CHECKS if link else Q_CHECKS | RIDGE_K_CHECKS
    for check in checks:
        expected = "error" if check.name in needs else healthy[check.name]
        assert check.status == expected, (link, check.name, check.detail)
        if expected == "error":
            assert check.detail.startswith("FactorizationFailed")


def test_failed_n_by_n_factor_is_an_error_in_each_check_that_needs_it(monkeypatch):
    for link in (True, False):
        with monkeypatch.context() as patch:
            assert_factor_failures(patch, link)


@pytest.mark.parametrize("link", [True, False])
def test_ridge_side_shares_the_problem_only_when_linked(link):
    rng = np.random.default_rng(3)
    kernel = GaussianKernel(lengthscale=1.0)
    data = Dataset(rng.uniform(-3, 3, size=(20, 1)), rng.standard_normal(20))
    prob = bounds.SparseProblem(kernel, data, select_inducing(kernel, data, 4), 0.2)
    ridge = prob.ridge if link else 0.003
    ridge_prob = prob.at_ridge(ridge)
    assert (ridge_prob is prob) == link
    assert ridge_prob.ridge == pytest.approx(ridge, rel=1e-15)


@pytest.mark.parametrize("link", [True, False])
def test_verify_run_fits_the_sparse_ridge_once_per_problem(monkeypatch, link):
    fits, risks = [], []
    fit = bounds.fit_nystrom
    monkeypatch.setattr(bounds, "fit_nystrom", lambda *args: fits.append(args) or fit(*args))
    count_member(monkeypatch, "excess_risk", risks)
    config = ExperimentConfig(n=40, m=6, mc_samples=500, ridge=None if link else 0.003)
    report = run_verification(config)
    assert [c.name for c in report.checks] == CHECK_NAMES
    # The equivalence and psi checks read the noise-linked problem's fit;
    # the ridge-side checks read the ridge problem's, the same one when linked.
    assert len(fits) == (1 if link else 2)
    assert len(risks) == 1


@pytest.mark.parametrize("link", [True, False])
def test_verify_run_draws_one_monte_carlo_sample_per_problem(monkeypatch, link):
    # Both expected-value checks read the kept sample of their problem: each
    # problem reduces exactly mc_samples draws of n targets, from one
    # generator seeded with mc_seed; one problem when the ridge is linked,
    # two when it is not.
    seeds, generators = [], []
    default_rng = np.random.default_rng

    class CountingRng:
        """A generator that records the shape of each standard-normal draw."""

        def __init__(self, seed=None):
            seeds.append(seed)
            generators.append(self)
            self.seed, self.rng, self.draws = seed, default_rng(seed), []

        def __getattr__(self, name):
            return getattr(self.rng, name)

        def standard_normal(self, size=None, *args, **kwargs):
            z = self.rng.standard_normal(size, *args, **kwargs)
            self.draws.append(z.shape)
            return z

    monkeypatch.setattr(np.random, "default_rng", CountingRng)
    config = ExperimentConfig(n=40, m=6, mc_samples=500, ridge=None if link else 0.01)
    report = run_verification(config)
    assert [c.name for c in report.checks] == CHECK_NAMES
    problems = 1 if link else 2
    samples = [g.draws for g in generators if g.seed == config.seed + 4]
    assert all(shape[1] == 40 for draws in samples for shape in draws)
    assert [sum(shape[0] for shape in draws) for draws in samples] == [500] * problems
    assert seeds.count(config.seed + 4) == problems


@pytest.mark.parametrize("ridge, builds", [(None, 1), (0.01, 2)], ids=["linked", "ridge0.01"])
def test_verify_run_builds_the_training_features_once_per_q_pass(monkeypatch, ridge, builds):
    # nystrom_factor solves V = v(X) from the rows greedy selection kept, once
    # per inducing set; the SVGP functions and the Monte-Carlo quadratic
    # forms read the factor's V. Only q_gram, the explicit q pass's
    # independent side, builds V again: once per problem, and an unlinked
    # ridge adds a problem.
    config = ExperimentConfig(n=400, m=24, ridge=ridge)
    X = make_problem(config)[0].data.inputs
    on_training_inputs = []
    for mod in (nystrom, svgp):
        monkeypatch.setattr(mod, "_features", lambda ind, A, f=mod._features: (
            on_training_inputs.append(np.array_equal(A, X)) or f(ind, A)))
    report = run_verification(config)
    assert [c.name for c in report.checks] == CHECK_NAMES
    assert sum(on_training_inputs) == builds


def perturb_the_factors_features(monkeypatch, n):
    """Scale the V that nystrom_factor reads, and only that one, by
    1 + 1e-6: the k_ZZ factor's solve with an n-column right-hand side,
    called where that V is solved, from the selection's rows or from rows
    built over Z (q_gram's V is left as it is)."""
    lower_solve = nystrom.lower_solve

    def perturbed(F, B):
        out = lower_solve(F, B)
        if (sys._getframe(1).f_code.co_name in ("selection_features", "_factor_features")
                and np.ndim(B) == 2 and B.shape[1] == n):
            out = out * (1 + 1e-6)
        return out

    monkeypatch.setattr(nystrom, "lower_solve", perturbed)


@pytest.mark.parametrize("over", [{}, dict(n=400, m=24), dict(d=3, n=200, m=16)],
                         ids=["defaults", "n400", "d3"])
def test_a_wrong_factor_v_fails_the_checks_whose_other_side_never_reads_it(monkeypatch,
                                                                          over):
    # elbo_decomposition and fixed_point_solver read the factor's V on both
    # sides, so they certify the algebra for that V. The evidence side of
    # kl_two_path and the ridge fit of the equivalence check never read it.
    names = ("svgp_nystrom_equivalence", "kl_two_path")
    config = ExperimentConfig(**over)
    assert statuses(run_verification(config, names)) == dict.fromkeys(names, "pass")
    perturb_the_factors_features(monkeypatch, config.n)
    report = run_verification(config, names)
    assert [c.name for c in report.checks] == list(names)
    assert all(c.status != "pass" for c in report.checks), statuses(report)
