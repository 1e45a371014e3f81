"""Take the evidence lower bound apart term by term.

Builds a variational state, splits -2 s2 * ELBO into its exact pieces
there and at the closed-form optimum, where their sum meets the factor's
determinant-lemma ELBO, and shows that the optimum makes the bound tight
up to the trace penalty. Every piece is read on the Nystrom features
v(x) = L_Z^{-1} k_Z(x); the optimum (mu*, Sigma*) and its closed-form ELBO
come from one whitened factor.  Run with: python3 demos/elbo_anatomy.py
"""

import numpy as np

from sparsegp import (Dataset, GaussianKernel, elbo, elbo_breakdown, fit_gpr,
                      make_state, nystrom_factor, optimal_parameters,
                      select_inducing, synth_prior_dataset, trace_gap)


def main():
    kernel = GaussianKernel(lengthscale=1.0)
    rng = np.random.default_rng(3)
    X = rng.uniform(-3, 3, size=(60, 1))
    s2 = 0.3
    data = synth_prior_dataset(kernel, X, noise_var=s2, seed=4)
    y = data.targets * min(1.0, 10.0 / np.linalg.norm(data.targets))
    data = Dataset(X, y)
    ind = select_inducing(kernel, data, 8, strategy="greedy_trace")

    # an arbitrary (far from optimal) variational state
    mu = rng.standard_normal(8)
    A = rng.standard_normal((8, 8))
    state = make_state(ind, mu, A @ A.T + 0.1 * np.eye(8))
    fac = nystrom_factor(kernel, data, ind, s2)
    star = optimal_parameters(fac)
    br, br_star = elbo_breakdown(fac, state), elbo_breakdown(fac, star)

    print(f"{'pieces of -2 s2 * ELBO':37s}{'random state':>14s}  {'optimum':>10s}")
    for label, field in (("squared errors + s2 * fit norm  ", "fit_plus_norm"),
                         ("Sigma-induced predictive spread ", "sigma_quadratic"),
                         ("2 s2 * KL(N(mu,Sigma) || prior) ", "kl_regularizer"),
                         ("residual trace k - q            ", "residual_trace"),
                         ("Gaussian normalization          ", "normalization")):
        print(f"  {label}  {getattr(br, field):14.6f}  {getattr(br_star, field):10.6f}")
    print(f"  sum of pieces                     {br.term_sum():14.6f}  {br_star.term_sum():10.6f}")
    print(f"  -2 s2 * closed-form ELBO          {'':14s}  {-2 * s2 * fac.elbo:10.6f}")

    evidence = fit_gpr(kernel, data, s2).log_evidence()
    best = elbo(fac, star)
    print(f"\nevidence                 {evidence:12.6f}")
    print(f"ELBO at random state     {elbo(fac, state):12.6f}")
    print(f"ELBO at closed form      {best:12.6f}")
    print(f"closed-form expression   {fac.elbo:12.6f}")
    t = trace_gap(ind, data.inputs)
    print(f"\nremaining slack {evidence - best:.6f} is controlled by the trace")
    print(f"gap {t:.6f}: with all n points inducing, the slack is exactly 0.")


if __name__ == "__main__":
    main()
