"""Watch the a-priori error bounds track the true quantities.

For a fixed instance and a growing inducing set, prints the actual KL
divergence to the exact posterior and the actual excess regularized risk
next to their computable upper bounds.  Run with:
python3 demos/bounds_in_practice.py
"""

import numpy as np

from sparsegp import (Dataset, GaussianKernel, SparseProblem, burt_upper_bound,
                      excess_risk_upper_bound, select_inducing,
                      synth_prior_dataset)


def main():
    kernel = GaussianKernel(lengthscale=1.0)
    rng = np.random.default_rng(7)
    X = rng.uniform(-3, 3, size=(80, 1))
    s2 = 0.25
    data = synth_prior_dataset(kernel, X, noise_var=s2, seed=8)
    y = data.targets * min(1.0, 10.0 / np.linalg.norm(data.targets))
    data = Dataset(X, y)

    print(f"{'m':>4} {'KL':>11} {'2KL tight':>11} {'2KL loose':>11} "
          f"{'excess':>11} {'excess bnd':>11}")
    for m in (2, 4, 8, 12, 16, 24):
        ind = select_inducing(kernel, data, m, strategy="greedy_trace")
        # one problem per inducing set; the ridge side reads ridge = s2 / n
        prob = SparseProblem(kernel, data, ind, s2)
        loose, tight = burt_upper_bound(prob)
        excess = excess_risk_upper_bound(prob)
        print(f"{m:>4} {prob.kl:>11.3e} {tight.rhs:>11.3e} {loose.rhs:>11.3e} "
              f"{excess.lhs:>11.3e} {excess.rhs:>11.3e}")

    print("\nThe bounds are conservative but share the decay rate of the")
    print("true quantities; both are driven by the trace of k - q.")


if __name__ == "__main__":
    main()
