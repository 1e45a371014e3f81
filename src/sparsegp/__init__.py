"""Exact and sparse kernel regression with numerically certified
equivalences and error bounds.

Exact KRR / GP regression, the Nystrom restriction to a span of inducing
points, the sparse variational GP family with its closed-form optimum,
and the diagnostics (KL identities, trace-gap bounds, excess risk,
RKHS-distance and derivative bounds) that tie the two sides together.
"""

from .bounds import (BoundRecord, SparseProblem, burt_upper_bound,
                     derivative_gap_bounds, excess_risk_upper_bound,
                     expected_excess_risk_lower_bound, expected_kl_sandwich,
                     quadratic_form_gap_bound, rkhs_distance_bound,
                     rkhs_distance_sq, worst_case_decompositions)
from .data import (Dataset, load_csv, synth_fixed_function_dataset,
                   synth_prior_dataset, write_csv)
from .exact import GpPosterior, fit_gpr, fit_krr, regularized_risk
from .harness import (ExperimentConfig, VerificationReport, emit_report,
                      run_verification)
from .kernels import (GaussianKernel, Kernel, KernelExpansion, PolynomialKernel,
                      make_kernel)
from .linalg import SpdFactor, factor_spd, logdet, operator_norm, solve
from .nystrom import (InducingSet, NystromFactor, fit_nystrom, make_inducing,
                      nystrom_factor, q_diag, q_gram, select_inducing, trace_gap)
from .svgp import (ElboBreakdown, SvgpState, elbo, elbo_breakdown, elbos,
                   feature_map_phi, make_state, optimal_parameters,
                   psi_forward, psi_inverse, stationarity_residual)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
