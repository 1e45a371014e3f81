"""Outside-in tracer for the sparsegp layers.

The tracer never edits the library. It rebinds, for the duration of a
``with Tracer(...)`` block, every public function of each layer module in
every ``sparsegp`` namespace that holds a reference to it, plus
``GaussianKernel.gram`` and ``PolynomialKernel.gram`` on their classes.
On exit it puts every original object back and checks that it did.

Each wrapper records a span: calls, total time and self time (the span's
duration minus the time its child spans cover). Observers attached to a
few functions count work by shape class and, for n x n matrices, by
content hash. Observer time is excluded from every span's self time, so
hashing shows up only in the traced op's wall time (the tracing overhead).
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("kernels", "linalg", "data", "exact", "nystrom", "svgp", "bounds",
          "harness", "cli")
KERNEL_CLASSES = ("GaussianKernel", "PolynomialKernel")

# Public bound functions of sparsegp.bounds, reported as calls and self time.
BOUND_FUNCTIONS = (
    "gap_diagnostics", "kl_to_exact_posterior", "burt_upper_bound",
    "quadratic_form_gap_bound", "excess_risk", "excess_risk_upper_bound",
    "rkhs_distance_sq", "rkhs_distance_bound", "derivative_gap_bound",
    "worst_case_decomposition", "worst_case_residual", "expected_kl_sandwich",
    "expected_excess_risk_lower_bound",
)

# The checks run_verification records, in report order.
CHECK_NAMES = (
    "svgp_nystrom_equivalence", "nystrom_two_routes", "elbo_decomposition",
    "psi_maps_mu_star_to_beta", "elbo_optimality_probes", "kl_two_path",
    "fixed_point_solver", "burt_bound", "burt_bound_intermediate",
    "quadratic_form_gap", "excess_risk_identity", "excess_risk_bound",
    "rkhs_distance_bound", "derivative_bound", "worst_case_decomposition",
    "expected_kl_sandwich", "expected_excess_risk_lower_bound",
)

PER_OP_COUNT = "count/op"
PER_OP_TIME = "s/op"


def _spans(*specs):
    """Expand ("layer.fn", ("calls", "self_s", ...)) into metric names."""
    out = []
    for name, fields in specs:
        for f in fields:
            unit = PER_OP_TIME if f == "self_s" else PER_OP_COUNT
            out.append((f"{name}.{f}", unit))
    return out


# Every per-layer metric the traced run reports, in report order. Counts
# and times are per op, so they do not depend on how many ops a run made.
PER_LAYER = (
    _spans(("kernels.gram", ("calls", "self_s", "nn_calls", "nm_calls",
                             "small_calls", "nn_distinct")))
    + [("kernels.gram.mbytes", "MB/op")]
    + _spans(("linalg.factor_spd", ("calls", "self_s", "nn_calls", "nn_distinct",
                                    "mm_calls", "jittered", "failed")))
    + [("linalg.factor_spd.gflop", "GFLOP/op")]
    + _spans(("linalg.solve", ("calls", "self_s")),
             ("linalg.operator_norm", ("calls", "self_s")),
             ("data.synth_prior_dataset", ("self_s",)),
             ("data.load_csv", ("self_s",)),
             ("data.write_csv", ("self_s",)))
    # The same three spans over the traced set-up (inputs + warm-up op).
    + [(f"setup.data.{fn}.self_s", "s")
       for fn in ("synth_prior_dataset", "load_csv", "write_csv")]
    + _spans(("exact.fit_gpr", ("calls", "self_s")),
             ("exact.fit_krr", ("calls", "self_s")),
             ("exact.log_marginal_likelihood", ("calls", "self_s")),
             ("nystrom.select_inducing", ("self_s",)),
             ("nystrom.q_gram", ("calls", "nn_calls", "self_s")),
             ("nystrom.dtc_posterior", ("calls",)),
             ("nystrom.trace_gap", ("calls", "self_s")),
             ("nystrom.fit_nystrom", ("calls",)),
             ("svgp.optimal_posterior", ("calls", "self_s")),
             ("svgp.closure", ("calls", "self_s")),
             ("svgp.optimal_parameters", ("calls",)),
             ("svgp.optimal_elbo", ("calls", "self_s")),
             ("svgp.elbo", ("calls",)),
             ("svgp.make_state", ("calls",)),
             *((f"bounds.{fn}", ("calls", "self_s")) for fn in BOUND_FUNCTIONS))
    + [(f"harness.check.{name}.s", PER_OP_TIME) for name in CHECK_NAMES]
    + [(f"harness.checks.{s}", PER_OP_COUNT) for s in ("failed", "errored", "skipped")]
    + [("cli.self_s", PER_OP_TIME),
       ("trace.op_s.p50", "s"),
       ("trace.overhead", "ratio")]
)


def content_key(a) -> tuple:
    """Shape plus a SHA-256 digest of the array's bytes."""
    import numpy as np

    a = np.ascontiguousarray(a)
    return a.shape, hashlib.sha256(a.view(np.uint8)).digest()


class Tracer:
    """Rebinds the library's public functions to span-recording wrappers.

    ``n`` and ``m`` are the workload's data size and inducing count; they
    define the shape classes (n x n, n x m, m x m) the observers count.
    """

    def __init__(self, n: int, m: int):
        self.n = n
        self.m = m
        self.self_s = defaultdict(float)  # summed over all ops
        self.ops = 0
        # Counts of the op in progress, then of the first op of each input.
        self.counts = defaultdict(float)
        self.counts_by_input: dict[object, dict] = {}
        self._stack: list[float] = []
        self._distinct: dict[str, set] = defaultdict(set)
        self._rebound: list[tuple[object, str, object]] = []
        self._snapshot: list[tuple[object, dict]] = []

    # -- spans ------------------------------------------------------------

    def wrap(self, name: str, fn, observe=None, transform=None):
        """Return fn wrapped in a span called `name`.

        observe(args, result, exc) counts work after the span closes;
        transform(result) may replace the result (used to wrap closures).
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(name, start, args, None, exc, observe, None)
                raise
            return tracer._close(name, start, args, result, None, observe, transform)

        return traced

    def _close(self, name, start, args, result, exc, observe, transform):
        elapsed = time.perf_counter() - start
        child = self._stack.pop()
        self.counts[f"{name}.calls"] += 1
        self.self_s[name] += elapsed - child
        t_obs = time.perf_counter()
        if observe is not None:
            observe(args, result, exc)
        if transform is not None:
            result = transform(result)
        if self._stack:
            self._stack[-1] += elapsed + (time.perf_counter() - t_obs)
        return result

    def _distinct_add(self, key: str, array) -> None:
        self._distinct[key].add(content_key(array))

    def _observe_gram(self, args, result, exc):
        if result is None:
            return
        dims = [d == self.n for d in result.shape]
        if all(dims):
            self.counts["kernels.gram.nn_calls"] += 1
            self._distinct_add("kernels.gram.nn_distinct", result)
        elif any(dims):
            self.counts["kernels.gram.nm_calls"] += 1
        else:
            self.counts["kernels.gram.small_calls"] += 1
        self.counts["kernels.gram.mbytes"] += result.nbytes / 1e6

    def _observe_factor(self, args, result, exc):
        import numpy as np

        A = np.asarray(args[0], dtype=float)
        dim = A.shape[0]
        if dim == self.n:
            self.counts["linalg.factor_spd.nn_calls"] += 1
            self._distinct_add("linalg.factor_spd.nn_distinct", A)
        elif dim == self.m:
            self.counts["linalg.factor_spd.mm_calls"] += 1
        if exc is not None:
            self.counts["linalg.factor_spd.failed"] += 1
        elif result.jitter_used > 0:
            self.counts["linalg.factor_spd.jittered"] += 1
        self.counts["linalg.factor_spd.gflop"] += dim**3 / 3.0 / 1e9

    def _observe_q_gram(self, args, result, exc):
        if result is not None and result.shape == (self.n, self.n):
            self.counts["nystrom.q_gram.nn_calls"] += 1

    def _wrap_closures(self, pair):
        return tuple(self.wrap("svgp.closure", f) for f in pair)

    def _wrapper_for(self, layer: str, attr: str, fn):
        name = f"{layer}.{attr}"
        if name == "linalg.factor_spd":
            return self.wrap(name, fn, observe=self._observe_factor)
        if name == "nystrom.q_gram":
            return self.wrap(name, fn, observe=self._observe_q_gram)
        if name == "svgp.optimal_posterior":
            return self.wrap(name, fn, transform=self._wrap_closures)
        return self.wrap(name, fn)

    # -- install / restore ------------------------------------------------

    @staticmethod
    def _namespaces():
        """The package and its modules, and the kernel classes."""
        mods = [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == "sparsegp" or name.startswith("sparsegp."))]
        kernels = sys.modules["sparsegp.kernels"]
        return mods, [getattr(kernels, c) for c in KERNEL_CLASSES]

    def __enter__(self):
        mods, classes = self._namespaces()
        self._snapshot = [(ns, dict(vars(ns))) for ns in [*mods, *classes]]
        replacement = {}
        for layer in LAYERS:
            mod = sys.modules[f"sparsegp.{layer}"]
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                replacement[id(obj)] = (obj, self._wrapper_for(layer, attr, obj))
        for ns in mods:
            for attr, obj in list(vars(ns).items()):
                hit = replacement.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._rebound.append((ns, attr, obj))
                    setattr(ns, attr, hit[1])
        for cls in classes:
            gram = cls.__dict__["gram"]
            self._rebound.append((cls, "gram", gram))
            setattr(cls, "gram", self.wrap("kernels.gram", gram,
                                           observe=self._observe_gram))
        return self

    def __exit__(self, *exc_info):
        self.restore()
        return False

    def restore(self) -> None:
        for ns, attr, obj in reversed(self._rebound):
            setattr(ns, attr, obj)
        self._rebound.clear()

    def restored_cleanly(self) -> bool:
        """True when every namespace holds exactly the objects it held
        before the tracer was installed."""
        for ns, before in self._snapshot:
            now = vars(ns)
            for key in set(before) | set(now):
                if key.startswith("__"):
                    continue
                if key not in now or key not in before or now[key] is not before[key]:
                    return False
        return bool(self._snapshot)

    # -- per-op accounting ----------------------------------------------

    def end_op(self, input_key) -> None:
        """Close one op on the input `input_key`.

        Counts are kept from the first op on each input only: they are
        deterministic per input, so their mean over inputs repeats exactly
        however many ops a run fits in."""
        self.ops += 1
        for key, seen in self._distinct.items():
            self.counts[key] = len(seen)
        self._distinct.clear()
        self.counts_by_input.setdefault(input_key, dict(self.counts))
        self.counts.clear()

    def metrics(self) -> dict[str, float]:
        """Per-op values for the span and count metrics of PER_LAYER."""
        ops = max(self.ops, 1)
        inputs = list(self.counts_by_input.values()) or [{}]
        out = {}
        for name, _ in PER_LAYER:
            if name.startswith(("harness.", "trace.", "setup.")):
                continue
            if name == "cli.self_s":
                total = sum(v for k, v in self.self_s.items() if k.startswith("cli."))
                out[name] = total / ops
            elif name.endswith(".self_s"):
                out[name] = self.self_s.get(name[: -len(".self_s")], 0.0) / ops
            else:
                out[name] = sum(c.get(name, 0) for c in inputs) / len(inputs)
        return out
