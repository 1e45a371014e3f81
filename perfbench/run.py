#!/usr/bin/env python3
"""sparsegp benchmark: closed-loop, single-client runs of one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify-mid --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

With ``--trace 0`` a run measures the end-to-end metrics with tracing off.
With ``--trace 1`` it runs half its time untraced and half under the
outside-in tracer (perfbench/tracer.py) and reports per-layer metrics and
the tracing overhead. ``--workload all`` runs every workload, each in its
own process. The library is imported from ``src/`` of the checkout.

Every op's output is checked; the run prints a table of metrics with
units and sample counts, then one JSON result line, and exits 1 if any
check failed. See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import NoReturn

from tracer import CHECK_NAMES, PER_LAYER, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / ".work"
WORKLOAD_NAMES = ("verify-small", "verify-mid", "fit-svgp")
SETUP_SAMPLES = 5  # fresh-process set-ups per run; setup_s is their median
TAIL_BEYOND = 10  # op_s.tail has at least this many samples above it
PROBE_TIMEOUT_S = 60  # one set-up takes a few seconds; a run must end in 180 s
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def fail(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def cap_blas_threads() -> int:
    """Cap BLAS threads at the CPUs this process may use; must run before
    numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        os.environ[var] = str(nproc)
    return nproc


def import_sparsegp() -> None:
    """Import the library from the checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import sparsegp
        import sparsegp.cli  # noqa: F401
    except ImportError as exc:
        fail(f"cannot import sparsegp from {SRC}: {exc}")
    if not Path(sparsegp.__file__).resolve().is_relative_to(SRC.resolve()):
        fail(f"imported sparsegp from {sparsegp.__file__}, not from {SRC}")


# -- environment stamp -------------------------------------------------------

def blas_threads_applied() -> dict:
    """Thread count each loaded OpenBLAS reports, keyed by package."""
    import ctypes

    import numpy
    import scipy

    out = {}
    for pkg in (numpy, scipy):
        libdir = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(libdir.glob("*openblas*")):
            handle = ctypes.CDLL(str(lib))
            for sym in ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    out[pkg.__name__] = fn()
                    break
    return out


def git_commit() -> str:
    """HEAD of the checkout's own .git, or "unknown" without one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    import hashlib

    h = hashlib.sha256()
    for path in sorted((SRC / "sparsegp").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def env_stamp(nproc: int) -> dict:
    import platform

    import numpy
    import scipy

    return {
        "nproc": nproc,
        "blas_threads_cap": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "blas_threads_applied": blas_threads_applied(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": os.uname().machine,
        "commit": git_commit(),
        "source_sha256": source_digest(),
    }


# -- measurement ---------------------------------------------------------------

class Phase:
    """Op timings and failures of one closed-loop phase."""

    def __init__(self):
        self.times: list[float] = []
        self.failures: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.times)


def run_op(wl, inputs, i: int, phase: Phase) -> None:
    start = time.perf_counter()
    try:
        out = wl.op(inputs, i)
    except Exception:  # an op that raises is a failed op, not a crash
        phase.times.append(time.perf_counter() - start)
        phase.failures.append(f"op {i} raised:\n{traceback.format_exc()}")
        return
    phase.times.append(time.perf_counter() - start)
    problem = wl.check(inputs, i, out)
    if problem is not None:
        phase.failures.append(f"op {i}: {problem}")


def closed_loop(wl, inputs, seconds: float, first: int, phase: Phase,
                tracer=None) -> None:
    """Run ops first, first+1, ... back to back until `seconds` have passed
    and every pool entry has run at least once. Op i uses entry i % pool."""
    i = first
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or i < first + wl.pool:
        run_op(wl, inputs, i, phase)
        if tracer is not None:
            tracer.end_op(i % wl.pool)
        i += 1


def tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile that
    keeps TAIL_BEYOND samples above it, but never below the median."""
    ordered = sorted(times)
    n = len(ordered)
    k = max(n - TAIL_BEYOND - 1, n // 2)  # n // 2: never below the median
    return ordered[k], 100.0 * (k + 1) / n, n - 1 - k


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- set-up --------------------------------------------------------------------

def setup_probe(args) -> None:
    """One fresh-process set-up: import, inputs, one untimed warm-up op.

    Prints {"setup_s", "csv"} as JSON; the main run reuses the CSV."""
    start = time.perf_counter()
    import_sparsegp()
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    workdir = Path(args.workdir)
    inputs = wl.make_inputs(args.seed, workdir)
    wl.op(inputs, 0)  # checked by the main run, whose ops see the same inputs
    elapsed = time.perf_counter() - start
    print(json.dumps({"setup_s": elapsed,
                      "csv": str(getattr(inputs, "csv_path", ""))}))


def fresh_setups(args, workdir: Path) -> tuple[list[float], str | None]:
    """Run SETUP_SAMPLES set-ups in fresh processes, one after another.

    Returns their times and the CSV the first one wrote (fit workloads);
    every probe must write byte-identical inputs for the same seed."""
    times, csvs = [], []
    for k in range(SETUP_SAMPLES):
        probe_dir = workdir / f"setup{k}"
        probe_dir.mkdir(parents=True)
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed),
               "--workdir", str(probe_dir)]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=PROBE_TIMEOUT_S, cwd=ROOT)
        except subprocess.TimeoutExpired:
            fail(f"set-up probe {k} took longer than {PROBE_TIMEOUT_S} s")
        if proc.returncode != 0:
            fail(f"set-up probe {k} exited {proc.returncode}:\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append(result["setup_s"])
        csvs.append(result["csv"])
    if csvs[0]:
        first = Path(csvs[0]).read_bytes()
        if any(Path(c).read_bytes() != first for c in csvs[1:]):
            fail("set-up probes wrote different CSVs for the same seed")
        return times, csvs[0]
    return times, None


# -- reporting -----------------------------------------------------------------

def table_row(name, value, unit, samples, note="") -> str:
    return f"  {name:44s} {value:>14.6g} {unit:9s} {samples:>7} {note}"


def check_fail_summary(inputs) -> tuple[str, int, int]:
    """Over the distinct configs run: (note, failed + errored, checks run)."""
    statuses = [s for per_config in inputs.statuses.values() for s in per_config]
    bad = sum(s in ("fail", "error") for s in statuses)
    skipped = sum(s == "skipped" for s in statuses)
    failing = sorted({name for per_config in inputs.statuses.values()
                      for name, s in zip(CHECK_NAMES, per_config)
                      if s in ("fail", "error")})
    note = (f"{bad} fail/error, {skipped} skipped of {len(statuses)} checks over "
            f"{len(inputs.statuses)} configs" + (f"; failing: {', '.join(failing)}"
                                                 if failing else ""))
    return note, bad, len(statuses)


def measure(args, wl, stamp: dict) -> dict:
    """--trace 0: fresh-process set-ups, then the timed closed loop."""
    workdir = WORK / f"{wl.name}-{args.seed}-{os.getpid()}"
    setup_times, csv = fresh_setups(args, workdir)
    inputs = wl.make_inputs(args.seed, workdir, csv_path=csv)
    wl.add_reference(inputs)
    phase = Phase()
    run_op(wl, inputs, 0, phase)  # untimed warm-up in this process
    closed_loop(wl, inputs, args.seconds, 1, phase)
    timed = phase.times[1:]
    value, pct, beyond = tail(timed)
    n_ops = len(timed)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s", len(setup_times),
                    f"median of {len(setup_times)} fresh-process set-ups"),
        "op_s.p50": (statistics.median(timed), "s", n_ops, ""),
        "op_s.tail": (value, "s", n_ops, f"p{pct:.1f}, {beyond} samples beyond"),
        "ops_per_s": (n_ops / sum(timed), "1/s", n_ops,
                      f"n={wl.n} m={wl.m} d={wl.d}"),
        "peak_rss_mb": (peak_rss_mb(), "MB", 1, "main process"),
    }
    extra = {"fail_frac": (len(phase.failures) / phase.attempted, "ratio",
                           phase.attempted,
                           f"{len(phase.failures)} of {phase.attempted} ops")}
    if hasattr(inputs, "statuses"):
        note, bad, total = check_fail_summary(inputs)
        extra["check_fail_frac"] = (bad / total, "ratio", total, note)
    return finish(args, wl, stamp, phase, metrics, extra, [])


def trace(args, wl, stamp: dict) -> dict:
    """--trace 1: traced set-up, untraced half, traced half."""
    workdir = WORK / f"{wl.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    phase = Phase()
    # The set-up tracer spans input generation and the warm-up op, not the
    # benchmark's own reference computation between them.
    setup_tracer = Tracer(wl.n, wl.m)
    with setup_tracer:
        inputs = wl.make_inputs(args.seed, workdir)
    restored = setup_tracer.restored_cleanly()
    wl.add_reference(inputs)
    with setup_tracer:
        run_op(wl, inputs, 0, phase)
    restored = restored and setup_tracer.restored_cleanly()
    untraced = Phase()
    closed_loop(wl, inputs, args.seconds / 2, 1, untraced)
    # Check times of the untraced ops only; entry 0 is the traced warm-up.
    check_seconds = getattr(inputs, "check_seconds", [])[1:]
    # Every pool entry has now run untraced, so each traced output is
    # compared byte for byte with an untraced one.
    traced = Phase()
    with Tracer(wl.n, wl.m) as tracer:
        closed_loop(wl, inputs, args.seconds / 2, 0, traced, tracer)
    problems = [] if restored and tracer.restored_cleanly() else [
        "the tracer left library attributes rebound"]
    for p in (untraced, traced):
        phase.times += p.times
        phase.failures += p.failures

    values = tracer.metrics()
    for key in ("data.synth_prior_dataset", "data.load_csv", "data.write_csv"):
        values[f"setup.{key}.self_s"] = setup_tracer.self_s.get(key, 0.0)
    for name in CHECK_NAMES:
        values[f"harness.check.{name}.s"] = (
            statistics.fmean(c[name] for c in check_seconds) if check_seconds else 0.0)
    statuses = list(getattr(inputs, "statuses", {}).values())
    for key, match in (("failed", ("fail",)), ("errored", ("error",)),
                       ("skipped", ("skipped",))):
        values[f"harness.checks.{key}"] = (
            statistics.fmean(sum(s in match for s in per) for per in statuses)
            if statuses else 0.0)
    traced_p50 = statistics.median(traced.times)
    values["trace.op_s.p50"] = traced_p50
    values["trace.overhead"] = traced_p50 / statistics.median(untraced.times)
    metrics = {name: (values[name], unit, tracer.ops, "") for name, unit in PER_LAYER}
    metrics["trace.overhead"] = (values["trace.overhead"], "ratio", tracer.ops,
                                 f"traced p50 over untraced p50 "
                                 f"({len(untraced.times)} untraced ops)")
    return finish(args, wl, stamp, phase, metrics, {}, problems)


def finish(args, wl, stamp, phase, metrics, extra, problems) -> dict:
    """Print the table and the result line; `metrics` are the contract
    metrics, `extra` are printed only, `problems` fail the run as a whole."""
    print(f"workload {wl.name}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in stamp.items()))
    print(f"  {'metric':44s} {'value':>14s} {'unit':9s} {'samples':>7} note")
    for name, (value, unit, samples, note) in {**metrics, **extra}.items():
        print(table_row(name, value, unit, samples, note))
    for failure in phase.failures + problems:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    correct = not (phase.failures or problems)
    if not correct:
        print(f"perfbench: {len(phase.failures)} of {phase.attempted} ops failed "
              f"their output checks; {len(problems)} run-level problem(s)",
              file=sys.stderr)
    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": stamp, "correct": correct,
        "attempted": phase.attempted, "failed": len(phase.failures),
        "problems": problems,
        "metrics": {k: {"value": v[0], "unit": v[1], "samples": v[2], "note": v[3]}
                    for k, v in {**metrics, **extra}.items()},
    }
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": correct, "attempted": phase.attempted,
        "failed": len(phase.failures),
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()},
    }))
    return record


def run_all(args) -> int:
    """Each workload in its own process; exit 1 unless all are correct."""
    ok = True
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.out:
            cmd += ["--out", f"{args.out}.{name}.json"]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=180 + 2 * args.seconds)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        ok = ok and proc.returncode == 0 and bool(lines) and json.loads(lines[-1])["correct"]
    if not ok:
        print("perfbench: a workload failed its output checks or did not run",
              file=sys.stderr)
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", help="also write the full result record (JSON) here; "
                        "with --workload all, to OUT.<workload>.json")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    nproc = cap_blas_threads()
    if args.setup_probe:
        setup_probe(args)
        return 0
    if args.workload == "all":
        return run_all(args)
    import_sparsegp()
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    stamp = env_stamp(nproc)
    try:
        record = (trace if args.trace else measure)(args, wl, stamp)
    finally:
        shutil.rmtree(WORK / f"{wl.name}-{args.seed}-{os.getpid()}", ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
