"""One fresh process of the benchmark.

    python3 bench/worker.py --src SRC --workload NAME --passes N
                            [--trace SPANS_FILE]

Imports parapost from SRC and builds the workload's configs (timed as set-up),
runs N passes with tracing off, timing each, and checks every result.  Set-up
and pass times are also given at the reference speed (see reference_kernel).
With --trace it then runs one traced pass, writes its spans to SPANS_FILE,
and runs one memory pass under tracemalloc.  Prints one JSON object as the last
line of standard output.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import spans
import workloads


# About the reference kernel's time, in seconds, on the reference machine
# when it ran fastest (bench/README.md).  A pass timed at that speed reads
# about the same scaled as measured.
REFERENCE_KERNEL_S = 0.04


def reference_kernel():
    """Time a fixed piece of work shaped like parapost's hot loop: the
    element loop of a 1D finite-element load assembly, in plain numpy and
    independent of parapost.  On a shared machine the time of such work
    drifts by tens of percent over minutes; this kernel's time, taken next
    to each experiment, tracks that drift so that it can be divided out."""
    # Imported here, not at the top: set-up time includes numpy's import.
    import numpy as np
    s = np.linspace(-1.0, 1.0, 10)
    w = np.full(10, 0.2)
    basis = np.cos(np.outer(np.arange(4), s))
    out = np.zeros(203)
    t = time.perf_counter()
    for rep in range(24):
        for e in range(200):
            x = 0.005 * (e + 0.5) + 0.0025 * s
            fx = np.sin(np.pi * x) * np.cos(0.1 * rep)
            contrib = basis @ (w * fx) * 0.005
            for j in range(4):
                out[e + j] += contrib[j]
    return time.perf_counter() - t


def timed_pass(harness, configs):
    """One untraced pass: (records, wall seconds, seconds at the reference
    speed, kernel times).  The reference kernel runs before the first
    experiment and after each one, outside the timed calls; each
    experiment's time is scaled by REFERENCE_KERNEL_S over the mean of the
    kernel times on either side."""
    kernel = [reference_kernel()]
    records, wall_s, ref_s = [], 0.0, 0.0
    for cfg in configs:
        t = time.perf_counter()
        records.append(workloads.run_one(harness, cfg))
        dt = time.perf_counter() - t
        kernel.append(reference_kernel())
        wall_s += dt
        ref_s += dt * REFERENCE_KERNEL_S / (0.5 * (kernel[-2] + kernel[-1]))
    return records, wall_s, ref_s, kernel


class Checker:
    """Checks every pass's records and keeps per-experiment counts."""

    def __init__(self, workload, problems):
        self.experiments = workloads.experiments(workload)
        self.problems = list(problems)
        self.attempted = self.failed = 0
        self.rows = {label: {"attempted": 0, "failed": 0}
                     for label, _ in self.experiments}
        self.first = {}  # label -> (component bit patterns, summary)

    def add(self, records, pass_name):
        for (label, cfg), (rec, error) in zip(self.experiments, records):
            row = self.rows[label]
            row["attempted"] += 1
            self.attempted += 1
            if rec is None:
                # A raising experiment shortens the pass, so it must not
                # pass as a faster correct run.
                row["failed"] += 1
                self.failed += 1
                self.problems.append(f"{label} ({pass_name} pass): {error}")
                continue
            problems, gamma = workloads.check(rec, cfg)
            bits = tuple(float(v).hex() for v in rec.components.values())
            if label not in self.first:
                self.first[label] = (bits, workloads.summary(rec, gamma))
            elif bits != self.first[label][0]:
                problems.append("components differ from the first pass")
            self.problems += [f"{label} ({pass_name} pass): {p}"
                              for p in problems]

    def experiment_records(self):
        return {label: dict(self.first.get(label, (None, {}))[1], **row)
                for label, row in self.rows.items()}


def blas_threads():
    """Thread count of every OpenBLAS loaded in this process, by library."""
    import ctypes
    paths = sorted({line.split()[-1] for line in open("/proc/self/maps")
                    if "openblas" in line.lower() and ".so" in line})
    out = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads",
                     "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = fn()
                break
    return out


def environment():
    import numpy
    import scipy
    return {
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "blas_env": {k: os.environ[k] for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ},
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--passes", type=int, required=True)
    ap.add_argument("--trace")
    args = ap.parse_args()

    t0 = time.perf_counter()
    sys.path.insert(0, args.src)
    import parapost
    from parapost import harness
    configs, problems = workloads.setup(harness, args.workload)
    setup_s = time.perf_counter() - t0
    if Path(parapost.__file__).resolve().parent.parent != Path(args.src).resolve():
        sys.exit(f"parapost imported from {parapost.__file__}, not {args.src}")

    # Set-up is scaled by the kernel times right after it; the first call
    # of the kernel also pays numpy's first-call costs, hence the median.
    kernel_s = [reference_kernel() for _ in range(3)]
    ref_setup_s = setup_s * REFERENCE_KERNEL_S / statistics.median(kernel_s)

    checker = Checker(args.workload, problems)
    pass_s, ref_pass_s = [], []
    for k in range(args.passes):
        records, wall_s, ref_s, kernel = timed_pass(harness, configs)
        pass_s.append(wall_s)
        ref_pass_s.append(ref_s)
        kernel_s += kernel
        checker.add(records, f"untraced {k + 1}")
        del records

    out = {"setup_s": setup_s, "ref_setup_s": ref_setup_s,
           "pass_s": pass_s, "ref_pass_s": ref_pass_s,
           "kernel_s": statistics.median(kernel_s),
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if args.trace:
        tracer = spans.Tracer(parapost)
        tracer.run_id = f"{args.workload}-{os.getpid()}"
        root = tracer.wrap("bench.pass", workloads.run_pass)
        with tracer:
            t = time.perf_counter()
            records = root(harness, configs)
            traced_s = time.perf_counter() - t
        checker.add(records, "traced")
        del records
        tracer.write(args.trace)
        out["layers"] = dict(spans.layer_metrics(tracer.spans, 0),
                             **{"trace.missing_hooks": len(tracer.missing),
                                "trace.pass_s": traced_s})
        out["missing_hooks"] = tracer.missing
        del tracer, root

        # Memory still held once every record of a pass is dropped.  Kept
        # apart from the timed passes: tracemalloc slows a pass several-fold.
        gc.collect()
        tracemalloc.start()
        base = tracemalloc.get_traced_memory()[0]
        workloads.run_pass(harness, configs)
        gc.collect()
        out["layers"]["harness.retained_kb"] = (
            tracemalloc.get_traced_memory()[0] - base) / 1024
        tracemalloc.stop()

    out.update(attempted=checker.attempted, failed=checker.failed,
               problems=checker.problems,
               experiments=checker.experiment_records(),
               environment=environment())
    print(json.dumps(out))


if __name__ == "__main__":
    main()
