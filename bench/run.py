"""parapost benchmark: one workload, end-to-end or per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; parapost is imported from its src/.

--trace 0 starts fresh worker processes one after another, for at least S
seconds and at least MIN_WORKERS workers.  Each imports parapost, builds the
workload's configs and runs PASSES passes; SETUP_ONLY more workers only set
up.  It prints the end-to-end metrics: the median set-up time over all
workers and the mean first and later pass over those that run passes, in
seconds at the reference speed (worker.reference_kernel), and their mean
peak RSS.

--trace 1 runs one worker that adds a traced pass and a memory pass after
two untraced passes, writes the spans to .bench_out/, and prints the
per-layer metrics.

The workloads' inputs are fixed registry configs, so --seed changes nothing
and is only echoed.  Every line but the last records the environment and
each experiment's components and effectivity; the last line is the result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PASSES = 2        # per worker: the first pass and one later pass
MIN_WORKERS = 2
SETUP_ONLY = 6
TIME_LIMIT = 170  # seconds for the whole run
# One BLAS thread per worker: on a 2-core machine shared with other jobs a
# second thread made passes no faster and their times more spread out.
WORKER_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                  MKL_NUM_THREADS="1")


def run_worker(deadline, *args, src=SRC):
    """Run one worker process to its end and return its result object."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--src", str(src), *args],
        stdout=subprocess.PIPE, text=True, env=WORKER_ENV,
        timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited with "
                           f"{proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def merge_experiments(results):
    """Per-experiment record of the first worker with counts summed over all."""
    merged = {}
    for r in results:
        for label, rec in r["experiments"].items():
            if label not in merged:
                merged[label] = dict(rec)
            else:
                merged[label]["attempted"] += rec["attempted"]
                merged[label]["failed"] += rec["failed"]
    return merged


def end_to_end(workload, seconds, deadline):
    start = time.monotonic()
    setups = [run_worker(deadline, "--workload", workload, "--passes", "0")
              for _ in range(SETUP_ONLY)]
    workers = []
    while True:
        t = time.monotonic()
        workers.append(run_worker(deadline, "--workload", workload,
                                  "--passes", str(PASSES)))
        took = time.monotonic() - t
        now = time.monotonic()
        if now + took > deadline or (len(workers) >= MIN_WORKERS
                                     and now - start + took > seconds):
            break
    # Pass times are means, not medians, within a run: on a shared machine
    # each process runs at one of two speeds for most of its life, and the
    # median of a handful of workers jumps between the two.  Set-up is cheap,
    # so it is sampled often enough for a median.
    values = {
        "setup_s": statistics.median(r["ref_setup_s"]
                                     for r in setups + workers),
        "first_run_s": statistics.fmean(r["ref_pass_s"][0] for r in workers),
        "run_s": statistics.fmean(p for r in workers
                                  for p in r["ref_pass_s"][1:]),
        "peak_rss_mb": statistics.fmean(r["peak_rss_mb"] for r in workers),
    }
    samples = {"setup_s": [r["setup_s"] for r in setups + workers],
               "ref_setup_s": [r["ref_setup_s"] for r in setups + workers],
               "pass_s": [r["pass_s"] for r in workers],
               "ref_pass_s": [r["ref_pass_s"] for r in workers],
               "kernel_s": [r["kernel_s"] for r in setups + workers],
               "peak_rss_mb": [r["peak_rss_mb"] for r in workers]}
    return values, workers, samples


def per_layer(workload, seed, deadline):
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans_file = out_dir / f"spans-{workload}-seed{seed}.jsonl"
    r = run_worker(deadline, "--workload", workload, "--passes", "2",
                   "--trace", str(spans_file))
    values = dict(r["layers"])
    values["trace.overhead_s"] = values["trace.pass_s"] - r["pass_s"][1]
    samples = {"pass_s": r["pass_s"], "missing_hooks": r["missing_hooks"],
               "spans_file": str(spans_file.relative_to(ROOT))}
    return values, [r], samples


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not (SRC / "parapost" / "__init__.py").is_file():
        print(f"bench: no parapost package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    deadline = time.monotonic() + TIME_LIMIT
    try:
        if args.trace:
            values, results, samples = per_layer(args.workload, args.seed,
                                                 deadline)
        else:
            values, results, samples = end_to_end(args.workload, args.seconds,
                                                  deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    problems = [p for r in results for p in r["problems"]]
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "environment": results[0]["environment"],
                      "samples": samples, "problems": problems}))
    print(json.dumps({"experiments": merge_experiments(results)}))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
