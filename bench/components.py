"""Record every experiment's error components, or compare two records.

    python3 bench/components.py [--rev REV] [--out FILE]
    python3 bench/components.py --compare OLD.json NEW.json

Recording runs one pass of every workload in a fresh worker process, on the
package in src/ or, with --rev, on the src/ of that git revision, and writes
each experiment's components, estimate and effectivities as JSON.  --compare
lists every value whose relative difference exceeds 1e-12, or that is missing
from either record (an experiment that raised has no components), and exits
with 1 if there is any.
"""

import argparse
import io
import json
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import run
import workloads

RTOL = 1e-12


def record(src):
    out = {"experiments": {}, "problems": []}
    for name in workloads.WORKLOADS:
        r = run.run_worker(time.monotonic() + run.TIME_LIMIT, "--workload",
                           name, "--passes", "1", src=src)
        out["environment"] = r["environment"]
        out["problems"] += r["problems"]
        out["experiments"][name] = r["experiments"]
    return out


def record_rev(rev):
    """Record on the src/ tree of a git revision, unpacked next to bench/."""
    tar = subprocess.run(["git", "-C", str(run.ROOT), "archive", "--format=tar",
                          rev, "src"], stdout=subprocess.PIPE, check=True).stdout
    with tempfile.TemporaryDirectory(prefix=".bench-src-", dir=run.ROOT) as tmp:
        tarfile.open(fileobj=io.BytesIO(tar)).extractall(tmp, filter="data")
        return record(Path(tmp) / "src")


def values(rec):
    """The compared values of one experiment, None where one is missing."""
    if rec is None:
        return {}
    return dict(rec.get("components", {}),
                estimated_error=rec.get("estimated_error"),
                effectivity=rec.get("effectivity"))


def compare(old, new):
    """Print the values that moved; returns the number of mismatches."""
    bad = compared = 0
    worst = 0.0
    for name in sorted(set(old["experiments"]) | set(new["experiments"])):
        a = old["experiments"].get(name, {})
        b = new["experiments"].get(name, {})
        for label in sorted(set(a) | set(b)):
            va, vb = values(a.get(label)), values(b.get(label))
            for key in sorted(set(va) | set(vb)):
                x, y = va.get(key), vb.get(key)
                if x is None or y is None:
                    print(f"{name} {label} {key}: {x!r} -> {y!r}")
                    bad += 1
                    continue
                scale = max(abs(x), abs(y))
                rel = abs(x - y) / scale if scale else 0.0
                compared += 1
                worst = max(worst, rel)
                if not rel <= RTOL:
                    print(f"{name} {label} {key}: {x!r} -> {y!r} (rel {rel:.3e})")
                    bad += 1
    print(f"{compared} values compared, largest relative difference "
          f"{worst:.3e}, {bad} missing or over {RTOL:g}")
    return bad


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--rev")
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = ap.parse_args()
    if args.compare:
        old, new = (json.loads(Path(p).read_text()) for p in args.compare)
        return 1 if compare(old, new) else 0
    out = record_rev(args.rev) if args.rev else record(run.SRC)
    out["source"] = args.rev or "src"
    text = json.dumps(out, indent=2, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
