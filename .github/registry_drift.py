"""Registry drift between two source trees, row by row.

    python .github/registry_drift.py run SRC OUT_DIR
        runs `python -m parapost.cli reproduce --table T --format json` with
        SRC on PYTHONPATH for every table T of SRC's registry, writing
        OUT_DIR/T.json; exits 1 if any table fails
    python .github/registry_drift.py compare OLD_DIR NEW_DIR
        compares the components, estimated_error, effectivity and
        computed_qoi of every row present on both sides at 1e-12 relative
        (the rule of bench/components.py); exits 1 on any value over it or on
        a row or value of OLD_DIR missing from NEW_DIR.  Rows and values only
        in NEW_DIR (a new table, sweep value or component) are listed, not
        failed.  The summary line counts the values that moved at all and
        gives the largest relative difference.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

RTOL = 1e-12
SCALARS = ("estimated_error", "effectivity", "computed_qoi")


def run(src, out_dir):
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    tables = subprocess.run(
        [sys.executable, "-c", "from parapost.harness import TABLE_REGISTRY; "
         "print(*sorted(TABLE_REGISTRY))"],
        env=env, check=True, capture_output=True, text=True).stdout.split()
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    failed = 0
    for table in tables:
        out = Path(out_dir, f"{table}.json").resolve()
        done = subprocess.run(
            [sys.executable, "-m", "parapost.cli", "reproduce", "--table",
             table, "--format", "json", "--out", str(out)], env=env)
        failed += done.returncode != 0
        print(f"{table}: {'ok' if done.returncode == 0 else 'FAILED'}")
    return 1 if failed else 0


def rows(directory):
    """{row label: {value name: number}} over every T.json in directory."""
    out = {}
    for path in sorted(Path(directory).glob("*.json")):
        for rec in json.loads(path.read_text()):
            label = f"{path.stem}[{rec['sweep_param']}={rec['sweep_value']}]"
            vals = {f"components.{k}": v for k, v in rec["components"].items()}
            vals.update((k, rec[k]) for k in SCALARS)
            out[label] = vals
    return out


def compare(old_dir, new_dir):
    old, new = rows(old_dir), rows(new_dir)
    bad = compared = moved = 0
    worst = 0.0
    for label in sorted(set(old) | set(new)):
        if label not in new:
            print(f"{label}: missing from the new side")
            bad += 1
            continue
        if label not in old:
            print(f"{label}: new row, not compared")
            continue
        a, b = old[label], new[label]
        for key in sorted(set(a) | set(b)):
            if key not in b:
                print(f"{label} {key}: missing from the new side")
                bad += 1
                continue
            if key not in a:
                print(f"{label} {key}: new, not compared")
                continue
            x, y = a[key], b[key]
            scale = max(abs(x), abs(y))
            same = x == y or (math.isnan(x) and math.isnan(y))
            rel = 0.0 if same else abs(x - y) / scale
            compared += 1
            moved += not same
            worst = max(worst, rel)
            if not rel <= RTOL:
                print(f"{label} {key}: {x!r} -> {y!r} (rel {rel:.3e})")
                bad += 1
    print(f"{len(set(old) | set(new))} rows, {compared} values compared, "
          f"{moved} moved, largest relative difference {worst:.3e}, {bad} "
          f"missing on the new side or over {RTOL:g}")
    return 1 if bad or not compared else 0


if __name__ == "__main__":
    commands = {"run": run, "compare": compare}
    if len(sys.argv) != 4 or sys.argv[1] not in commands:
        sys.exit(__doc__)
    sys.exit(commands[sys.argv[1]](*sys.argv[2:]))
