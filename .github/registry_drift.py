"""Registry drift between two source trees, row by row.

    python .github/registry_drift.py run SRC OUT_DIR
        runs `python -m parapost.cli reproduce --table T --format json` with
        SRC on PYTHONPATH for every table T of SRC's registry, writing
        OUT_DIR/T.json, and `python -m parapost.cli sweep ... --format json`
        for every sweep S of STRADDLE_SWEEPS, writing OUT_DIR/S.json; exits
        1 if any table or sweep fails
    python .github/registry_drift.py compare OLD_DIR NEW_DIR
        compares the components, estimated_error, effectivity and
        computed_qoi of every row present on both sides at 1e-12 relative
        (the rule of bench/components.py); exits 1 on any value over it or on
        a row or value of OLD_DIR missing from NEW_DIR.  Rows and values only
        in NEW_DIR (a new table, sweep value or component) are listed, not
        failed.  The summary line counts the values that moved at all and
        gives the largest relative difference.
    python .github/registry_drift.py cost OLD_DIR NEW_DIR
        prints a Markdown table of what the estimate costs against the solve
        it judges, per T.json on either side: the summed coarse_adjoint,
        fine_adjoints, aux_adjoints and breakdown stage times of its rows
        over their summed forward time, for OLD_DIR (base) and NEW_DIR
        (this commit); a side without the file or its stages reads "-".
        A report, not a gate: it exits 0.
"""

import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

RTOL = 1e-12
ESTIMATE_STAGES = ("coarse_adjoint", "fine_adjoints", "aux_adjoints",
                   "breakdown")
SCALARS = ("estimated_error", "effectivity", "computed_qoi")
# Drift rows only, with no effectivity gate, kept out of TABLE_REGISTRY.
# Every registry row runs T = 2, whose grids straddle no FormCache.per_step
# 15-digit key; on this partition the coarse steps span 0.433333333333333
# and ...334 and the fine steps 0.144444444444444 and ...445, so a change
# to which steps share a cached solver moves these rows' values.
STRADDLE_BASE = dict(T=2.6, P_t=3, Nhat_t=6, r=3, K_t=2, Nhat_s=10, nu=2,
                     mu=1, P_s=2, K_s=3, beta=0.2)
STRADDLE_SWEEPS = {  # name: (base config, param, values)
    "straddle_tpa": (STRADDLE_BASE, "schwarz", "false,true"),
    "straddle_cg": (dict(STRADDLE_BASE, integrator="cg"), "q_t", "1,2"),
}


def run(src, out_dir):
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    tables = subprocess.run(
        [sys.executable, "-c", "from parapost.harness import TABLE_REGISTRY; "
         "print(*sorted(TABLE_REGISTRY))"],
        env=env, check=True, capture_output=True, text=True).stdout.split()
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    failed = 0
    for table in tables:
        failed += _cli(env, out_dir, table, "reproduce", "--table", table)
    with tempfile.TemporaryDirectory() as configs:
        for name, (base, param, values) in STRADDLE_SWEEPS.items():
            config = Path(configs, name)
            config.write_text(json.dumps(base))
            failed += _cli(env, out_dir, name, "sweep", "--config",
                           str(config), "--param", param, "--values", values)
    return 1 if failed else 0


def _cli(env, out_dir, name, *args):
    """Run `python -m parapost.cli ARGS --format json`, writing
    OUT_DIR/name.json; True if it fails."""
    out = Path(out_dir, f"{name}.json").resolve()
    done = subprocess.run(
        [sys.executable, "-m", "parapost.cli", *args, "--format", "json",
         "--out", str(out)], env=env)
    print(f"{name}: {'ok' if done.returncode == 0 else 'FAILED'}")
    return done.returncode != 0


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


def estimate_per_solve(path):
    """The estimate/solve ratio of the rows of one T.json, or None."""
    try:
        records = json.loads(Path(path).read_text())
        est = sum(rec["stages"][k] for rec in records for k in ESTIMATE_STAGES)
        return est / sum(rec["stages"]["forward"] for rec in records)
    except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError):
        return None


def cost(old_dir, new_dir):
    names = sorted({p.stem for d in (old_dir, new_dir)
                    for p in Path(d).glob("*.json")})
    print("### Estimate / solve (adjoint and breakdown stages over forward)")
    print("| table | base | this commit |")
    print("|---|---|---|")
    for name in names:
        ratios = (estimate_per_solve(Path(d, f"{name}.json"))
                  for d in (old_dir, new_dir))
        print(f"| {name} | " + " | ".join(
            "-" if r is None else f"{r:.2f}" for r in ratios) + " |")
    return 0


if __name__ == "__main__":
    commands = {"run": run, "compare": compare, "cost": cost}
    if len(sys.argv) != 4 or sys.argv[1] not in commands:
        sys.exit(__doc__)
    sys.exit(commands[sys.argv[1]](*sys.argv[2:]))
