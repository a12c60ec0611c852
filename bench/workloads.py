"""The benchmark's workloads and the checks made on their results.

Each workload is a fixed list of registry tables run through the public
parapost.harness API.  The benchmark keeps its own copy of the registry
entries it runs, so a change to the registry shows as a failed check
instead of silently changing what is measured.  The checks use only this
file's own arithmetic, never parapost.
"""

import math
import traceback
from dataclasses import replace

# ExperimentConfig fields the checks depend on, at the values every
# workload here uses unless its registry entry overrides them.
DEFAULTS = dict(T=2.0, qoi_lo=0.2, qoi_hi=0.6, qoi_scale=10000.0,
                schwarz=False, integrator="be")

TABLES = {
    "pardd_fine_time": dict(
        base=dict(Nhat_t=10, P_t=10, K_t=2, Nhat_s=80, qhat_s=1, q_s=2,
                  schwarz=True, P_s=2, K_s=8, beta=0.2, nu=4, mu=2),
        param="r", values=[2, 4, 8],
    ),
    "cg_iterations": dict(
        base=dict(Nhat_t=10, r=4, P_t=10, integrator="cg", qhat_t=1, q_t=1,
                  Nhat_s=20, qhat_s=1, q_s=2, nu=4, mu=1),
        param="K_t", values=[1, 2, 3],
    ),
    "cg_space": dict(
        base=dict(Nhat_t=20, r=6, P_t=10, K_t=6, integrator="cg", qhat_t=1,
                  q_t=1, qhat_s=1, q_s=1, nu=4, mu=1),
        param="Nhat_s", values=[5, 10, 20],
    ),
}

# Each workload runs its tables in order, each by one reproduce_table call.
WORKLOADS = {
    # Schwarz sweeps, the D_s/D_k split and spatial adjoints; 717-wide dense
    # cG slab LU in the degree-3 adjoint space; the largest retained memory.
    "stpa_schwarz": ["pardd_fine_time"],
    # Six small cG experiments: per-experiment fixed costs, cG forward with
    # forcing and cG adjoints without, and a K_t=1 row.
    "cg_sweep": ["cg_iterations", "cg_space"],
}

COMPONENTS = {"TPA": ("D", "K", "C", "A"),
              "STPA": ("D_t", "D_s", "D_k", "K", "C", "A")}
# |gamma - 1| allowed per mode, the gates of tests/test_acceptance.py.
GAMMA_TOL = {"TPA": 0.01, "STPA": 0.02}
QOI_RTOL = 1e-12
C_ZERO_ATOL = 1e-12


def experiments(workload):
    """[(label, config)] of one pass, in run order; config holds every
    ExperimentConfig field the checks depend on."""
    out = []
    for table in WORKLOADS[workload]:
        entry = TABLES[table]
        for v in entry["values"]:
            cfg = dict(DEFAULTS, **entry["base"], **{entry["param"]: v})
            out.append((f"{table}[{entry['param']}={v}]", cfg))
    return out


def setup(harness, workload):
    """Build and validate the workload's configs; returns (configs, problems).

    configs holds one ExperimentConfig per experiment, in run order, built
    as harness.reproduce_table builds them.  problems lists registry entries
    that differ from the benchmark's copy.
    """
    problems, configs = [], []
    for table in WORKLOADS[workload]:
        entry = TABLES[table]
        if harness.TABLE_REGISTRY.get(table) != entry:
            problems.append(f"registry entry {table!r} differs from the "
                            "benchmark's copy")
        base = harness.ExperimentConfig.from_mapping(dict(entry["base"]))
        kind = type(getattr(base, entry["param"]))
        configs += [replace(base, **{entry["param"]: kind(v)}).validate()
                    for v in entry["values"]]
    return configs, problems


def run_one(harness, cfg):
    """(record, None) for one experiment, or (None, message) if it raised.
    The call goes through the harness module's attribute, so a hook
    installed on it sees every call."""
    try:
        return harness.run_experiment(cfg), None
    except Exception as exc:
        traceback.print_exc()
        return None, f"raised {type(exc).__name__}: {exc}"


def run_pass(harness, configs):
    """One pass: run_one of every experiment, in order."""
    return [run_one(harness, cfg) for cfg in configs]


def _legendre(n, x):
    """P_n(x) and P_n'(x) by the three-term recurrence."""
    p_prev, p = 1.0, x
    for k in range(2, n + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    return p, n * (x * p - p_prev) / (x * x - 1.0)


def gauss_legendre(n):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1], by
    Newton's method from the usual cosine starting points."""
    nodes, weights = [], []
    for i in range(1, n + 1):
        x = math.cos(math.pi * (i - 0.25) / (n + 0.5))
        for _ in range(100):
            p, dp = _legendre(n, x)
            x -= p / dp
            if abs(p / dp) < 1e-15:
                break
        dp = _legendre(n, x)[1]
        nodes.append(x)
        weights.append(2.0 / ((1.0 - x * x) * dp * dp))
    return nodes, weights


_RULE = gauss_legendre(30)


def true_qoi(cfg):
    """cos(nu pi T) * int psi(x) sin(mu pi x) dx for the manufactured
    solution, psi = scale (x-lo)^2 (x-hi)^2 on (lo, hi).  The integrand is
    smooth on (lo, hi), so 30 Gauss points are exact to rounding."""
    lo, hi, mu = cfg["qoi_lo"], cfg["qoi_hi"], cfg["mu"]
    half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
    terms = []
    for s, w in zip(*_RULE):
        x = mid + half * s
        terms.append(w * cfg["qoi_scale"] * (x - lo) ** 2 * (x - hi) ** 2
                     * math.sin(mu * math.pi * x))
    return math.cos(cfg["nu"] * math.pi * cfg["T"]) * half * math.fsum(terms)


def check(rec, cfg):
    """Problems with one record, as a list of messages, and the effectivity
    computed from the independent true error (None if it cannot be)."""
    problems = []
    for key, want in cfg.items():
        if rec.config.get(key) != want:
            problems.append(f"config {key}={rec.config.get(key)!r}, want {want!r}")
    mode = "STPA" if cfg["schwarz"] else "TPA"
    if rec.mode != mode or tuple(rec.components) != COMPONENTS[mode]:
        problems.append(f"mode {rec.mode} with components {list(rec.components)}")
        return problems, None
    values = list(rec.components.values()) + [rec.estimated_error]
    if not all(math.isfinite(v) for v in values):
        problems.append("non-finite component or estimate")
        return problems, None
    if math.fsum(rec.components.values()) != rec.estimated_error:
        problems.append("components do not sum to the estimate")
    q = true_qoi(cfg)
    if abs(rec.true_qoi - q) > QOI_RTOL * abs(q):
        problems.append(f"true QoI {rec.true_qoi!r}, independent {q!r}")
    gamma = rec.estimated_error / (q - rec.computed_qoi)
    if not abs(gamma - 1.0) <= GAMMA_TOL[mode]:
        problems.append(f"effectivity {gamma:.6f} outside 1 +- {GAMMA_TOL[mode]}")
    if cfg["K_t"] == 1 and not abs(rec.components["C"]) <= C_ZERO_ATOL:
        problems.append(f"C = {rec.components['C']!r} on a K_t=1 row")
    return problems, gamma


def summary(rec, gamma):
    """What the run output keeps of one record."""
    return {"mode": rec.mode, "components": dict(rec.components),
            "estimated_error": rec.estimated_error,
            "effectivity": rec.effectivity, "gamma_independent": gamma}
