"""Experiment orchestration: manufactured problems, configs, runs, reports.

The manufactured heat problem has exact solution cos(nu*pi*t)*sin(mu*pi*x),
so the true QoI error is available analytically and effectivity ratios can
be computed without a reference solve.
"""

import json
import math
import time
from dataclasses import dataclass, asdict, replace

import numpy as np
from scipy.integrate import quad

from .adjoint import (
    solve_auxiliary_adjoints,
    solve_coarse_adjoint,
    solve_fine_adjoints,
)
from .estimator import (
    ResidualEvaluator,
    STPA_COMPONENTS,
    TPA_COMPONENTS,
    stpa_breakdown,
    tpa_breakdown,
)
from .mesh import FeSpace, FormCache, SpatialMesh, qoi_eval
from .parareal import vpar
from .schwarz import decompose_domain
from .timestepping import TimePartition, propagate_be, propagate_cg


@dataclass(frozen=True)
class ManufacturedProblem:
    """Forcing, exact solution, initial condition and QoI weight."""

    nu: float
    mu: float
    T: float
    qoi_lo: float = 0.2
    qoi_hi: float = 0.6
    qoi_scale: float = 10000.0

    def f(self, x, t):
        return np.sin(self.mu * np.pi * x) * (
            self.mu**2 * np.pi**2 * np.cos(self.nu * np.pi * t)
            - self.nu * np.pi * np.sin(self.nu * np.pi * t)
        )

    def u(self, x, t):
        return np.cos(self.nu * np.pi * t) * np.sin(self.mu * np.pi * x)

    def u0(self, x):
        return np.sin(self.mu * np.pi * np.asarray(x))

    def psi(self, x):
        x = np.asarray(x, dtype=float)
        lo, hi = self.qoi_lo, self.qoi_hi
        inside = (x > lo) & (x < hi)
        vals = np.zeros_like(x)
        vals[inside] = self.qoi_scale * (x[inside] - lo) ** 2 * (x[inside] - hi) ** 2
        return vals

    def true_qoi(self):
        """Q(u) = cos(nu*pi*T) * int psi(x) sin(mu*pi*x) dx, adaptive quadrature."""
        val, _ = quad(
            lambda x: self.qoi_scale
            * (x - self.qoi_lo) ** 2
            * (x - self.qoi_hi) ** 2
            * math.sin(self.mu * math.pi * x),
            self.qoi_lo,
            self.qoi_hi,
            epsabs=1e-13,
            epsrel=1e-13,
        )
        return math.cos(self.nu * math.pi * self.T) * val


def build_manufactured(nu, mu, T, qoi_lo=0.2, qoi_hi=0.6, qoi_scale=10000.0):
    if nu == 0 or mu == 0:
        raise ValueError("nu and mu must be nonzero")
    return ManufacturedProblem(nu, mu, T, qoi_lo, qoi_hi, qoi_scale)


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat experiment description; field names follow the usual notation
    (Nhat_t coarse time steps, r refinement factor, P_t temporal subdomains,
    K_t Parareal iterations, Nhat_s spatial elements, qhat_s/q_s coarse and
    fine spatial degrees, P_s/K_s/beta/tau the Schwarz settings)."""

    nu: float = 4.0
    mu: float = 1.0
    T: float = 2.0
    qoi_lo: float = 0.2
    qoi_hi: float = 0.6
    qoi_scale: float = 10000.0
    Nhat_t: int = 20
    r: int = 2
    P_t: int = 10
    K_t: int = 2
    integrator: str = "be"
    qhat_t: int = 1
    q_t: int = 1
    Nhat_s: int = 20
    qhat_s: int = 1
    q_s: int = 2
    schwarz: bool = False
    P_s: int = 2
    K_s: int = 2
    beta: float = 0.2
    tau: float = 0.4
    adjoint_time_degree: int = 3
    adjoint_space_degree: int = 3
    format: str = "csv"
    path: str = ""

    def validate(self):
        counts = ["P_t", "K_t", "Nhat_t", "Nhat_s", "qhat_s", "q_s", "qhat_t",
                  "q_t", "adjoint_time_degree", "adjoint_space_degree"]
        if self.schwarz:
            counts.append("K_s")
        for name in counts:
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("nu", "mu", "T", "qoi_lo", "qoi_hi", "qoi_scale",
                     "beta", "tau"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.T <= 0:
            raise ValueError(f"T must be > 0, got {self.T}")
        if not self.qoi_lo < self.qoi_hi:
            raise ValueError(
                f"qoi_lo={self.qoi_lo} must be below qoi_hi={self.qoi_hi}")
        if self.Nhat_t % self.P_t != 0:
            raise ValueError(f"Nhat_t={self.Nhat_t} not divisible by P_t={self.P_t}")
        if self.r < 1 or int(self.r) != self.r:
            raise ValueError("r must be a positive integer")
        if self.qhat_s > self.q_s:
            raise ValueError("qhat_s must not exceed q_s")
        if self.integrator not in ("be", "cg"):
            raise ValueError(f"unknown integrator {self.integrator!r}")
        if self.schwarz:
            if self.integrator != "be":
                raise ValueError("the Schwarz fine solver requires integrator 'be'")
            mesh = SpatialMesh.uniform(0.0, 1.0, self.Nhat_s)
            decompose_domain(mesh, self.P_s, self.beta, self.tau)
        return self

    @staticmethod
    def from_mapping(d):
        known = {f for f in ExperimentConfig.__dataclass_fields__}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        cfg = ExperimentConfig(**d)
        coerced = {}
        for name in ("Nhat_t", "r", "P_t", "K_t", "qhat_t", "q_t",
                     "Nhat_s", "qhat_s", "q_s", "P_s", "K_s",
                     "adjoint_time_degree", "adjoint_space_degree"):
            coerced[name] = int(getattr(cfg, name))
        for name in ("nu", "mu", "T", "qoi_lo", "qoi_hi", "qoi_scale",
                     "beta", "tau"):
            coerced[name] = float(getattr(cfg, name))
        if isinstance(cfg.schwarz, str):
            coerced["schwarz"] = cfg.schwarz.strip().lower() in ("1", "true", "yes")
        return replace(cfg, **coerced).validate()

    @staticmethod
    def from_file(path):
        """Read a config from JSON or from 'key = value' lines."""
        text = open(path).read()
        try:
            data = json.loads(text)
        except json.JSONDecodeError:
            data = {}
            for line in text.splitlines():
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"cannot parse config line: {line!r}")
                key, val = (s.strip() for s in line.split("=", 1))
                data[key] = val
        return ExperimentConfig.from_mapping(data)


@dataclass
class RunRecord:
    """One experiment's configuration echo, components and effectivity."""

    config: dict
    mode: str
    components: dict
    estimated_error: float
    true_error: float
    effectivity: float
    true_qoi: float
    computed_qoi: float
    wall_time: float

    def column_names(self):
        names = TPA_COMPONENTS if self.mode == "TPA" else STPA_COMPONENTS
        return ("est_err", "gamma") + tuple(names)

    def row(self):
        names = TPA_COMPONENTS if self.mode == "TPA" else STPA_COMPONENTS
        return (self.estimated_error, self.effectivity) + tuple(
            self.components[n] for n in names
        )


def run_experiment(config):
    """Run TPA or STPA at the final Parareal iteration and estimate the error."""
    config.validate()
    t_start = time.perf_counter()
    problem = build_manufactured(
        config.nu, config.mu, config.T,
        config.qoi_lo, config.qoi_hi, config.qoi_scale,
    )
    mesh = SpatialMesh.uniform(0.0, 1.0, config.Nhat_s)
    coarse_space = FeSpace(mesh, config.qhat_s)
    fine_space = FeSpace(mesh, config.q_s)
    adj_space = FeSpace(mesh, config.adjoint_space_degree)
    partition = TimePartition.uniform(config.T, config.P_t, config.Nhat_t, config.r)
    cache = FormCache()
    f = problem.f

    if config.integrator == "cg":
        def coarse_solver(grid, ic):
            return propagate_cg(coarse_space, grid, config.qhat_t, ic, f, cache)

        def fine_solver(grid, ic):
            return propagate_cg(fine_space, grid, config.q_t, ic, f, cache)
    else:
        decomp = (decompose_domain(mesh, config.P_s, config.beta, config.tau)
                  if config.schwarz else None)

        def coarse_solver(grid, ic):
            return propagate_be(coarse_space, grid, ic, f, cache)

        def fine_solver(grid, ic):
            return propagate_be(fine_space, grid, ic, f, cache, decomp,
                                config.K_s)

    initial = coarse_space.interpolate(problem.u0)
    states = vpar(partition, config.K_t, initial, fine_solver, coarse_solver,
                  fine_space)
    state = states[-1]

    true_qoi = problem.true_qoi()
    computed_qoi = qoi_eval(problem.psi, state.fine[-1].end)
    true_error = true_qoi - computed_qoi

    adj_qt = config.adjoint_time_degree
    coarse_adj = solve_coarse_adjoint(partition, adj_space, problem.psi,
                                      adj_qt, cache)
    fine_adjs = solve_fine_adjoints(partition, coarse_adj, adj_qt, cache)
    aux_adjs = solve_auxiliary_adjoints(partition, coarse_adj, fine_adjs,
                                        adj_qt, cache)
    adjoints = {"coarse": coarse_adj, "fine": fine_adjs, "aux": aux_adjs}
    ev = ResidualEvaluator(f, cache)

    if config.schwarz:
        breakdown = stpa_breakdown(partition, state, adjoints, problem,
                                   true_error, decomp, cache, ev)
    else:
        breakdown = tpa_breakdown(partition, state, adjoints, problem,
                                  true_error, cache, ev)

    wall = time.perf_counter() - t_start
    return RunRecord(
        config=asdict(config),
        mode=breakdown.mode,
        components=dict(breakdown.components),
        estimated_error=breakdown.estimated_total,
        true_error=true_error,
        effectivity=breakdown.effectivity,
        true_qoi=true_qoi,
        computed_qoi=computed_qoi,
        wall_time=wall,
    )


def emit_report(records, fmt="csv", path=None, sweep_param=None,
                sweep_values=None):
    """Serialize run records to CSV or JSON; returns the text and optionally
    writes it to a file.  Numbers are full-precision scientific notation."""
    if not records:
        raise ValueError("no records to report")
    if fmt == "csv":
        header = list(records[0].column_names())
        if sweep_param is not None:
            header = [sweep_param] + header
        lines = [",".join(header)]
        for idx, rec in enumerate(records):
            vals = ["%.17e" % v for v in rec.row()]
            if sweep_param is not None:
                vals = [str(sweep_values[idx])] + vals
            lines.append(",".join(vals))
        text = "\n".join(lines) + "\n"
    elif fmt == "json":
        payload = []
        for idx, rec in enumerate(records):
            d = asdict(rec)
            if sweep_param is not None:
                d["sweep_param"] = sweep_param
                d["sweep_value"] = sweep_values[idx]
            payload.append(d)
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if path:
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise OSError(f"cannot write report to {path}: {exc}") from exc
    return text


def run_sweep(base_config, param, values):
    """Run the base config once per parameter value, in order."""
    records = []
    for v in values:
        field_type = type(getattr(base_config, param))
        cfg = replace(base_config, **{param: field_type(v)}).validate()
        records.append(run_experiment(cfg))
    return records


# Named configurations mirroring the published tables.  TPA and cG sweeps
# use nu=4, mu=1; the Schwarz sweeps use nu=4, mu=2.
TABLE_REGISTRY = {
    "par_iterations": dict(
        base=dict(Nhat_t=20, r=16, P_t=10, Nhat_s=20, qhat_s=1, q_s=2,
                  nu=4, mu=1),
        param="K_t", values=[1, 2, 3],
    ),
    "par_subdomains": dict(
        base=dict(Nhat_t=40, r=4, K_t=2, Nhat_s=20, qhat_s=1, q_s=2,
                  nu=4, mu=1),
        param="P_t", values=[2, 5, 10],
    ),
    "par_fine_time": dict(
        base=dict(Nhat_t=10, P_t=10, K_t=2, Nhat_s=20, qhat_s=1, q_s=2,
                  nu=4, mu=1),
        param="r", values=[2, 4],
    ),
    "par_coarse_time": dict(
        base=dict(r=2, P_t=10, K_t=2, Nhat_s=20, qhat_s=1, q_s=2,
                  nu=4, mu=1),
        param="Nhat_t", values=[10, 20],
    ),
    "par_space": dict(
        base=dict(Nhat_t=100, r=8, P_t=10, K_t=6, qhat_s=1, q_s=1,
                  nu=4, mu=1),
        param="Nhat_s", values=[5, 10, 20],
    ),
    "pardd_fine_time": dict(
        base=dict(Nhat_t=10, P_t=10, K_t=2, Nhat_s=80, qhat_s=1, q_s=2,
                  schwarz=True, P_s=2, K_s=8, beta=0.2, nu=4, mu=2),
        param="r", values=[2, 4, 8],
    ),
    "pardd_coarse_time": dict(
        base=dict(r=2, P_t=10, K_t=2, Nhat_s=80, qhat_s=1, q_s=2,
                  schwarz=True, P_s=2, K_s=8, beta=0.2, nu=4, mu=2),
        param="Nhat_t", values=[10, 20, 40],
    ),
    "pardd_iterations": dict(
        base=dict(Nhat_t=20, r=2, P_t=10, K_t=2, Nhat_s=20, qhat_s=1, q_s=2,
                  schwarz=True, P_s=2, beta=0.2, nu=4, mu=2),
        param="K_s", values=[2, 6],
    ),
    "pardd_subdomains": dict(
        base=dict(Nhat_t=20, r=2, P_t=10, K_t=2, Nhat_s=40, qhat_s=1, q_s=2,
                  schwarz=True, K_s=2, beta=0.1, nu=4, mu=2),
        param="P_s", values=[2, 4],
    ),
    "pardd_overlap": dict(
        base=dict(Nhat_t=20, r=2, P_t=10, K_t=2, Nhat_s=20, qhat_s=1, q_s=2,
                  schwarz=True, P_s=2, K_s=2, nu=4, mu=2),
        param="beta", values=[0.1, 0.2],
    ),
    "cg_iterations": dict(
        base=dict(Nhat_t=10, r=4, P_t=10, integrator="cg", qhat_t=1, q_t=1,
                  Nhat_s=20, qhat_s=1, q_s=2, nu=4, mu=1),
        param="K_t", values=[1, 2, 3],
    ),
    "cg_subdomains": dict(
        base=dict(Nhat_t=10, r=4, K_t=2, integrator="cg", qhat_t=1, q_t=1,
                  Nhat_s=20, qhat_s=1, q_s=2, nu=4, mu=1),
        param="P_t", values=[2, 5, 10],
    ),
    "cg_fine_time": dict(
        base=dict(Nhat_t=10, P_t=10, K_t=2, integrator="cg", qhat_t=1, q_t=1,
                  Nhat_s=20, qhat_s=1, q_s=2, nu=4, mu=1),
        param="r", values=[2, 4],
    ),
    "cg_coarse_time": dict(
        base=dict(r=2, P_t=10, K_t=2, integrator="cg", qhat_t=1, q_t=1,
                  Nhat_s=20, qhat_s=1, q_s=2, nu=4, mu=1),
        param="Nhat_t", values=[10, 20],
    ),
    "cg_space": dict(
        base=dict(Nhat_t=20, r=6, P_t=10, K_t=6, integrator="cg", qhat_t=1,
                  q_t=1, qhat_s=1, q_s=1, nu=4, mu=1),
        param="Nhat_s", values=[5, 10, 20],
    ),
}


def reproduce_table(name):
    """Run the named registry sweep; returns (records, param, values)."""
    if name not in TABLE_REGISTRY:
        raise KeyError(
            f"unknown table {name!r}; known: {sorted(TABLE_REGISTRY)}"
        )
    entry = TABLE_REGISTRY[name]
    base = ExperimentConfig.from_mapping(dict(entry["base"]))
    records = run_sweep(base, entry["param"], entry["values"])
    return records, entry["param"], entry["values"]
