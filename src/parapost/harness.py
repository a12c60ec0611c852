"""Experiment orchestration: manufactured problems, configs, runs, reports.

The manufactured heat problem has exact solution cos(nu*pi*t)*sin(mu*pi*x),
so the true QoI error is available analytically and effectivity ratios can
be computed without a reference solve.
"""

import json
import math
import time
from collections.abc import Mapping
from dataclasses import dataclass, asdict, replace
from pathlib import Path

import numpy as np

from .adjoint import (
    solve_auxiliary_adjoints,
    solve_coarse_adjoint,
    solve_fine_adjoints,
)
from .estimator import N_QUAD_T, stpa_breakdown
from .mesh import N_QUAD, FeSpace, FormCache, SpatialMesh, gauss_rule, qoi_eval
from .parareal import vpar
from .schwarz import decompose_domain, overlap_ranges
from .timestepping import TimePartition, propagate_be, propagate_cg


@dataclass(frozen=True)
class ManufacturedProblem:
    """Forcing, exact solution, initial condition and QoI weight, built only
    if all finite, nu != 0, mu a nonzero integer, 0 <= qoi_lo < qoi_hi <= 1."""

    nu: float
    mu: float
    T: float
    qoi_lo: float = 0.2
    qoi_hi: float = 0.6
    qoi_scale: float = 10000.0

    def __post_init__(self):
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        for name, value in (("nu", self.nu), ("mu", self.mu)):
            if value == 0:
                raise ValueError(f"{name} must be nonzero, got {value}")
        if not float(self.mu).is_integer():
            raise ValueError(f"mu must be an integer, so that sin(mu pi x) "
                             f"vanishes at x = 1, got {self.mu}")
        lo, hi = self.qoi_lo, self.qoi_hi
        if lo < 0.0:
            raise ValueError(f"qoi_lo={lo} lies outside the domain [0, 1]")
        if hi > 1.0:
            raise ValueError(f"qoi_hi={hi} lies outside the domain [0, 1]")
        if not lo < hi:
            raise ValueError(f"qoi_lo={lo} must be below qoi_hi={hi}")

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
        """Q(u) = cos(nu*pi*T) * int psi(x) sin(mu*pi*x) dx over (qoi_lo,
        qoi_hi), by the N_QUAD-point Gauss rule on ceil(|mu| (qoi_hi -
        qoi_lo)) equal panels, so each panel holds at most half a period of
        the sine; the panel sums are added by math.fsum."""
        lo, hi = self.qoi_lo, self.qoi_hi
        panels = math.ceil(abs(self.mu) * (hi - lo))
        s, w = gauss_rule(N_QUAD)
        edges = np.linspace(lo, hi, panels + 1)
        h = np.diff(edges)
        x = edges[:-1, None] + h[:, None] * s
        integrand = (self.qoi_scale * (x - lo) ** 2 * (x - hi) ** 2
                     * np.sin(self.mu * np.pi * x))
        val = math.fsum((h[:, None] * w * integrand).ravel())
        return math.cos(self.nu * math.pi * self.T) * val


build_manufactured = ManufacturedProblem


_FLAGS = {"1": True, "true": True, "yes": True,
          "0": False, "false": False, "no": False}


def _coerce(name, ftype, value):
    """value as an instance of ftype: a count must be integral and a flag
    one of 1/true/yes/0/false/no; a ValueError names the field otherwise."""
    if ftype is str:
        return value
    try:
        if ftype is bool:
            return _FLAGS[str(value).strip().lower()]
        number = float(value)
        if ftype is float:
            return number
        if number.is_integer():
            return int(number)
    except (KeyError, TypeError, ValueError):
        pass
    raise ValueError(f"{name} must be {ftype.__name__}, got {value!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat experiment description; field names follow the usual notation
    (Nhat_t coarse time steps, r refinement factor, P_t temporal subdomains,
    K_t Parareal iterations, Nhat_s spatial elements, qhat_s/q_s coarse and
    fine spatial degrees, P_s/K_s/beta/tau the Schwarz settings), converted
    to its fields' types and checked (validate) when built."""

    nu: float = 4.0
    mu: float = 1.0
    T: float = 2.0
    qoi_lo: float = ManufacturedProblem.qoi_lo
    qoi_hi: float = ManufacturedProblem.qoi_hi
    qoi_scale: float = ManufacturedProblem.qoi_scale
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

    def __post_init__(self):
        for name, f in self.__dataclass_fields__.items():
            object.__setattr__(self, name,
                               _coerce(name, f.type, getattr(self, name)))
        self.validate()

    def validate(self):
        """The config unchanged, or a ValueError naming a bad field."""
        counts = ["P_t", "K_t", "Nhat_t", "r", "Nhat_s", "qhat_s", "q_s",
                  "qhat_t", "q_t", "adjoint_time_degree",
                  "adjoint_space_degree"]
        if self.schwarz:
            counts.append("K_s")
        for name in counts:
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("beta", "tau"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        self.problem  # built, so checked
        if self.T <= 0:
            raise ValueError(f"T must be > 0, got {self.T}")
        if self.Nhat_t % self.P_t != 0:
            raise ValueError(f"Nhat_t={self.Nhat_t} not divisible by P_t={self.P_t}")
        if self.qhat_s > self.q_s:
            raise ValueError("qhat_s must not exceed q_s")
        if self.integrator not in ("be", "cg"):
            raise ValueError(f"unknown integrator {self.integrator!r}")
        # the residual's N_QUAD_T-point time rule is exact to degree 2 N_QUAD_T - 1
        traj_qt = max(self.q_t, self.qhat_t) if self.integrator == "cg" else 0
        if self.adjoint_time_degree + traj_qt > 2 * N_QUAD_T - 1:
            raise ValueError(
                f"adjoint_time_degree={self.adjoint_time_degree} plus the "
                f"trajectories' time degree {traj_qt} exceeds 2 N_QUAD_T - 1 = "
                f"{2 * N_QUAD_T - 1}")
        if self.schwarz:
            if self.integrator != "be":
                raise ValueError("the Schwarz fine solver requires integrator 'be'")
            overlap_ranges(self.Nhat_s, self.P_s, self.beta, self.tau)
        return self

    @property
    def problem(self):
        """The manufactured problem of the config's six problem fields."""
        return ManufacturedProblem(self.nu, self.mu, self.T, self.qoi_lo,
                                   self.qoi_hi, self.qoi_scale)

    @property
    def mode(self):
        """The decomposition a run reports: 'STPA' with the Schwarz fine
        solver, else 'TPA'."""
        return "STPA" if self.schwarz else "TPA"

    @staticmethod
    def from_mapping(d):
        if not isinstance(d, Mapping):
            raise ValueError("a config must be a mapping of field names to "
                             f"values, got {type(d).__name__}")
        unknown = set(d) - set(ExperimentConfig.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return ExperimentConfig(**d)

    @staticmethod
    def from_file(path):
        """Read a config from JSON or from 'key = value' lines."""
        text = Path(path).read_text()
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


def effectivity(estimated, true_err):
    """Ratio of estimated to true error; NaN flags an undefined ratio."""
    if true_err == 0.0:
        return float("nan")
    return estimated / true_err


@dataclass
class RunRecord:
    """One experiment's configuration echo, components and effectivity; the
    components are in the order their breakdown returns them.  stages holds
    the perf_counter seconds of the run's five phases, in run order:
    forward (Parareal), coarse_adjoint, fine_adjoints, aux_adjoints and
    breakdown; the rest of wall_time is setup and the QoI."""

    config: dict
    mode: str
    components: dict
    estimated_error: float
    true_error: float
    effectivity: float
    true_qoi: float
    computed_qoi: float
    wall_time: float
    stages: dict

    def column_names(self):
        return ("est_err", "gamma") + tuple(self.components)

    def row(self):
        return ((self.estimated_error, self.effectivity)
                + tuple(self.components.values()))


def run_experiment(config):
    """Run TPA or STPA at the final Parareal iteration, estimate the error and
    compare the estimate with the manufactured solution's true error."""
    t_start = time.perf_counter()
    problem = config.problem
    mesh = SpatialMesh.uniform(0.0, 1.0, config.Nhat_s)
    coarse_space = FeSpace(mesh, config.qhat_s)
    fine_space = FeSpace(mesh, config.q_s)
    adj_space = FeSpace(mesh, config.adjoint_space_degree)
    partition = TimePartition.uniform(config.T, config.P_t, config.Nhat_t, config.r)
    cache = FormCache()
    f = problem.f
    decomp = (decompose_domain(mesh, config.P_s, config.beta, config.tau)
              if config.schwarz else None)

    if config.integrator == "cg":
        def coarse_solver(grids, ic, jumps):
            return propagate_cg(coarse_space, grids, config.qhat_t, ic, f,
                                cache, jumps)

        def fine_solver(grids, ics):
            return propagate_cg(fine_space, grids, config.q_t, ics, f, cache)
    else:
        def coarse_solver(grids, ic, jumps):
            return propagate_be(coarse_space, grids, ic, f, cache, jumps=jumps)

        def fine_solver(grids, ics):
            return propagate_be(fine_space, grids, ics, f, cache, decomp,
                                config.K_s)

    stages = {}

    def staged(name, fn, *args):
        """fn(*args), its perf_counter time kept as stages[name]."""
        start = time.perf_counter()
        out = fn(*args)
        stages[name] = time.perf_counter() - start
        return out

    initial = coarse_space.interpolate(problem.u0)
    states = staged("forward", vpar, partition, config.K_t, initial,
                    fine_solver, coarse_solver, cache)
    state = states[-1]

    true_qoi = problem.true_qoi()
    computed_qoi = qoi_eval(problem.psi, state.fine[-1].end)
    true_error = true_qoi - computed_qoi

    adj_qt = config.adjoint_time_degree
    coarse_adj = staged("coarse_adjoint", solve_coarse_adjoint, partition,
                        adj_space, problem.psi, adj_qt, cache)
    fine_adjs = staged("fine_adjoints", solve_fine_adjoints, partition,
                       coarse_adj, adj_qt, cache)
    aux_adjs = staged("aux_adjoints", solve_auxiliary_adjoints, partition,
                      coarse_adj, fine_adjs, adj_qt, cache)
    adjoints = {"coarse": coarse_adj, "fine": fine_adjs, "aux": aux_adjs}
    # no later step solves a cG slab: free the forward and adjoint slab LUs
    cache.release("cg_slab")

    components = staged("breakdown", stpa_breakdown, partition, state,
                        adjoints, problem, decomp, config.K_s, cache)
    estimated = math.fsum(components.values())

    wall = time.perf_counter() - t_start
    return RunRecord(
        config=asdict(config),
        mode=config.mode,
        components=components,
        estimated_error=estimated,
        true_error=true_error,
        effectivity=effectivity(estimated, true_error),
        true_qoi=true_qoi,
        computed_qoi=computed_qoi,
        wall_time=wall,
        stages=stages,
    )


def require_one_mode(fmt, modes):
    """Reject a CSV report whose rows (of these modes, 'TPA' or 'STPA') have
    different columns: one header cannot name them."""
    modes = dict.fromkeys(modes)
    if fmt == "csv" and len(modes) > 1:
        raise ValueError(f"a CSV report has one header, but the "
                         f"{' and '.join(modes)} columns differ; use "
                         f"--format json")


def emit_report(records, fmt="csv", path=None, sweep_param=None):
    """Serialize run records to CSV or JSON; returns the text and optionally
    writes it to a file.  Numbers are full-precision scientific notation.
    With a sweep_param, each row is labelled by that field's value in its
    record's config."""
    if not records:
        raise ValueError("no records to report")
    require_one_mode(fmt, (rec.mode for rec in records))
    if fmt == "csv":
        header = list(records[0].column_names())
        if sweep_param is not None:
            header = [sweep_param] + header
        lines = [",".join(header)]
        for rec in records:
            vals = ["%.17e" % v for v in rec.row()]
            if sweep_param is not None:
                vals = [str(rec.config[sweep_param])] + vals
            lines.append(",".join(vals))
        text = "\n".join(lines) + "\n"
    elif fmt == "json":
        payload = []
        for rec in records:
            d = asdict(rec)
            if sweep_param is not None:
                d["sweep_param"] = sweep_param
                d["sweep_value"] = rec.config[sweep_param]
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


def sweep_configs(base_config, param, values):
    """The base config with param set to each value in turn, each built (so
    converted and checked) before any is returned: an unknown param or a bad
    value, at any position, raises a ValueError before any sweep runs."""
    if param not in ExperimentConfig.__dataclass_fields__:
        raise ValueError(f"unknown sweep parameter {param!r}")
    return [replace(base_config, **{param: v}) for v in values]


def run_sweep(base_config, param, values):
    """Run the base config once per parameter value, in order, after every
    config of the sweep has been built (sweep_configs)."""
    return [run_experiment(cfg)
            for cfg in sweep_configs(base_config, param, values)]


# Named configurations mirroring the published tables.  The TPA and cG
# tables use nu=4, mu=1; the Schwarz tables use nu=4, mu=2.
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
