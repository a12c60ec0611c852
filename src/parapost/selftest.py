"""Fast internal consistency checks, runnable via the CLI `selftest` command.

Each check exercises an exact mathematical identity of the implementation on
a small problem and compares against machine-precision tolerances.
"""

import math

import numpy as np

from .harness import ExperimentConfig, build_manufactured, run_experiment
from .mesh import FeSpace, FormCache, SpatialMesh, project_field
from .parareal import par_standard, vpar
from .schwarz import AdditiveSchwarz, decompose_domain
from .timestepping import TimePartition, dg0_equivalence_check, propagate_be


def _check_dg0_equivalence():
    prob = build_manufactured(2, 1, 0.5)
    space = FeSpace(SpatialMesh.uniform(0.0, 1.0, 8), 2)
    grid = np.linspace(0.0, 0.5, 9)
    traj = propagate_be(space, grid, space.interpolate(prob.u0), prob.f)
    dev = dg0_equivalence_check(traj, prob.f)
    assert dev < 1e-11, f"dG(0)/implicit-Euler deviation {dev:.3e}"


def _check_parareal_exactness():
    # after K_t = P_t iterations the synchronized values equal the serial
    # fine solve's values at the synchronization times
    prob = build_manufactured(2, 1, 0.5)
    mesh = SpatialMesh.uniform(0.0, 1.0, 8)
    coarse, fine = FeSpace(mesh, 1), FeSpace(mesh, 2)
    part = TimePartition.uniform(0.5, 4, 8, 2)
    cache = FormCache()
    fs = lambda g, ic: propagate_be(fine, g, ic, prob.f, cache)
    cs = lambda g, ic: propagate_be(coarse, g, ic, prob.f, cache)
    ic = coarse.interpolate(prob.u0)
    states = vpar(part, 4, ic, fs, cs, fine, sync_space="fine")
    serial = propagate_be(fine, np.linspace(0, 0.5, 17),
                          project_field(ic, fine, "nodal_interpolation"),
                          prob.f, cache)
    for p in range(1, 5):
        got = states[-1].fine[p - 1].end.coefficients
        want = serial.values[p * 4]
        dev = np.max(np.abs(got - want))
        assert dev < 1e-11, f"exactness violated at p={p}: {dev:.3e}"


def _check_standard_variational_agreement():
    prob = build_manufactured(2, 1, 0.5)
    mesh = SpatialMesh.uniform(0.0, 1.0, 8)
    coarse, fine = FeSpace(mesh, 1), FeSpace(mesh, 2)
    part = TimePartition.uniform(0.5, 4, 8, 2)
    cache = FormCache()
    fs = lambda g, ic: propagate_be(fine, g, ic, prob.f, cache)
    cs = lambda g, ic: propagate_be(coarse, g, ic, prob.f, cache)
    ic = coarse.interpolate(prob.u0)
    K = 3
    states = vpar(part, K, ic, fs, cs, fine)
    std = par_standard(part, K, ic, fs, cs, fine)
    for p in range(1, 5):
        bar_v = states[-1].fine[p - 1].end.coefficients
        bar_s = std[-1]["bar"][p - 1].coefficients
        dev = np.max(np.abs(bar_v - bar_s))
        assert dev < 1e-12, f"standard/variational mismatch at p={p}: {dev:.3e}"


def _check_schwarz_fixed_point():
    mesh = SpatialMesh.uniform(0.0, 1.0, 8)
    space = FeSpace(mesh, 2)
    decomp = decompose_domain(mesh, 2, 0.25)
    cache = FormCache()
    B = cache.step_operator(space, 0.01)
    rng = np.random.default_rng(7)
    rhs = rng.standard_normal(space.dof_count)
    exact = B.solve(rhs)
    sweeper = AdditiveSchwarz.cached(cache, space, 0.01, decomp)
    u, _ = sweeper.solve(rhs, exact, 3)
    dev = np.max(np.abs(u - exact))
    assert dev < 1e-11, f"Schwarz fixed point drift {dev:.3e}"


def _check_effectivity_tpa():
    cfg = ExperimentConfig(Nhat_t=10, r=2, P_t=5, K_t=2, Nhat_s=10,
                           qhat_s=1, q_s=2, nu=2, mu=1, T=1.0)
    rec = run_experiment(cfg)
    assert math.isfinite(rec.effectivity)
    assert abs(rec.effectivity - 1.0) < 0.05, (
        f"TPA effectivity {rec.effectivity:.4f} outside [0.95, 1.05]"
    )


def _check_effectivity_stpa():
    cfg = ExperimentConfig(Nhat_t=10, r=2, P_t=5, K_t=2, Nhat_s=10,
                           qhat_s=1, q_s=2, nu=2, mu=2, T=1.0,
                           schwarz=True, P_s=2, K_s=3, beta=0.2)
    rec = run_experiment(cfg)
    assert math.isfinite(rec.effectivity)
    assert abs(rec.effectivity - 1.0) < 0.05, (
        f"STPA effectivity {rec.effectivity:.4f} outside [0.95, 1.05]"
    )


CHECKS = [
    ("dg0-equivalence", _check_dg0_equivalence),
    ("parareal-exactness", _check_parareal_exactness),
    ("standard-variational-agreement", _check_standard_variational_agreement),
    ("schwarz-fixed-point", _check_schwarz_fixed_point),
    ("tpa-effectivity", _check_effectivity_tpa),
    ("stpa-effectivity", _check_effectivity_stpa),
]


def run_selftest(verbose=False):
    """Run all checks; returns a list of (name, exception) failures."""
    failures = []
    for name, fn in CHECKS:
        try:
            fn()
        except Exception as exc:  # report every failure, not just the first
            failures.append((name, exc))
            if verbose:
                print(f"FAIL {name}: {exc}")
        else:
            if verbose:
                print(f"ok   {name}")
    if verbose:
        n = len(CHECKS)
        print(f"{n - len(failures)}/{n} checks passed")
    return failures
