"""Fast internal consistency checks, runnable via the CLI `selftest` command.

On small problems, two checks test exact identities of the implementation
(Parareal finite termination, the Schwarz fixed point) at machine-precision
tolerances, and two check that the TPA and STPA effectivities lie in
[0.95, 1.05].
"""

import math

import numpy as np

from .harness import ExperimentConfig, build_manufactured, run_experiment
from .mesh import FeSpace, FormCache, SpatialMesh
from .parareal import vpar
from .schwarz import AdditiveSchwarz, decompose_domain
from .timestepping import TimePartition, propagate_be


def _require(ok, message):
    # an explicit raise, as python -O strips assert statements
    if not ok:
        raise AssertionError(message)


def _check_parareal_exactness():
    # after K_t = P_t iterations each fine end value equals that of the
    # serial fine solve which hands the coarse interpolant of each
    # subdomain's end value on to the next
    prob = build_manufactured(2, 1, 0.5)
    mesh = SpatialMesh.uniform(0.0, 1.0, 8)
    coarse, fine = FeSpace(mesh, 1), FeSpace(mesh, 2)
    part = TimePartition.uniform(0.5, 4, 8, 2)
    cache = FormCache()
    fs = lambda gs, ics: propagate_be(fine, gs, ics, prob.f, cache)
    cs = lambda g, ic: propagate_be(coarse, g, ic, prob.f, cache)
    ic = coarse.interpolate(prob.u0)
    states = vpar(part, 4, ic, fs, cs, cache)
    for p, (grid, got) in enumerate(zip(part.fine_grids, states[-1].fine), 1):
        want = propagate_be(fine, grid, ic, prob.f, cache).end
        dev = np.max(np.abs(got.end.coefficients - want.coefficients))
        _require(dev < 1e-11, f"exactness violated at p={p}: {dev:.3e}")
        ic = coarse.interpolate(want)


def _check_schwarz_fixed_point():
    mesh = SpatialMesh.uniform(0.0, 1.0, 8)
    space = FeSpace(mesh, 2)
    decomp = decompose_domain(mesh, 2, 0.25, 0.4)
    cache = FormCache()
    B = cache.step_operator(space, 0.01)
    rng = np.random.default_rng(7)
    rhs = rng.standard_normal(space.dof_count)
    exact = B.solve(rhs)
    sweeper = AdditiveSchwarz.cached(cache, space, 0.01, decomp)
    u, _ = sweeper.solve(rhs, exact, 3)
    dev = np.max(np.abs(u - exact))
    _require(dev < 1e-11, f"Schwarz fixed point drift {dev:.3e}")


def _check_effectivity_tpa():
    cfg = ExperimentConfig(Nhat_t=10, r=2, P_t=5, K_t=2, Nhat_s=10,
                           qhat_s=1, q_s=2, nu=2, mu=1, T=1.0)
    rec = run_experiment(cfg)
    _require(math.isfinite(rec.effectivity), "TPA effectivity is not finite")
    _require(abs(rec.effectivity - 1.0) < 0.05,
             f"TPA effectivity {rec.effectivity:.4f} outside [0.95, 1.05]")


def _check_effectivity_stpa():
    cfg = ExperimentConfig(Nhat_t=10, r=2, P_t=5, K_t=2, Nhat_s=10,
                           qhat_s=1, q_s=2, nu=2, mu=2, T=1.0,
                           schwarz=True, P_s=2, K_s=3, beta=0.2)
    rec = run_experiment(cfg)
    _require(math.isfinite(rec.effectivity), "STPA effectivity is not finite")
    _require(abs(rec.effectivity - 1.0) < 0.05,
             f"STPA effectivity {rec.effectivity:.4f} outside [0.95, 1.05]")


CHECKS = [
    ("parareal-exactness", _check_parareal_exactness),
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
