"""One FormCache per experiment: no function of the package defaults its
cache or builds a private one, so every solve, embedding and residual of an
experiment shares the factorizations and assembled forms of the cache that
run_experiment (or a selftest check) built and passed down.  Which step
sizes share a solver is decided by FormCache.per_step alone, and whether a
config is valid by ExperimentConfig.__post_init__ alone."""

import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import parapost
import parapost.harness as harness
from parapost.harness import ExperimentConfig, run_experiment
from parapost.mesh import FeSpace, FormCache, SpatialMesh
from parapost.schwarz import AdditiveSchwarz, decompose_domain
from parapost.timestepping import propagate_be, propagate_cg

SRC = Path(parapost.__file__).parent
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _walk(node, scope):
    """(qualified name of the enclosing function or class, node) for every
    node below node."""
    for child in ast.iter_child_nodes(node):
        yield scope, child
        if isinstance(child, SCOPES):
            yield from _walk(child, ".".join(filter(None, (scope, child.name))))
        else:
            yield from _walk(child, scope)


def _nodes():
    """(module, enclosing scope, node) over every module of the package."""
    for path in sorted(SRC.glob("*.py")):
        for scope, node in _walk(ast.parse(path.read_text()), ""):
            yield path.stem, scope, node


def _defaulted(fn):
    """Names of the parameters of fn that have a default."""
    a = fn.args
    pos = a.posonlyargs + a.args
    named = pos[len(pos) - len(a.defaults):]
    named += [k for k, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return {arg.arg for arg in named}


def test_no_cache_parameter_has_a_default():
    defaulted = [(module, scope, node.lineno)
                 for module, scope, node in _nodes()
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.Lambda))
                 and "cache" in _defaulted(node)]
    assert defaulted == []


def test_only_an_experiment_builds_a_form_cache():
    builders = {(module, scope) for module, scope, node in _nodes()
                if isinstance(node, ast.Call)
                and getattr(node.func, "id", getattr(node.func, "attr", None))
                == "FormCache"}
    assert ("harness", "run_experiment") in builders
    others = {(module, scope) for module, scope in builders
              if (module, scope) != ("harness", "run_experiment")
              and not (module == "selftest" and scope.startswith("_check_"))}
    assert others == set()


def _rounds_a_step_size(node):
    """Whether a call rounds to a number of digits, the form of the step-size
    key (round(x, n), np.round(x, n) or x.round(n)), or rounds anything
    named like a step size."""
    func = node.func
    if getattr(func, "id", getattr(func, "attr", None)) not in ("round",
                                                                 "around"):
        return False
    method = (isinstance(func, ast.Attribute)
              and getattr(func.value, "id", None) not in ("np", "numpy"))
    digits = len(node.args) + len(node.keywords) > (0 if method else 1)
    return digits or any("dt" in n.id for n in ast.walk(node)
                         if isinstance(n, ast.Name))


def test_only_per_step_rounds_a_step_size():
    # every solver built once per step size shares the one key of
    # FormCache.per_step, so no two sites can disagree on which steps match
    rounders = [(module, scope) for module, scope, node in _nodes()
                if isinstance(node, ast.Call) and _rounds_a_step_size(node)]
    assert rounders == [("mesh", "FormCache.per_step")]


def test_only_building_a_config_validates_it():
    # a config checks itself when built, so no caller checks it again
    callers = [(module, scope) for module, scope, node in _nodes()
               if isinstance(node, ast.Call)
               and getattr(node.func, "id", getattr(node.func, "attr", None))
               == "validate"]
    assert callers == [("harness", "ExperimentConfig.__post_init__")]


def _step_operator(cache, space, decomp, dt):
    cache.step_operator(space, dt)


def _sweeper(cache, space, decomp, dt):
    AdditiveSchwarz.cached(cache, space, dt, decomp)


def _cg_slab_lu(cache, space, decomp, dt):
    propagate_cg(space, [0.0, dt], 2, space.interpolate(np.sin), None, cache)


FETCH = {"step": _step_operator, "schwarz": _sweeper, "cg_slab": _cg_slab_lu}


@pytest.mark.parametrize("kind", FETCH)
def test_per_step_shares_one_solver_across_a_linspace_grid(monkeypatch, kind):
    dts = np.diff(np.linspace(0.0, 0.7, 8))
    assert len(set(dts)) > 1  # the steps differ in the last bits
    cache = FormCache()
    mesh = SpatialMesh.uniform(0.0, 1.0, 8)
    space, decomp = FeSpace(mesh, 2), decompose_domain(mesh, 2, 0.25, 0.4)
    got = []
    per_step = cache.per_step

    def recording(space, dt, build, *key):
        solver = per_step(space, dt, build, *key)
        if key[0] == kind:
            got.append(solver)
        return solver

    monkeypatch.setattr(cache, "per_step", recording)
    for dt in [*dts, 0.05]:
        FETCH[kind](cache, space, decomp, dt)
    assert len(got) == len(dts) + 1
    assert all(solver is got[0] for solver in got[:-1])
    assert got[-1] is not got[0]


PROPAGATE = {
    "step": lambda space, times, ic, decomp, cache: propagate_be(
        space, times, ic, None, cache),
    "schwarz": lambda space, times, ic, decomp, cache: propagate_be(
        space, times, ic, None, cache, decomp, 2),
    "cg_slab": lambda space, times, ic, decomp, cache: propagate_cg(
        space, times, 2, ic, None, cache),
}

@pytest.mark.parametrize("kind", PROPAGATE)
def test_a_propagation_looks_up_each_step_size_once(monkeypatch, kind):
    # a call takes one step size, its first step's, and looks its solver
    # up once: on a grid whose steps differ in the last bits, on one whose
    # steps straddle per_step's 15-digit key, and on a stack of two grids
    # of one nominal step
    grid = np.linspace(0.0, 0.9, 13)
    straddling = np.linspace(0.0, 0.3, 27)
    assert len({round(dt, 15) for dt in np.diff(straddling).tolist()}) == 2
    stack = np.stack([grid, np.linspace(0.9, 1.8, 13)])
    cache = FormCache()
    mesh = SpatialMesh.uniform(0.0, 1.0, 8)
    space, decomp = FeSpace(mesh, 2), decompose_domain(mesh, 2, 0.25, 0.4)
    ic = space.interpolate(np.sin)
    looked_up = []
    per_step = cache.per_step

    def counting(space, dt, build, *key):
        looked_up.append((key[0], dt))
        return per_step(space, dt, build, *key)

    monkeypatch.setattr(cache, "per_step", counting)
    for times, ics in ((grid, ic), (straddling, ic), (stack, [ic, ic])):
        looked_up.clear()
        PROPAGATE[kind](space, times, ics, decomp, cache)
        first = np.atleast_2d(times)[0]
        assert ([dt for k, dt in looked_up if k == kind]
                == [first[1] - first[0]])
        if kind == "cg_slab":  # the incoming values' mass projection
            assert [dt for k, dt in looked_up if k == "step"] == [0.0]


# the FormCache.factor entries that hold tables every later caller of the
# experiment reads, as opposed to a solver's own factors
SHARED_TABLES = ("matrix", "load", "analytic_load", "cg_time_forms",
                 "cg_load")


def test_every_table_an_experiment_shares_is_read_only(monkeypatch):
    # one write to a shared table would reach every later read of the
    # experiment; a small STPA run and a small cG run fill every kind
    # between them (the STPA run's adjoints are cG, its forward loads
    # implicit Euler's; the cG run's forward loads are time-integrated)
    caches = []

    class Recorded(FormCache):
        def __init__(self):
            super().__init__()
            caches.append(self)

    monkeypatch.setattr(harness, "FormCache", Recorded)
    small = dict(Nhat_t=4, r=2, P_t=2, K_t=2, Nhat_s=8, qhat_s=1, q_s=2,
                 nu=2, mu=1, T=0.5)
    run_experiment(ExperimentConfig(**small, schwarz=True, P_s=2, K_s=2,
                                    beta=0.25))
    run_experiment(ExperimentConfig(**small, integrator="cg", q_t=2))
    tables = {kind: [] for kind in SHARED_TABLES}
    for cache in caches:
        for key, value in cache._factors.items():
            if key[0] in tables:
                tables[key[0]] += (value if isinstance(value, tuple)
                                   else [value])
    for kind, arrays in tables.items():
        assert arrays, kind
        for a in arrays:
            assert not a.flags.writeable, kind


def test_release_drops_one_kind_and_a_later_lookup_rebuilds():
    cache = FormCache()
    space = FeSpace(SpatialMesh.uniform(0.0, 1.0, 4), 1)
    step = cache.step_operator(space, 0.1)
    slab = cache.per_step(space, 0.1, object, "cg_slab", 1)
    cache.release("cg_slab")
    assert cache.step_operator(space, 0.1) is step
    assert cache.per_step(space, 0.1, object, "cg_slab", 1) is not slab


SMALL = dict(Nhat_t=4, r=2, P_t=2, K_t=2, Nhat_s=8, qhat_s=1, q_s=2, nu=2,
             mu=1, T=0.5)


@pytest.mark.parametrize("config", [
    ExperimentConfig(**SMALL),
    ExperimentConfig(**SMALL, integrator="cg", qhat_t=1, q_t=2),
    ExperimentConfig(**SMALL, schwarz=True, P_s=2, K_s=2, beta=0.25),
], ids=["be", "cg", "stpa"])
def test_the_estimate_runs_without_slab_factors(monkeypatch, config):
    # the adjoints are solved once, and no later step solves a slab, so the
    # dense cG slab LUs (forward and adjoint) are gone before the breakdown
    seen = []

    def spy(breakdown):
        def checked(*args):
            cache = args[-1]
            seen.append([key for key in cache._factors
                         if key[0] == "cg_slab"])
            return breakdown(*args)
        return checked

    monkeypatch.setattr(harness, "stpa_breakdown",
                        spy(harness.stpa_breakdown))
    run_experiment(config)
    assert seen == [[]]


def test_a_pardd_fine_time_run_stays_under_its_traced_peak():
    # pardd_fine_time[r=8] peaks at 11.96 MB traced, at the auxiliary adjoint
    # solve, where the coarse- and fine-step adjoint slab LUs (4.1 MB each)
    # are live; kept until the experiment ends, they lift the breakdown's
    # peak to 19.44 MB.  The warm-up run leaves module imports and lazily
    # built tables out of the traced peak
    entry = harness.TABLE_REGISTRY["pardd_fine_time"]
    config = ExperimentConfig.from_mapping(dict(entry["base"], r=8))
    run_experiment(config)
    tracemalloc.start()
    try:
        run_experiment(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 14e6
