"""Exact work counts of one small cG run: what an experiment pays once per
grid or once per weight must not come back once per call or per pair.

The run has P_t = 3 subdomains and K_t = 3 iterations, so the serial coarse
sweeps solve 3 + 2 + 1 coarse grids, by one chained call per iteration, and
the fine calls 3 + 2 + 1 fine grids, of which 3 + 3 are distinct.  Its
breakdown makes two residual calls: D, 3 pairs with 3 distinct fine
adjoints, and A, 3 pairs with 2 distinct auxiliary adjoints.  Every
adjoint value the estimate reads at a node or on a slab is an index read,
and the jumps at the synchronization times are stacked gathers.
"""

import numpy as np
import pytest

import parapost.estimator as estimator
import parapost.harness as harness
import parapost.mesh as mesh_module
import parapost.timestepping as timestepping
from parapost.harness import (ExperimentConfig, build_manufactured,
                              run_experiment)
from parapost.mesh import FeSpace, FormCache, NodalGather, SpatialMesh
from parapost.timestepping import (TimePartition, Trajectory, _slab_loads,
                                   propagate)

from oracles import value_at_node

CG = ExperimentConfig(Nhat_t=6, r=2, P_t=3, K_t=3, Nhat_s=8, qhat_s=1, q_s=2,
                      nu=2, mu=1, T=0.5, integrator="cg", qhat_t=1, q_t=2)


@pytest.fixture(scope="module")
def counted():
    """The calls of one run of CG: the grids handed to the solvers, the load
    assemblies outside the residual (the forward solves'), per residual
    call, its distinct weights, load assemblies and the sizes of its
    searches of sorted times, the nodal-value searches of the whole run and
    the nodal gathers of its breakdown."""
    seen = dict(grids=0, coarse_calls=0, forward=[], residuals=[], searches=0,
                breakdown_gathers=0)
    inside = []  # the counts of the residual call under way
    in_breakdown = []
    real_residual = estimator.ResidualEvaluator.residual
    real_sorted, real_vpar = np.searchsorted, harness.vpar
    real_gather, real_breakdown = NodalGather.__call__, harness.stpa_breakdown

    def counting(module):
        real = module.assemble_load

        def assemble_load(space, t, f):
            if inside:
                inside[-1]["loads"] += 1
            elif module is mesh_module:
                seen["forward"].append(np.shape(t))
            return real(space, t, f)
        return assemble_load

    def residual(self, pairs):
        inside.append(dict(weights=len({id(w) for _, w in pairs}), loads=0,
                           lookups=[]))
        try:
            return real_residual(self, pairs)
        finally:
            seen["residuals"].append(inside.pop())

    def searchsorted(a, v, *args, **kwargs):
        if inside:
            inside[-1]["lookups"].append(np.size(v))
        return real_sorted(a, v, *args, **kwargs)

    def search(self, t):
        seen["searches"] += 1
        return value_at_node(self, t)

    def gather(self, coefficients):
        seen["breakdown_gathers"] += bool(in_breakdown)
        return real_gather(self, coefficients)

    def breakdown(*args):
        in_breakdown.append(1)
        try:
            return real_breakdown(*args)
        finally:
            in_breakdown.pop()

    def vpar(partition, K_t, ic, fine_solver, coarse_solver, cache):
        def fine(grids, ics):
            seen["grids"] += len(grids)
            return fine_solver(grids, ics)

        def coarse(grids, ic_, jumps):
            seen["grids"] += len(grids)
            seen["coarse_calls"] += 1
            return coarse_solver(grids, ic_, jumps)
        return real_vpar(partition, K_t, ic, fine, coarse, cache)

    with pytest.MonkeyPatch.context() as mp:
        for module in (mesh_module, estimator):
            mp.setattr(module, "assemble_load", counting(module))
        mp.setattr(estimator.ResidualEvaluator, "residual", residual)
        mp.setattr(np, "searchsorted", searchsorted)
        mp.setattr(Trajectory, "value_at_node", search, raising=False)
        mp.setattr(NodalGather, "__call__", gather)
        mp.setattr(harness, "stpa_breakdown", breakdown)
        mp.setattr(harness, "vpar", vpar)
        run_experiment(CG)
    return seen


def test_the_forward_solves_assemble_each_grid_once(counted):
    # 12 grids solved, 6 distinct: one load block each, at every slab's
    # q_t+3 quadrature times, all P_t grids of a space by one call (the
    # first iteration's); one coarse call per iteration
    assert counted["grids"] == 12
    assert counted["coarse_calls"] == CG.K_t
    assert sorted(counted["forward"]) == [(CG.P_t, 2, CG.qhat_t + 3),
                                          (CG.P_t, 4, CG.q_t + 3)]


def test_a_second_solve_of_a_grid_assembles_no_load(monkeypatch):
    calls = []
    real = mesh_module.assemble_load
    monkeypatch.setattr(mesh_module, "assemble_load",
                        lambda *args: calls.append(1) or real(*args))
    prob = build_manufactured(2, 1, 0.5)
    space = FeSpace(SpatialMesh.uniform(0.0, 1.0, 8), 2)
    grid = np.linspace(0.0, 0.5, 6)
    cache = FormCache()
    first = propagate(space, grid, 2, space.interpolate(prob.u0), prob.f,
                      cache)
    assert len(calls) == 1
    again = propagate(space, np.stack([grid, grid]),
                      2, [first.end, space.interpolate(prob.u0)], prob.f,
                      cache)
    assert len(calls) == 1
    assert np.array_equal(again[1].coeffs, first.coeffs)


@pytest.mark.parametrize("q_t", [0, 1, 2])
def test_a_stacks_new_grids_are_assembled_by_one_call(monkeypatch, q_t):
    # the coarse rows of this partition have first steps on both sides of
    # FormCache.per_step's 15-digit key; one assemble_load call builds the
    # load blocks of all three (q_t = 0: implicit Euler's step-end loads),
    # each bitwise, signed zeros included, the block of its own one-grid
    # build, and a later stack assembles only its grids not yet cached
    calls = []
    real = mesh_module.assemble_load
    monkeypatch.setattr(mesh_module, "assemble_load",
                        lambda *args: calls.append(1) or real(*args))
    prob = build_manufactured(2, 1, 2.6)
    space = FeSpace(SpatialMesh.uniform(0.0, 1.0, 8), 2)
    grids = TimePartition.uniform(2.6, 3, 6, 3).coarse_grids
    dts = (grids[:, 1] - grids[:, 0]).tolist()
    assert len({round(dt, 15) for dt in dts}) == 2
    cache = FormCache()
    blocks = _slab_loads(space, grids, q_t, prob.f, cache)
    assert len(calls) == 1
    for grid, block in zip(grids, blocks, strict=True):
        own = _slab_loads(space, grid[None], q_t, prob.f, FormCache())[0]
        assert block.tobytes() == own.tobytes()
        assert not block.flags.writeable
    calls.clear()
    other = grids[:1] + 1.0
    again = _slab_loads(space, np.concatenate([other, grids, other]), q_t,
                        prob.f, cache)
    assert len(calls) == 1
    assert all(np.shares_memory(a, b)
               for a, b in zip(again[1:-1], blocks, strict=True))
    assert np.shares_memory(again[0], again[-1])


@pytest.mark.parametrize("q_t", [1, 3])
def test_a_cg_stacks_quadrature_loads_stay_within_their_block(monkeypatch,
                                                              q_t):
    # with room for two grids' quadrature loads per call, five new grids
    # take three assemble_load calls of at most two grids each, and each
    # grid's block is still bitwise that of its own one-grid build
    shapes = []
    real = mesh_module.assemble_load
    monkeypatch.setattr(mesh_module, "assemble_load",
                        lambda space, t, f: shapes.append(np.shape(t)[:2])
                        or real(space, t, f))
    prob = build_manufactured(2, 1, 2.6)
    space = FeSpace(SpatialMesh.uniform(0.0, 1.0, 8), 2)
    grids = TimePartition.uniform(2.6, 5, 10, 3).coarse_grids
    monkeypatch.setattr(timestepping, "_QUAD_BLOCK",
                        2 * 2 * (q_t + 3) * space.dof_count + 1)
    blocks = _slab_loads(space, grids, q_t, prob.f, FormCache())
    assert shapes == [(2, 2), (2, 2), (1, 2)]
    for grid, block in zip(grids, blocks, strict=True):
        own = _slab_loads(space, grid[None], q_t, prob.f, FormCache())[0]
        assert block.tobytes() == own.tobytes()


def test_the_split_assembles_its_adjoint_space_loads_in_one_call(
        monkeypatch):
    # dd_split's step functionals read the forward space's step-end loads,
    # which the forward solves cached, and the adjoint space's, of every
    # trajectory, which one call assembles at all their step ends
    cfg = ExperimentConfig(Nhat_t=4, r=2, P_t=2, K_t=2, Nhat_s=8, qhat_s=1,
                           q_s=2, nu=2, mu=2, T=0.5, schwarz=True, P_s=2,
                           K_s=2, beta=0.25)
    inside, calls = [], []
    real_split, real_load = estimator.dd_split, mesh_module.assemble_load

    def dd_split(*args):
        inside.append(1)
        try:
            return real_split(*args)
        finally:
            inside.pop()

    def assemble_load(space, t, f):
        if inside:
            calls.append((space.degree, np.shape(t)))
        return real_load(space, t, f)

    monkeypatch.setattr(estimator, "dd_split", dd_split)
    monkeypatch.setattr(mesh_module, "assemble_load", assemble_load)
    run_experiment(cfg)
    assert calls == [(cfg.q_s + 1, (cfg.P_t, cfg.r * cfg.Nhat_t // cfg.P_t))]


def test_a_second_one_grid_cg_call_looks_up_four_entries_and_builds_none(
        monkeypatch):
    # a grid solved again pays per call one lookup each of its slab entry
    # (LU, start-value tables, M and A), the incoming value's projection,
    # its cross mass and the grid's time-integrated load block
    prob = build_manufactured(2, 1, 0.5)
    space = FeSpace(SpatialMesh.uniform(0.0, 1.0, 8), 2)
    grid, ic = np.linspace(0.0, 0.2, 3), space.interpolate(prob.u0)
    cache = FormCache()
    first = propagate(space, grid, 1, ic, prob.f, cache)
    looked_up, built = [], []
    factor = cache.factor

    def counting(key, build):
        looked_up.append(key[0])
        return factor(key, lambda: built.append(key[0]) or build())

    monkeypatch.setattr(cache, "factor", counting)
    again = propagate(space, grid, 1, ic, prob.f, cache)
    assert sorted(looked_up) == ["cg_load", "cg_slab", "matrix", "step"]
    assert built == []
    assert np.array_equal(again.coeffs, first.coeffs)


def test_each_residual_call_assembles_its_loads_in_one_call(counted):
    assert [r["loads"] for r in counted["residuals"]] == [1, 1]  # D, then A


def test_the_residual_looks_up_one_start_per_distinct_weight(counted):
    # one search per distinct weight, of one first time per pair: each fine
    # adjoint of D against its own grid, psi_2 of A against coarse grid 1
    # and psi_3 against coarse grids 1 and 2; no slab is searched for
    weights = [r["weights"] for r in counted["residuals"]]
    assert weights == [CG.P_t, CG.P_t - 1]
    assert [r["lookups"] for r in counted["residuals"]] == [[1, 1, 1], [1, 2]]
    assert not hasattr(Trajectory, "slab_index")


def test_the_estimate_reads_nodal_values_by_index_and_gathers_per_stack(
        counted):
    # no adjoint value is searched for among its grid's times, and the
    # breakdown's jumps at T_1..T_{P_t-1} take one gather per stack not
    # already in the fine space: the coarse jumps' end values and the
    # incoming values, which the fine jumps share
    assert counted["searches"] == 0
    assert counted["breakdown_gathers"] == 2
