"""Exact work counts of one small cG run: what an experiment pays once per
grid or once per weight must not come back once per call or per pair.

The run has P_t = 3 subdomains and K_t = 3 iterations, so the serial coarse
sweeps solve 3 + 2 + 1 coarse grids, by one chained call per iteration, and
the fine calls 3 + 2 + 1 fine grids, of which 3 + 3 are distinct.  Its
breakdown makes two residual calls: D, 3 pairs with 3 distinct fine
adjoints, and A, 3 pairs with 2 distinct auxiliary adjoints.
"""

import numpy as np
import pytest

import parapost.estimator as estimator
import parapost.harness as harness
import parapost.mesh as mesh_module
from parapost.harness import (ExperimentConfig, build_manufactured,
                              run_experiment)
from parapost.mesh import FeSpace, FormCache, SpatialMesh
from parapost.timestepping import Trajectory, propagate_cg

CG = ExperimentConfig(Nhat_t=6, r=2, P_t=3, K_t=3, Nhat_s=8, qhat_s=1, q_s=2,
                      nu=2, mu=1, T=0.5, integrator="cg", qhat_t=1, q_t=2)


@pytest.fixture(scope="module")
def counted():
    """The calls of one run of CG: the grids handed to the solvers, the load
    assemblies outside the residual (the forward solves') and, per residual
    call, its distinct weights, load assemblies and slab lookups."""
    seen = dict(grids=0, coarse_calls=0, forward=[], residuals=[])
    inside = []  # the counts of the residual call under way
    real_residual = estimator.ResidualEvaluator.residual
    real_index, real_vpar = Trajectory.slab_index, harness.vpar

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
                           lookups=0))
        try:
            return real_residual(self, pairs)
        finally:
            seen["residuals"].append(inside.pop())

    def slab_index(self, t0, t1):
        if inside:
            inside[-1]["lookups"] += 1
        return real_index(self, t0, t1)

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
        mp.setattr(Trajectory, "slab_index", slab_index)
        mp.setattr(harness, "vpar", vpar)
        run_experiment(CG)
    return seen


def test_the_forward_solves_assemble_each_grid_once(counted):
    # 12 grids solved, 6 distinct: one load block each, at every slab's
    # q_t+3 quadrature times; one coarse call per iteration
    assert counted["grids"] == 12
    assert counted["coarse_calls"] == CG.K_t
    assert sorted(counted["forward"]) == (
        [(2, CG.qhat_t + 3)] * CG.P_t + [(4, CG.q_t + 3)] * CG.P_t)


def test_a_second_solve_of_a_grid_assembles_no_load(monkeypatch):
    calls = []
    real = mesh_module.assemble_load
    monkeypatch.setattr(mesh_module, "assemble_load",
                        lambda *args: calls.append(1) or real(*args))
    prob = build_manufactured(2, 1, 0.5)
    space = FeSpace(SpatialMesh.uniform(0.0, 1.0, 8), 2)
    grid = np.linspace(0.0, 0.5, 6)
    cache = FormCache()
    first = propagate_cg(space, grid, 2, space.interpolate(prob.u0), prob.f,
                         cache)
    assert len(calls) == 1
    again = propagate_cg(space, np.stack([grid, grid]),
                         2, [first.end, space.interpolate(prob.u0)], prob.f,
                         cache)
    assert len(calls) == 1
    assert np.array_equal(again[1].coeffs, first.coeffs)


def test_a_second_one_grid_cg_call_looks_up_four_entries_and_builds_none(
        monkeypatch):
    # a grid solved again pays per call one lookup each of its slab entry
    # (LU, start-value tables, M and A), the incoming value's projection,
    # its cross mass and the grid's time-integrated load block
    prob = build_manufactured(2, 1, 0.5)
    space = FeSpace(SpatialMesh.uniform(0.0, 1.0, 8), 2)
    grid, ic = np.linspace(0.0, 0.2, 3), space.interpolate(prob.u0)
    cache = FormCache()
    first = propagate_cg(space, grid, 1, ic, prob.f, cache)
    looked_up, built = [], []
    factor = cache.factor

    def counting(key, build):
        looked_up.append(key[0])
        return factor(key, lambda: built.append(key[0]) or build())

    monkeypatch.setattr(cache, "factor", counting)
    again = propagate_cg(space, grid, 1, ic, prob.f, cache)
    assert sorted(looked_up) == ["cg_load", "cg_slab", "matrix", "step"]
    assert built == []
    assert np.array_equal(again.coeffs, first.coeffs)


def test_each_residual_call_assembles_its_loads_in_one_call(counted):
    assert [r["loads"] for r in counted["residuals"]] == [1, 1]  # D, then A


def test_slab_index_runs_once_per_distinct_weight(counted):
    weights = [r["weights"] for r in counted["residuals"]]
    assert weights == [CG.P_t, CG.P_t - 1]
    assert [r["lookups"] for r in counted["residuals"]] == weights
