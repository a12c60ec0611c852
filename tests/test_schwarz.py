"""Overlapping domain decomposition and additive Schwarz stepping."""

import numpy as np
import pytest

from parapost.harness import build_manufactured
from parapost.mesh import FeSpace, FormCache, SpatialMesh
from parapost.schwarz import (
    AdditiveSchwarz,
    decompose_domain,
    subdomain_dof_sets,
)
from parapost.timestepping import propagate_be


def test_decompose_two_subdomains_beta_02():
    # 20 elements, 2 subdomains, 20% overlap extension: blocks of 10 extended
    # by 2 elements across the interior edge
    mesh = SpatialMesh.uniform(0.0, 1.0, 20)
    d = decompose_domain(mesh, 2, 0.2)
    assert d.ranges == ((0, 12), (8, 20))
    assert d.overlaps[(0, 1)] == (8, 12)
    assert d.overlaps[(1, 0)] == (8, 12)
    assert d.overlaps[(0, 0)] == (0, 12)


def test_decompose_four_subdomains_beta_01():
    mesh = SpatialMesh.uniform(0.0, 1.0, 40)
    d = decompose_domain(mesh, 4, 0.1)  # block 10, extension 1
    assert d.ranges == ((0, 11), (9, 21), (19, 31), (29, 40))


def test_decompose_rejects_bad_inputs():
    mesh = SpatialMesh.uniform(0.0, 1.0, 20)
    with pytest.raises(ValueError):
        decompose_domain(mesh, 3, 0.2)     # 20 not divisible by 3
    with pytest.raises(ValueError):
        decompose_domain(mesh, 10, 0.01)   # extension rounds to zero
    with pytest.raises(ValueError):
        decompose_domain(mesh, 0, 0.2)
    # damping outside 0 < tau * m < 2, m = 2 overlapping subdomains here
    for tau in (0.0, -0.4, 1.0, 2.0, float("nan")):
        with pytest.raises(ValueError, match="tau"):
            decompose_domain(mesh, 2, 0.2, tau=tau)
    assert decompose_domain(mesh, 2, 0.2, tau=0.99).tau == 0.99
    assert decompose_domain(mesh, 1, 0.2, tau=1.99).tau == 1.99


def test_subdomain_dof_sets_structure():
    mesh = SpatialMesh.uniform(0.0, 1.0, 20)
    space = FeSpace(mesh, 2)
    d = decompose_domain(mesh, 2, 0.2)
    covered = set()
    for i in range(2):
        interior, trace = subdomain_dof_sets(space, d, i)
        lo, hi = d.ranges[i]
        # each edge subdomain has q*n_loc - 1 interior dofs and one trace node
        n_loc = hi - lo
        assert len(interior) == 2 * n_loc - 1
        assert len(trace) == 1
        covered |= set(interior) | set(trace)
    assert covered == set(range(space.dof_count))


def test_schwarz_collapse_single_subdomain():
    # P_s = 1, tau = 1, K_s = 1 is an exact direct solve per step
    prob = build_manufactured(2, 2, 0.5)
    mesh = SpatialMesh.uniform(0.0, 1.0, 8)
    space = FeSpace(mesh, 2)
    d = decompose_domain(mesh, 1, 0.2, tau=1.0)
    ic = space.interpolate(prob.u0)
    grid = np.linspace(0.0, 0.5, 9)
    cache = FormCache()
    a = propagate_be(space, grid, ic, prob.f, cache, decomp=d, K_s=1)
    b = propagate_be(space, grid, ic, prob.f, cache)
    assert np.max(np.abs(a.values - b.values)) < 1e-10


def test_schwarz_many_sweeps_converges_to_direct():
    prob = build_manufactured(2, 2, 0.5)
    mesh = SpatialMesh.uniform(0.0, 1.0, 20)
    space = FeSpace(mesh, 2)
    d = decompose_domain(mesh, 2, 0.2)
    ic = space.interpolate(prob.u0)
    grid = np.linspace(0.0, 0.5, 6)
    cache = FormCache()
    a = propagate_be(space, grid, ic, prob.f, cache, decomp=d, K_s=50)
    b = propagate_be(space, grid, ic, prob.f, cache)
    assert np.max(np.abs(a.values - b.values)) < 1e-10


def test_sweep_fixed_point():
    mesh = SpatialMesh.uniform(0.0, 1.0, 12)
    space = FeSpace(mesh, 2)
    d = decompose_domain(mesh, 2, 0.25)
    cache = FormCache()
    B = cache.mass(space, space) + 0.02 * cache.stiffness(space, space)
    rng = np.random.default_rng(9)
    rhs = rng.standard_normal(space.dof_count)
    exact = cache.step_operator(space, 0.02).solve(rhs)
    sweeper = AdditiveSchwarz(space, B, d)
    u, _ = sweeper.solve(rhs, exact, 4)
    assert np.max(np.abs(u - exact)) < 1e-11


def test_blend_identity_from_record():
    # every recorded iterate satisfies
    # U^{k+1} = (1 - tau P_s) U^k + tau sum_i Pi_i U_loc_i
    mesh = SpatialMesh.uniform(0.0, 1.0, 20)
    space = FeSpace(mesh, 2)
    d = decompose_domain(mesh, 2, 0.2)
    cache = FormCache()
    B = cache.mass(space, space) + 0.05 * cache.stiffness(space, space)
    rng = np.random.default_rng(4)
    rhs = rng.standard_normal(space.dof_count)
    sweeper = AdditiveSchwarz(space, B, d)
    guess = rng.standard_normal(space.dof_count)
    _, rec = sweeper.solve(rhs, guess, 3)
    tau, P_s = d.tau, d.P_s
    for k in range(3):
        blend = (1 - tau * P_s) * rec.iterates[k]
        for i in range(P_s):
            blend = blend + tau * rec.locals_[k][i]
        assert np.max(np.abs(rec.iterates[k + 1] - blend)) < 1e-14


def test_locals_match_iterate_outside_closure():
    mesh = SpatialMesh.uniform(0.0, 1.0, 20)
    space = FeSpace(mesh, 2)
    d = decompose_domain(mesh, 2, 0.2)
    cache = FormCache()
    B = cache.mass(space, space) + 0.05 * cache.stiffness(space, space)
    rng = np.random.default_rng(6)
    rhs = rng.standard_normal(space.dof_count)
    sweeper = AdditiveSchwarz(space, B, d)
    _, rec = sweeper.solve(rhs, np.zeros(space.dof_count), 2)
    for k in range(2):
        for i in range(d.P_s):
            interior, _ = subdomain_dof_sets(space, d, i)
            outside = np.setdiff1d(np.arange(space.dof_count), interior)
            assert np.array_equal(rec.locals_[k][i][outside],
                                  rec.iterates[k][outside])


def test_local_solves_satisfy_restricted_system():
    mesh = SpatialMesh.uniform(0.0, 1.0, 20)
    space = FeSpace(mesh, 2)
    d = decompose_domain(mesh, 2, 0.2)
    cache = FormCache()
    B = cache.mass(space, space) + 0.05 * cache.stiffness(space, space)
    rng = np.random.default_rng(8)
    rhs = rng.standard_normal(space.dof_count)
    sweeper = AdditiveSchwarz(space, B, d)
    _, rec = sweeper.solve(rhs, np.zeros(space.dof_count), 2)
    for k in range(2):
        for i in range(d.P_s):
            interior, _ = subdomain_dof_sets(space, d, i)
            res = (B @ rec.locals_[k][i])[interior] - rhs[interior]
            assert np.max(np.abs(res)) < 1e-11


def test_schwarz_stepping_rejects_zero_sweeps():
    prob = build_manufactured(2, 2, 0.5)
    mesh = SpatialMesh.uniform(0.0, 1.0, 20)
    space = FeSpace(mesh, 2)
    d = decompose_domain(mesh, 2, 0.2)
    ic = space.interpolate(prob.u0)
    grid = np.linspace(0.0, 0.5, 6)
    with pytest.raises(ValueError):
        propagate_be(space, grid, ic, prob.f, FormCache(), decomp=d, K_s=0)


def test_records_are_retained_per_step():
    prob = build_manufactured(2, 2, 0.5)
    mesh = SpatialMesh.uniform(0.0, 1.0, 8)
    space = FeSpace(mesh, 1)
    d = decompose_domain(mesh, 2, 0.25)
    ic = space.interpolate(prob.u0)
    traj = propagate_be(space, np.linspace(0.0, 0.5, 5), ic, prob.f,
                        decomp=d, K_s=3)
    assert len(traj.schwarz_records) == 4
    for rec in traj.schwarz_records:
        assert len(rec.iterates) == 4      # guess + 3 sweeps
        assert len(rec.locals_) == 3
        assert np.max(np.abs(rec.iterates[0])) == 0.0  # zero initial guess


def test_many_sweeps_solve_the_step_system():
    mesh = SpatialMesh.uniform(0.0, 1.0, 12)
    space = FeSpace(mesh, 2)
    d = decompose_domain(mesh, 2, 0.25)
    cache = FormCache()
    B = cache.step_operator(space, 0.02)
    rng = np.random.default_rng(12)
    rhs = rng.standard_normal(space.dof_count)
    sweeper = AdditiveSchwarz.cached(cache, space, 0.02, d)
    u, rec = sweeper.solve(rhs, np.zeros(space.dof_count), 40)
    assert np.max(np.abs(u - B.solve(rhs))) < 1e-6
    assert len(rec.locals_) == 40


def test_sweeper_is_built_once_per_space_dt_and_decomposition():
    mesh = SpatialMesh.uniform(0.0, 1.0, 12)
    space = FeSpace(mesh, 2)
    d = decompose_domain(mesh, 2, 0.25)
    cache = FormCache()
    a = AdditiveSchwarz.cached(cache, space, 0.02, d)
    assert AdditiveSchwarz.cached(cache, space, 0.02, d) is a
    assert AdditiveSchwarz.cached(cache, space, 0.04, d) is not a
    other = decompose_domain(mesh, 2, 0.25)
    assert AdditiveSchwarz.cached(cache, space, 0.02, other) is not a
    assert len({d, other}) == 2
