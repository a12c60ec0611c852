"""Temporal partitions, implicit Euler and cG(q_t) propagation."""

import gc
import weakref

import numpy as np
import pytest

import parapost.schwarz as schwarz
import parapost.timestepping as timestepping
from parapost.estimator import ResidualEvaluator, dd_split
from parapost.harness import build_manufactured
from parapost.mesh import FeSpace, FormCache, NodalField, SpatialMesh
from parapost.schwarz import AdditiveSchwarz, decompose_domain
from parapost.timestepping import (
    TimePartition,
    dg0_equivalence_check,
    propagate_be,
    propagate_cg,
)


def _single_dof_space():
    # one interior hat on (0,1): M = [1/3], A = [4]
    return FeSpace(SpatialMesh.uniform(0.0, 1.0, 2), 1)


ZERO_F = lambda x, t: np.zeros_like(x)


def test_partition_uniform_grids():
    part = TimePartition.uniform(2.0, 4, 8, 3)
    assert np.allclose(part.sync_times, [0.0, 0.5, 1.0, 1.5, 2.0])
    assert len(part.coarse_grids) == 4 and len(part.fine_grids) == 4
    for p in range(4):
        assert len(part.coarse_grids[p]) == 3   # 2 coarse steps per subdomain
        assert len(part.fine_grids[p]) == 7     # r * 2 fine steps
        assert part.coarse_grids[p][0] == part.sync_times[p]
        assert part.coarse_grids[p][-1] == part.sync_times[p + 1]
    assert part.N_t == 24
    g = part.coarse_grid_global()
    assert np.allclose(g, np.linspace(0.0, 2.0, 9))


def test_partition_rejects_bad_divisibility():
    with pytest.raises(ValueError):
        TimePartition.uniform(1.0, 3, 8, 2)
    with pytest.raises(ValueError):
        TimePartition.uniform(1.0, 0, 8, 2)


def test_be_single_step_scalar():
    # (M + dt A) u_1 = M u_0 with M = 1/3, A = 4, dt = 0.1, u_0 = 0.3:
    # u_1 = 0.1 / (1/3 + 0.4)
    space = _single_dof_space()
    ic = NodalField(space, np.array([0.3]))
    traj = propagate_be(space, np.array([0.0, 0.1]), ic, ZERO_F)
    assert traj.values[1][0] == pytest.approx(0.1 / (1.0 / 3.0 + 0.4), abs=1e-15)


def test_cg1_single_step_scalar():
    # cG(1) with constant-in-time tests is the trapezoid-type update
    # (M + dt/2 A) u_1 = (M - dt/2 A) u_0
    space = _single_dof_space()
    u0 = 0.3
    dt = 0.1
    ic = NodalField(space, np.array([u0]))
    traj = propagate_cg(space, np.array([0.0, dt]), 1, ic, ZERO_F)
    M, A = 1.0 / 3.0, 4.0
    expected = (M - 0.5 * dt * A) / (M + 0.5 * dt * A) * u0
    assert traj.coeffs[0, 1][0] == pytest.approx(expected, abs=1e-15)
    assert traj.end.coefficients[0] == pytest.approx(expected, abs=1e-15)


def test_be_first_order_convergence():
    prob = build_manufactured(2, 1, 0.5)
    space = FeSpace(SpatialMesh.uniform(0.0, 1.0, 16), 3)
    ic = space.interpolate(prob.u0)
    cache = FormCache()

    def end_error(n_steps):
        traj = propagate_be(space, np.linspace(0.0, 0.5, n_steps + 1),
                            ic, prob.f, cache)
        exact = space.interpolate(lambda x: prob.u(x, 0.5))
        return np.max(np.abs(traj.end.coefficients - exact.coefficients))

    e1, e2, e3 = end_error(8), end_error(16), end_error(32)
    assert 1.8 < e1 / e2 < 2.2
    assert 1.8 < e2 / e3 < 2.2


def test_cg1_second_order_convergence():
    prob = build_manufactured(2, 1, 0.5)
    space = FeSpace(SpatialMesh.uniform(0.0, 1.0, 16), 3)
    ic = space.interpolate(prob.u0)
    cache = FormCache()

    def end_error(n_steps):
        traj = propagate_cg(space, np.linspace(0.0, 0.5, n_steps + 1), 1,
                            ic, prob.f, cache)
        exact = space.interpolate(lambda x: prob.u(x, 0.5))
        return np.max(np.abs(traj.end.coefficients - exact.coefficients))

    e1, e2, e3 = end_error(8), end_error(16), end_error(32)
    assert 3.6 < e1 / e2 < 4.4
    assert 3.6 < e2 / e3 < 4.4


def test_dg0_equivalence_and_negative_control():
    prob = build_manufactured(2, 1, 0.5)
    space = FeSpace(SpatialMesh.uniform(0.0, 1.0, 8), 2)
    traj = propagate_be(space, np.linspace(0.0, 0.5, 11),
                        space.interpolate(prob.u0), prob.f)
    assert dg0_equivalence_check(traj, prob.f) < 1e-12
    # perturbing the trajectory must be detected
    traj.values[3] += 1e-6
    assert dg0_equivalence_check(traj, prob.f) > 1e-8


def test_be_linearity_in_ic_and_forcing():
    space = FeSpace(SpatialMesh.uniform(0.0, 1.0, 6), 2)
    rng = np.random.default_rng(11)
    grid = np.linspace(0.0, 0.3, 5)
    cache = FormCache()
    ic1 = NodalField(space, rng.standard_normal(space.dof_count))
    ic2 = NodalField(space, rng.standard_normal(space.dof_count))
    f1 = lambda x, t: np.sin(np.pi * x) * (1.0 + t)
    f2 = lambda x, t: np.cos(2 * np.pi * x) * t
    a, b = 0.7, -1.3
    combo_ic = NodalField(space, a * ic1.coefficients + b * ic2.coefficients)
    combo_f = lambda x, t: a * f1(x, t) + b * f2(x, t)
    t1 = propagate_be(space, grid, ic1, f1, cache)
    t2 = propagate_be(space, grid, ic2, f2, cache)
    tc = propagate_be(space, grid, combo_ic, combo_f, cache)
    assert np.max(np.abs(tc.values - (a * t1.values + b * t2.values))) < 1e-11


def test_be_discrete_duality():
    # the homogeneous solution map L satisfies M L = L^T M (the spatial
    # operator is self-adjoint), so M L must be symmetric
    space = FeSpace(SpatialMesh.uniform(0.0, 1.0, 8), 2)
    cache = FormCache()
    grid = np.linspace(0.0, 0.2, 6)
    n = space.dof_count
    L = np.zeros((n, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        L[:, i] = propagate_be(space, grid, NodalField(space, e),
                               ZERO_F, cache).end.coefficients
    M = cache.mass(space, space)
    ML = M @ L
    assert np.max(np.abs(ML - ML.T)) < 1e-12


def test_cg_continuity_across_slabs():
    prob = build_manufactured(2, 1, 0.5)
    space = FeSpace(SpatialMesh.uniform(0.0, 1.0, 6), 2)
    traj = propagate_cg(space, np.linspace(0.0, 0.5, 6), 2,
                        space.interpolate(prob.u0), prob.f)
    for n in range(traj.n_steps - 1):
        assert np.array_equal(traj.coeffs[n, -1], traj.coeffs[n + 1, 0])


def test_cg_at_matches_nodes():
    prob = build_manufactured(2, 1, 0.5)
    space = FeSpace(SpatialMesh.uniform(0.0, 1.0, 6), 2)
    traj = propagate_cg(space, np.linspace(0.0, 0.5, 6), 2,
                        space.interpolate(prob.u0), prob.f)
    for n in range(traj.n_steps + 1):
        got = traj.at(traj.times[n]).coefficients
        want = traj.field(n).coefficients
        assert np.max(np.abs(got - want)) < 1e-12


def test_cross_space_incoming_projection():
    # an incoming coarse field is L2-projected into the solve space at start
    mesh = SpatialMesh.uniform(0.0, 1.0, 6)
    coarse, fine = FeSpace(mesh, 1), FeSpace(mesh, 2)
    rng = np.random.default_rng(2)
    ic = NodalField(coarse, rng.standard_normal(coarse.dof_count))
    traj = propagate_be(fine, np.array([0.0, 0.1]), ic, ZERO_F)
    cache = FormCache()
    M = cache.mass(fine, fine)
    Minc = cache.mass(fine, coarse)
    want = np.linalg.solve(M, Minc @ ic.coefficients)
    assert np.max(np.abs(traj.values[0] - want)) < 1e-12


def test_cg_rejects_bad_degree():
    space = _single_dof_space()
    ic = NodalField(space, np.array([1.0]))
    with pytest.raises(ValueError):
        propagate_cg(space, np.array([0.0, 0.1]), 0, ic, ZERO_F)


def test_cg_homogeneous_none_equals_zero_forcing():
    space = FeSpace(SpatialMesh.uniform(0.0, 1.0, 6), 2)
    ic = space.interpolate(lambda x: np.sin(np.pi * x))
    grid = np.linspace(0.0, 0.3, 4)
    cache = FormCache()
    a = propagate_cg(space, grid, 2, ic, None, cache)
    b = propagate_cg(space, grid, 2, ic, ZERO_F, cache)
    assert np.array_equal(a.coeffs, b.coeffs)


def test_cg_slab_factors_die_with_their_cache():
    # the slab factorizations, the Schwarz sweepers and the spatial adjoint
    # solvers belong to the FormCache passed in: once the cache, the spaces
    # and the decomposition are dropped nothing else keeps them alive, and
    # reference counting alone frees them (no cycle waits for the collector)
    mesh = SpatialMesh.uniform(0.0, 1.0, 6)
    space = FeSpace(mesh, 2)
    adj_space = FeSpace(mesh, 3)
    decomp = decompose_domain(mesh, 2, 0.35)
    cache = FormCache()
    ic = space.interpolate(lambda x: np.sin(np.pi * x))
    grid = np.linspace(0.0, 0.2, 3)
    gc.collect()
    gc.disable()
    try:
        propagate_cg(space, grid, 2, ic, ZERO_F, cache)
        traj = propagate_be(space, grid, ic, ZERO_F, cache, decomp=decomp,
                            K_s=2)
        assert AdditiveSchwarz.cached(cache, space, grid[1], decomp).space is space
        ev = ResidualEvaluator(ZERO_F, cache)
        phi = adj_space.interpolate(lambda x: np.sin(np.pi * x))
        dd_split(traj, 1, decomp, phi, ev)
        refs = [weakref.ref(obj) for obj in (cache, space, adj_space, decomp)]
        del space, adj_space, decomp, cache, ic, traj, ev, phi
        assert [ref() for ref in refs] == [None] * 4
    finally:
        gc.enable()
    for module in (timestepping, schwarz):
        module_state = [name for name, value in vars(module).items()
                        if not name.startswith("__")
                        and isinstance(value, (dict, list, set))]
        assert module_state == []
