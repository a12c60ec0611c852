"""Backward temporal adjoints and the per-step spatial adjoints."""

import numpy as np
import pytest

import parapost.timestepping as timestepping
from parapost.adjoint import (
    SpatialAdjointSolver,
    solve_auxiliary_adjoints,
    solve_backward_cg,
    solve_coarse_adjoint,
    solve_fine_adjoints,
)
from parapost.mesh import (
    FeSpace,
    FormCache,
    NodalField,
    SpatialMesh,
    assemble_matrix,
)
from parapost.schwarz import decompose_domain, subdomain_dof_sets
from parapost.timestepping import TimePartition, propagate_cg


def test_backward_solve_matches_separable_exact_adjoint():
    # terminal data sin(pi x) decays backward as e^{-pi^2 (T - t)} sin(pi x)
    T = 0.1
    space = FeSpace(SpatialMesh.uniform(0.0, 1.0, 20), 3)
    grid = np.linspace(0.0, T, 41)
    terminal = space.interpolate(lambda x: np.sin(np.pi * x))
    adj = solve_backward_cg("test", space, grid, terminal)
    worst = 0.0
    for t in grid:
        got = adj.value_at_node(t).coefficients
        want = (np.exp(-np.pi**2 * (T - t))
                * np.sin(np.pi * space.dof_coords))
        worst = max(worst, np.max(np.abs(got - want)))
    assert worst < 1e-4


def test_terminal_value_is_projected_terminal_data():
    space = FeSpace(SpatialMesh.uniform(0.0, 1.0, 10), 3)
    grid = np.linspace(0.0, 0.2, 5)
    rng = np.random.default_rng(1)
    terminal = NodalField(space, rng.standard_normal(space.dof_count))
    adj = solve_backward_cg("test", space, grid, terminal)
    got = adj.value_at_node(0.2).coefficients
    assert np.max(np.abs(got - terminal.coefficients)) < 1e-11


def test_backward_solve_linearity():
    space = FeSpace(SpatialMesh.uniform(0.0, 1.0, 8), 3)
    grid = np.linspace(0.0, 0.3, 7)
    rng = np.random.default_rng(2)
    ta = NodalField(space, rng.standard_normal(space.dof_count))
    tb = NodalField(space, rng.standard_normal(space.dof_count))
    a, b = 1.7, -0.4
    combo = NodalField(space, a * ta.coefficients + b * tb.coefficients)
    adj_a = solve_backward_cg("a", space, grid, ta)
    adj_b = solve_backward_cg("b", space, grid, tb)
    adj_c = solve_backward_cg("c", space, grid, combo)
    dev = np.max(np.abs(adj_c.coeffs - (a * adj_a.coeffs + b * adj_b.coeffs)))
    assert dev < 1e-10


def test_single_subdomain_fine_adjoint_equals_direct():
    part = TimePartition.uniform(0.5, 1, 4, 3)
    space = FeSpace(SpatialMesh.uniform(0.0, 1.0, 10), 3)
    cache = FormCache()
    psi = lambda x: np.sin(np.pi * x)
    coarse = solve_coarse_adjoint(part, space, psi, cache=cache)
    fines = solve_fine_adjoints(part, coarse, cache=cache)
    assert len(fines) == 1
    direct = solve_backward_cg("direct", space, part.fine_grids[0],
                               space.interpolate(psi), cache=cache)
    assert np.max(np.abs(fines[0].coeffs - direct.coeffs)) < 1e-11


def test_auxiliary_adjoints_keys_and_terminals():
    part = TimePartition.uniform(1.0, 4, 8, 2)
    space = FeSpace(SpatialMesh.uniform(0.0, 1.0, 10), 3)
    cache = FormCache()
    psi = lambda x: np.sin(np.pi * x)
    coarse = solve_coarse_adjoint(part, space, psi, cache=cache)
    fines = solve_fine_adjoints(part, coarse, cache=cache)
    aux = solve_auxiliary_adjoints(part, coarse, fines, cache=cache)
    assert sorted(aux) == [2, 3, 4]
    for p in (2, 3, 4):
        t = part.sync_times[p - 1]
        jump = (fines[p - 1].value_at_node(t).coefficients
                - coarse.value_at_node(t).coefficients)
        got = aux[p].value_at_node(t).coefficients
        assert np.max(np.abs(got - jump)) < 1e-11
        assert abs(aux[p].times[0]) < 1e-14  # solved back to t = 0


def test_adjoint_jump_shrinks_under_coarse_refinement():
    space = FeSpace(SpatialMesh.uniform(0.0, 1.0, 10), 3)
    psi = lambda x: np.sin(np.pi * x)

    def max_jump(nhat_t):
        part = TimePartition.uniform(1.0, 5, nhat_t, 4)
        cache = FormCache()
        coarse = solve_coarse_adjoint(part, space, psi, cache=cache)
        fines = solve_fine_adjoints(part, coarse, cache=cache)
        worst = 0.0
        for p in range(2, 6):
            t = part.sync_times[p - 1]
            jump = (fines[p - 1].value_at_node(t).coefficients
                    - coarse.value_at_node(t).coefficients)
            worst = max(worst, np.max(np.abs(jump)))
        return worst

    j10, j20, j40 = max_jump(10), max_jump(20), max_jump(40)
    assert j20 < j10
    assert j40 < j20


def test_slab_index_validation():
    space = FeSpace(SpatialMesh.uniform(0.0, 1.0, 4), 2)
    grid = np.linspace(0.0, 0.4, 5)
    terminal = space.interpolate(lambda x: np.sin(np.pi * x))
    adj = solve_backward_cg("t", space, grid, terminal)
    assert adj.slab_index(0.1, 0.2) == 1
    with pytest.raises(ValueError):
        adj.slab_index(0.1, 0.3)
    with pytest.raises(ValueError):
        adj.value_at_node(0.15)


def test_spatial_adjoint_global_solve_residual():
    mesh = SpatialMesh.uniform(0.0, 1.0, 20)
    space = FeSpace(mesh, 3)
    decomp = decompose_domain(mesh, 2, 0.2)
    solver = SpatialAdjointSolver(space, 0.01, decomp)
    weight = space.interpolate(lambda x: np.sin(2 * np.pi * x))
    Phi = solver.solve_global(weight)
    M = assemble_matrix(space, space, "mass")
    B = M + 0.01 * assemble_matrix(space, space, "stiffness")
    res = B @ Phi.coefficients - M @ weight.coefficients
    assert np.max(np.abs(res)) < 1e-12


def test_spatial_adjoint_subdomain_recursion_residual():
    # rebuild the backward recursion's right-hand sides from the matrices
    # restricted to each overlap Omega_i & Omega_j, summed over j, and check
    # each interior solve's residual
    mesh = SpatialMesh.uniform(0.0, 1.0, 20)
    space = FeSpace(mesh, 3)
    dt = 0.01
    decomp = decompose_domain(mesh, 2, 0.2)
    solver = SpatialAdjointSolver(space, dt, decomp)
    weight = space.interpolate(lambda x: np.sin(np.pi * x))
    K_s = 3
    chi = solver.solve_subdomain(weight, K_s)
    tau, P_s = decomp.tau, decomp.P_s
    ndof = space.dof_count
    B = (assemble_matrix(space, space, "mass")
         + dt * assemble_matrix(space, space, "stiffness"))
    M_ov, B_ov = {}, {}
    for (i, j), (lo, hi) in decomp.overlaps.items():
        elems = range(lo, hi)
        M_ov[(i, j)] = assemble_matrix(space, space, "mass", elems)
        B_ov[(i, j)] = (M_ov[(i, j)]
                        + dt * assemble_matrix(space, space, "stiffness", elems))
    for i in range(P_s):
        interior = subdomain_dof_sets(space, decomp, i)[0]
        running = np.zeros(ndof)
        for ks in range(K_s, 0, -1):
            rhs = np.zeros(ndof)
            for j in range(P_s):
                if (i, j) not in M_ov:
                    continue
                rhs += M_ov[(i, j)] @ weight.coefficients
                rhs -= B_ov[(i, j)] @ running
            rhs *= tau
            res = (B @ chi[ks - 1][i])[interior] - rhs[interior]
            assert np.max(np.abs(res)) < 1e-12
            outside = np.setdiff1d(np.arange(ndof), interior)
            assert np.max(np.abs(chi[ks - 1][i][outside])) == 0.0
            running += chi[ks - 1][i]


def test_spatial_adjoint_mirror_symmetry():
    # a symmetric weight on a symmetric two-subdomain split gives mirrored
    # subdomain adjoints under x -> 1 - x
    mesh = SpatialMesh.uniform(0.0, 1.0, 20)
    space = FeSpace(mesh, 3)
    decomp = decompose_domain(mesh, 2, 0.2)
    solver = SpatialAdjointSolver(space, 0.02, decomp)
    weight = space.interpolate(lambda x: np.sin(np.pi * x))
    chi = solver.solve_subdomain(weight, 2)
    for ks in range(2):
        mirrored = chi[ks][1][::-1]  # dof coords are symmetric about 0.5
        assert np.max(np.abs(chi[ks][0] - mirrored)) < 1e-12


def test_homogeneous_backward_solves_assemble_no_load(monkeypatch):
    calls = []
    real = timestepping.assemble_load

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(timestepping, "assemble_load", counting)
    space = FeSpace(SpatialMesh.uniform(0.0, 1.0, 6), 3)
    grid = np.linspace(0.0, 0.3, 4)
    terminal = space.interpolate(lambda x: np.sin(np.pi * x))
    cache = FormCache()
    solve_backward_cg("test", space, grid, terminal, cache=cache)
    assert calls == []
    propagate_cg(space, grid, 3, terminal,
                 lambda x, t: np.sin(np.pi * x) * t, cache)
    assert len(calls) > 0
