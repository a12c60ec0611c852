"""Backward temporal adjoints and the per-step spatial adjoints (the global
one by the step operator, the per-sweep subdomain ones by the sweeper)."""

import numpy as np
import pytest

import parapost.adjoint as adjoint_module
import parapost.mesh as mesh_module
from parapost.adjoint import (
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
from parapost.estimator import ResidualEvaluator, dd_split
from parapost.schwarz import AdditiveSchwarz, decompose_domain, subdomain_dof_sets
from parapost.timestepping import TimePartition, propagate_be, propagate_cg

from oracles import slab_index, value_at_node


def test_backward_solve_matches_separable_exact_adjoint():
    # terminal data sin(pi x) decays backward as e^{-pi^2 (T - t)} sin(pi x)
    T = 0.1
    space = FeSpace(SpatialMesh.uniform(0.0, 1.0, 20), 3)
    grid = np.linspace(0.0, T, 41)
    terminal = space.interpolate(lambda x: np.sin(np.pi * x))
    adj = solve_backward_cg("test", space, grid, terminal, 3, FormCache())
    worst = 0.0
    for t in grid:
        got = value_at_node(adj, t).coefficients
        want = (np.exp(-np.pi**2 * (T - t))
                * np.sin(np.pi * space.dof_coords))
        worst = max(worst, np.max(np.abs(got - want)))
    assert worst < 1e-4


def test_terminal_value_is_projected_terminal_data():
    space = FeSpace(SpatialMesh.uniform(0.0, 1.0, 10), 3)
    grid = np.linspace(0.0, 0.2, 5)
    rng = np.random.default_rng(1)
    terminal = NodalField(space, rng.standard_normal(space.dof_count))
    adj = solve_backward_cg("test", space, grid, terminal, 3, FormCache())
    got = value_at_node(adj, 0.2).coefficients
    assert np.max(np.abs(got - terminal.coefficients)) < 1e-11


def test_backward_solve_linearity():
    space = FeSpace(SpatialMesh.uniform(0.0, 1.0, 8), 3)
    grid = np.linspace(0.0, 0.3, 7)
    rng = np.random.default_rng(2)
    ta = NodalField(space, rng.standard_normal(space.dof_count))
    tb = NodalField(space, rng.standard_normal(space.dof_count))
    a, b = 1.7, -0.4
    combo = NodalField(space, a * ta.coefficients + b * tb.coefficients)
    cache = FormCache()
    adj_a = solve_backward_cg("a", space, grid, ta, 3, cache)
    adj_b = solve_backward_cg("b", space, grid, tb, 3, cache)
    adj_c = solve_backward_cg("c", space, grid, combo, 3, cache)
    dev = np.max(np.abs(adj_c.coeffs - (a * adj_a.coeffs + b * adj_b.coeffs)))
    assert dev < 1e-10


def test_single_subdomain_fine_adjoint_equals_direct():
    part = TimePartition.uniform(0.5, 1, 4, 3)
    space = FeSpace(SpatialMesh.uniform(0.0, 1.0, 10), 3)
    cache = FormCache()
    psi = lambda x: np.sin(np.pi * x)
    coarse = solve_coarse_adjoint(part, space, psi, 3, cache)
    fines = solve_fine_adjoints(part, coarse, 3, cache)
    assert len(fines) == 1
    direct = solve_backward_cg("direct", space, part.fine_grids[0],
                               space.interpolate(psi), 3, cache)
    assert np.max(np.abs(fines[0].coeffs - direct.coeffs)) < 1e-11


@pytest.mark.parametrize("q_t", [1, 2, 3])
def test_stacked_backward_columns_are_their_own_calls(q_t):
    # the partition's grids have steps that differ in their last bits, and
    # so do their time reversals; the fourth grid's steps are four times as
    # long, so it is solved in its own call
    space = FeSpace(SpatialMesh.uniform(0.0, 1.0, 6), 3)
    part = TimePartition.uniform(0.6, 3, 6, 2)
    grids = np.vstack((part.fine_grids, np.linspace(0.6, 1.4, 5)))
    rng = np.random.default_rng(q_t)
    terms = [NodalField(space, rng.standard_normal(space.dof_count))
             for _ in grids]
    names = [f"col({j})" for j in range(len(grids))]
    cache = FormCache()
    batch = (solve_backward_cg(names[:3], space, grids[:3], terms[:3], q_t,
                               cache)
             + solve_backward_cg(names[3:], space, grids[3:], terms[3:], q_t,
                                 cache))
    assert len(batch) == 4
    for j, (name, grid, term, got) in enumerate(
            zip(names, grids, terms, batch, strict=True)):
        want = solve_backward_cg(name, space, grid, term, q_t, cache)
        assert got.incoming is term and np.array_equal(got.times, grid)
        assert np.array_equal(got.coeffs, want.coeffs)
        # each adjoint is a forward-ordered row of its call's stacked array
        assert got.coeffs.flags.c_contiguous
        assert got.coeffs.base is batch[0 if j < 3 else 3].coeffs.base
    with pytest.raises(ValueError, match="4 grids but 3 names"):
        solve_backward_cg(names[:3], space, grids, terms, q_t, cache)


def test_auxiliary_adjoints_keys_and_terminals():
    part = TimePartition.uniform(1.0, 4, 8, 2)
    space = FeSpace(SpatialMesh.uniform(0.0, 1.0, 10), 3)
    cache = FormCache()
    psi = lambda x: np.sin(np.pi * x)
    coarse = solve_coarse_adjoint(part, space, psi, 3, cache)
    fines = solve_fine_adjoints(part, coarse, 3, cache)
    aux = solve_auxiliary_adjoints(part, coarse, fines, 3, cache)
    assert sorted(aux) == [2, 3, 4]
    for p in (2, 3, 4):
        t = part.sync_times[p - 1]
        jump = (value_at_node(fines[p - 1], t).coefficients
                - value_at_node(coarse, t).coefficients)
        got = value_at_node(aux[p], t).coefficients
        assert np.max(np.abs(got - jump)) < 1e-11
        assert abs(aux[p].times[0]) < 1e-14  # solved back to t = 0


def _aux_setup(P_t=10, nhat_p=2):
    part = TimePartition.uniform(1.0, P_t, nhat_p * P_t, 2)
    space = FeSpace(SpatialMesh.uniform(0.0, 1.0, 6), 3)
    cache = FormCache()
    coarse = solve_coarse_adjoint(part, space, lambda x: np.sin(np.pi * x),
                                  3, cache)
    return part, coarse, solve_fine_adjoints(part, coarse, 3, cache), cache


def test_auxiliary_adjoints_are_each_their_own_solve():
    # P_t = 10 with two coarse steps per subdomain: psi_p, p = 10..2, are
    # one ragged stack, each a prefix view of one array and bitwise its
    # own single-grid solve on the coarse grid's prefix up to T_{p-1}
    part, coarse, fines, cache = _aux_setup()
    aux = solve_auxiliary_adjoints(part, coarse, fines, 3, cache)
    assert list(aux) == list(range(2, 11))
    grid = part.coarse_grid
    for p, adj in aux.items():
        t = part.sync_times[p - 1]
        own = solve_backward_cg(
            f"auxiliary({p})", coarse.space, grid[:2 * (p - 1) + 1],
            value_at_node(fines[p - 1], t) - value_at_node(coarse, t), 3,
            cache)
        assert np.array_equal(adj.times, own.times)
        assert np.array_equal(adj.coeffs, own.coeffs)
        assert np.array_equal(adj.incoming.coefficients,
                              own.incoming.coefficients)
        assert adj.coeffs.flags.c_contiguous
        assert adj.coeffs.base is aux[2].coeffs.base


def test_nonfinite_auxiliary_adjoint_names_its_p():
    # the jump at T_3 alone is NaN, so of the ragged stack psi_4 alone is
    # not finite, from its first time-reversed step on
    part, coarse, fines, cache = _aux_setup()
    fines[3].coeffs[0, 0, 1] = np.nan
    with pytest.raises(ValueError, match=r"^auxiliary\(4\) adjoint \(time "
                       r"reversed, t -> 0\.3 - t\): .* n=1, t=0\.05$"):
        solve_auxiliary_adjoints(part, coarse, fines, 3, cache)


def test_unset_slabs_of_a_ragged_stack_fail_no_finiteness_check(monkeypatch):
    # a ragged stack's unset slabs come from np.empty; filled with NaN they
    # fail the one pass over the whole stack, and the exact check, which
    # does not read them, clears it
    part, coarse, fines, cache = _aux_setup()
    want = solve_auxiliary_adjoints(part, coarse, fines, 3, cache)
    real = adjoint_module._step_slabs

    def unset_nan(*args, first, **kwargs):
        out = real(*args, first=first, **kwargs)
        for j, s in enumerate(first):  # stored in time-reversed order
            out[j, out.shape[1] - s:] = np.nan
        return out

    monkeypatch.setattr(adjoint_module, "_step_slabs", unset_nan)
    got = solve_auxiliary_adjoints(part, coarse, fines, 3, cache)
    assert list(got) == list(want)
    for p in want:
        assert np.array_equal(got[p].coeffs, want[p].coeffs)


def test_slab_index_of_arrays():
    space = FeSpace(SpatialMesh.uniform(0.0, 1.0, 4), 2)
    grid = np.linspace(0.0, 0.4, 5)
    terminal = space.interpolate(lambda x: np.sin(np.pi * x))
    adj = solve_backward_cg("t", space, grid, terminal, 3, FormCache())
    got = slab_index(adj, grid[1:-1], grid[2:])
    assert got.tolist() == [slab_index(adj, a, b)
                            for a, b in zip(grid[1:-1], grid[2:])] == [1, 2, 3]
    # the first interval that is not a slab is named
    with pytest.raises(ValueError, match=r"^\[0\.2, 0\.25\] is not a slab"):
        slab_index(adj, np.array([0.1, 0.2, 0.1]),
                   np.array([0.2, 0.25, 0.3]))


def test_adjoint_jump_shrinks_under_coarse_refinement():
    space = FeSpace(SpatialMesh.uniform(0.0, 1.0, 10), 3)
    psi = lambda x: np.sin(np.pi * x)

    def max_jump(nhat_t):
        part = TimePartition.uniform(1.0, 5, nhat_t, 4)
        cache = FormCache()
        coarse = solve_coarse_adjoint(part, space, psi, 3, cache)
        fines = solve_fine_adjoints(part, coarse, 3, cache)
        worst = 0.0
        for p in range(2, 6):
            t = part.sync_times[p - 1]
            jump = (value_at_node(fines[p - 1], t).coefficients
                    - value_at_node(coarse, t).coefficients)
            worst = max(worst, np.max(np.abs(jump)))
        return worst

    j10, j20, j40 = max_jump(10), max_jump(20), max_jump(40)
    assert j20 < j10
    assert j40 < j20


def test_slab_index_validation():
    space = FeSpace(SpatialMesh.uniform(0.0, 1.0, 4), 2)
    grid = np.linspace(0.0, 0.4, 5)
    terminal = space.interpolate(lambda x: np.sin(np.pi * x))
    adj = solve_backward_cg("t", space, grid, terminal, 3, FormCache())
    assert slab_index(adj, 0.1, 0.2) == 1
    with pytest.raises(ValueError):
        slab_index(adj, 0.1, 0.3)
    with pytest.raises(ValueError):
        value_at_node(adj, 0.15)


def test_spatial_adjoint_global_solve_residual():
    mesh = SpatialMesh.uniform(0.0, 1.0, 20)
    space = FeSpace(mesh, 3)
    cache = FormCache()
    weight = space.interpolate(lambda x: np.sin(2 * np.pi * x))
    # dd_split's global adjoint: the cached step operator's solve
    Phi = cache.step_operator(space, 0.01).solve(
        cache.mass(space, space) @ weight.coefficients)
    M = assemble_matrix(space, space, "mass")
    B = M + 0.01 * assemble_matrix(space, space, "stiffness")
    res = B @ Phi - M @ weight.coefficients
    assert np.max(np.abs(res)) < 1e-12


def _chi(sweeper, weight, K_s):
    """The subdomain adjoints of one weight field, keyed (k_s, i)."""
    return {(ks, i): chi[0] for ks, i, chi
            in sweeper.adjoint(weight.coefficients[None], K_s)}


def test_spatial_adjoint_subdomain_recursion_residual():
    # rebuild the backward recursion's right-hand sides from the matrices
    # restricted to each overlap Omega_i & Omega_j, summed over j, and check
    # each interior solve's residual
    mesh = SpatialMesh.uniform(0.0, 1.0, 20)
    space = FeSpace(mesh, 3)
    dt = 0.01
    decomp = decompose_domain(mesh, 2, 0.2, 0.4)
    sweeper = AdditiveSchwarz(space, dt, decomp, FormCache())
    weight = space.interpolate(lambda x: np.sin(np.pi * x))
    K_s = 3
    chi = _chi(sweeper, weight, K_s)
    tau, P_s = decomp.tau, decomp.P_s
    ndof = space.dof_count
    B = (assemble_matrix(space, space, "mass")
         + dt * assemble_matrix(space, space, "stiffness"))
    M_ov, B_ov = {}, {}
    for (i, j) in np.ndindex(P_s, P_s):
        (lo_i, hi_i), (lo_j, hi_j) = decomp.ranges[i], decomp.ranges[j]
        elems = range(max(lo_i, lo_j), min(hi_i, hi_j))
        if not elems:
            continue
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
            res = (B @ chi[ks, i])[interior] - rhs[interior]
            assert np.max(np.abs(res)) < 1e-12
            outside = np.setdiff1d(np.arange(ndof), interior)
            assert np.max(np.abs(chi[ks, i][outside])) == 0.0
            running += chi[ks, i]


def test_spatial_adjoint_mirror_symmetry():
    # a symmetric weight on a symmetric two-subdomain split gives mirrored
    # subdomain adjoints under x -> 1 - x
    mesh = SpatialMesh.uniform(0.0, 1.0, 20)
    space = FeSpace(mesh, 3)
    decomp = decompose_domain(mesh, 2, 0.2, 0.4)
    sweeper = AdditiveSchwarz(space, 0.02, decomp, FormCache())
    weight = space.interpolate(lambda x: np.sin(np.pi * x))
    chi = _chi(sweeper, weight, 2)
    for ks in (1, 2):
        mirrored = chi[ks, 1][::-1]  # dof coords are symmetric about 0.5
        assert np.max(np.abs(chi[ks, 0] - mirrored)) < 1e-12


def test_homogeneous_backward_solves_assemble_no_load(monkeypatch):
    calls = []
    real = mesh_module.assemble_load

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(mesh_module, "assemble_load", counting)
    space = FeSpace(SpatialMesh.uniform(0.0, 1.0, 6), 3)
    grid = np.linspace(0.0, 0.3, 4)
    terminal = space.interpolate(lambda x: np.sin(np.pi * x))
    cache = FormCache()
    solve_backward_cg("test", space, grid, terminal, 3, cache)
    assert calls == []
    propagate_cg(space, grid, 3, terminal,
                 lambda x, t: np.sin(np.pi * x) * t, cache)
    assert len(calls) > 0


def test_nonfinite_adjoint_names_its_family():
    space = FeSpace(SpatialMesh.uniform(0.0, 1.0, 4), 2)
    terminal = NodalField(space, np.full(space.dof_count, np.nan))
    with pytest.raises(ValueError, match=r"fine\(2\) adjoint.* n=1"):
        solve_backward_cg("fine(2)", space, np.linspace(0.0, 0.4, 5),
                          terminal, 3, FormCache())


def test_nonfinite_fine_adjoint_names_its_subdomain():
    # the coarse adjoint is NaN at T_2 only, so of the P_t = 3 fine adjoints
    # solved as one stack, fine(2) is the one whose first step is not finite
    part = TimePartition.uniform(0.6, 3, 6, 2)
    space = FeSpace(SpatialMesh.uniform(0.0, 1.0, 4), 2)
    cache = FormCache()
    coarse = solve_coarse_adjoint(part, space, lambda x: np.sin(np.pi * x),
                                  3, cache)
    k = int(np.argmin(np.abs(coarse.times - part.sync_times[2])))
    coarse.coeffs[k - 1, -1, 1] = np.nan
    terminal = value_at_node(coarse, part.sync_times[2])
    assert np.isnan(terminal.coefficients).any()
    with pytest.raises(ValueError, match=r"^fine\(2\) adjoint .* n=1, "):
        solve_fine_adjoints(part, coarse, 3, cache)


@pytest.mark.parametrize("kind", ["global"])
def test_nonfinite_spatial_adjoint_names_itself_and_dt(kind):
    # the global adjoint is dd_split's own solve, which runs first (the
    # subdomain ones it checks after their recursion: see
    # test_dd_split_names_the_first_step_with_a_nonfinite_subdomain_adjoint)
    mesh = SpatialMesh.uniform(0.0, 1.0, 8)
    space = FeSpace(mesh, 3)
    decomp = decompose_domain(mesh, 2, 0.25, 0.4)
    cache = FormCache()
    weight = space.interpolate(lambda x: np.sin(np.pi * x))
    weight.coefficients[5] = np.nan
    fwd = FeSpace(mesh, 2)
    traj = propagate_be(fwd, np.linspace(0.0, 0.125, 3),
                        fwd.interpolate(np.sin), None, cache,
                        decomp=decomp, K_s=2)
    with pytest.raises(ValueError,
                       match=rf"non-finite {kind} spatial adjoint \(dt=0\.0625\)"):
        dd_split([traj], (space, np.array([weight.coefficients] * 2)),
                 decomp, 2, ResidualEvaluator(None, cache))


def test_subdomain_adjoints_of_a_nonfinite_weight_are_yielded_unchecked():
    # the sweeper computes and the caller checks: a NaN weight gives
    # non-finite blocks, and the recursion still runs to its end
    mesh = SpatialMesh.uniform(0.0, 1.0, 8)
    space = FeSpace(mesh, 3)
    decomp = decompose_domain(mesh, 2, 0.25, 0.4)
    weights = np.array([space.interpolate(np.sin).coefficients] * 2)
    weights[1, 5] = np.nan
    blocks = list(AdditiveSchwarz.cached(FormCache(), space, 0.0625, decomp)
                  .adjoint(weights, 2))
    assert [(ks, i) for ks, i, _ in blocks] == [(2, 0), (1, 0), (2, 1), (1, 1)]
    finite = np.array([np.isfinite(chi).all(axis=1) for _, _, chi in blocks])
    assert finite[:, 0].all() and not finite[:, 1].all()
