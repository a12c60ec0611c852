"""Overlapping domain decomposition and additive Schwarz stepping."""

import numpy as np
import pytest
from scipy import linalg as sla

from parapost.harness import build_manufactured
from parapost.mesh import FeSpace, FormCache, NodalField, SpatialMesh
from parapost.schwarz import (
    AdditiveSchwarz,
    decompose_domain,
    subdomain_dof_sets,
)
from parapost.timestepping import propagate_be

from oracles import (subdomain_adjoints, subdomain_dof_sets_by_coords,
                     sweep_iterates)


def _overlaps(d):
    """(i, j) -> element range of the intersection of subdomains i and j."""
    out = {}
    for i, (lo_i, hi_i) in enumerate(d.ranges):
        for j, (lo_j, hi_j) in enumerate(d.ranges):
            lo, hi = max(lo_i, lo_j), min(hi_i, hi_j)
            if hi > lo:
                out[(i, j)] = (lo, hi)
    return out


def test_decompose_two_subdomains_beta_02():
    # 20 elements, 2 subdomains, 20% overlap extension: blocks of 10 extended
    # by 2 elements across the interior edge
    mesh = SpatialMesh.uniform(0.0, 1.0, 20)
    d = decompose_domain(mesh, 2, 0.2, 0.4)
    assert d.ranges == ((0, 12), (8, 20))
    overlaps = _overlaps(d)
    assert overlaps[(0, 1)] == (8, 12)
    assert overlaps[(1, 0)] == (8, 12)
    assert overlaps[(0, 0)] == (0, 12)


def test_decompose_four_subdomains_beta_01():
    mesh = SpatialMesh.uniform(0.0, 1.0, 40)
    d = decompose_domain(mesh, 4, 0.1, 0.4)  # block 10, extension 1
    assert d.ranges == ((0, 11), (9, 21), (19, 31), (29, 40))


def test_decompose_rejects_bad_inputs():
    mesh = SpatialMesh.uniform(0.0, 1.0, 20)
    with pytest.raises(ValueError):
        decompose_domain(mesh, 3, 0.2, 0.4)     # 20 not divisible by 3
    with pytest.raises(ValueError):
        decompose_domain(mesh, 10, 0.01, 0.4)   # extension rounds to zero
    with pytest.raises(ValueError):
        decompose_domain(mesh, 0, 0.2, 0.4)
    # damping outside 0 < tau * m < 2, m = 2 overlapping subdomains here
    for tau in (0.0, -0.4, 1.0, 2.0, float("nan")):
        with pytest.raises(ValueError, match="tau"):
            decompose_domain(mesh, 2, 0.2, tau=tau)
    assert decompose_domain(mesh, 2, 0.2, tau=0.99).tau == 0.99
    assert decompose_domain(mesh, 1, 0.2, tau=1.99).tau == 1.99


def test_decompose_states_the_strict_overlap_bound():
    # blocks of 2 elements: round(beta * 2) >= 1 needs beta > 0.25, as
    # round(0.5) is 0, so the stated bound itself is rejected
    mesh = SpatialMesh.uniform(0.0, 1.0, 10)
    with pytest.raises(ValueError, match=r"need beta > 0\.25 "):
        decompose_domain(mesh, 5, 0.25, 0.4)
    assert decompose_domain(mesh, 5, 0.2501, 0.4).ranges[0] == (0, 3)


def test_subdomain_dof_sets_structure():
    mesh = SpatialMesh.uniform(0.0, 1.0, 20)
    space = FeSpace(mesh, 2)
    d = decompose_domain(mesh, 2, 0.2, 0.4)
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


@pytest.mark.parametrize("graded", [False, True], ids=["uniform", "graded"])
def test_subdomain_dof_sets_match_the_coordinate_oracle(graded):
    # the node-index sets are the dofs inside and on the ends of each
    # subdomain, as found from their coordinates
    compared = 0
    for N in (4, 6, 10, 12, 20):
        bounds = np.linspace(0.0, 1.0, N + 1)
        mesh = SpatialMesh(0.0, 1.0, bounds**2 if graded else bounds)
        for q in range(1, 5):
            space = FeSpace(mesh, q)
            for P_s in range(1, 6):
                for beta in (0.1, 0.25, 0.5):
                    try:
                        d = decompose_domain(mesh, P_s, beta, 0.4)
                    except ValueError:
                        continue
                    for i in range(P_s):
                        got = subdomain_dof_sets(space, d, i)
                        want = subdomain_dof_sets_by_coords(space, d, i)
                        for g, w in zip(got, want):
                            assert np.array_equal(g, w), (N, q, P_s, beta, i)
                        compared += 1
    assert compared > 100


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
    assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-10


def test_schwarz_many_sweeps_converges_to_direct():
    prob = build_manufactured(2, 2, 0.5)
    mesh = SpatialMesh.uniform(0.0, 1.0, 20)
    space = FeSpace(mesh, 2)
    d = decompose_domain(mesh, 2, 0.2, 0.4)
    ic = space.interpolate(prob.u0)
    grid = np.linspace(0.0, 0.5, 6)
    cache = FormCache()
    a = propagate_be(space, grid, ic, prob.f, cache, decomp=d, K_s=50)
    b = propagate_be(space, grid, ic, prob.f, cache)
    assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-10


def test_sweep_fixed_point():
    mesh = SpatialMesh.uniform(0.0, 1.0, 12)
    space = FeSpace(mesh, 2)
    d = decompose_domain(mesh, 2, 0.25, 0.4)
    cache = FormCache()
    rng = np.random.default_rng(9)
    rhs = rng.standard_normal(space.dof_count)
    exact = cache.step_operator(space, 0.02).solve(rhs)
    sweeper = AdditiveSchwarz(space, 0.02, d, cache)
    u, _ = sweeper.solve(rhs, exact, 4)
    assert np.max(np.abs(u - exact)) < 1e-11


def test_blend_identity_from_record():
    # every iterate is the blend of the history's local solutions,
    # U^{k+1} = (1 - tau P_s) U^k + tau sum_i Pi_i U_loc_i: the iterates
    # rebuilt from the history are bitwise those of k sweeps, for every k
    mesh = SpatialMesh.uniform(0.0, 1.0, 20)
    space = FeSpace(mesh, 2)
    d = decompose_domain(mesh, 2, 0.2, 0.4)
    cache = FormCache()
    rng = np.random.default_rng(4)
    rhs = rng.standard_normal(space.dof_count)
    sweeper = AdditiveSchwarz(space, 0.05, d, cache)
    guess = rng.standard_normal(space.dof_count)
    u, sweeps = sweeper.solve(rhs, guess, 3)
    iterates = sweep_iterates(guess, sweeps, d.tau)
    assert len(iterates) == 4 and np.array_equal(iterates[-1], u)
    for k in range(1, 3):
        assert np.array_equal(iterates[k], sweeper.solve(rhs, guess, k)[0])


def test_locals_match_iterate_outside_closure():
    mesh = SpatialMesh.uniform(0.0, 1.0, 20)
    space = FeSpace(mesh, 2)
    d = decompose_domain(mesh, 2, 0.2, 0.4)
    cache = FormCache()
    rng = np.random.default_rng(6)
    rhs = rng.standard_normal(space.dof_count)
    sweeper = AdditiveSchwarz(space, 0.05, d, cache)
    guess = np.zeros(space.dof_count)
    _, sweeps = sweeper.solve(rhs, guess, 2)
    iterates = sweep_iterates(guess, sweeps, d.tau)
    for k in range(2):
        for i in range(d.P_s):
            interior, _ = subdomain_dof_sets(space, d, i)
            outside = np.setdiff1d(np.arange(space.dof_count), interior)
            assert np.array_equal(sweeps[k, i][outside],
                                  iterates[k][outside])


def test_local_solves_satisfy_restricted_system():
    mesh = SpatialMesh.uniform(0.0, 1.0, 20)
    space = FeSpace(mesh, 2)
    d = decompose_domain(mesh, 2, 0.2, 0.4)
    cache = FormCache()
    B = cache.mass(space, space) + 0.05 * cache.stiffness(space, space)
    rng = np.random.default_rng(8)
    rhs = rng.standard_normal(space.dof_count)
    sweeper = AdditiveSchwarz(space, 0.05, d, cache)
    _, sweeps = sweeper.solve(rhs, np.zeros(space.dof_count), 2)
    for k in range(2):
        for i in range(d.P_s):
            interior, _ = subdomain_dof_sets(space, d, i)
            res = (B @ sweeps[k, i])[interior] - rhs[interior]
            assert np.max(np.abs(res)) < 1e-11


def test_sweeper_blocks_are_cut_bitwise_from_the_step_matrix():
    # M[ix] + dt*A[ix] is elementwise the cut of the dense M + dt*A
    mesh = SpatialMesh.uniform(0.0, 1.0, 16)
    space = FeSpace(mesh, 2)
    d = decompose_domain(mesh, 4, 0.25, 0.4)
    cache = FormCache()
    B = cache.mass(space, space) + 0.03 * cache.stiffness(space, space)
    sweeper = AdditiveSchwarz(space, 0.03, d, cache)
    for i, (interior, trace) in enumerate(sweeper.sets):
        assert np.array_equal(sweeper._coupling[i], B[np.ix_(interior, trace)])
        assert np.array_equal(sweeper._chol[i], sla.cho_factor(
            B[np.ix_(interior, interior)])[0])


def test_schwarz_stepping_rejects_zero_sweeps():
    prob = build_manufactured(2, 2, 0.5)
    mesh = SpatialMesh.uniform(0.0, 1.0, 20)
    space = FeSpace(mesh, 2)
    d = decompose_domain(mesh, 2, 0.2, 0.4)
    ic = space.interpolate(prob.u0)
    grid = np.linspace(0.0, 0.5, 6)
    with pytest.raises(ValueError):
        propagate_be(space, grid, ic, prob.f, FormCache(), decomp=d, K_s=0)


def test_records_are_retained_per_step():
    # the history of four steps' right-hand sides swept together from a zero
    # guess: per sweep and subdomain, one local solution per step
    mesh = SpatialMesh.uniform(0.0, 1.0, 8)
    space = FeSpace(mesh, 1)
    d = decompose_domain(mesh, 2, 0.25, 0.4)
    sweeper = AdditiveSchwarz.cached(FormCache(), space, 0.125, d)
    rhs = np.random.default_rng(4).standard_normal((4, space.dof_count)).T
    u, sweeps = sweeper.solve(rhs, 0, 3)
    assert sweeps.shape == (3, 2, space.dof_count, 4)  # 3 sweeps, 4 steps
    assert np.array_equal(u, sweeper.solve(rhs, np.zeros_like(rhs), 3)[0])
    for i in range(d.P_s):
        # zero initial guess: outside its subdomain's interior, a first
        # sweep's local solution is the guess
        interior, _ = subdomain_dof_sets(space, d, i)
        assert not np.delete(sweeps[0, i], interior, axis=0).any()
        assert np.all(sweeps[0, i][interior] != 0.0)


def test_many_sweeps_solve_the_step_system():
    mesh = SpatialMesh.uniform(0.0, 1.0, 12)
    space = FeSpace(mesh, 2)
    d = decompose_domain(mesh, 2, 0.25, 0.4)
    cache = FormCache()
    B = cache.step_operator(space, 0.02)
    rng = np.random.default_rng(12)
    rhs = rng.standard_normal(space.dof_count)
    sweeper = AdditiveSchwarz.cached(cache, space, 0.02, d)
    u, sweeps = sweeper.solve(rhs, np.zeros(space.dof_count), 40)
    assert np.max(np.abs(u - B.solve(rhs))) < 1e-6
    assert sweeps.shape == (40, 2, space.dof_count)


def test_sweeper_is_built_once_per_space_dt_and_decomposition():
    mesh = SpatialMesh.uniform(0.0, 1.0, 12)
    space = FeSpace(mesh, 2)
    d = decompose_domain(mesh, 2, 0.25, 0.4)
    cache = FormCache()
    a = AdditiveSchwarz.cached(cache, space, 0.02, d)
    assert AdditiveSchwarz.cached(cache, space, 0.02, d) is a
    assert AdditiveSchwarz.cached(cache, space, 0.04, d) is not a
    other = decompose_domain(mesh, 2, 0.25, 0.4)
    assert AdditiveSchwarz.cached(cache, space, 0.02, other) is not a
    assert len({d, other}) == 2


def test_block_of_columns_sweeps_bitwise_as_one_column_at_a_time():
    # four subdomains, so the inner two couple to two trace dofs each
    mesh = SpatialMesh.uniform(0.0, 1.0, 16)
    space = FeSpace(mesh, 2)
    d = decompose_domain(mesh, 4, 0.25, 0.4)
    sweeper = AdditiveSchwarz.cached(FormCache(), space, 0.03, d)
    rng = np.random.default_rng(21)
    rhs = rng.standard_normal((3, space.dof_count)).T  # (dof, 3), Fortran order
    guess = rng.standard_normal((3, space.dof_count)).T
    u, sweeps = sweeper.solve(rhs, guess, 3)
    assert sweeps.shape == (3, 4) + rhs.shape
    for c in range(3):
        u_c, sweeps_c = sweeper.solve(rhs[:, c].copy(), guess[:, c].copy(), 3)
        assert np.array_equal(u[:, c], u_c)
        assert np.array_equal(sweeps[..., c], sweeps_c)


def test_block_of_weights_adjoint_bitwise_as_one_weight_at_a_time():
    # the backward recursion of a block of weights yields, per subdomain and
    # sweep, rows bitwise those of each weight's own one-row block and of
    # the one-vector recursion
    mesh = SpatialMesh.uniform(0.0, 1.0, 16)
    space = FeSpace(mesh, 3)
    d = decompose_domain(mesh, 4, 0.25, 0.4)
    sweeper = AdditiveSchwarz.cached(FormCache(), space, 0.03, d)
    weights = np.random.default_rng(5).standard_normal((5, space.dof_count))
    K_s = 3
    block = list(sweeper.adjoint(weights, K_s))
    assert [(ks, i) for ks, i, _ in block] == [
        (ks, i) for i in range(4) for ks in range(K_s, 0, -1)]
    for c, w in enumerate(weights):
        one = list(sweeper.adjoint(w[None], K_s))
        oracle = subdomain_adjoints(sweeper, NodalField(space, w), K_s)
        for (ks, i, chi), (_, _, chi_c) in zip(block, one, strict=True):
            assert np.array_equal(chi[c], chi_c[0])
            assert np.array_equal(chi[c], oracle[ks - 1][i])
