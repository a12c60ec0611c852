"""Acceptance gate: published-benchmark reproduction and exact-identity suite.

The benchmark sweeps are run once per session (module-scoped fixtures) and
each criterion is asserted with its pinned tolerance.
"""

import math

import numpy as np
import pytest

from parapost.estimator import ResidualEvaluator, dd_split
from parapost.adjoint import SpaceTimeAdjoint, SpatialAdjointSolver
from parapost.harness import ExperimentConfig, build_manufactured, \
    reproduce_table, run_experiment
from parapost.mesh import FeSpace, FormCache, NodalField, SpatialMesh, \
    project_field
from parapost.parareal import par_standard, vpar
from parapost.schwarz import AdditiveSchwarz, decompose_domain
from parapost.timestepping import TimePartition, dg0_equivalence_check, \
    propagate_be

ZERO_F = lambda x, t: np.zeros_like(x)


def within(value, target, rel):
    return abs(value - target) <= rel * abs(target)


@pytest.fixture(scope="module")
def par_iterations():
    records, _, values = reproduce_table("par_iterations")
    return dict(zip(values, records))


@pytest.fixture(scope="module")
def par_coarse_time():
    records, _, values = reproduce_table("par_coarse_time")
    return dict(zip(values, records))


@pytest.fixture(scope="module")
def pardd_iterations():
    records, _, values = reproduce_table("pardd_iterations")
    return dict(zip(values, records))


@pytest.fixture(scope="module")
def pardd_subdomains():
    records, _, values = reproduce_table("pardd_subdomains")
    return dict(zip(values, records))


@pytest.fixture(scope="module")
def cg_iterations():
    records, _, values = reproduce_table("cg_iterations")
    return dict(zip(values, records))


# --- criterion 1: time-parallel iteration sweep --------------------------

def test_par_iterations_effectivity(par_iterations):
    for k, rec in par_iterations.items():
        assert 0.99 <= rec.effectivity <= 1.01, f"K_t={k}"


def test_par_iterations_iteration_component(par_iterations):
    assert within(par_iterations[1].components["K"], -1.53e-01, 0.05)
    assert within(par_iterations[2].components["K"], -1.43e-02, 0.05)


def test_par_iterations_first_iteration_coarse_jump_zero(par_iterations):
    assert abs(par_iterations[1].components["C"]) <= 1e-12


def test_par_iterations_runtime(par_iterations):
    for k, rec in par_iterations.items():
        assert rec.wall_time < 30.0, f"K_t={k}: {rec.wall_time:.1f}s"


# --- criterion 2: coarse time refinement sweep ---------------------------

def test_par_coarse_time_discretization_component(par_coarse_time):
    assert within(par_coarse_time[10].components["D"], 7.31e-01, 0.05)
    assert within(par_coarse_time[20].components["D"], 4.13e-01, 0.05)


def test_par_coarse_time_effectivity(par_coarse_time):
    for n, rec in par_coarse_time.items():
        assert 0.99 <= rec.effectivity <= 1.01, f"Nhat_t={n}"


# --- criterion 3: Schwarz sweep count ------------------------------------

def test_pardd_iterations_schwarz_component(pardd_iterations):
    assert within(pardd_iterations[2].components["D_k"], 4.49e-01, 0.10)
    assert within(pardd_iterations[6].components["D_k"], 4.40e-02, 0.10)


def test_pardd_iterations_temporal_component(pardd_iterations):
    assert within(pardd_iterations[2].components["D_t"], 2.16e-01, 0.10)
    assert within(pardd_iterations[6].components["D_t"], 1.45e-01, 0.10)


def test_pardd_iterations_effectivity(pardd_iterations):
    for k, rec in pardd_iterations.items():
        assert 0.98 <= rec.effectivity <= 1.02, f"K_s={k}"


def test_pardd_iterations_runtime(pardd_iterations):
    for k, rec in pardd_iterations.items():
        assert rec.wall_time < 120.0, f"K_s={k}: {rec.wall_time:.1f}s"


# --- criterion 4: cG iteration sweep -------------------------------------

def test_cg_iterations_first_row(cg_iterations):
    rec = cg_iterations[1]
    assert within(rec.estimated_error, 1.02e-01, 0.05)
    assert rec.components["D"] < 0.0
    assert rec.components["K"] > 0.0
    assert 0.99 <= rec.effectivity <= 1.01


# --- criterion 5: exact-identity property suite --------------------------

def test_property_standard_variational_equivalence():
    rng = np.random.default_rng(2718)
    for _ in range(20):
        P_t = int(rng.integers(1, 5))
        nhat = P_t * int(rng.integers(1, 3))
        r = int(rng.integers(1, 4))
        qhat = int(rng.integers(1, 3))
        q = int(rng.integers(qhat, 4))
        prob = build_manufactured(2, 1, 0.5)
        mesh = SpatialMesh.uniform(0.0, 1.0, int(rng.integers(3, 7)))
        coarse, fine = FeSpace(mesh, qhat), FeSpace(mesh, q)
        part = TimePartition.uniform(0.5, P_t, nhat, r)
        cache = FormCache()
        fs = lambda g, ic: propagate_be(fine, g, ic, prob.f, cache)
        cs = lambda g, ic: propagate_be(coarse, g, ic, prob.f, cache)
        ic = coarse.interpolate(prob.u0)
        K_t = int(rng.integers(1, P_t + 2))
        states = vpar(part, K_t, ic, fs, cs, fine)
        std = par_standard(part, K_t, ic, fs, cs, fine)
        for k in range(K_t):
            for p in range(P_t):
                dev = np.max(np.abs(states[k].fine[p].end.coefficients
                                    - std[k]["bar"][p].coefficients))
                assert dev < 1e-12


@pytest.mark.parametrize("P_t", [2, 3, 4])
def test_property_finite_termination(P_t):
    prob = build_manufactured(2, 1, 0.5)
    mesh = SpatialMesh.uniform(0.0, 1.0, 8)
    coarse, fine = FeSpace(mesh, 1), FeSpace(mesh, 2)
    part = TimePartition.uniform(0.5, P_t, 2 * P_t, 2)
    cache = FormCache()
    fs = lambda g, ic: propagate_be(fine, g, ic, prob.f, cache)
    cs = lambda g, ic: propagate_be(coarse, g, ic, prob.f, cache)
    ic = coarse.interpolate(prob.u0)
    states = vpar(part, P_t, ic, fs, cs, fine, sync_space="fine")
    serial = propagate_be(fine, np.linspace(0.0, 0.5, part.N_t + 1),
                          project_field(ic, fine, "nodal_interpolation"),
                          prob.f, cache)
    n_per = part.N_t // P_t
    for p in range(1, P_t + 1):
        dev = np.max(np.abs(states[-1].fine[p - 1].end.coefficients
                            - serial.values[p * n_per]))
        assert dev < 1e-10


def test_property_dg0_equivalence():
    prob = build_manufactured(2, 1, 0.5)
    space = FeSpace(SpatialMesh.uniform(0.0, 1.0, 8), 2)
    traj = propagate_be(space, np.linspace(0.0, 0.5, 11),
                        space.interpolate(prob.u0), prob.f)
    assert dg0_equivalence_check(traj, prob.f) <= 1e-12


def test_property_galerkin_orthogonality():
    space = FeSpace(SpatialMesh.uniform(0.0, 1.0, 8), 2)
    rng = np.random.default_rng(55)
    grid = np.linspace(0.0, 0.4, 6)
    traj = propagate_be(space, grid,
                        NodalField(space, rng.standard_normal(space.dof_count)),
                        ZERO_F)
    n = len(grid) - 1
    coeffs = np.tile(rng.standard_normal(space.dof_count), (n, 2, 1))
    w = SpaceTimeAdjoint("const", space, grid, 1, coeffs,
                         NodalField(space, coeffs[-1, -1].copy()))
    res = ResidualEvaluator(ZERO_F).residual(traj, w)
    assert np.max(np.abs(res)) <= 1e-12


def test_property_schwarz_fixed_point_and_convergence():
    prob = build_manufactured(2, 2, 0.5)
    mesh = SpatialMesh.uniform(0.0, 1.0, 20)
    space = FeSpace(mesh, 2)
    decomp = decompose_domain(mesh, 2, 0.2)
    cache = FormCache()
    # fixed point: starting from the exact solution, sweeps do not move
    B = cache.mass(space, space) + 0.05 * cache.stiffness(space, space)
    rng = np.random.default_rng(77)
    rhs = rng.standard_normal(space.dof_count)
    exact = cache.step_operator(space, 0.05).solve(rhs)
    u, _ = AdditiveSchwarz(space, B, decomp).solve(rhs, exact, 5)
    assert np.max(np.abs(u - exact)) <= 1e-10
    # convergence: 50 sweeps per step reproduce the direct stepping
    ic = space.interpolate(prob.u0)
    grid = np.linspace(0.0, 0.5, 6)
    a = propagate_be(space, grid, ic, prob.f, cache, decomp=decomp, K_s=50)
    b = propagate_be(space, grid, ic, prob.f, cache)
    assert np.max(np.abs(a.values - b.values)) <= 1e-10


def test_property_spatial_split_identity():
    prob = build_manufactured(2, 2, 0.5)
    mesh = SpatialMesh.uniform(0.0, 1.0, 20)
    space = FeSpace(mesh, 2)
    adj_space = FeSpace(mesh, 3)
    decomp = decompose_domain(mesh, 2, 0.2)
    grid = np.linspace(0.0, 0.5, 6)
    cache = FormCache()
    traj = propagate_be(space, grid, space.interpolate(prob.u0), prob.f,
                        cache, decomp=decomp, K_s=2)
    solver = SpatialAdjointSolver(adj_space, grid[1] - grid[0], decomp, cache)
    ev = ResidualEvaluator(prob.f, cache)
    phi_val = adj_space.interpolate(lambda x: np.sin(np.pi * x))
    for n in range(1, traj.n_steps + 1):
        E_K, E_N = dd_split(traj, n, decomp, phi_val, ev)
        dt = grid[1] - grid[0]
        M3x = ev.cache.mass(adj_space, space)
        B3x = M3x + dt * ev.cache.stiffness(adj_space, space)
        if n == 1:
            ell = ev.cache.mass(adj_space, traj.incoming.space) \
                @ traj.incoming.coefficients
        else:
            ell = M3x @ traj.values[n - 1]
        ell = ell + dt * ev.load(adj_space, grid[n])
        Phi = solver.solve_global(phi_val)
        lhs = Phi.coefficients @ (ell - B3x @ traj.values[n])
        assert abs((E_K + E_N) - lhs) <= 1e-14 * max(1.0, abs(lhs))


def test_property_stpa_collapses_to_tpa():
    base = dict(Nhat_t=10, r=2, P_t=5, K_t=2, Nhat_s=10, qhat_s=1, q_s=2,
                nu=2, mu=2, T=0.5)
    tpa = run_experiment(ExperimentConfig(**base))
    stpa = run_experiment(ExperimentConfig(**base, schwarz=True, P_s=1,
                                           K_s=1, tau=1.0))
    assert abs(stpa.estimated_error - tpa.estimated_error) <= 1e-10
    assert abs(stpa.true_error - tpa.true_error) <= 1e-10


# --- criterion 6: qualitative trends -------------------------------------

def test_trend_schwarz_component_decreases_with_sweeps(pardd_iterations):
    assert abs(pardd_iterations[6].components["D_k"]) \
        < abs(pardd_iterations[2].components["D_k"])


def test_trend_schwarz_component_grows_with_subdomains(pardd_subdomains):
    assert abs(pardd_subdomains[4].components["D_k"]) \
        > abs(pardd_subdomains[2].components["D_k"])


def test_trend_iteration_component_decays_until_discretization_dominates(
        par_iterations):
    k1 = abs(par_iterations[1].components["K"])
    k2 = abs(par_iterations[2].components["K"])
    k3 = abs(par_iterations[3].components["K"])
    assert k2 < k1 and k3 < k2
    # by the third iteration the discretization part dominates
    assert k3 < abs(par_iterations[3].components["D"])
