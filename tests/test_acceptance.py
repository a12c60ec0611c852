"""Acceptance gate: published-benchmark reproduction and exact-identity suite.

The benchmark sweeps are run once per session (module-scoped fixtures) and
each criterion is asserted with its pinned tolerance.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from parapost.estimator import ResidualEvaluator, dd_split
from parapost.harness import ExperimentConfig, TABLE_REGISTRY, \
    build_manufactured, reproduce_table, run_experiment
from parapost.mesh import FeSpace, FormCache, NodalField, SpatialMesh, \
    assemble_load
from parapost.parareal import vpar
from parapost.schwarz import AdditiveSchwarz, decompose_domain
from parapost.timestepping import TimePartition, Trajectory, propagate_be

from oracles import dg0_equivalence_check, node_value, par_standard, \
    serial_coarse_handoff

ZERO_F = lambda x, t: np.zeros_like(x)


def within(value, target, rel):
    return abs(value - target) <= rel * abs(target)


@pytest.fixture(scope="module")
def registry():
    """Every registry table, run once: name -> {sweep value: record}."""
    out = {}
    for name in TABLE_REGISTRY:
        records, _, values = reproduce_table(name)
        out[name] = dict(zip(values, records))
    return out


@pytest.fixture(scope="module")
def par_iterations(registry):
    return registry["par_iterations"]


@pytest.fixture(scope="module")
def par_coarse_time(registry):
    return registry["par_coarse_time"]


@pytest.fixture(scope="module")
def pardd_iterations(registry):
    return registry["pardd_iterations"]


@pytest.fixture(scope="module")
def pardd_subdomains(registry):
    return registry["pardd_subdomains"]


@pytest.fixture(scope="module")
def cg_iterations(registry):
    return registry["cg_iterations"]


# --- criterion 0: every registry row -------------------------------------

GAMMA_GATE = {"TPA": 0.01, "STPA": 0.02}  # TPA and cG rows, Schwarz rows


@pytest.mark.parametrize("table", sorted(TABLE_REGISTRY))
def test_registry_effectivity_gate(registry, table):
    for value, rec in registry[table].items():
        label = f"{table} {value}"
        assert all(math.isfinite(c) for c in rec.components.values()), label
        assert math.fsum(rec.components.values()) == rec.estimated_error, label
        gate = GAMMA_GATE[rec.mode]
        assert 1.0 - gate <= rec.effectivity <= 1.0 + gate, (
            f"{label}: gamma {rec.effectivity:.4f}")


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


# K against its differenced counterpart e(K_t) - e(P_t): by finite
# termination K_t = P_t is the converged run.  K(P_t) is not 0 under
# coarse-space synchronization (-6.63e-4 on par_iterations), so it is
# subtracted.  Measured ratios at K_t = 1, 2, 3: 0.9504, 0.9485, 0.9459 on
# par_iterations and 1.0347, 1.0367, 1.0386 on cg_iterations.  TPA rows
# only: on pardd_iterations the ratio reads -3.67, -0.34, -0.10.
@pytest.mark.parametrize("table", ["par_iterations", "cg_iterations"])
def test_iteration_component_tracks_the_differenced_error(registry, table):
    base = TABLE_REGISTRY[table]["base"]
    converged = run_experiment(ExperimentConfig(**dict(base, K_t=base["P_t"])))
    for k in (1, 2, 3):
        rec = registry[table][k]
        ratio = ((rec.components["K"] - converged.components["K"])
                 / (rec.true_error - converged.true_error))
        assert 0.9 <= ratio <= 1.1, f"{table} K_t={k}: ratio {ratio:.4f}"


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


# D_k against its differenced counterpart e(K_s) - e(K_s = 200), where the
# Schwarz iteration has converged.  Measured ratios: 0.860 at K_s = 2 and
# 0.890 at K_s = 6 on pardd_iterations (0.846-0.895 over K_s = 1..8), and
# 0.859 at K_s = 2 on pardd_subdomains[P_s=2].  The ratio stays below 1
# because K and C also move with K_s (ROADMAP item 5's cross-talk matrix).
def test_schwarz_component_tracks_the_differenced_error(pardd_iterations):
    base = TABLE_REGISTRY["pardd_iterations"]["base"]
    converged = run_experiment(ExperimentConfig(**dict(base, K_s=200)))
    for k, rec in pardd_iterations.items():
        ratio = rec.components["D_k"] / (rec.true_error - converged.true_error)
        assert 0.8 <= ratio <= 0.95, f"K_s={k}: ratio {ratio:.4f}"


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
        fs = lambda gs, ics: propagate_be(fine, gs, ics, prob.f, cache)
        cs = lambda gs, ic, jumps: propagate_be(coarse, gs, ic, prob.f, cache,
                                                jumps=jumps)
        ic = coarse.interpolate(prob.u0)
        K_t = int(rng.integers(1, P_t + 2))
        states = vpar(part, K_t, ic, fs, cs, cache)
        std = par_standard(part, K_t, ic, fs, cs, cache)
        for k in range(K_t):
            for p in range(P_t):
                dev = np.max(np.abs(states[k].fine[p].end.coefficients
                                    - std[k]["bar"][p].coefficients))
                assert dev < 1e-12


def _finite_termination_gap(states, serial):
    """Largest nodal gap between the fine end values of the last Parareal
    iteration and those of the serial oracle."""
    return max(np.max(np.abs(got.end.coefficients - want.end.coefficients))
               for got, want in zip(states[-1].fine, serial, strict=True))


@pytest.mark.parametrize("P_t", [2, 3, 4])
def test_property_finite_termination(P_t):
    # coarse degree 1, fine degree 2: after K_t = P_t iterations each fine
    # end value is that of the serial fine solve that hands the coarse
    # interpolant of each subdomain's end value on to the next
    prob = build_manufactured(2, 1, 0.5)
    mesh = SpatialMesh.uniform(0.0, 1.0, 8)
    coarse, fine = FeSpace(mesh, 1), FeSpace(mesh, 2)
    part = TimePartition.uniform(0.5, P_t, 2 * P_t, 2)
    cache = FormCache()
    fs = lambda gs, ics: propagate_be(fine, gs, ics, prob.f, cache)
    cs = lambda gs, ic, jumps: propagate_be(coarse, gs, ic, prob.f, cache,
                                            jumps=jumps)
    ic = coarse.interpolate(prob.u0)
    states = vpar(part, P_t, ic, fs, cs, cache)
    assert _finite_termination_gap(
        states, serial_coarse_handoff(part, ic, fs)) < 1e-10


@settings(max_examples=30, deadline=None)
@given(P_t=st.integers(1, 4), r=st.integers(1, 3),
       degrees=st.tuples(st.integers(1, 3), st.integers(1, 3)).map(sorted),
       schwarz=st.one_of(st.none(), st.tuples(st.integers(1, 3),
                                              st.integers(1, 3))))
def test_property_finite_termination_over_configs(P_t, r, degrees, schwarz):
    # after K_t = P_t iterations, Parareal reproduces the serial fine solve
    # that hands the coarse interpolant of each subdomain's end value on,
    # with the same step solver: direct, or K_s Schwarz sweeps over P_s
    # subdomains; with equal degrees that is one serial fine solve
    prob = build_manufactured(2, 1, 0.5)
    mesh = SpatialMesh.uniform(0.0, 1.0, 12)
    coarse, fine = (FeSpace(mesh, q) for q in degrees)
    part = TimePartition.uniform(0.5, P_t, 2 * P_t, r)
    solver = () if schwarz is None else (
        decompose_domain(mesh, schwarz[0], 0.25, 0.4), schwarz[1])
    cache = FormCache()
    fs = lambda gs, ics: propagate_be(fine, gs, ics, prob.f, cache, *solver)
    cs = lambda gs, ic, jumps: propagate_be(coarse, gs, ic, prob.f, cache,
                                            jumps=jumps)
    ic = coarse.interpolate(prob.u0)
    states = vpar(part, P_t, ic, fs, cs, cache)
    assert _finite_termination_gap(
        states, serial_coarse_handoff(part, ic, fs)) < 1e-10


def test_property_dg0_equivalence():
    prob = build_manufactured(2, 1, 0.5)
    space = FeSpace(SpatialMesh.uniform(0.0, 1.0, 8), 2)
    traj = propagate_be(space, np.linspace(0.0, 0.5, 11),
                        space.interpolate(prob.u0), prob.f, FormCache())
    assert dg0_equivalence_check(traj, prob.f) <= 1e-12


def test_property_galerkin_orthogonality():
    space = FeSpace(SpatialMesh.uniform(0.0, 1.0, 8), 2)
    rng = np.random.default_rng(55)
    grid = np.linspace(0.0, 0.4, 6)
    cache = FormCache()
    traj = propagate_be(space, grid,
                        NodalField(space, rng.standard_normal(space.dof_count)),
                        ZERO_F, cache)
    n = len(grid) - 1
    coeffs = np.tile(rng.standard_normal(space.dof_count), (n, 2, 1))
    w = Trajectory(space, grid, 1, coeffs,
                   NodalField(space, coeffs[-1, -1].copy()))
    res = ResidualEvaluator(ZERO_F, cache).residual([(traj, w)])[0]
    assert np.max(np.abs(res)) <= 1e-12


def test_property_schwarz_fixed_point_and_convergence():
    prob = build_manufactured(2, 2, 0.5)
    mesh = SpatialMesh.uniform(0.0, 1.0, 20)
    space = FeSpace(mesh, 2)
    decomp = decompose_domain(mesh, 2, 0.2, 0.4)
    cache = FormCache()
    # fixed point: starting from the exact solution, sweeps do not move
    rng = np.random.default_rng(77)
    rhs = rng.standard_normal(space.dof_count)
    exact = cache.step_operator(space, 0.05).solve(rhs)
    u, _ = AdditiveSchwarz(space, 0.05, decomp, cache).solve(rhs, exact, 5)
    assert np.max(np.abs(u - exact)) <= 1e-10
    # convergence: 50 sweeps per step reproduce the direct stepping
    ic = space.interpolate(prob.u0)
    grid = np.linspace(0.0, 0.5, 6)
    a = propagate_be(space, grid, ic, prob.f, cache, decomp=decomp, K_s=50)
    b = propagate_be(space, grid, ic, prob.f, cache)
    assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-10


def test_property_spatial_split_identity():
    prob = build_manufactured(2, 2, 0.5)
    mesh = SpatialMesh.uniform(0.0, 1.0, 20)
    space = FeSpace(mesh, 2)
    adj_space = FeSpace(mesh, 3)
    decomp = decompose_domain(mesh, 2, 0.2, 0.4)
    grid = np.linspace(0.0, 0.5, 6)
    cache = FormCache()
    traj = propagate_be(space, grid, space.interpolate(prob.u0), prob.f,
                        cache, decomp=decomp, K_s=2)
    ev = ResidualEvaluator(prob.f, cache)
    phi_val = adj_space.interpolate(lambda x: np.sin(np.pi * x))
    E_K, E_N = dd_split([traj], (adj_space, np.array(
        [phi_val.coefficients] * traj.n_steps)), decomp, 2, ev)
    for n in range(1, traj.n_steps + 1):
        dt = grid[1] - grid[0]
        M3x = ev.cache.mass(adj_space, space)
        B3x = M3x + dt * ev.cache.stiffness(adj_space, space)
        if n == 1:
            ell = ev.cache.mass(adj_space, traj.incoming.space) \
                @ traj.incoming.coefficients
        else:
            ell = M3x @ node_value(traj, n - 1).coefficients
        ell = ell + dt * assemble_load(adj_space, grid[n], ev.f)
        # the global spatial adjoint: B Phi = M phi_val
        Phi = ev.cache.step_operator(adj_space, dt).solve(
            ev.cache.mass(adj_space, adj_space) @ phi_val.coefficients)
        lhs = Phi @ (ell - B3x @ node_value(traj, n).coefficients)
        assert (abs((E_K[n - 1] + E_N[n - 1]) - lhs)
                <= 1e-14 * max(1.0, abs(lhs)))


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
