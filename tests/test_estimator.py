"""Dual-weighted residuals and the error decompositions."""

import math

import numpy as np
import pytest

from parapost.adjoint import (
    SpaceTimeAdjoint,
    SpatialAdjointSolver,
    solve_auxiliary_adjoints,
    solve_coarse_adjoint,
    solve_fine_adjoints,
)
from parapost.estimator import (
    ErrorBreakdown,
    ResidualEvaluator,
    dd_split,
    effectivity,
    tpa_breakdown,
)
from parapost.harness import ExperimentConfig, build_manufactured, run_experiment
from parapost.mesh import FeSpace, FormCache, NodalField, SpatialMesh, embed, qoi_eval
from parapost.parareal import vpar
from parapost.schwarz import decompose_domain
from parapost.timestepping import TimePartition, propagate_be, propagate_cg

ZERO_F = lambda x, t: np.zeros_like(x)


def _constant_in_time_weight(space, times, coeffs):
    """Piecewise-constant-in-time space-time field on a step grid."""
    n = len(times) - 1
    c = np.tile(coeffs, (n, 2, 1))
    return SpaceTimeAdjoint("const", space, times, 1, c,
                            NodalField(space, coeffs.copy()))


def test_galerkin_orthogonality_be():
    # with f = 0 the implicit-Euler residual vanishes against any weight that
    # is piecewise constant in time in the trajectory's own space
    space = FeSpace(SpatialMesh.uniform(0.0, 1.0, 8), 2)
    rng = np.random.default_rng(21)
    ic = NodalField(space, rng.standard_normal(space.dof_count))
    grid = np.linspace(0.0, 0.4, 6)
    traj = propagate_be(space, grid, ic, ZERO_F)
    ev = ResidualEvaluator(ZERO_F)
    w = _constant_in_time_weight(space, grid,
                                 rng.standard_normal(space.dof_count))
    res = ev.residual(traj, w)
    assert np.max(np.abs(res)) < 1e-12


def test_galerkin_orthogonality_cg():
    # cG(q_t) residuals vanish against same-space weights of time degree
    # q_t - 1 (the span of the scheme's test functions)
    space = FeSpace(SpatialMesh.uniform(0.0, 1.0, 8), 2)
    rng = np.random.default_rng(22)
    ic = NodalField(space, rng.standard_normal(space.dof_count))
    grid = np.linspace(0.0, 0.4, 5)
    traj = propagate_cg(space, grid, 2, ic, ZERO_F)
    n = len(grid) - 1
    coeffs = rng.standard_normal((n, 2, space.dof_count))  # linear in time
    w = SpaceTimeAdjoint("lin", space, grid, 1, coeffs,
                         NodalField(space, coeffs[-1, -1].copy()))
    ev = ResidualEvaluator(ZERO_F)
    res = ev.residual(traj, w)
    assert np.max(np.abs(res)) < 1e-12


def test_residual_be_single_dof_oracle():
    # single interior hat (M = 1/3, A = 4), f = 0: per-step residual is
    # -4 u_n int_{I_n} phi dt - (1/3)(u_n - u_{n-1}) phi(t_{n-1})
    space = FeSpace(SpatialMesh.uniform(0.0, 1.0, 2), 1)
    ic = NodalField(space, np.array([0.5]))
    grid = np.array([0.0, 0.1, 0.2])
    traj = propagate_be(space, grid, ic, ZERO_F)
    # weight linear in time in the same space, values a_n at the grid times
    a = np.array([0.8, -0.3, 0.6])
    coeffs = np.array([[[a[0]], [a[1]]], [[a[1]], [a[2]]]])
    w = SpaceTimeAdjoint("lin", space, grid, 1, coeffs,
                         NodalField(space, np.array([a[2]])))
    ev = ResidualEvaluator(ZERO_F)
    res = ev.residual(traj, w)
    u = traj.values[:, 0]
    for n in (1, 2):
        dt = 0.1
        integral = dt * 0.5 * (a[n - 1] + a[n])
        expected = -4.0 * u[n] * integral - (1.0 / 3.0) * (u[n] - u[n - 1]) * a[n - 1]
        assert res[n - 1] == pytest.approx(expected, abs=1e-15)


def test_effectivity_trivials():
    assert effectivity(2.0, 1.0) == 2.0
    assert effectivity(-3.0, 1.5) == -2.0
    assert math.isnan(effectivity(1.0, 0.0))
    bd = ErrorBreakdown("TPA", {"D": 0.25, "K": -0.05}, 0.2)
    assert bd.estimated_total == pytest.approx(0.2)
    assert bd.effectivity == pytest.approx(1.0)


def test_tpa_single_subdomain_has_no_coupling_terms():
    cfg = ExperimentConfig(Nhat_t=8, r=2, P_t=1, K_t=1, Nhat_s=10,
                           qhat_s=1, q_s=2, nu=2, mu=1, T=0.5)
    rec = run_experiment(cfg)
    assert rec.components["A"] == 0.0
    assert rec.components["C"] == 0.0
    assert rec.components["K"] == 0.0
    assert abs(rec.effectivity - 1.0) < 0.05


def test_tpa_first_iteration_has_zero_coarse_jump():
    cfg = ExperimentConfig(Nhat_t=10, r=2, P_t=5, K_t=1, Nhat_s=10,
                           qhat_s=1, q_s=2, nu=2, mu=1, T=0.5)
    rec = run_experiment(cfg)
    assert abs(rec.components["C"]) < 1e-14


def test_iteration_component_vanishes_at_finite_termination():
    # equal coarse/fine spatial degrees: after K_t = P_t iterations the
    # synchronized values are exact, so the K component is zero
    prob = build_manufactured(2, 1, 0.5)
    mesh = SpatialMesh.uniform(0.0, 1.0, 8)
    space = FeSpace(mesh, 2)
    adj_space = FeSpace(mesh, 3)
    part = TimePartition.uniform(0.5, 4, 8, 2)
    cache = FormCache()
    fs = lambda g, ic: propagate_be(space, g, ic, prob.f, cache)
    states = vpar(part, 4, space.interpolate(prob.u0), fs, fs, space)
    coarse_adj = solve_coarse_adjoint(part, adj_space, prob.psi, cache=cache)
    fine_adjs = solve_fine_adjoints(part, coarse_adj, cache=cache)
    aux_adjs = solve_auxiliary_adjoints(part, coarse_adj, fine_adjs, cache=cache)
    adjoints = {"coarse": coarse_adj, "fine": fine_adjs, "aux": aux_adjs}
    true_err = prob.true_qoi() - qoi_eval(prob.psi, states[-1].fine[-1].end)
    bd = tpa_breakdown(part, states[-1], adjoints, prob, true_err, cache)
    assert abs(bd.components["K"]) < 1e-10
    assert abs(bd.effectivity - 1.0) < 0.05


def test_missing_adjoint_family_rejected():
    prob = build_manufactured(2, 1, 0.5)
    part = TimePartition.uniform(0.5, 2, 4, 2)
    with pytest.raises(ValueError):
        tpa_breakdown(part, None, {"coarse": None, "fine": None}, prob, 0.0)


def _schwarz_step_setup(K_s=2):
    prob = build_manufactured(2, 2, 0.5)
    mesh = SpatialMesh.uniform(0.0, 1.0, 20)
    space = FeSpace(mesh, 2)
    adj_space = FeSpace(mesh, 3)
    decomp = decompose_domain(mesh, 2, 0.2)
    grid = np.linspace(0.0, 0.5, 6)
    cache = FormCache()
    traj = propagate_be(space, grid, space.interpolate(prob.u0), prob.f,
                        cache, decomp=decomp, K_s=K_s)
    # the solver dd_split looks up for these steps
    solver = SpatialAdjointSolver.cached(cache, adj_space, grid[1] - grid[0],
                                         decomp)
    ev = ResidualEvaluator(prob.f, cache)
    phi_val = adj_space.interpolate(lambda x: np.sin(np.pi * x) * (1 + x))
    return traj, solver, ev, phi_val


def test_dd_split_sums_to_global_weighted_algebraic_error():
    traj, solver, ev, phi_val = _schwarz_step_setup()
    for n in (1, 3, 5):
        E_K, E_N = dd_split(traj, n, solver.decomp, phi_val, ev)
        dt = traj.times[n] - traj.times[n - 1]
        space3 = solver.space
        M3x = ev.cache.mass(space3, traj.space)
        B3x = M3x + dt * ev.cache.stiffness(space3, traj.space)
        if n == 1:
            M3inc = ev.cache.mass(space3, traj.incoming.space)
            ell = M3inc @ traj.incoming.coefficients
        else:
            ell = M3x @ traj.values[n - 1]
        ell = ell + dt * ev.load(space3, traj.times[n])
        Phi = solver.solve_global(phi_val)
        lhs = Phi.coefficients @ ell - Phi.coefficients @ (B3x @ traj.values[n])
        scale = max(1.0, abs(lhs))
        assert abs((E_K + E_N) - lhs) < 1e-14 * scale


def test_dd_split_summation_order_invariance():
    traj, solver, ev, phi_val = _schwarz_step_setup(K_s=4)
    n = 2
    E_K, E_N = dd_split(traj, n, solver.decomp, phi_val, ev)
    # recompute E_N summing subdomains first, sweeps second
    rec = traj.schwarz_records[n - 1]
    K_s = len(rec.locals_)
    dt = traj.times[n] - traj.times[n - 1]
    space3 = solver.space
    M3x = ev.cache.mass(space3, traj.space)
    B3x = M3x + dt * ev.cache.stiffness(space3, traj.space)
    ell = M3x @ traj.values[n - 1] + dt * ev.load(space3, traj.times[n])
    chi = solver.solve_subdomain(phi_val, K_s)
    E_N_alt = 0.0
    for i in range(solver.decomp.P_s):
        for ks in range(1, K_s + 1):
            c = chi[ks - 1][i]
            E_N_alt += c @ ell - c @ (B3x @ rec.locals_[ks - 1][i])
    assert abs(E_N - E_N_alt) < 1e-13 * max(1.0, abs(E_N))


def test_dd_split_iteration_part_shrinks_when_converged():
    # more sweeps remove the algebraic error, so E_K decays toward zero while
    # the discretization part E_N does not
    few, solver_f, ev_f, phi_f = _schwarz_step_setup(K_s=2)
    many, solver_m, ev_m, phi_m = _schwarz_step_setup(K_s=60)
    for n in (1, 4):
        E_K_few, E_N_few = dd_split(few, n, solver_f.decomp, phi_f, ev_f)
        E_K_many, E_N_many = dd_split(many, n, solver_m.decomp, phi_m, ev_m)
        assert abs(E_K_many) < 1e-6
        assert abs(E_K_many) < 1e-3 * abs(E_K_few)
        assert abs(E_N_many) > 1e-6


def test_dd_split_requires_sweep_records():
    prob = build_manufactured(2, 2, 0.5)
    mesh = SpatialMesh.uniform(0.0, 1.0, 20)
    space = FeSpace(mesh, 2)
    traj = propagate_be(space, np.linspace(0.0, 0.5, 6),
                        space.interpolate(prob.u0), prob.f)
    decomp = decompose_domain(mesh, 2, 0.2)
    ev = ResidualEvaluator(prob.f)
    with pytest.raises(ValueError):
        dd_split(traj, 1, decomp, FeSpace(mesh, 3).interpolate(np.sin), ev)


def test_stpa_collapses_to_tpa_without_spatial_splitting():
    base = dict(Nhat_t=10, r=2, P_t=5, K_t=2, Nhat_s=10, qhat_s=1, q_s=2,
                nu=2, mu=2, T=0.5)
    tpa = run_experiment(ExperimentConfig(**base))
    stpa = run_experiment(ExperimentConfig(**base, schwarz=True, P_s=1,
                                           K_s=1, tau=1.0))
    assert abs(stpa.true_error - tpa.true_error) < 1e-10
    assert abs(stpa.estimated_error - tpa.estimated_error) < 1e-10
    d_sum = (stpa.components["D_t"] + stpa.components["D_s"]
             + stpa.components["D_k"])
    assert abs(d_sum - tpa.components["D"]) < 1e-10
    for name in ("K", "C", "A"):
        assert abs(stpa.components[name] - tpa.components[name]) < 1e-10


def test_component_sum_is_reported_total():
    cfg = ExperimentConfig(Nhat_t=10, r=2, P_t=5, K_t=2, Nhat_s=10,
                           qhat_s=1, q_s=2, nu=2, mu=1, T=0.5)
    rec = run_experiment(cfg)
    assert rec.estimated_error == pytest.approx(
        math.fsum(rec.components.values()), abs=1e-15)


def coarse_error_estimate(partition, state, coarse_adjoint, problem,
                          true_error, cache=None):
    """Dual-weighted estimate of the coarse-scale solution's QoI error."""
    ev = ResidualEvaluator(problem.f, cache)
    total = 0.0
    for p in range(1, partition.P_t + 1):
        total += float(np.sum(ev.residual(state.coarse[p - 1], coarse_adjoint)))
    # corrections C_p^{k-1} recovered from the synchronized incoming values
    fine_space = state.fine[0].space
    for p in range(1, partition.P_t):
        corr_prev = (embed(state.coarse[p].incoming, fine_space)
                     - embed(state.coarse[p - 1].end, fine_space))
        total -= ev.pair(coarse_adjoint.value_at_node(partition.sync_times[p]),
                         corr_prev)
    adj0 = coarse_adjoint.value_at_node(0.0)
    total += (ev.pair_analytic(problem.u0, adj0)
              - ev.pair(state.initial, adj0))
    return ErrorBreakdown("coarse", {"total": total}, true_error)


def test_coarse_error_estimate_effectivity():
    prob = build_manufactured(4, 1, 2.0)
    mesh = SpatialMesh.uniform(0.0, 1.0, 20)
    coarse, fine = FeSpace(mesh, 1), FeSpace(mesh, 2)
    adj_space = FeSpace(mesh, 3)
    part = TimePartition.uniform(2.0, 10, 40, 2)
    cache = FormCache()
    fs = lambda g, ic: propagate_be(fine, g, ic, prob.f, cache)
    cs = lambda g, ic: propagate_be(coarse, g, ic, prob.f, cache)
    states = vpar(part, 2, coarse.interpolate(prob.u0), fs, cs, fine)
    state = states[-1]
    coarse_adj = solve_coarse_adjoint(part, adj_space, prob.psi, cache=cache)
    true_err = prob.true_qoi() - qoi_eval(prob.psi, state.coarse[-1].end)
    bd = coarse_error_estimate(part, state, coarse_adj, prob, true_err, cache)
    assert 0.95 < bd.effectivity < 1.05
