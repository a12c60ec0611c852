"""Dual-weighted residuals and the error decompositions."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from parapost.adjoint import (
    solve_auxiliary_adjoints,
    solve_coarse_adjoint,
    solve_fine_adjoints,
)
from parapost.estimator import (
    N_QUAD_T,
    ResidualEvaluator,
    _ack_terms,
    _ic_error_pairs,
    dd_split,
    stpa_breakdown,
)
from parapost.harness import (ExperimentConfig, build_manufactured,
                              effectivity, run_experiment)
from parapost.mesh import (
    FeSpace,
    FormCache,
    NodalField,
    SpatialMesh,
    assemble_load,
    lagrange_derivs,
    qoi_eval,
)
import parapost.adjoint as adjoint_module
import parapost.estimator as estimator_module
import parapost.harness as harness_module
import parapost.schwarz as schwarz_module
from parapost.parareal import vpar
from parapost.schwarz import AdditiveSchwarz, decompose_domain
from parapost.timestepping import TimePartition, Trajectory, propagate

from oracles import (ack_terms_per_pair, dd_split_per_step, embed, node_value,
                     slab_eval, slab_index, value_at_node)

ZERO_F = lambda x, t: np.zeros_like(x)


def _side(*fields):
    """(space, (rows, dof) block) of fields of one space, as
    ResidualEvaluator.pairs and dd_split take them."""
    return fields[0].space, np.array([u.coefficients for u in fields])


def _constant_in_time_weight(space, times, coeffs):
    """Piecewise-constant-in-time space-time field on a step grid."""
    n = len(times) - 1
    c = np.tile(coeffs, (n, 2, 1))
    return Trajectory(space, times, 1, c, NodalField(space, coeffs.copy()))


def test_galerkin_orthogonality_be():
    # with f = 0 the implicit-Euler residual vanishes against any weight that
    # is piecewise constant in time in the trajectory's own space
    space = FeSpace(SpatialMesh.uniform(0.0, 1.0, 8), 2)
    rng = np.random.default_rng(21)
    ic = NodalField(space, rng.standard_normal(space.dof_count))
    grid = np.linspace(0.0, 0.4, 6)
    cache = FormCache()
    traj = propagate(space, grid, 0, ic, ZERO_F, cache)
    ev = ResidualEvaluator(ZERO_F, cache)
    w = _constant_in_time_weight(space, grid,
                                 rng.standard_normal(space.dof_count))
    res = ev.residual([(traj, w)])[0]
    assert np.max(np.abs(res)) < 1e-12


def test_galerkin_orthogonality_cg():
    # cG(q_t) residuals vanish against same-space weights of time degree
    # q_t - 1 (the span of the scheme's test functions)
    space = FeSpace(SpatialMesh.uniform(0.0, 1.0, 8), 2)
    rng = np.random.default_rng(22)
    ic = NodalField(space, rng.standard_normal(space.dof_count))
    grid = np.linspace(0.0, 0.4, 5)
    cache = FormCache()
    traj = propagate(space, grid, 2, ic, ZERO_F, cache)
    n = len(grid) - 1
    coeffs = rng.standard_normal((n, 2, space.dof_count))  # linear in time
    w = Trajectory(space, grid, 1, coeffs,
                   NodalField(space, coeffs[-1, -1].copy()))
    ev = ResidualEvaluator(ZERO_F, cache)
    res = ev.residual([(traj, w)])[0]
    assert np.max(np.abs(res)) < 1e-12


def test_residual_be_single_dof_oracle():
    # single interior hat (M = 1/3, A = 4), f = 0: per-step residual is
    # -4 u_n int_{I_n} phi dt - (1/3)(u_n - u_{n-1}) phi(t_{n-1})
    space = FeSpace(SpatialMesh.uniform(0.0, 1.0, 2), 1)
    ic = NodalField(space, np.array([0.5]))
    grid = np.array([0.0, 0.1, 0.2])
    cache = FormCache()
    traj = propagate(space, grid, 0, ic, ZERO_F, cache)
    # weight linear in time in the same space, values a_n at the grid times
    a = np.array([0.8, -0.3, 0.6])
    coeffs = np.array([[[a[0]], [a[1]]], [[a[1]], [a[2]]]])
    w = Trajectory(space, grid, 1, coeffs,
                   NodalField(space, np.array([a[2]])))
    ev = ResidualEvaluator(ZERO_F, cache)
    res = ev.residual([(traj, w)])[0]
    u = np.concatenate([ic.coefficients, traj.coeffs[:, 0, 0]])
    for n in (1, 2):
        dt = 0.1
        integral = dt * 0.5 * (a[n - 1] + a[n])
        expected = -4.0 * u[n] * integral - (1.0 / 3.0) * (u[n] - u[n - 1]) * a[n - 1]
        assert res[n - 1] == pytest.approx(expected, abs=1e-15)


def test_effectivity_trivials():
    assert effectivity(2.0, 1.0) == 2.0
    assert effectivity(-3.0, 1.5) == -2.0
    assert math.isnan(effectivity(1.0, 0.0))
    assert effectivity(math.fsum([0.25, -0.05]), 0.2) == pytest.approx(1.0)


def test_tpa_single_subdomain_has_no_coupling_terms():
    cfg = ExperimentConfig(Nhat_t=8, r=2, P_t=1, K_t=1, Nhat_s=10,
                           qhat_s=1, q_s=2, nu=2, mu=1, T=0.5)
    rec = run_experiment(cfg)
    assert rec.components["A"] == 0.0
    assert rec.components["C"] == 0.0
    assert rec.components["K"] == 0.0
    assert abs(rec.effectivity - 1.0) < 0.05


def test_pairs_rejects_sides_of_unequal_lengths():
    # 3 lefts against 1 right would broadcast to 3 values, and 2 against 3
    # fail in numpy's broadcast: both name the two lengths
    ev = ResidualEvaluator(ZERO_F, FormCache())
    space = FeSpace(SpatialMesh.uniform(0.0, 1.0, 4), 2)
    rows = np.ones((3, space.dof_count))
    for left, right in ((3, 1), (2, 3)):
        with pytest.raises(ValueError, match=rf"^{left} left fields against "
                                             rf"{right} right fields$"):
            ev.pairs((space, rows[:left]), (space, rows[:right]))


def test_the_jumps_at_the_synchronization_times_reject_mixed_spaces():
    # each side of the jumps is one stacked gather from one space: an
    # incoming value in another space of equal dof count raises, where it
    # would otherwise be gathered as a field of the first
    cfg = ExperimentConfig(Nhat_t=6, r=2, P_t=3, K_t=2, Nhat_s=8, qhat_s=1,
                           q_s=2, nu=2, mu=2, T=0.5)
    raised = []

    def record(partition, state, adjoints, problem, decomp, K_s, cache):
        inc = state.coarse[2].incoming
        state.coarse[2].incoming = NodalField(
            FeSpace(inc.space.mesh, inc.space.degree), inc.coefficients)
        with pytest.raises(ValueError, match="mix spaces$"):
            _ack_terms(partition, state, adjoints,
                       ResidualEvaluator(problem.f, cache), problem.u0)
        raised.append(1)
        return {}

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness_module, "stpa_breakdown", record)
        run_experiment(cfg)
    assert raised == [1]


def test_the_jumps_at_the_synchronization_times_share_the_incoming_values():
    # the fine and coarse jumps take one gather of the incoming values,
    # which vpar hands both trajectories of a subdomain: a fine trajectory
    # started from another value raises naming its subdomain, where its K
    # term would otherwise be paired with the coarse incoming value
    cfg = ExperimentConfig(Nhat_t=6, r=2, P_t=3, K_t=2, Nhat_s=8, qhat_s=1,
                           q_s=2, nu=2, mu=2, T=0.5)
    raised = []

    def record(partition, state, adjoints, problem, decomp, K_s, cache):
        inc = state.fine[2].incoming
        state.fine[2].incoming = NodalField(inc.space, inc.coefficients + 1.0)
        with pytest.raises(ValueError, match="subdomain p=3 start from "
                                             "different incoming values$"):
            _ack_terms(partition, state, adjoints,
                       ResidualEvaluator(problem.f, cache), problem.u0)
        raised.append(1)
        return {}

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness_module, "stpa_breakdown", record)
        run_experiment(cfg)
    assert raised == [1]


def test_stacked_calls_on_no_pairs_are_empty():
    # at P_t = 1 every A, C and K family is an empty stack, whose fsum is 0.0
    ev = ResidualEvaluator(ZERO_F, FormCache())
    space = FeSpace(SpatialMesh.uniform(0.0, 1.0, 4), 2)
    empty = (space, np.zeros((0, space.dof_count)))
    assert ev.residual([]).shape == (0, 0)
    assert ev.pair_analytic(np.sin, empty).shape == (0,)
    assert ev.pairs(empty, empty).shape == (0,)


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
    fs = lambda gs, ics: propagate(space, gs, 0, ics, prob.f, cache)
    cs = lambda gs, ic, jumps: propagate(space, gs, 0, ic, prob.f, cache,
                                         jumps=jumps)
    states = vpar(part, 4, space.interpolate(prob.u0), fs, cs, cache)
    coarse_adj = solve_coarse_adjoint(part, adj_space, prob.psi, 3, cache)
    fine_adjs = solve_fine_adjoints(part, coarse_adj, 3, cache)
    aux_adjs = solve_auxiliary_adjoints(part, coarse_adj, fine_adjs, 3, cache)
    adjoints = {"coarse": coarse_adj, "fine": fine_adjs, "aux": aux_adjs}
    true_err = prob.true_qoi() - qoi_eval(prob.psi, states[-1].fine[-1].end)
    components = stpa_breakdown(part, states[-1], adjoints, prob, None, None,
                                cache)
    assert abs(components["K"]) < 1e-10
    assert abs(math.fsum(components.values()) / true_err - 1.0) < 0.05


@pytest.mark.parametrize("P_s", [None, 2],
                         ids=["tpa_breakdown", "stpa_breakdown"])
def test_missing_adjoint_family_rejected(P_s):
    prob = build_manufactured(2, 1, 0.5)
    part = TimePartition.uniform(0.5, 2, 4, 2)
    decomp = (decompose_domain(SpatialMesh.uniform(0.0, 1.0, 8), P_s, 0.25,
                               0.4) if P_s else None)
    with pytest.raises(ValueError, match="missing adjoint family 'aux'"):
        stpa_breakdown(part, None, {"coarse": None, "fine": None}, prob,
                       decomp, 2, FormCache())


def _schwarz_step_setup(K_s=2):
    prob = build_manufactured(2, 2, 0.5)
    mesh = SpatialMesh.uniform(0.0, 1.0, 20)
    space = FeSpace(mesh, 2)
    adj_space = FeSpace(mesh, 3)
    decomp = decompose_domain(mesh, 2, 0.2, 0.4)
    grid = np.linspace(0.0, 0.5, 6)
    cache = FormCache()
    traj = propagate(space, grid, 0, space.interpolate(prob.u0), prob.f,
                     cache, decomp=decomp, K_s=K_s)
    # the sweeper whose adjoints dd_split takes for these steps
    sweeper = AdditiveSchwarz.cached(cache, adj_space, grid[1] - grid[0], decomp)
    ev = ResidualEvaluator(prob.f, cache)
    phi_val = adj_space.interpolate(lambda x: np.sin(np.pi * x) * (1 + x))
    return traj, sweeper, ev, phi_val


def _split_every_step(traj, sweeper, ev, phi_val, K_s):
    """dd_split of every step of one trajectory solved by K_s sweeps, each
    weighted by phi_val."""
    return dd_split([traj], _side(*[phi_val] * traj.n_steps), sweeper.decomp,
                    K_s, ev)


def test_dd_split_sums_to_global_weighted_algebraic_error():
    traj, sweeper, ev, phi_val = _schwarz_step_setup()
    E_K, E_N = _split_every_step(traj, sweeper, ev, phi_val, 2)
    for n in (1, 3, 5):
        dt = traj.times[n] - traj.times[n - 1]
        space3 = sweeper.space
        M3x = ev.cache.mass(space3, traj.space)
        B3x = M3x + dt * ev.cache.stiffness(space3, traj.space)
        if n == 1:
            M3inc = ev.cache.mass(space3, traj.incoming.space)
            ell = M3inc @ traj.incoming.coefficients
        else:
            ell = M3x @ node_value(traj, n - 1).coefficients
        ell = ell + dt * assemble_load(space3, traj.times[n], ev.f)
        Phi = ev.cache.step_operator(space3, dt).solve(
            ev.cache.mass(space3, space3) @ phi_val.coefficients)
        lhs = Phi @ ell - Phi @ (B3x @ node_value(traj, n).coefficients)
        scale = max(1.0, abs(lhs))
        assert abs((E_K[n - 1] + E_N[n - 1]) - lhs) < 1e-14 * scale


def test_dd_split_summation_order_invariance():
    n, K_s = 2, 4
    traj, sweeper, ev, phi_val = _schwarz_step_setup(K_s)
    E_N = _split_every_step(traj, sweeper, ev, phi_val, K_s)[1][n - 1]
    # recompute E_N summing subdomains first, sweeps second, from the step's
    # sweeps replayed by a one-vector solve
    dt = traj.times[n] - traj.times[n - 1]
    space, space3 = traj.space, sweeper.space
    rhs = (ev.cache.mass(space, space) @ node_value(traj, n - 1).coefficients
           + dt * assemble_load(space, traj.times[n], ev.f))
    _, sweeps = AdditiveSchwarz.cached(ev.cache, space, dt, sweeper.decomp
                                       ).solve(rhs, 0, K_s)
    M3x = ev.cache.mass(space3, traj.space)
    B3x = M3x + dt * ev.cache.stiffness(space3, traj.space)
    ell = (M3x @ node_value(traj, n - 1).coefficients
           + dt * assemble_load(space3, traj.times[n], ev.f))
    chi = {(ks, i): c[0] for ks, i, c in
           sweeper.adjoint(phi_val.coefficients[None], K_s)}
    E_N_alt = 0.0
    for i in range(sweeper.decomp.P_s):
        for ks in range(1, K_s + 1):
            c = chi[ks, i]
            E_N_alt += c @ ell - c @ (B3x @ sweeps[ks - 1, i])
    assert abs(E_N - E_N_alt) < 1e-13 * max(1.0, abs(E_N))


def test_dd_split_iteration_part_shrinks_when_converged():
    # more sweeps remove the algebraic error, so E_K decays toward zero while
    # the discretization part E_N does not
    few, sweeper_f, ev_f, phi_f = _schwarz_step_setup(K_s=2)
    many, sweeper_m, ev_m, phi_m = _schwarz_step_setup(K_s=60)
    E_K_few, _ = _split_every_step(few, sweeper_f, ev_f, phi_f, 2)
    E_K_many, E_N_many = _split_every_step(many, sweeper_m, ev_m, phi_m, 60)
    for n in (1, 4):
        assert abs(E_K_many[n - 1]) < 1e-6
        assert abs(E_K_many[n - 1]) < 1e-3 * abs(E_K_few[n - 1])
        assert abs(E_N_many[n - 1]) > 1e-6


def test_dd_split_requires_sweep_records():
    # the split replays each step's sweeps from its right-hand side, so it
    # requires steps that are K_s sweeps over the decomposition it is given,
    # with the sweeper of the first step's size: a second trajectory solved
    # directly, swept once more, swept over another overlap, or stepped on
    # a grid of twice the step size raises at its first step, and one whose
    # third step value moves by 1e-9 relative raises there; 1e-14 relative
    # passes
    prob = build_manufactured(2, 2, 0.5)
    mesh = SpatialMesh.uniform(0.0, 1.0, 20)
    space, space3 = FeSpace(mesh, 2), FeSpace(mesh, 3)
    decomp = decompose_domain(mesh, 2, 0.2, 0.4)
    cache = FormCache()
    ic = space.interpolate(prob.u0)
    grids = TimePartition.uniform(1.0, 2, 2, 5).fine_grids
    first = propagate(space, grids[0], 0, ic, prob.f, cache, decomp, 2)

    def split(second):
        weights = _side(*[space3.interpolate(np.sin)] * 10)
        return dd_split([first, second], weights, decomp, 2,
                        ResidualEvaluator(prob.f, cache))

    def moved(rel):
        traj = propagate(space, grids[1], 0, ic, prob.f, cache, decomp, 2)
        coeffs = traj.coeffs.copy()
        coeffs[2] *= 1.0 + rel
        return Trajectory(space, traj.times, 0, coeffs, ic)

    other = decompose_domain(mesh, 2, 0.3, 0.4)
    for second, n in (
            (propagate(space, grids[1], 0, ic, prob.f, cache), 1),
            (propagate(space, grids[1], 0, ic, prob.f, cache, decomp, 3), 1),
            (propagate(space, grids[1], 0, ic, prob.f, cache, other, 2), 1),
            (propagate(space, np.linspace(0.5, 1.5, 6), 0, ic, prob.f, cache,
                       decomp, 2), 1),
            (moved(1e-9), 3)):
        with pytest.raises(ValueError, match=rf"not that of 2 Schwarz sweeps "
                           rf".* at p=2, n={n}$"):
            split(second)
    split(moved(1e-14))


@settings(max_examples=40, deadline=None)
@given(P_s=st.integers(1, 3), K_s=st.integers(1, 3), steps=st.integers(1, 4),
       P_t=st.integers(1, 3), q_s=st.integers(1, 2), q_inc=st.integers(1, 3),
       T=st.sampled_from([0.3, 0.7, 0.9]), forced=st.booleans(),
       seed=st.integers(0, 10**6))
def test_dd_split_matches_the_per_step_oracle(P_s, K_s, steps, P_t, q_s,
                                              q_inc, T, forced, seed):
    # every step of several trajectories split together is bitwise its own
    # split, on linspace grids whose steps differ in the last bits, with
    # incoming values in other spaces; the oracle replays each step's sweeps
    # with the solve's sweeper and looks its adjoint solvers up step by step
    # in a cache of its own
    rng = np.random.default_rng(seed)
    mesh = SpatialMesh.uniform(0.0, 1.0, 12)
    space, space3 = FeSpace(mesh, q_s), FeSpace(mesh, q_s + 1)
    decomp = decompose_domain(mesh, P_s, 0.25, 0.4)
    grids = TimePartition.uniform(T, P_t, P_t, steps).fine_grids
    ics = []
    for p in range(P_t):
        inc = FeSpace(mesh, 1 + (q_inc + p) % 3)
        ics.append(NodalField(inc, rng.standard_normal(inc.dof_count)))
    f = (lambda x, t: np.sin(np.pi * x) * (1.0 + t)) if forced else None
    cache = FormCache()
    trajs = propagate(space, grids, 0, ics, f, cache, decomp, K_s)
    weights = rng.standard_normal((P_t * steps, space3.dof_count))
    E_K, E_N = dd_split(trajs, (space3, weights), decomp, K_s,
                        ResidualEvaluator(f, cache))
    ev = ResidualEvaluator(f, FormCache())
    want = np.array([dd_split_per_step(traj, n, decomp, K_s, NodalField(
                         space3, weights[p * steps + n - 1]), ev, cache)
                     for p, traj in enumerate(trajs)
                     for n in range(1, steps + 1)])
    assert np.array_equal(E_K, want[:, 0])
    assert np.array_equal(E_N, want[:, 1])


def test_dd_split_names_the_first_step_with_a_nonfinite_subdomain_adjoint(
        monkeypatch):
    # a local solve that fails on a zero right-hand side: the zero weight of
    # step n=2 of p=2 has a finite (zero) global adjoint, and only its
    # subdomain recursion fails, inside a block with finite columns; the
    # split names it from the one recursion of the steps' one sweeper
    # group, and runs no column's recursion again
    prob = build_manufactured(2, 2, 0.5)
    mesh = SpatialMesh.uniform(0.0, 1.0, 8)
    space, space3 = FeSpace(mesh, 2), FeSpace(mesh, 3)
    decomp = decompose_domain(mesh, 2, 0.25, 0.4)
    cache = FormCache()
    grids = TimePartition.uniform(0.5, 2, 2, 2).fine_grids
    ic = space.interpolate(prob.u0)
    trajs = propagate(space, grids, 0, [ic, ic], prob.f, cache, decomp, 2)
    weights = _side(*[space3.interpolate(np.sin)] * 4)
    weights[1][3] = 0.0
    real = AdditiveSchwarz.local_solve

    def failing(self, i, rhs):
        x = real(self, i, rhs)
        x[:, ~np.any(rhs, axis=0)] = np.nan
        return x

    recursions = []
    real_adjoint = AdditiveSchwarz.adjoint

    def adjoint(self, weights, K_s):
        recursions.append(len(weights))
        yield from real_adjoint(self, weights, K_s)

    monkeypatch.setattr(AdditiveSchwarz, "local_solve", failing)
    monkeypatch.setattr(AdditiveSchwarz, "adjoint", adjoint)
    with pytest.raises(ValueError, match=r"non-finite subdomain spatial "
                       r"adjoint \(dt=0\.125\) at p=2, n=2$"):
        dd_split(trajs, weights, decomp, 2, ResidualEvaluator(prob.f, cache))
    assert recursions == [4]


def test_stpa_split_solves_each_sweeper_group_once(monkeypatch):
    # the subdomain adjoints of all steps are one backward recursion per
    # dd_split call: K_s * P_s local solves per call, not per step
    cfg = ExperimentConfig(Nhat_t=4, r=2, P_t=2, K_t=2, Nhat_s=8, qhat_s=1,
                           q_s=2, nu=2, mu=1, T=0.5, schwarz=True, P_s=2,
                           K_s=3, beta=0.25)
    groups, inside, splits = [], [], []
    real_adjoint, real_dpotrs = AdditiveSchwarz.adjoint, schwarz_module.dpotrs
    real_split = estimator_module.dd_split

    def dd_split(*args):
        splits.append(args)
        return real_split(*args)

    def adjoint(self, weights, K_s):
        groups.append([len(weights), 0])
        inside.append(True)
        try:
            yield from real_adjoint(self, weights, K_s)
        finally:
            inside.pop()

    def dpotrs(*args, **kwargs):
        if inside:
            groups[-1][1] += 1
        return real_dpotrs(*args, **kwargs)

    monkeypatch.setattr(AdditiveSchwarz, "adjoint", adjoint)
    monkeypatch.setattr(schwarz_module, "dpotrs", dpotrs)
    monkeypatch.setattr(estimator_module, "dd_split", dd_split)
    run_experiment(cfg)
    steps = cfg.r * cfg.Nhat_t
    assert sum(columns for columns, _ in groups) == steps
    assert len(groups) == len(splits) == 1
    assert all(solves == cfg.K_s * cfg.P_s for _, solves in groups)


def _small_stpa_run():
    """(partition, state, adjoints, problem, decomp, cache) of a small STPA
    run: P_t = 2 subdomains of 4 fine steps, each 2 sweeps over P_s = 2."""
    prob = build_manufactured(2, 2, 0.5)
    mesh = SpatialMesh.uniform(0.0, 1.0, 8)
    coarse, fine, adj_space = (FeSpace(mesh, q) for q in (1, 2, 3))
    part = TimePartition.uniform(0.5, 2, 4, 2)
    decomp = decompose_domain(mesh, 2, 0.25, 0.4)
    cache = FormCache()
    fs = lambda gs, ics: propagate(fine, gs, 0, ics, prob.f, cache, decomp, 2)
    cs = lambda gs, ic, jumps: propagate(coarse, gs, 0, ic, prob.f, cache,
                                         jumps=jumps)
    state = vpar(part, 2, coarse.interpolate(prob.u0), fs, cs, cache)[-1]
    coarse_adj = solve_coarse_adjoint(part, adj_space, prob.psi, 3, cache)
    fine_adjs = solve_fine_adjoints(part, coarse_adj, 3, cache)
    aux_adjs = solve_auxiliary_adjoints(part, coarse_adj, fine_adjs, 3, cache)
    adjoints = {"coarse": coarse_adj, "fine": fine_adjs, "aux": aux_adjs}
    return part, state, adjoints, prob, decomp, cache


def test_stpa_split_names_subdomain_and_step_of_nonfinite_parts():
    # a NaN in a fine adjoint makes the step's spatial adjoints non-finite:
    # the global one raises first, and the split names the subdomain and step
    part, state, adjoints, prob, decomp, cache = _small_stpa_run()
    fine_adjs = adjoints["fine"]
    stpa_breakdown(part, state, adjoints, prob, decomp, 2, cache)
    bad = fine_adjs[1]
    coeffs = bad.coeffs.copy()
    coeffs[1, -1, 3] = np.nan  # the weight at the end of step n=2
    fine_adjs[1] = Trajectory(bad.space, bad.times, bad.q_t, coeffs,
                              bad.incoming)
    with pytest.raises(ValueError, match=r"p=2, n=2"):
        stpa_breakdown(part, state, adjoints, prob, decomp, 2, cache)


@pytest.mark.parametrize("which", ["E_K"])
def test_stpa_breakdown_names_the_step_of_a_nonfinite_split_part(
        monkeypatch, which):
    # an overflow of E_K at step n=3 of p=2 (column 4 + 2 of the one group
    # of 2 x 4 steps): its global adjoint and weight-space functional are
    # scaled up, each still finite, as are its subdomain adjoints and E_N
    # terms, but their products overflow, silently, and dd_split checks
    # E_K last.  An E_N is the fsum of terms dd_split already checked
    # finite, so it needs no case here (see
    # test_dd_split_names_the_step_of_a_nonfinite_subdomain_term)
    part, state, adjoints, prob, decomp, cache = _small_stpa_run()
    space3 = adjoints["fine"][0].space
    global_adjoint = cache.step_operator(space3, 0.0625)
    real_solve = global_adjoint.solve
    real_functionals = estimator_module._step_functionals

    def solve(rhs):
        x = real_solve(rhs)
        x[:, 4 + 2] *= 1e300
        return x

    def functionals(traj, space, ev):
        out = real_functionals(traj, space, ev)
        if space is space3 and traj is state.fine[1]:
            out[2] *= 1e10
        return out

    monkeypatch.setattr(global_adjoint, "solve", solve)
    monkeypatch.setattr(estimator_module, "_step_functionals", functionals)
    with pytest.raises(ValueError, match=rf"^non-finite {which} "
                                         r"\(dt=0\.0625\) at p=2, n=3$"):
        stpa_breakdown(part, state, adjoints, prob, decomp, 2, cache)


def test_dd_split_names_the_step_of_a_nonfinite_subdomain_term(monkeypatch):
    # an inf in the weight-space functional of step n=2 of p=2 leaves the
    # spatial adjoints finite; its E_N terms are not, and raise before fsum
    # (the products that form them, 0 * inf among them, do not warn)
    prob = build_manufactured(2, 2, 0.5)
    mesh = SpatialMesh.uniform(0.0, 1.0, 8)
    space, space3 = FeSpace(mesh, 2), FeSpace(mesh, 3)
    decomp = decompose_domain(mesh, 2, 0.25, 0.4)
    cache = FormCache()
    grids = TimePartition.uniform(0.5, 2, 2, 2).fine_grids
    ic = space.interpolate(prob.u0)
    trajs = propagate(space, grids, 0, [ic, ic], prob.f, cache, decomp, 2)
    weights = _side(*[space3.interpolate(np.sin)] * 4)
    real = estimator_module._step_functionals

    def functionals(traj, space, ev):
        out = real(traj, space, ev)
        if space is space3 and traj is trajs[1]:
            out[1] = np.inf
        return out

    monkeypatch.setattr(estimator_module, "_step_functionals", functionals)
    with pytest.raises(ValueError, match=r"^non-finite E_N term "
                                         r"\(dt=0\.125\) at p=2, n=2$"):
        dd_split(trajs, weights, decomp, 2, ResidualEvaluator(prob.f, cache))


# small Schwarz configs: P_t <= 3 temporal subdomains of r fine steps per
# coarse step, on linspace grids whose steps differ in their last bits,
# which the split's one sweeper must replay to 1e-12
_SMALL_STPA = dict(P_t=st.integers(1, 3), r=st.integers(1, 3),
                   K_s=st.integers(1, 3), Nhat_s=st.sampled_from([8, 12]))


def _small_stpa_base(P_t, r, Nhat_s):
    return dict(Nhat_t=2 * P_t, r=r, P_t=P_t, K_t=min(2, P_t), Nhat_s=Nhat_s,
                qhat_s=1, q_s=2, nu=2, mu=2, T=0.5)


@settings(max_examples=15, deadline=None)
@given(**_SMALL_STPA)
@example(P_t=5, r=2, K_s=1, Nhat_s=10)
def test_stpa_collapses_to_tpa_without_spatial_splitting(P_t, r, K_s, Nhat_s):
    # one subdomain with tau = 1 solves each step exactly in every sweep
    base = _small_stpa_base(P_t, r, Nhat_s)
    tpa = run_experiment(ExperimentConfig(**base))
    stpa = run_experiment(ExperimentConfig(**base, schwarz=True, P_s=1,
                                           K_s=K_s, tau=1.0))
    assert abs(stpa.true_error - tpa.true_error) < 1e-10
    assert abs(stpa.estimated_error - tpa.estimated_error) < 1e-10
    d_sum = (stpa.components["D_t"] + stpa.components["D_s"]
             + stpa.components["D_k"])
    assert abs(d_sum - tpa.components["D"]) < 1e-10
    for name in ("K", "C", "A"):
        assert abs(stpa.components[name] - tpa.components[name]) < 1e-10


@settings(max_examples=20, deadline=None)
@given(P_s=st.integers(1, 3), **_SMALL_STPA)
def test_stpa_splits_the_tpa_discretization_part_exactly(P_t, r, P_s, K_s,
                                                        Nhat_s):
    # on one Schwarz state and one set of adjoints, D_t + D_s + D_k is D:
    # D_t's terms are D's less the E_K and E_N terms that D_k and D_s sum,
    # exactly.  D, each part and the fsum of the parts are each correctly
    # rounded (within eps/2 of their exact sums), so that fsum is within
    # 1.5 eps (|D_t| + |D_s| + |D_k|) of D; K, C and A are the same terms
    assume(Nhat_s % P_s == 0)
    cfg = ExperimentConfig(**_small_stpa_base(P_t, r, Nhat_s), schwarz=True,
                           P_s=P_s, K_s=K_s, beta=0.25, tau=0.4)
    tpa = []

    def stpa_and_tpa(partition, state, adjoints, problem, decomp, K_s, cache):
        tpa.append(stpa_breakdown(partition, state, adjoints, problem, None,
                                  None, cache))
        return stpa_breakdown(partition, state, adjoints, problem, decomp,
                              K_s, cache)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness_module, "stpa_breakdown", stpa_and_tpa)
        stpa = run_experiment(cfg).components
    D = [stpa[name] for name in ("D_t", "D_s", "D_k")]
    eps = np.finfo(float).eps
    assert abs(math.fsum(D) - tpa[0]["D"]) <= 2 * eps * sum(map(abs, D))
    for name in ("K", "C", "A"):
        assert stpa[name] == tpa[0][name]


def test_component_sum_is_reported_total():
    cfg = ExperimentConfig(Nhat_t=10, r=2, P_t=5, K_t=2, Nhat_s=10,
                           qhat_s=1, q_s=2, nu=2, mu=1, T=0.5)
    rec = run_experiment(cfg)
    assert rec.estimated_error == pytest.approx(
        math.fsum(rec.components.values()), abs=1e-15)


def coarse_error_estimate(partition, state, coarse_adjoint, problem, cache):
    """Dual-weighted estimate of the coarse-scale solution's QoI error."""
    ev = ResidualEvaluator(problem.f, cache)
    total = 0.0
    for p in range(1, partition.P_t + 1):
        total += float(np.sum(ev.residual([(state.coarse[p - 1],
                                             coarse_adjoint)])))
    # corrections C_p^{k-1} recovered from the synchronized incoming values
    fine_space = state.fine[0].space
    for p in range(1, partition.P_t):
        corr_prev = (embed(state.coarse[p].incoming, fine_space, cache)
                     - embed(state.coarse[p - 1].end, fine_space, cache))
        total -= ev.pairs(
            _side(value_at_node(coarse_adjoint, partition.sync_times[p])),
            _side(corr_prev))[0]
    adj0 = _side(value_at_node(coarse_adjoint, 0.0))
    total += (ev.pair_analytic(problem.u0, adj0)[0]
              - ev.pairs(_side(state.initial), adj0)[0])
    return total


def test_coarse_error_estimate_effectivity():
    prob = build_manufactured(4, 1, 2.0)
    mesh = SpatialMesh.uniform(0.0, 1.0, 20)
    coarse, fine = FeSpace(mesh, 1), FeSpace(mesh, 2)
    adj_space = FeSpace(mesh, 3)
    part = TimePartition.uniform(2.0, 10, 40, 2)
    cache = FormCache()
    fs = lambda gs, ics: propagate(fine, gs, 0, ics, prob.f, cache)
    cs = lambda gs, ic, jumps: propagate(coarse, gs, 0, ic, prob.f, cache,
                                         jumps=jumps)
    states = vpar(part, 2, coarse.interpolate(prob.u0), fs, cs, cache)
    state = states[-1]
    coarse_adj = solve_coarse_adjoint(part, adj_space, prob.psi, 3, cache)
    true_err = prob.true_qoi() - qoi_eval(prob.psi, state.coarse[-1].end)
    estimate = coarse_error_estimate(part, state, coarse_adj, prob, cache)
    assert 0.95 < effectivity(estimate, true_err) < 1.05


# Reference loops for ResidualEvaluator.residual, one per integrator: implicit
# Euler on nodal values, and cG with the start jump added after the step
# loop (self is the evaluator).  residual_be reads values[n], the solution at
# times[n]; values[0] is never read.


def residual_be(self, traj, weight):
    """Per-step dual-weighted residuals of an implicit-Euler trajectory.

    R_n = int_{I_n} [l(phi) - a(U_n, phi)] dt - ([U]_{n-1}, phi(t_{n-1})),
    with the first step's jump taken against the retained incoming value.
    """
    ws, ts = weight.space, traj.space
    A_x = self.cache.stiffness(ws, ts)
    M_x = self.cache.mass(ws, ts)
    M_inc = self.cache.mass(ws, traj.incoming.space)
    inc_m = M_inc @ traj.incoming.coefficients
    loads = assemble_load(ws, traj.times[:-1, None]
                          + np.diff(traj.times)[:, None] * self._s, self.f)
    out = np.zeros(traj.n_steps)
    for n in range(1, traj.n_steps + 1):
        t0, t1 = traj.times[n - 1], traj.times[n]
        dt = t1 - t0
        slab = slab_index(weight, t0, t1)
        phi_q = slab_eval(weight, slab, self._s)  # (nq, dof_w)
        u_n = traj.values[n]
        au = A_x @ u_n
        acc = 0.0
        for q in range(N_QUAD_T):
            acc += self._w[q] * (loads[n - 1, q] @ phi_q[q] - phi_q[q] @ au)
        acc *= dt
        phi_left = slab_eval(weight, slab, [0.0])[0]
        if n == 1:
            jump = phi_left @ (M_x @ u_n - inc_m)
        else:
            jump = phi_left @ (M_x @ (u_n - traj.values[n - 1]))
        out[n - 1] = acc - jump
    return out


def residual_cg(self, traj, weight):
    """Per-step dual-weighted residuals of a cG trajectory.

    R_n = int_{I_n} [l(phi) - a(U, phi) - (U_dot, phi)] dt; when the slab
    start value differs from the retained incoming value (a cross-space
    projection at a subdomain hand-off), the discontinuity is accounted
    for by a jump term on the first step.
    """
    ws, ts = weight.space, traj.space
    A_x = self.cache.stiffness(ws, ts)
    M_x = self.cache.mass(ws, ts)
    dlam = lagrange_derivs(traj.q_t, self._s)
    loads = assemble_load(ws, traj.times[:-1, None]
                          + np.diff(traj.times)[:, None] * self._s, self.f)
    out = np.zeros(traj.n_steps)
    for n in range(1, traj.n_steps + 1):
        t0, t1 = traj.times[n - 1], traj.times[n]
        dt = t1 - t0
        slab = slab_index(weight, t0, t1)
        phi_q = slab_eval(weight, slab, self._s)
        u_q = slab_eval(traj, n - 1, self._s)
        du_q = dlam.T @ traj.coeffs[n - 1] / dt
        acc = 0.0
        for q in range(N_QUAD_T):
            acc += self._w[q] * (
                loads[n - 1, q] @ phi_q[q]
                - phi_q[q] @ (A_x @ u_q[q])
                - phi_q[q] @ (M_x @ du_q[q])
            )
        out[n - 1] = acc * dt
    # projection discontinuity at the trajectory start
    M_inc = self.cache.mass(ws, traj.incoming.space)
    slab0 = slab_index(weight, traj.times[0], traj.times[1])
    phi0 = slab_eval(weight, slab0, [0.0])[0]
    out[0] -= phi0 @ (M_x @ traj.coeffs[0, 0]
                      - M_inc @ traj.incoming.coefficients)
    return out


class _ValuesView:
    """An implicit-Euler Trajectory in the values layout residual_be reads."""

    def __init__(self, traj):
        self.space, self.times = traj.space, traj.times
        self.incoming, self.n_steps = traj.incoming, traj.n_steps
        self.values = np.concatenate(
            [np.full((1, traj.space.dof_count), np.nan), traj.coeffs[:, 0]])


def _oracle(ev, traj, weight):
    if traj.q_t >= 1:
        return residual_cg(ev, traj, weight)
    return residual_be(ev, _ValuesView(traj), weight)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["be", "schwarz", "cg"]), q_t=st.integers(1, 3),
       n_el=st.sampled_from([4, 6]), q_s=st.integers(1, 2),
       extra_w=st.integers(0, 1), q_inc=st.integers(1, 3),
       qw_t=st.integers(1, 3), steps=st.integers(1, 4),
       before=st.integers(0, 2), after=st.integers(0, 2),
       forced=st.booleans(), seed=st.integers(0, 10**6))
def test_residual_matches_the_two_loop_oracle(kind, q_t, n_el, q_s, extra_w,
                                              q_inc, qw_t, steps, before,
                                              after, forced, seed):
    # one residual loop, bitwise equal to the implicit-Euler loop on q_t = 0
    # trajectories (direct and Schwarz-swept) and to the cG loop on q_t >= 1,
    # for same-space or richer weights on the trajectory's grid or on a
    # longer grid containing it, a cross-space incoming value, with f or not
    rng = np.random.default_rng(seed)
    mesh = SpatialMesh.uniform(0.0, 1.0, n_el)
    space = FeSpace(mesh, q_s)
    w_space = space if extra_w == 0 else FeSpace(mesh, q_s + extra_w)
    inc_space = space if q_inc == q_s else FeSpace(mesh, q_inc)
    ic = NodalField(inc_space, rng.standard_normal(inc_space.dof_count))
    f = (lambda x, t: np.sin(np.pi * x) * (1.0 + t)) if forced else None
    w_grid = np.linspace(0.0, 0.1 * (before + steps + after),
                         before + steps + after + 1)
    grid = w_grid[before:before + steps + 1]
    cache = FormCache()
    decomp = decompose_domain(mesh, 2, 0.5, 0.4) if kind == "schwarz" else None
    traj = propagate(space, grid, q_t if kind == "cg" else 0, ic, f, cache,
                     decomp, 2)
    coeffs = rng.standard_normal((len(w_grid) - 1, qw_t + 1, w_space.dof_count))
    weight = Trajectory(w_space, w_grid, qw_t, coeffs,
                        NodalField(w_space, coeffs[-1, -1].copy()))
    ev = ResidualEvaluator(f, cache)
    assert np.array_equal(ev.residual([(traj, weight)])[0],
                          _oracle(ev, traj, weight))


def _trajectory(kind, space, grid, rng, f, cache, q_t=1):
    """A forward trajectory of one integrator from a random incoming value."""
    ic = NodalField(space, rng.standard_normal(space.dof_count))
    decomp = (decompose_domain(space.mesh, 2, 0.5, 0.4) if kind == "schwarz"
              else None)
    return propagate(space, grid, q_t if kind == "cg" else 0, ic, f, cache,
                     decomp, 2)


def _weight(space, grid, q_t, rng):
    coeffs = rng.standard_normal((len(grid) - 1, q_t + 1, space.dof_count))
    return Trajectory(space, grid, q_t, coeffs,
                      NodalField(space, coeffs[-1, -1].copy()))


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(["be", "schwarz", "cg"]), q_t=st.integers(1, 2),
       steps=st.integers(1, 3), n_traj=st.integers(1, 3),
       n_weight=st.integers(1, 3), qw_t=st.integers(1, 3),
       forced=st.booleans(), seed=st.integers(0, 10**6))
def test_stacked_residual_rows_are_their_pairs_own(kind, q_t, steps, n_traj,
                                                   n_weight, qw_t, forced,
                                                   seed):
    # one call over pairs of trajectories on different windows of the
    # weights' grid, repeated and in any order: every row is bitwise the
    # one-pair call's
    rng = np.random.default_rng(seed)
    mesh = SpatialMesh.uniform(0.0, 1.0, 6)
    space, w_space = FeSpace(mesh, 2), FeSpace(mesh, 3)
    f = (lambda x, t: np.sin(np.pi * x) * (1.0 + t)) if forced else None
    w_grid = np.linspace(0.0, 0.1 * (steps * n_traj), steps * n_traj + 1)
    cache = FormCache()
    trajs = [_trajectory(kind, space, w_grid[i * steps:(i + 1) * steps + 1],
                         rng, f, cache, q_t) for i in range(n_traj)]
    weights = [_weight(w_space, w_grid, qw_t, rng) for _ in range(n_weight)]
    pairs = [(trajs[i], weights[j])
             for i, j in rng.integers(0, [n_traj, n_weight], (5, 2))]
    ev = ResidualEvaluator(f, cache)
    assert np.array_equal(ev.residual(pairs),
                          np.array([ev.residual([pair])[0] for pair in pairs]))


@pytest.mark.parametrize("what", ["trajectory space", "weight space",
                                  "trajectory q_t", "weight q_t",
                                  "step count"])
def test_stacked_residual_names_the_first_mismatched_pair(what):
    rng = np.random.default_rng(5)
    mesh = SpatialMesh.uniform(0.0, 1.0, 6)
    space, w_space = FeSpace(mesh, 2), FeSpace(mesh, 3)
    grid = np.linspace(0.0, 0.3, 4)
    cache = FormCache()
    traj = _trajectory("be", space, grid, rng, None, cache)
    weight = _weight(w_space, grid, 1, rng)
    odd = {"trajectory space": (_trajectory("be", FeSpace(mesh, 2), grid, rng,
                                            None, cache), weight),
           "weight space": (traj, _weight(FeSpace(mesh, 3), grid, 1, rng)),
           "trajectory q_t": (_trajectory("cg", space, grid, rng, None,
                                          cache), weight),
           "weight q_t": (traj, _weight(w_space, grid, 2, rng)),
           "step count": (_trajectory("be", space, grid[:3], rng, None,
                                      cache), weight)}[what]
    ev = ResidualEvaluator(None, cache)
    with pytest.raises(ValueError,
                       match=rf"^residual pair 2 differs from pair 0 in its "
                             rf"{what}$"):
        ev.residual([(traj, weight), (traj, weight), odd, odd])


@pytest.mark.parametrize("odd", ["node 0", "node 1", "node 2", "past the end"])
def test_residual_names_a_pair_whose_grid_is_not_a_run_of_its_weights(odd):
    # a weight's slabs are read by index from the node where its pair's
    # grid starts, so that grid must be a run of the weight's nodes,
    # bitwise: one node one ulp off, or a grid past the weight's last node,
    # raises naming the pair
    rng = np.random.default_rng(7)
    mesh = SpatialMesh.uniform(0.0, 1.0, 6)
    space, w_space = FeSpace(mesh, 2), FeSpace(mesh, 3)
    w_grid = np.linspace(0.0, 0.5, 6)
    grid = np.append(w_grid[4:], 0.6) if odd == "past the end" else (
        w_grid[2:5].copy())
    if odd.startswith("node"):
        n = int(odd[-1])
        grid[n] = np.nextafter(grid[n], 1.0)
    cache = FormCache()
    weight = _weight(w_space, w_grid, 1, rng)
    good = _trajectory("be", space, w_grid[1:4], rng, None, cache)
    bad = _trajectory("be", space, grid, rng, None, cache)
    ev = ResidualEvaluator(None, cache)
    ev.residual([(good, weight)])
    with pytest.raises(ValueError, match=r"^residual pair 1: its grid is not "
                                         r"a run of its weight's grid$"):
        ev.residual([(good, weight), (bad, weight), (good, weight)])


@settings(max_examples=25, deadline=None)
@given(solver=st.sampled_from(["be", "cg", "schwarz"]), P_t=st.integers(1, 4),
       K_t=st.integers(1, 4), r=st.integers(1, 2), q_t=st.integers(1, 2),
       nhat_p=st.integers(1, 3), qhat_s=st.integers(1, 2))
@example(solver="be", P_t=1, K_t=1, r=2, q_t=1, nhat_p=2, qhat_s=1)
@example(solver="cg", P_t=2, K_t=1, r=2, q_t=1, nhat_p=2, qhat_s=1)
@example(solver="schwarz", P_t=2, K_t=2, r=1, q_t=1, nhat_p=2, qhat_s=1)
@example(solver="cg", P_t=4, K_t=2, r=1, q_t=2, nhat_p=3, qhat_s=2)
@example(solver="be", P_t=4, K_t=3, r=2, q_t=1, nhat_p=1, qhat_s=1)
def test_ack_terms_match_the_per_pair_oracle(solver, P_t, K_t, r, q_t, nhat_p,
                                             qhat_s):
    # the stacked A, C and K are bitwise the double loop over (k, p), for
    # both integrators, with and without Schwarz and K_t from 1 to P_t: at
    # P_t = 1 there is no pair (exact zeros), at P_t = 2 one residual pair
    # and no jump pair.  The adjoints' values at T_p are index reads at
    # node p * nhat_p of the coarse grid, which the oracle finds by a
    # search; with qhat_s = q_s the coarse values reach the fine space by
    # a gather between two spaces of one degree
    cfg = ExperimentConfig(
        Nhat_t=nhat_p * P_t, r=r, P_t=P_t, K_t=min(K_t, P_t), Nhat_s=8,
        qhat_s=qhat_s, q_s=2, nu=2, mu=2, T=0.5, q_t=q_t,
        integrator="cg" if solver == "cg" else "be",
        schwarz=solver == "schwarz", beta=0.25)
    terms = []

    def record(partition, state, adjoints, problem, *rest):
        ev = ResidualEvaluator(problem.f, rest[-1])
        args = (partition, state, adjoints, ev, problem.u0)
        terms.append((_ack_terms(*args), ack_terms_per_pair(*args)))
        return {}

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness_module, "stpa_breakdown", record)
        run_experiment(cfg)
    (stacked, oracle), = terms
    assert stacked == oracle
    if P_t == 1:
        assert stacked == (0.0, 0.0, 0.0)


@settings(max_examples=15, deadline=None)
@given(solver=st.sampled_from(["be", "cg", "schwarz"]), P_t=st.integers(1, 4),
       r=st.integers(1, 2))
@example(solver="be", P_t=4, r=2)
@example(solver="schwarz", P_t=3, r=2)
def test_D_is_bitwise_the_per_subdomain_sum(solver, P_t, r):
    # D (TPA) and D_t (STPA) weight the P_t fine trajectories by one
    # residual call; each is bitwise the fsum of single-pair calls' rows
    cfg = ExperimentConfig(
        Nhat_t=2 * P_t, r=r, P_t=P_t, K_t=min(2, P_t), Nhat_s=8, qhat_s=1,
        q_s=2, nu=2, mu=2, T=0.5, integrator="cg" if solver == "cg" else "be",
        schwarz=solver == "schwarz", beta=0.25)
    checked = []

    def record(partition, state, adjoints, problem, decomp, K_s, cache):
        fine, adjs = state.fine, adjoints["fine"]
        ev = ResidualEvaluator(problem.f, cache)
        terms = [r_n for pair in zip(fine, adjs)
                 for r_n in ev.residual([pair])[0]]
        terms += list(_ic_error_pairs(ev, _side(value_at_node(adjs[0], 0.0)),
                                      problem.u0, state.initial))
        got = stpa_breakdown(partition, state, adjoints, problem, decomp, K_s,
                             cache)
        if decomp is not None:
            E_K, E_N = dd_split(
                fine, _side(*[value_at_node(adj, t) for traj, adj in
                              zip(fine, adjs) for t in traj.times[1:]]),
                decomp, K_s, ev)
            checked.append(got["D_t"] == math.fsum([*terms, *-E_K, *-E_N]))
        else:
            checked.append(got["D"] == math.fsum(terms))
        return {}

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness_module, "stpa_breakdown", record)
        run_experiment(cfg)
    assert checked == [True]


def test_tpa_stacks_the_A_residuals_and_each_pairing_family(monkeypatch):
    # at P_t = 10 D's 10 residuals are one call and the 45 A residuals
    # another; the auxiliary adjoints are one ragged _step_slabs stack (after
    # the coarse adjoint and the stack of fine adjoints); the K, C, A-jump
    # and A initial-condition pairings are one product each (after the one
    # pairing of D's initial condition)
    cfg = ExperimentConfig(Nhat_t=20, r=2, P_t=10, K_t=2, Nhat_s=8,
                           qhat_s=1, q_s=2, nu=2, mu=1, T=0.5)
    calls, products, stacks = [], [], []
    real_residual = ResidualEvaluator.residual
    real_pairings = estimator_module.pairings
    real_step_slabs = adjoint_module._step_slabs

    def residual(self, pairs):
        calls.append(len(pairs))
        return real_residual(self, pairs)

    def pairings(X, G, Y):
        products.append(len(X))
        return real_pairings(X, G, Y)

    def step_slabs(space, grids, *args, **kwargs):
        stacks.append((len(grids), kwargs.get("steps")))
        return real_step_slabs(space, grids, *args, **kwargs)

    monkeypatch.setattr(ResidualEvaluator, "residual", residual)
    monkeypatch.setattr(estimator_module, "pairings", pairings)
    monkeypatch.setattr(adjoint_module, "_step_slabs", step_slabs)
    run_experiment(cfg)
    P_t, nhat_p = cfg.P_t, cfg.Nhat_t // cfg.P_t
    # D one pair per subdomain, A every coarse trajectory k < p against
    # every auxiliary adjoint psi_p
    assert calls == [P_t, P_t * (P_t - 1) // 2]
    assert products == [1, P_t - 1, P_t - 1, (P_t - 1) * (P_t - 2) // 2,
                        P_t - 1]
    # psi_p, longest (p = P_t) first, takes (p - 1) * nhat_p steps
    assert stacks == [(1, [cfg.Nhat_t]), (P_t, [cfg.r * nhat_p] * P_t),
                      (P_t - 1, [(p - 1) * nhat_p
                                 for p in range(P_t, 1, -1)])]
