"""Temporal partitions, implicit Euler and cG(q_t) propagation."""

import gc
import importlib.machinery
import importlib.util
import itertools
import math
import re
import sys
import weakref

import numpy as np
import pytest
from scipy import linalg as sla

import parapost._lapack as _lapack
import parapost.mesh as mesh_module
import parapost.schwarz as schwarz
import parapost.timestepping as timestepping
from parapost.adjoint import solve_backward_cg
from parapost.estimator import ResidualEvaluator, dd_split
from parapost.harness import build_manufactured
from parapost.mesh import (
    FeSpace,
    FormCache,
    NodalField,
    SpatialMesh,
    lagrange_values,
)
from parapost.schwarz import AdditiveSchwarz, decompose_domain
from parapost.timestepping import TimePartition, Trajectory, propagate

from oracles import (at, be_per_step, cg_per_slab, dg0_equivalence_check,
                     node_value)


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
    assert part.r * part.Nhat_t == 24
    g = part.coarse_grid
    assert np.allclose(g, np.linspace(0.0, 2.0, 9))


@pytest.mark.parametrize("T", [0.0, -1.0, math.nan, math.inf])
def test_partition_rejects_a_bad_end_time(T):
    # T = 0 once gave a propagation that returned the projected incoming
    # value, and T = -1 a step operator that was "not positive definite"
    with pytest.raises(ValueError, match=r"^T must be finite and > 0, got "):
        TimePartition.uniform(T, 2, 4, 2)


def test_propagate_rejects_incoming_values_of_the_wrong_shape():
    # a stack takes a sequence of incoming fields and one grid takes one
    # field, checked before any step: neither is iterated or read as a field
    space = FeSpace(SpatialMesh.uniform(0.0, 1.0, 4), 1)
    ic, grids = space.interpolate(np.sin), TimePartition.uniform(
        0.4, 4, 4, 2).fine_grids
    with pytest.raises(ValueError, match=r"^4 grids but 1 incoming values: "
                       "a stack takes a sequence of fields$"):
        propagate(space, grids, 0, ic, None, FormCache())
    with pytest.raises(ValueError, match=r"^1 grids but 1 incoming values: "
                       "a stack takes a sequence of fields$"):
        propagate(space, grids[:1], 1, ic, None, FormCache())
    with pytest.raises(ValueError, match=r"^1 grids but 3 incoming values: "
                       "one grid or a chain takes one field$"):
        propagate(space, grids[0], 0, [ic] * 3, None, FormCache())
    with pytest.raises(ValueError, match=r"^4 grids but 4 incoming values: "
                       "one grid or a chain takes one field$"):
        propagate(space, grids, 1, [ic], None, FormCache(), jumps=[None] * 3)


def test_partition_grids_are_read_only_stacks_of_per_subdomain_grids():
    # each row of the stacks is bitwise the per-subdomain np.linspace, and
    # the global coarse grid is bitwise the subdomains' coarse grids joined
    # at the synchronization times
    for T, P_t, nhat_p, r in itertools.product(
            (0.3, 0.5, 0.6, 1.0, 2.0, 3.7), range(1, 7), (1, 2, 3),
            (1, 2, 3, 4, 8, 16)):
        part = TimePartition.uniform(T, P_t, P_t * nhat_p, r)
        sync = part.sync_times
        assert part.coarse_grids.shape == (P_t, nhat_p + 1)
        assert part.fine_grids.shape == (P_t, r * nhat_p + 1)
        for p in range(P_t):
            assert np.array_equal(part.coarse_grids[p], np.linspace(
                sync[p], sync[p + 1], nhat_p + 1))
            assert np.array_equal(part.fine_grids[p], np.linspace(
                sync[p], sync[p + 1], r * nhat_p + 1))
        joined = np.concatenate([part.coarse_grids[0]]
                                + [g[1:] for g in part.coarse_grids[1:]])
        assert np.array_equal(part.coarse_grid, joined)
    part = TimePartition.uniform(1.0, 4, 8, 2)
    for grids in (part.sync_times, part.coarse_grids, part.fine_grids):
        with pytest.raises(ValueError, match="read-only"):
            grids[0] = 0.5
        with pytest.raises(ValueError, match="read-only"):
            grids[-1:] += 1.0


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
    traj = propagate(space, np.array([0.0, 0.1]), 0, ic, ZERO_F, FormCache())
    assert node_value(traj, 1).coefficients[0] == pytest.approx(
        0.1 / (1.0 / 3.0 + 0.4), abs=1e-15)


def test_cg1_single_step_scalar():
    # cG(1) with constant-in-time tests is the trapezoid-type update
    # (M + dt/2 A) u_1 = (M - dt/2 A) u_0
    space = _single_dof_space()
    u0 = 0.3
    dt = 0.1
    ic = NodalField(space, np.array([u0]))
    traj = propagate(space, np.array([0.0, dt]), 1, ic, ZERO_F,
                     FormCache())
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
        traj = propagate(space, np.linspace(0.0, 0.5, n_steps + 1), 0,
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
        traj = propagate(space, np.linspace(0.0, 0.5, n_steps + 1), 1,
                         ic, prob.f, cache)
        exact = space.interpolate(lambda x: prob.u(x, 0.5))
        return np.max(np.abs(traj.end.coefficients - exact.coefficients))

    e1, e2, e3 = end_error(8), end_error(16), end_error(32)
    assert 3.6 < e1 / e2 < 4.4
    assert 3.6 < e2 / e3 < 4.4


def test_dg0_equivalence_and_negative_control():
    prob = build_manufactured(2, 1, 0.5)
    space = FeSpace(SpatialMesh.uniform(0.0, 1.0, 8), 2)
    traj = propagate(space, np.linspace(0.0, 0.5, 11), 0,
                     space.interpolate(prob.u0), prob.f, FormCache())
    assert dg0_equivalence_check(traj, prob.f) < 1e-12
    # perturbing the trajectory must be detected
    traj.coeffs[2, 0] += 1e-6
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
    t1 = propagate(space, grid, 0, ic1, f1, cache)
    t2 = propagate(space, grid, 0, ic2, f2, cache)
    tc = propagate(space, grid, 0, combo_ic, combo_f, cache)
    assert np.max(np.abs(tc.coeffs - (a * t1.coeffs + b * t2.coeffs))) < 1e-11


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
        L[:, i] = propagate(space, grid, 0, NodalField(space, e),
                            ZERO_F, cache).end.coefficients
    M = cache.mass(space, space)
    ML = M @ L
    assert np.max(np.abs(ML - ML.T)) < 1e-12


def test_cg_continuity_across_slabs():
    prob = build_manufactured(2, 1, 0.5)
    space = FeSpace(SpatialMesh.uniform(0.0, 1.0, 6), 2)
    traj = propagate(space, np.linspace(0.0, 0.5, 6), 2,
                     space.interpolate(prob.u0), prob.f, FormCache())
    for n in range(traj.n_steps - 1):
        assert np.array_equal(traj.coeffs[n, -1], traj.coeffs[n + 1, 0])


def test_cg_at_matches_nodes():
    prob = build_manufactured(2, 1, 0.5)
    space = FeSpace(SpatialMesh.uniform(0.0, 1.0, 6), 2)
    traj = propagate(space, np.linspace(0.0, 0.5, 6), 2,
                     space.interpolate(prob.u0), prob.f, FormCache())
    for n in range(traj.n_steps + 1):
        got = at(traj, traj.times[n]).coefficients
        want = node_value(traj, n).coefficients
        assert np.max(np.abs(got - want)) < 1e-12


def test_cg_at_rejects_times_outside_the_grid():
    # a cG(1) trajectory on [0, 1] used to extrapolate its last slab at 5.0
    prob = build_manufactured(2, 1, 1.0)
    space = FeSpace(SpatialMesh.uniform(0.0, 1.0, 6), 2)
    traj = propagate(space, np.linspace(0.0, 1.0, 5), 1,
                     space.interpolate(prob.u0), prob.f, FormCache())
    for t in (5.0, -0.1, 1.0 + 1e-9):
        with pytest.raises(ValueError, match=r"outside the grid span \[0\.0, 1\.0\]"):
            at(traj, t)
    # in the span (within 1e-10 of its ends) the values are the slab
    # polynomial's, bitwise
    for t in (0.0, 0.1, 0.25, 0.6, 1.0, 1.0 + 1e-11, -1e-11):
        n = int(np.clip(np.searchsorted(traj.times, t, side="right") - 1, 0, 3))
        s = (t - traj.times[n]) / (traj.times[n + 1] - traj.times[n])
        want = lagrange_values(1, [s]).T[0] @ traj.coeffs[n]
        assert np.array_equal(at(traj, t).coefficients, want)


def test_cross_space_incoming_projection():
    # an incoming coarse field enters the first step by its exact
    # cross-space L2 pairing: (M + dt A) U_1 = M_fine,coarse U_0
    mesh = SpatialMesh.uniform(0.0, 1.0, 6)
    coarse, fine = FeSpace(mesh, 1), FeSpace(mesh, 2)
    rng = np.random.default_rng(2)
    ic = NodalField(coarse, rng.standard_normal(coarse.dof_count))
    dt = 0.1
    cache = FormCache()
    traj = propagate(fine, np.array([0.0, dt]), 0, ic, ZERO_F, cache)
    M = cache.mass(fine, fine)
    A = cache.stiffness(fine, fine)
    Minc = cache.mass(fine, coarse)
    want = np.linalg.solve(M + dt * A, Minc @ ic.coefficients)
    assert np.max(np.abs(node_value(traj, 1).coefficients - want)) < 1e-12


def test_be_trajectory_is_the_dg0_field():
    # implicit Euler fills the q_t = 0 case of the one Trajectory type: one
    # coefficient vector per slab, node_value(n) = U_n for n >= 1, no value at
    # times[0], and at() at an interior node t_n the right limit U_{n+1}
    prob = build_manufactured(2, 1, 0.5)
    space = FeSpace(SpatialMesh.uniform(0.0, 1.0, 6), 2)
    traj = propagate(space, np.linspace(0.0, 0.5, 6), 0,
                     space.interpolate(prob.u0), prob.f, FormCache())
    assert traj.q_t == 0 and traj.coeffs.shape == (5, 1, space.dof_count)
    U = traj.coeffs[:, 0]
    with pytest.raises(ValueError, match="no value at times"):
        node_value(traj, 0)
    for n in range(1, 6):
        assert np.array_equal(node_value(traj, n).coefficients, U[n - 1])
    for n in range(5):
        assert np.array_equal(at(traj, traj.times[n]).coefficients, U[n])
    assert np.array_equal(at(traj, 0.5).coefficients, traj.end.coefficients)


def test_trajectory_rejects_coefficients_that_do_not_fit_the_grid():
    # five grid times are four slabs: a (5, 2, dof) block with q_t = 1 used
    # to be accepted, and .end then returned slab 3's end, not the last one's
    space = FeSpace(SpatialMesh.uniform(0.0, 1.0, 4), 1)
    dof = space.dof_count
    ic = NodalField(space, np.zeros(dof))
    times = np.linspace(0.0, 1.0, 5)
    for shape, q_t in (((5, 2, dof), 1), ((4, 3, dof), 1), ((4, 2, dof + 1), 1),
                       ((4, 0, dof), -1)):
        with pytest.raises(ValueError, match="do not fit"):
            Trajectory(space, times, q_t, np.zeros(shape), ic)
    assert Trajectory(space, times, 1, np.zeros((4, 2, dof)), ic).n_steps == 4


@pytest.mark.parametrize("q_t", [1, 2, 3])
@pytest.mark.parametrize("forced", [True, False])
def test_cg_stepping_equals_the_per_slab_loop(q_t, forced):
    # the steps of this grid differ in their last bits, so the slab LU of
    # the first step is reused for steps of other exact sizes
    mesh = SpatialMesh.uniform(0.0, 1.0, 6)
    space, inc_space = FeSpace(mesh, 2), FeSpace(mesh, 3)
    grid = np.linspace(0.0, 0.7, 8)
    assert len(set(np.diff(grid))) > 1
    rng = np.random.default_rng(q_t)
    ic = NodalField(inc_space, rng.standard_normal(inc_space.dof_count))
    f = (lambda x, t: np.sin(np.pi * x) * (1.0 + t)) if forced else None
    traj = propagate(space, grid, q_t, ic, f, FormCache())
    assert np.array_equal(traj.coeffs, cg_per_slab(space, grid, q_t, ic, f))


@pytest.mark.parametrize("stepping", ["direct", "schwarz"])
@pytest.mark.parametrize("forced", [True, False])
def test_be_stepping_equals_the_per_step_loop(stepping, forced):
    # the steps of this grid differ in their last bits, so the solver of the
    # first step serves steps of other exact sizes; the incoming value lives
    # in another space
    mesh = SpatialMesh.uniform(0.0, 1.0, 8)
    space, inc_space = FeSpace(mesh, 2), FeSpace(mesh, 3)
    grid = np.linspace(0.0, 0.7, 8)
    assert len(set(np.diff(grid))) > 1
    solver = ((decompose_domain(mesh, 2, 0.25, 0.4), 3)
              if stepping == "schwarz" else ())
    rng = np.random.default_rng(3 + forced)
    ic = NodalField(inc_space, rng.standard_normal(inc_space.dof_count))
    f = (lambda x, t: np.sin(np.pi * x) * (1.0 + t)) if forced else None
    traj = propagate(space, grid, 0, ic, f, FormCache(), *solver)
    assert np.array_equal(
        traj.coeffs, be_per_step(space, grid, ic, f, FormCache(), *solver))


@pytest.mark.parametrize("stepping", ["direct", "schwarz"])
def test_stacked_grids_step_bitwise_as_one_call_per_grid(stepping):
    # the partition's three grids have step sizes that differ in their last
    # bits and share one factor; the fourth grid's steps are four times as
    # long, so it is stepped in its own call
    prob = build_manufactured(2, 2, 1.0)
    mesh = SpatialMesh.uniform(0.0, 1.0, 12)
    space, inc_space = FeSpace(mesh, 2), FeSpace(mesh, 1)
    part = TimePartition.uniform(0.6, 3, 6, 3)
    grids = np.vstack((part.fine_grids, np.linspace(0.6, 1.4, 7)))
    assert len(set(np.diff(part.fine_grids).ravel())) > 1
    solver = ((decompose_domain(mesh, 4, 0.25, 0.4), 3)
              if stepping == "schwarz" else ())
    rng = np.random.default_rng(8)
    ics = [NodalField(s, rng.standard_normal(s.dof_count))
           for s in (space, inc_space, space, inc_space)]
    cache = FormCache()
    batch = (propagate(space, grids[:3], 0, ics[:3], prob.f, cache, *solver)
             + propagate(space, grids[3:], 0, ics[3:], prob.f, cache, *solver))
    assert len(batch) == 4
    for grid, ic, got in zip(grids, ics, batch, strict=True):
        want = propagate(space, grid, 0, ic, prob.f, cache, *solver)
        assert got.incoming is ic and np.array_equal(got.times, grid)
        assert np.array_equal(got.coeffs, want.coeffs)
    with pytest.raises(ValueError, match="4 grids but 3 incoming values"):
        propagate(space, grids, 0, ics[:3], prob.f, cache, *solver)


@pytest.mark.parametrize("q_t", [1, 2, 3])
@pytest.mark.parametrize("forced", [True, False])
def test_stacked_cg_columns_step_bitwise_as_their_own_calls(q_t, forced):
    # the partition's three grids have steps that differ in their last bits
    # and share one slab LU; the fourth grid's steps are four times as long,
    # so it is stepped in its own call; the incoming values live in two
    # spaces
    mesh = SpatialMesh.uniform(0.0, 1.0, 6)
    space, inc_space = FeSpace(mesh, 2), FeSpace(mesh, 3)
    part = TimePartition.uniform(0.6, 3, 6, 3)
    grids = np.vstack((part.fine_grids, np.linspace(0.6, 1.4, 7)))
    assert len(set(np.diff(part.fine_grids).ravel())) > 1
    rng = np.random.default_rng(10 * q_t + forced)
    ics = [NodalField(s, rng.standard_normal(s.dof_count))
           for s in (space, inc_space, inc_space, space)]
    f = (lambda x, t: np.sin(np.pi * x) * (1.0 + t)) if forced else None
    cache = FormCache()
    batch = (propagate(space, grids[:3], q_t, ics[:3], f, cache)
             + propagate(space, grids[3:], q_t, ics[3:], f, cache))
    assert len(batch) == 4
    for grid, ic, got in zip(grids, ics, batch, strict=True):
        want = propagate(space, grid, q_t, ic, f, cache)
        assert got.incoming is ic and np.array_equal(got.times, grid)
        assert got.q_t == q_t and np.array_equal(got.coeffs, want.coeffs)
    # a one-grid stack is the one-grid call, as a list
    (alone,) = propagate(space, grids[:1], q_t, ics[:1], f, cache)
    assert np.array_equal(alone.coeffs, batch[0].coeffs)
    with pytest.raises(ValueError, match="4 grids but 3 incoming values"):
        propagate(space, grids, q_t, ics[:3], f, cache)
    with pytest.raises(ValueError, match="at least two times"):
        propagate(space, grids[0][:1], q_t, ics[0], f, cache)


CALLS = ["direct", "schwarz", "cg", "backward"]


def _one_call(call, space, decomp):
    """call(times, ics, cache): one implicit Euler (direct or Schwarz),
    cG(2) or backward cG(2) call on a grid or a stack of grids; the
    backward solve names column j col(j), and a lone grid a."""
    return {
        "direct": lambda g, ics, cache: propagate(space, g, 0, ics, None,
                                                  cache),
        "schwarz": lambda g, ics, cache: propagate(space, g, 0, ics, None,
                                                   cache, decomp, 2),
        "cg": lambda g, ics, cache: propagate(space, g, 2, ics, None,
                                              cache),
        "backward": lambda g, ics, cache: solve_backward_cg(
            [f"col({j})" for j in range(len(g))] if np.ndim(g) == 2
            else "a", space, g, ics, 2, cache),
    }[call]


@pytest.mark.parametrize("call", CALLS)
def test_a_call_of_two_step_sizes_names_the_first_step_of_the_other(call):
    # one factor serves a call, that of its first step's size: a stack
    # whose second grid's steps are twice as long, and a grid whose second
    # step is, raise naming the first step of another size and its column;
    # a backward solve names the adjoint and the step on the time-reversed
    # grid
    mesh = SpatialMesh.uniform(0.0, 1.0, 6)
    space = FeSpace(mesh, 2)
    ic = space.interpolate(np.sin)
    solve = _one_call(call, space, decompose_domain(mesh, 2, 0.25, 0.4))
    forward = call != "backward"
    cases = (
        (np.array([[0.0, 0.1, 0.2], [0.2, 0.4, 0.6]]), [ic, ic], 1,
         ("" if forward else "col(1) adjoint (time reversed, t -> 0.6 - t): ")
         + f"step n=1, t={0.4 if forward else 0.2}, has size 0.2, not the "
         f"call's 0.1"),
        ([0.0, 0.1, 0.3], ic, 0,
         ("" if forward else "a adjoint (time reversed, t -> 0.3 - t): ")
         + "step n=2, t=0.3, has size "
         + ("0.2, not the call's 0.1" if forward
            else "0.1, not the call's 0.2")))
    for times, ics, column, want in cases:
        pattern = "^" + re.escape(want) + "$"
        with pytest.raises(ValueError, match=pattern) as err:
            solve(times, ics, FormCache())
        if forward:
            assert err.value.column == column


@pytest.mark.parametrize("q_t", [0, 1, 2])
def test_each_chained_row_is_its_own_call_with_its_own_solver(q_t):
    # rows [0, 0.1, 0.2] and [0.2, 0.2 + d, 0.2 + 2d], d = 0.1 + 1e-15: the
    # second row's first step rounds to 0.100000000000001 at 15 digits, so
    # the rows key different per_step solvers, and each row is bitwise its
    # own one-grid call (q_t = 0 is implicit Euler) from its incoming value,
    # the previous row's end value plus its jump, only if it looks up its own
    prob = build_manufactured(2, 1, 0.5)
    space = FeSpace(SpatialMesh.uniform(0.0, 1.0, 6), 2)
    d = 0.1 + 1e-15
    grids = np.array([[0.0, 0.1, 0.2], [0.2, 0.2 + d, 0.2 + 2 * d]])
    assert round(grids[1, 1] - grids[1, 0], 15) != 0.1
    ic, jump = space.interpolate(prob.u0), space.interpolate(np.sin)
    cache = FormCache()

    def solve(times, ic, jumps=None):
        return propagate(space, times, q_t, ic, prob.f, cache, jumps=jumps)

    rows = solve(grids, ic, [jump])
    assert rows[0].incoming is ic
    assert np.array_equal(rows[1].incoming.coefficients,
                          (rows[0].end + jump).coefficients)
    for grid, row in zip(grids, rows):
        assert np.array_equal(row.coeffs, solve(grid, row.incoming).coeffs)


@pytest.mark.parametrize("q_t", [0, 1])
def test_a_chained_row_is_checked_against_row_0s_first_step(q_t):
    # a chain is one call: a row of twice row 0's step size raises naming
    # itself as the column, and so does a later row of two step sizes
    space = FeSpace(SpatialMesh.uniform(0.0, 1.0, 6), 2)
    ic = space.interpolate(np.sin)

    def chain(*rows):
        grids, jumps = np.array(rows), [None] * (len(rows) - 1)
        return propagate(space, grids, q_t, ic, None, FormCache(),
                         jumps=jumps)

    chain([0.0, 0.1, 0.2], [0.2, 0.3, 0.4])
    for rows, column, want in (
            (([0.0, 0.1, 0.2], [0.2, 0.4, 0.6]), 1,
             r"^step n=1, t=0\.4, has size 0\.2, not the call's 0\.1$"),
            (([0.0, 0.1, 0.2], [0.2, 0.3, 0.4], [0.4, 0.5, 0.7]), 2,
             r"^step n=2, t=0\.7, has size 0\.2, not the call's 0\.1$")):
        with pytest.raises(ValueError, match=want) as err:
            chain(*rows)
        assert err.value.column == column


@pytest.mark.parametrize("call", CALLS)
def test_a_long_uniform_grid_is_one_step_size(call):
    # a linspace grid's steps spread by a few ulps of its largest time, more
    # than 1e-12 of the step from about 5,000 steps on: a grid of 10,000
    # steps, and a stack of a partition's 32,000 fine steps, whose later
    # rows lie far from 0 (which their time reversals, starting at 0, hide
    # from the backward solve), are each solved by one call
    mesh = SpatialMesh.uniform(0.0, 1.0, 6)
    space = FeSpace(mesh, 1)
    ic = space.interpolate(np.sin)
    solve = _one_call(call, space, decompose_domain(mesh, 2, 0.25, 0.4))
    part = TimePartition.uniform(3.0, 40, 4000, 8)
    for times in (np.linspace(0.0, 1.0, 10001), part.fine_grids):
        dts = np.diff(times)
        assert np.ptp(dts) > 1e-12 * dts.min()
        stacked = times.ndim == 2
        got = solve(times, [ic] * len(times) if stacked else ic, FormCache())
        for grid, traj in zip(np.atleast_2d(times), got if stacked else [got],
                              strict=True):
            assert np.array_equal(traj.times, grid)
            assert np.isfinite(traj.coeffs).all()


@pytest.mark.parametrize("call", CALLS)
def test_a_row_off_the_stacks_step_key_takes_the_first_rows_solver(call):
    # per_step keys a solver by the step size to 15 digits, and the rows of
    # these uniform partitions have first solved steps (for the backward
    # solve, last steps) on both sides of such a boundary: the rows of row
    # 0's key are bitwise their own calls; row 2, solved with row 0's
    # solver, matches its own call, which looks up its own key, to 1e-12
    # relative, and is bitwise that call when it leads the stack
    mesh = SpatialMesh.uniform(0.0, 1.0, 6)
    space = FeSpace(mesh, 2)
    ic = space.interpolate(np.sin)
    solve = _one_call(call, space, decompose_domain(mesh, 2, 0.25, 0.4))
    forward = call != "backward"
    grids = TimePartition.uniform(*((2.6, 3, 3, 2) if forward
                                    else (2.3, 3, 6, 2))).fine_grids
    keys = [round(float(np.diff(g)[0 if forward else -1]), 15)
            for g in grids]
    assert keys[0] == keys[1] != keys[2]
    cache = FormCache()
    batch = solve(grids, [ic] * 3, cache)
    own = [solve(g, ic, cache) for g in grids]
    for j in (0, 1):
        assert np.array_equal(batch[j].coeffs, own[j].coeffs)
    off = np.abs(batch[2].coeffs - own[2].coeffs).max()
    assert off <= 1e-12 * np.abs(own[2].coeffs).max()
    led = solve(grids[2:], [ic], cache)[0]
    assert np.array_equal(led.coeffs, own[2].coeffs)


def test_stacked_cg_names_the_first_nonfinite_step():
    # column 1 of the stack starts from NaN: its first slab is the first
    # non-finite step, although column 0 is finite
    mesh = SpatialMesh.uniform(0.0, 1.0, 6)
    space = FeSpace(mesh, 2)
    part = TimePartition.uniform(0.6, 3, 6, 2)
    ics = [space.interpolate(np.sin) for _ in range(3)]
    ics[1] = NodalField(space, np.full(space.dof_count, np.nan))
    with pytest.raises(ValueError, match=r"step n=1, t=0\.25$"):
        propagate(space, part.fine_grids, 1, ics, None, FormCache())


def test_first_nonfinite_of_a_ragged_stack_is_named_by_its_own_step():
    # columns of 5, 3 and 2 steps, as in the auxiliary adjoints' stack:
    # each starts at slab 0, its unset slabs are zeros, and a non-finite
    # value is named by the column's own step n, which ends at grids[j, n]
    grids = np.array([np.linspace(0.0, 0.5, 6), np.linspace(0.0, 0.5, 6) - 1,
                      np.linspace(0.0, 0.5, 6) + 1])
    coeffs = np.zeros((3, 5, 2, 4))
    for j, steps in enumerate([5, 3, 2]):
        coeffs[j, :steps] = 1.0
    coeffs[2, :2] = np.finfo(float).max  # would overflow a sum over all
    timestepping._check_finite(coeffs, grids)
    coeffs[1, 1, 1, 2] = np.inf
    coeffs[2, 0, 0, 0] = np.nan
    with pytest.raises(ValueError, match=r"^non-finite solution at step "
                       r"n=2, t=-0\.8$") as err:
        timestepping._check_finite(coeffs, grids)
    assert err.value.column == 1


def test_a_finite_stack_whose_sum_overflows_passes_the_check():
    # every entry is finite but their sum is not: the check neither raises
    # nor warns (tier-1 runs under -W error), and a NaN among them is still
    # named by its column and step
    grids = np.array([np.linspace(0.0, 0.5, 6), np.linspace(0.0, 0.5, 6) + 1])
    coeffs = np.full((2, 5, 2, 4), np.finfo(float).max)
    timestepping._check_finite(coeffs, grids)
    coeffs[1, 3, 0, 2] = np.nan
    with pytest.raises(ValueError, match=r"^non-finite solution at step "
                       r"n=4, t=1\.4$") as err:
        timestepping._check_finite(coeffs, grids)
    assert err.value.column == 1


@pytest.mark.parametrize("call", CALLS)
@pytest.mark.parametrize("bad", [[0.0, np.inf, 0.2], [0.0, 0.1, np.inf],
                                 [np.inf, 0.1, 0.2], [0.0, np.nan, 0.2]],
                         ids=["inf-inside", "inf-last", "inf-first",
                              "nan-inside"])
def test_a_non_finite_grid_time_is_named_before_any_step(call, bad):
    # the grids' largest |time| is taken before any difference, so under
    # -W error an inf time raises no RuntimeWarning from inf - inf, and an
    # inf time widens no step tolerance: the error names the column, the
    # grid's first non-finite node and its time; a backward solve names the
    # adjoint
    mesh = SpatialMesh.uniform(0.0, 1.0, 6)
    space = FeSpace(mesh, 2)
    ic = space.interpolate(np.sin)
    solve = _one_call(call, space, decompose_domain(mesh, 2, 0.25, 0.4))
    n = int(np.argmin(np.isfinite(bad)))
    want = f"non-finite time at node n={n}, t={bad[n]:.6g}"
    with pytest.raises(ValueError) as err:
        solve(np.array([[0.0, 0.1, 0.2], bad]), [ic, ic], FormCache())
    if call == "backward":
        assert str(err.value) == (f"col(1) adjoint (time reversed, t -> "
                                  f"{bad[-1]:.6g} - t): {want}")
    else:
        assert str(err.value) == want and err.value.column == 1


def test_cg_rejects_bad_degree():
    # q_t = 0 is implicit Euler, so the least degree is 0; a decomposition
    # steps implicit Euler only, whatever its K_s
    mesh = SpatialMesh.uniform(0.0, 1.0, 8)
    space = FeSpace(mesh, 2)
    ic, grid = space.interpolate(np.sin), np.array([0.0, 0.1])
    decomp = decompose_domain(mesh, 2, 0.25, 0.4)
    with pytest.raises(ValueError, match=r"^q_t must be >= 0, got -1$"):
        propagate(space, grid, -1, ic, ZERO_F, FormCache())
    for q_t in (1, 2):
        with pytest.raises(ValueError, match=r"^a decomposition needs q_t = "
                           rf"0 and K_s >= 1, got q_t={q_t}, K_s=2$"):
            propagate(space, grid, q_t, ic, ZERO_F, FormCache(), decomp, 2)
    with pytest.raises(ValueError, match="K_s >= 1, got q_t=0, K_s=0$"):
        propagate(space, grid, 0, ic, ZERO_F, FormCache(), decomp, 0)


def test_cg_homogeneous_none_equals_zero_forcing():
    space = FeSpace(SpatialMesh.uniform(0.0, 1.0, 6), 2)
    ic = space.interpolate(lambda x: np.sin(np.pi * x))
    grid = np.linspace(0.0, 0.3, 4)
    cache = FormCache()
    a = propagate(space, grid, 2, ic, None, cache)
    b = propagate(space, grid, 2, ic, ZERO_F, cache)
    assert np.array_equal(a.coeffs, b.coeffs)


@pytest.mark.parametrize("q_t, degree", [(1, 2), (2, 2), (3, 3)])
def test_slab_lu_is_lu_factor_of_the_block_matrix(q_t, degree):
    # the slab matrix built in place and factored by dgetrf: its factors
    # and pivots are bitwise lu_factor's of the np.block-built matrix, and
    # a singular slab raises instead of warning
    space = FeSpace(SpatialMesh.uniform(0.0, 1.0, 8), degree)
    cache = FormCache()
    M, A = cache.mass(space, space), cache.stiffness(space, space)
    alpha, beta, _, _ = timestepping._cg_time_forms(q_t)
    dt = 0.2 / 7
    lu, piv = timestepping._slab_lu(M, A, alpha, beta, dt)
    ref_lu, ref_piv = sla.lu_factor(np.block(
        [[alpha[m, j] * M + dt * beta[m, j] * A for j in range(1, q_t + 1)]
         for m in range(q_t)]))
    assert np.array_equal(lu, ref_lu)
    assert np.array_equal(piv, ref_piv)
    with pytest.raises(sla.LinAlgError, match="dgetrf returned info="):
        timestepping._slab_lu(0.0 * M, 0.0 * A, alpha, beta, dt)


def test_a_released_slab_entry_is_rebuilt_bitwise_without_a_dense_copy():
    # one "cg_slab" entry per (space, q_t, step size) holds the slab LU, the
    # start-value tables and the cache's own M and A, not copies of them;
    # after release("cg_slab") the same calls rebuild every entry and
    # return the same coefficients, bitwise
    prob = build_manufactured(2, 1, 0.5)
    mesh = SpatialMesh.uniform(0.0, 1.0, 8)
    space, adj_space = FeSpace(mesh, 2), FeSpace(mesh, 3)
    grid = np.linspace(0.0, 0.5, 6)
    ic, term = space.interpolate(prob.u0), adj_space.interpolate(prob.u0)
    cache = FormCache()

    def solve():
        return ([propagate(space, grid, q_t, ic, prob.f, cache).coeffs
                 for q_t in (1, 2, 3)]
                + [solve_backward_cg("coarse", adj_space, grid, term, 3,
                                     cache).coeffs])

    def entries():
        return {key: value for key, value in cache._factors.items()
                if key[0] == "cg_slab"}

    before = solve()
    built = entries()
    assert sorted((key[1], key[2].degree) for key in built) == [
        (1, 2), (2, 2), (3, 2), (3, 3)]
    for (_, q_t, key_space, _), entry in built.items():
        lu, piv, a0, b0, M, A = entry
        n = key_space.dof_count
        assert lu.shape == (q_t * n, q_t * n) and a0.shape == (q_t, 1, 1)
        assert np.shares_memory(M, cache.mass(key_space, key_space))
        assert np.shares_memory(A, cache.stiffness(key_space, key_space))
    cache.release("cg_slab")
    assert entries() == {}
    after = solve()
    rebuilt = entries()
    assert rebuilt.keys() == built.keys()
    assert all(rebuilt[key] is not built[key] for key in built)
    for a, b in zip(before, after, strict=True):
        assert np.array_equal(a, b)


def test_cg_slab_factors_die_with_their_cache():
    # the slab factorizations and the Schwarz sweepers, with the blocks
    # their adjoints build, belong to the FormCache passed in: once the
    # cache, the spaces and the decomposition are dropped nothing else keeps
    # them alive, and reference counting alone frees them (no cycle waits
    # for the collector)
    mesh = SpatialMesh.uniform(0.0, 1.0, 6)
    space = FeSpace(mesh, 2)
    adj_space = FeSpace(mesh, 3)
    decomp = decompose_domain(mesh, 2, 0.35, 0.4)
    cache = FormCache()
    ic = space.interpolate(lambda x: np.sin(np.pi * x))
    grid = np.linspace(0.0, 0.2, 3)
    gc.collect()
    gc.disable()
    try:
        propagate(space, grid, 2, ic, ZERO_F, cache)
        traj = propagate(space, grid, 0, ic, ZERO_F, cache, decomp=decomp,
                         K_s=2)
        assert AdditiveSchwarz.cached(cache, space, grid[1], decomp).space is space
        ev = ResidualEvaluator(ZERO_F, cache)
        phi = adj_space.interpolate(lambda x: np.sin(np.pi * x))
        weights = np.array([phi.coefficients] * traj.n_steps)
        dd_split([traj], (adj_space, weights), decomp, 2, ev)
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


def _count_loads(monkeypatch):
    calls = []
    real = mesh_module.assemble_load

    def counting(space, t, f):
        calls.append(np.shape(t))
        return real(space, t, f)

    monkeypatch.setattr(mesh_module, "assemble_load", counting)
    return calls


@pytest.mark.parametrize("stepping", ["be", "schwarz", "cg"])
def test_forced_propagation_assembles_all_loads_in_one_call(monkeypatch,
                                                            stepping):
    calls = _count_loads(monkeypatch)
    prob = build_manufactured(2, 1, 0.5)
    mesh = SpatialMesh.uniform(0.0, 1.0, 8)
    space = FeSpace(mesh, 2)
    ic = space.interpolate(prob.u0)
    grid = np.linspace(0.0, 0.5, 6)
    decomp = decompose_domain(mesh, 2, 0.25, 0.4)
    q_t, solver = {"be": (0, ()), "schwarz": (0, (decomp, 2)),
                   "cg": (2, ())}[stepping]
    propagate(space, grid, q_t, ic, prob.f, FormCache(), *solver)
    # a stack of one grid: its step ends, or every cG slab's q_t+3
    # quadrature times
    assert calls == [(1, 5, 2 + 3) if q_t else (1, 5)]


@pytest.mark.parametrize("stepping", ["be", "schwarz", "cg"])
def test_nan_mid_trajectory_names_first_bad_step(stepping):
    # the forcing is NaN on (0.25, 0.35) only: step n=3, ending at t=0.3, is
    # the first with a NaN load, and every later step inherits it
    prob = build_manufactured(2, 1, 0.5)
    mesh = SpatialMesh.uniform(0.0, 1.0, 8)
    space = FeSpace(mesh, 2)
    ic = space.interpolate(prob.u0)
    grid = np.linspace(0.0, 0.5, 6)
    nan_f = lambda x, t: prob.f(x, t) * np.where((0.25 < t) & (t < 0.35),
                                                  np.nan, 1.0)
    q_t, solver = {"be": (0, ()), "cg": (2, ()),
                   "schwarz": (0, (decompose_domain(mesh, 2, 0.25, 0.4), 2))
                   }[stepping]
    with pytest.raises(ValueError, match=r"step n=3, t=0\.3$"):
        propagate(space, grid, q_t, ic, nan_f, FormCache(), *solver)


def test_cg_time_forms_built_once_per_degree_per_cache(monkeypatch):
    built = []
    real = timestepping._cg_time_forms
    monkeypatch.setattr(timestepping, "_cg_time_forms",
                        lambda q_t: built.append(q_t) or real(q_t))
    prob = build_manufactured(2, 1, 0.5)
    space = FeSpace(SpatialMesh.uniform(0.0, 1.0, 6), 2)
    ic = space.interpolate(prob.u0)
    grid = np.linspace(0.0, 0.3, 4)
    cache = FormCache()
    for q_t in (1, 3, 1, 3, 1):
        propagate(space, grid, q_t, ic, prob.f, cache)
    assert built == [1, 3]
    propagate(space, grid, 1, ic, prob.f, FormCache())
    assert built == [1, 3, 1]


# each LAPACK routine called directly, its module, and the scipy.linalg
# wrapper it replaced, given the same arguments
SCIPY_WRAPPERS = {
    "dpbtrf": (mesh_module, lambda ab, lower:
               sla.cholesky_banded(ab, lower=bool(lower))),
    "dpbtrs": (mesh_module, lambda c, b: sla.cho_solve_banded((c, False), b)),
    "dpotrf": (schwarz, lambda a, lower, clean:
               sla.cho_factor(a, lower=bool(lower))[0]),
    "dpotrs": (schwarz, lambda c, b: sla.cho_solve((c, False), b)),
    "dgetrs": (timestepping, lambda lu, piv, b, trans=0, overwrite_b=0:
               sla.lu_solve((lu, piv), b, trans=trans)),
}


def test_lapack_routines_are_scipys():
    # the routines are the very objects scipy.linalg.lapack exports, so
    # every factor and solution is scipy's own, bitwise
    from scipy.linalg import lapack

    assert sorted(_lapack.__all__) == sorted(
        ["dgetrf", "dgetrs", "dpbtrf", "dpbtrs", "dpotrf", "dpotrs"])
    for name in _lapack.__all__:
        assert getattr(_lapack, name) is getattr(lapack, name)


def test_missing_lapack_extension_names_its_path(monkeypatch, tmp_path):
    # no fallback to `import scipy.linalg`: a scipy without the extension
    # file is an ImportError naming the file
    spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
    spec.submodule_search_locations = [str(tmp_path)]
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: spec)
    with pytest.raises(ImportError, match=re.escape(
            str(tmp_path / "linalg" / "_flapack"))):
        _lapack._load_flapack()


@pytest.mark.parametrize("routine", sorted(SCIPY_WRAPPERS))
def test_direct_lapack_solves_equal_scipy_wrappers(monkeypatch, routine):
    module, wrapper = SCIPY_WRAPPERS[routine]
    real = getattr(module, routine)
    seen = []

    def recording(*args, **kwargs):
        # the inputs as given and the result as returned: a solve may
        # overwrite its right-hand side, and the caller may reuse it
        given = [np.array(a, copy=True) for a in args]
        x, info = real(*args, **kwargs)
        seen.append((given, kwargs, np.array(x, copy=True)))
        return x, info

    monkeypatch.setattr(module, routine, recording)
    prob = build_manufactured(2, 1, 0.5)
    mesh = SpatialMesh.uniform(0.0, 1.0, 8)
    space = FeSpace(mesh, 2)
    ic = space.interpolate(prob.u0)
    grid = np.linspace(0.0, 0.5, 6)
    cache = FormCache()
    propagate(space, grid, 0, ic, prob.f, cache)
    propagate(space, grid, 0, ic, prob.f, cache,
              decompose_domain(mesh, 2, 0.25, 0.4), 3)
    propagate(space, grid, 2, ic, prob.f, cache)
    assert seen
    for args, kwargs, x in seen:
        assert np.array_equal(x, wrapper(*args, **kwargs))


@pytest.mark.parametrize("solver", ["direct", "schwarz"])
def test_nan_step_size_is_rejected_before_factoring(solver):
    # a NaN passes LAPACK's Cholesky pivot test, so the step operator's
    # entries are checked before they are factored, as scipy's wrappers did
    mesh = SpatialMesh.uniform(0.0, 1.0, 8)
    space, cache = FeSpace(mesh, 2), FormCache()
    with pytest.raises(ValueError, match="must not contain infs or NaNs"):
        if solver == "direct":
            cache.step_operator(space, float("nan"))
        else:
            AdditiveSchwarz(space, float("nan"),
                            decompose_domain(mesh, 2, 0.25, 0.4), cache)
