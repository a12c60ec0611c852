"""Parareal iteration: degeneracy, exactness, and form equivalence."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from parapost.harness import build_manufactured
from parapost.mesh import FeSpace, FormCache, NodalField, SpatialMesh
from parapost.parareal import vpar
from parapost.schwarz import decompose_domain
from parapost.timestepping import TimePartition, propagate_be, propagate_cg

from oracles import embed, node_value, par_standard


def _setup(nhat_s=8, qhat=1, q=2, P_t=4, Nhat_t=8, r=2, T=0.5, nu=2, mu=1):
    prob = build_manufactured(nu, mu, T)
    mesh = SpatialMesh.uniform(0.0, 1.0, nhat_s)
    coarse, fine = FeSpace(mesh, qhat), FeSpace(mesh, q)
    part = TimePartition.uniform(T, P_t, Nhat_t, r)
    cache = FormCache()
    fs = lambda gs, ics: propagate_be(fine, gs, ics, prob.f, cache)
    cs = lambda gs, ic, jumps: propagate_be(coarse, gs, ic, prob.f, cache,
                                            jumps=jumps)
    ic = coarse.interpolate(prob.u0)
    return prob, part, coarse, fine, fs, cs, ic, cache


def test_single_subdomain_degenerates_to_serial():
    prob, part, coarse, fine, fs, cs, ic, cache = _setup(P_t=1, Nhat_t=4)
    states = vpar(part, 1, ic, fs, cs, cache)
    serial = propagate_be(fine, part.fine_grids[0], ic, prob.f, cache)
    assert np.max(np.abs(states[0].fine[0].coeffs - serial.coeffs)) == 0.0


@pytest.mark.parametrize("P_t", [2, 3, 4])
def test_exactness_equal_spaces_default_sync(P_t):
    # with matching coarse/fine spaces the coarse-space synchronization is
    # the classic one, so finite termination holds at K_t = P_t
    prob, part, coarse, fine, fs, cs, ic, cache = _setup(
        qhat=2, q=2, P_t=P_t, Nhat_t=4 * P_t, r=2)
    states = vpar(part, P_t, ic, fs, cs, cache)
    N_t = part.r * part.Nhat_t
    n_per = N_t // P_t
    serial = propagate_be(fine, np.linspace(0.0, 0.5, N_t + 1), ic,
                          prob.f, cache)
    for p in range(1, P_t + 1):
        got = states[-1].fine[p - 1].end.coefficients
        want = node_value(serial, p * n_per).coefficients
        assert np.max(np.abs(got - want)) < 1e-10


def test_coarse_sync_fixed_point_differs_from_serial_fine():
    # with qhat_s < q_s the coarse-space synchronization converges to a fixed
    # point that is not the serial fine solution: the iteration error
    # stagnates instead of vanishing
    prob, part, coarse, fine, fs, cs, ic, cache = _setup(P_t=4, Nhat_t=8)
    states = vpar(part, 10, ic, fs, cs, cache)
    last = states[-1].fine[-1].end.coefficients
    prev = states[-2].fine[-1].end.coefficients
    assert np.max(np.abs(last - prev)) < 1e-10  # converged in its own right
    serial = propagate_be(fine, np.linspace(0.0, 0.5,
                                            part.r * part.Nhat_t + 1),
                          embed(ic, fine, cache), prob.f, cache)
    gap = np.max(np.abs(last - serial.end.coefficients))
    assert gap > 1e-8  # ... but to a different limit


def test_standard_variational_equivalence_randomized():
    # 20 random small configurations: synchronized and fine end values of the
    # standard form agree with the variational form to machine precision
    rng = np.random.default_rng(314)
    for _ in range(20):
        P_t = int(rng.integers(1, 5))
        nhat_per = int(rng.integers(1, 3))
        r = int(rng.integers(1, 4))
        qhat = int(rng.integers(1, 3))
        q = int(rng.integers(qhat, 4))
        n_s = int(rng.integers(3, 7))
        K_t = int(rng.integers(1, P_t + 3))
        prob, part, coarse, fine, fs, cs, ic, cache = _setup(
            nhat_s=n_s, qhat=qhat, q=q, P_t=P_t, Nhat_t=P_t * nhat_per, r=r)
        states = vpar(part, K_t, ic, fs, cs, cache)
        std = par_standard(part, K_t, ic, fs, cs, cache)
        for k in range(K_t):
            for p in range(P_t):
                bar_v = states[k].fine[p].end.coefficients
                bar_s = std[k]["bar"][p].coefficients
                assert np.max(np.abs(bar_v - bar_s)) < 1e-12
                corr_v = states[k].corrections[p].coefficients
                corr_s = std[k]["corrections"][p].coefficients
                assert np.max(np.abs(corr_v - corr_s)) < 1e-12
            # incoming value of subdomain p+1 is the synchronized value
            for p in range(1, P_t):
                inc = states[k].coarse[p].incoming.coefficients
                tl = std[k]["tilde"][p - 1].coefficients
                assert np.max(np.abs(inc - tl)) < 1e-12


def test_vpar_solves_each_subdomain_until_its_incoming_value_converges():
    # iteration k solves subdomains k..P_t only: 4 + 3 + 2 + 1 coarse solves
    # at P_t = 4, however many iterations follow, by one coarse call (the
    # serial sweep, chained) and one fine call per iteration, each for
    # subdomains k..P_t in order
    prob, part, coarse, fine, fs, cs, ic, cache = _setup(P_t=4, Nhat_t=8)
    coarse_batches, fine_batches = [], []

    def rows(grids, family):
        return [p for g in grids for p, h in enumerate(family, 1)
                if np.array_equal(h, g)]

    def counted_coarse(grids, ic_, jumps):
        coarse_batches.append(rows(grids, part.coarse_grids))
        return cs(grids, ic_, jumps)

    def counted_fine(grids, ics):
        fine_batches.append(rows(grids, part.fine_grids))
        return fs(grids, ics)

    vpar(part, 6, ic, counted_fine, counted_coarse, cache)
    assert coarse_batches == [[1, 2, 3, 4], [2, 3, 4], [3, 4], [4]]
    assert fine_batches == coarse_batches


def test_vpar_keeps_converged_subdomains_as_the_same_objects():
    prob, part, coarse, fine, fs, cs, ic, cache = _setup(P_t=4, Nhat_t=8)
    states = vpar(part, 6, ic, fs, cs, cache)
    for k in range(1, 6):
        for p in range(4):
            # states[k] is iteration k+1, which keeps subdomains 1..k
            kept = p < k
            assert (states[k].fine[p] is states[k - 1].fine[p]) == kept
            assert (states[k].coarse[p] is states[k - 1].coarse[p]) == kept
            assert (states[k].corrections[p]
                    is states[k - 1].corrections[p]) == kept
    # iterations beyond finite termination change nothing, bit for bit
    for k in (4, 5):
        for p in range(4):
            assert np.array_equal(states[k].fine[p].end.coefficients,
                                  states[k - 1].fine[p].end.coefficients)


def test_corrections_shrink_over_iterations():
    prob, part, coarse, fine, fs, cs, ic, cache = _setup(P_t=4, Nhat_t=8, r=4)
    states = vpar(part, 3, ic, fs, cs, cache)
    norms = [max(np.max(np.abs(c.coefficients)) for c in s.corrections)
             for s in states]
    assert norms[1] < norms[0]
    assert norms[2] < norms[1]


def test_rejects_nonpositive_iteration_count():
    prob, part, coarse, fine, fs, cs, ic, cache = _setup()
    with pytest.raises(ValueError):
        vpar(part, 0, ic, fs, cs, cache)


def test_rejects_solvers_that_return_too_few_rows_or_mixed_spaces():
    # a (1, dof) block would broadcast against the others' rows, and a
    # space of the same dof count would be subtracted without error
    prob, part, coarse, fine, fs, cs, ic, cache = _setup(P_t=4, Nhat_t=8)
    twin = FeSpace(fine.mesh, fine.degree)  # equal dof count, not the space
    retype = lambda t: type(t)(twin, t.times, t.q_t, t.coeffs, t.incoming)
    short = lambda grids, ics: fs(grids, ics)[:1]
    mixed = lambda grids, ics: fs(grids, ics)[:-1] + [retype(
        fs(grids[-1:], ics[-1:])[0])]
    for bad in (short, mixed):
        with pytest.raises(ValueError, match=r"iteration 1: each solver must "
                                             r"return 4 trajectories in one"):
            vpar(part, 2, ic, bad, cs, cache)


def test_solver_failure_is_located():
    prob, part, coarse, fine, fs, cs, ic, cache = _setup(P_t=4, Nhat_t=8)

    def flaky(grids, ics):
        # fails on every call whose batch holds subdomain 3
        if any(np.array_equal(g, part.fine_grids[2]) for g in grids):
            raise FloatingPointError("boom")
        return propagate_be(fine, grids, ics, prob.f, cache)

    with pytest.raises(RuntimeError) as err:
        vpar(part, 2, ic, flaky, cs, cache)
    assert "p=3" in str(err.value) and "k_t=1" in str(err.value)


@pytest.mark.parametrize("stepping", ["be", "cg", "schwarz"])
def test_nonfinite_forcing_names_subdomain_iteration_and_step(stepping):
    # the forcing turns NaN after t = 0.3: inside subdomain 3 ([0.25, 0.375],
    # fine steps of 1/32), whose second step ends at t = 0.3125
    prob, part, coarse, fine, fs, cs, ic, cache = _setup()
    nan_f = lambda x, t: prob.f(x, t) * np.where(t > 0.3, np.nan, 1.0)
    decomp = decompose_domain(fine.mesh, 2, 0.25, 0.4)
    fine_solvers = {
        "be": lambda gs, ics: propagate_be(fine, gs, ics, nan_f, cache),
        "cg": lambda gs, ics: propagate_cg(fine, gs, 1, ics, nan_f, cache),
        "schwarz": lambda gs, ics: propagate_be(fine, gs, ics, nan_f, cache,
                                                decomp, 2),
    }
    with pytest.raises(RuntimeError, match=r"p=3, iteration k_t=1: "
                       r".*step n=2, t=0\.3125") as err:
        vpar(part, 2, ic, fine_solvers[stepping], cs, cache)
    assert isinstance(err.value.__cause__, ValueError)


@pytest.mark.parametrize("stepping", ["be", "cg", "schwarz"])
def test_a_nonfinite_fine_solve_is_located_without_a_rerun(stepping):
    # the propagator's ValueError carries the failing column of its stack
    # (subdomain 3 is column 2 of iteration 1's stack), so the subdomain is
    # named from the one fine call, with no one-column retry
    prob, part, coarse, fine, fs, cs, ic, cache = _setup()
    nan_f = lambda x, t: prob.f(x, t) * np.where(t > 0.3, np.nan, 1.0)
    decomp = decompose_domain(fine.mesh, 2, 0.25, 0.4)
    propagate = {
        "be": lambda gs, ics: propagate_be(fine, gs, ics, nan_f, cache),
        "cg": lambda gs, ics: propagate_cg(fine, gs, 1, ics, nan_f, cache),
        "schwarz": lambda gs, ics: propagate_be(fine, gs, ics, nan_f, cache,
                                                decomp, 2),
    }[stepping]
    calls = []

    def fine_solver(grids, ics):
        calls.append(len(grids))
        return propagate(grids, ics)

    with pytest.raises(RuntimeError, match=r"p=3, iteration k_t=1: ") as err:
        vpar(part, 2, ic, fine_solver, cs, cache)
    assert calls == [part.P_t]
    assert err.value.__cause__.column == 2


@pytest.mark.parametrize("stepping", ["be", "cg"])
def test_a_nonfinite_coarse_sweep_is_located_before_any_fine_solve(stepping):
    # the forcing turns NaN after t = 0.3, for the coarse solver only:
    # inside subdomain 3 ([0.25, 0.375], coarse steps of 1/16), whose first
    # step ends at t = 0.3125; the coarse sweep fails before the fine call
    prob, part, coarse, fine, fs, cs, ic, cache = _setup()
    nan_f = lambda x, t: prob.f(x, t) * np.where(t > 0.3, np.nan, 1.0)
    coarse_solver = {
        "be": lambda gs, ic_, jumps: propagate_be(coarse, gs, ic_, nan_f,
                                                  cache, jumps=jumps),
        "cg": lambda gs, ic_, jumps: propagate_cg(coarse, gs, 1, ic_, nan_f,
                                                  cache, jumps),
    }[stepping]
    calls = []

    def fine_solver(grids, ics):
        calls.append(len(grids))
        return fs(grids, ics)

    with pytest.raises(RuntimeError, match=r"p=3, iteration k_t=1: "
                       r".*step n=1, t=0\.3125") as err:
        vpar(part, 2, ic, fine_solver, coarse_solver, cache)
    assert isinstance(err.value.__cause__, ValueError)
    assert calls == []


@settings(max_examples=25, deadline=None)
@given(T=st.sampled_from([0.5, 1.1, 1.3, 2.0, 2.3, 2.6]),
       P_t=st.integers(1, 5), nhat_per=st.integers(1, 3), r=st.integers(1, 3),
       qhat_t=st.integers(0, 2), data=st.data())
def test_every_coarse_row_is_its_own_one_grid_solve(T, P_t, nhat_per, r,
                                                    qhat_t, data):
    # qhat_t = 0 is implicit Euler, else cG(qhat_t).  Every coarse
    # trajectory of every state, whichever chained call solved it, is
    # bitwise a one-grid solve from its own incoming value, which is
    # bitwise the previous row's end value plus the interpolated correction
    # of the iteration that solved it; the drawn T include partitions whose
    # rows straddle FormCache.per_step's 15-digit key
    K_t = data.draw(st.integers(1, P_t + 1), label="K_t")
    prob = build_manufactured(2, 1, T)
    mesh = SpatialMesh.uniform(0.0, 1.0, 4)
    coarse, fine = FeSpace(mesh, 1), FeSpace(mesh, 2)
    part = TimePartition.uniform(T, P_t, P_t * nhat_per, r)
    cache = FormCache()

    def solver(space):
        if qhat_t:
            return lambda times, ic, jumps=None: propagate_cg(
                space, times, qhat_t, ic, prob.f, cache, jumps)
        return lambda times, ic, jumps=None: propagate_be(
            space, times, ic, prob.f, cache, jumps=jumps)

    one_grid = solver(coarse)
    ic = coarse.interpolate(prob.u0)
    states = vpar(part, K_t, ic, solver(fine), one_grid, cache)
    assert states[0].coarse[0].incoming is ic
    for k, state in enumerate(states, 1):
        for corr, ct, ft in zip(state.corrections, state.coarse, state.fine,
                                strict=True):
            assert np.array_equal(
                corr.coefficients,
                (ft.end - embed(ct.end, fine, cache)).coefficients)
        for p, row in enumerate(state.coarse, 1):
            own = one_grid(part.coarse_grids[p - 1], row.incoming)
            assert np.array_equal(row.coeffs, own.coeffs)
            solved_at = min(p, k)  # a row is kept from iteration p on
            if p > 1:
                want = state.coarse[p - 2].end
                if solved_at > 1:
                    corr = states[solved_at - 2].corrections[p - 2]
                    want = want + NodalField(coarse, cache.gather(
                        corr.space, coarse)(corr.coefficients[None])[0])
                assert np.array_equal(row.incoming.coefficients,
                                      want.coefficients)
