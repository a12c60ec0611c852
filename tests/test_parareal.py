"""Parareal iteration: degeneracy, exactness, and form equivalence."""

import numpy as np
import pytest

from parapost.harness import build_manufactured
from parapost.mesh import FeSpace, FormCache, SpatialMesh, embed
from parapost.parareal import vpar
from parapost.schwarz import decompose_domain
from parapost.timestepping import TimePartition, propagate_be, propagate_cg

from oracles import par_standard


def _setup(nhat_s=8, qhat=1, q=2, P_t=4, Nhat_t=8, r=2, T=0.5, nu=2, mu=1):
    prob = build_manufactured(nu, mu, T)
    mesh = SpatialMesh.uniform(0.0, 1.0, nhat_s)
    coarse, fine = FeSpace(mesh, qhat), FeSpace(mesh, q)
    part = TimePartition.uniform(T, P_t, Nhat_t, r)
    cache = FormCache()
    fs = lambda gs, ics: propagate_be(fine, gs, ics, prob.f, cache)
    cs = lambda g, ic: propagate_be(coarse, g, ic, prob.f, cache)
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
    n_per = part.N_t // P_t
    serial = propagate_be(fine, np.linspace(0.0, 0.5, part.N_t + 1), ic,
                          prob.f, cache)
    for p in range(1, P_t + 1):
        got = states[-1].fine[p - 1].end.coefficients
        want = serial.field(p * n_per).coefficients
        assert np.max(np.abs(got - want)) < 1e-10


def test_fine_sync_iteration_is_stationary_after_P_t():
    prob, part, coarse, fine, fs, cs, ic, cache = _setup(P_t=3, Nhat_t=6)
    states = vpar(part, 5, ic, fs, cs, cache)
    for k in (3, 4):  # iterations beyond finite termination change nothing
        for p in range(3):
            a = states[k].fine[p].end.coefficients
            b = states[k - 1].fine[p].end.coefficients
            assert np.max(np.abs(a - b)) < 1e-11


def test_coarse_sync_fixed_point_differs_from_serial_fine():
    # with qhat_s < q_s the coarse-space synchronization converges to a fixed
    # point that is not the serial fine solution: the iteration error
    # stagnates instead of vanishing
    prob, part, coarse, fine, fs, cs, ic, cache = _setup(P_t=4, Nhat_t=8)
    states = vpar(part, 10, ic, fs, cs, cache)
    last = states[-1].fine[-1].end.coefficients
    prev = states[-2].fine[-1].end.coefficients
    assert np.max(np.abs(last - prev)) < 1e-10  # converged in its own right
    serial = propagate_be(fine, np.linspace(0.0, 0.5, part.N_t + 1),
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
    # at P_t = 4, however many iterations follow, and one fine call per
    # iteration, for subdomains k..P_t in order
    prob, part, coarse, fine, fs, cs, ic, cache = _setup(P_t=4, Nhat_t=8)
    coarse_calls, fine_batches = [], []

    def counted_coarse(grid, ic_):
        coarse_calls.append(grid)
        return cs(grid, ic_)

    def counted_fine(grids, ics):
        fine_batches.append([p for g in grids
                             for p, h in enumerate(part.fine_grids, 1)
                             if np.array_equal(h, g)])
        return fs(grids, ics)

    vpar(part, 6, ic, counted_fine, counted_coarse, cache)
    assert len(coarse_calls) == 10
    assert fine_batches == [[1, 2, 3, 4], [2, 3, 4], [3, 4], [4]]


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
