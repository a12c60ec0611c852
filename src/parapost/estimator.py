"""Adjoint-weighted residuals and the error decompositions for both solvers.

The time-parallel decomposition splits the terminal QoI error into a fine
discretization part D, an auxiliary part A from the adjoint discontinuities
at synchronization times, a coarse-solution jump part C, and an iteration
part K.  With a Schwarz fine solver, D further splits into a temporal part
D_t, a spatial discretization part D_s and a Schwarz iteration part D_k via
per-step global/subdomain spatial adjoints.

Every forward solution is a Trajectory, implicit Euler as its q_t = 0 (dG(0))
case and cG as q_t >= 1, so one residual loop weights them all.  Everything
here is a pure function of immutable trajectories and adjoints.
"""

import math
from dataclasses import dataclass

import numpy as np

from .mesh import (assemble_load, embed, gauss_rule, lagrange_derivs,
                   lagrange_values)
from .schwarz import AdditiveSchwarz


# Gauss points per time step of the residual integrals: cubic-in-time
# weights against smooth forcing
N_QUAD_T = 5

TPA_COMPONENTS = ("D", "K", "C", "A")
STPA_COMPONENTS = ("D_t", "D_s", "D_k", "K", "C", "A")


@dataclass
class ErrorBreakdown:
    """Named error components, their exact sum, and the effectivity ratio."""

    mode: str
    components: dict
    true_error: float

    @property
    def estimated_total(self):
        return math.fsum(self.components.values())

    @property
    def effectivity(self):
        return effectivity(self.estimated_total, self.true_error)


def effectivity(estimated, true_err):
    """Ratio of estimated to true error; NaN flags an undefined ratio."""
    if true_err == 0.0:
        return float("nan")
    return estimated / true_err


class ResidualEvaluator:
    """Evaluates dual-weighted residuals and mixed-space pairings.

    Takes its matrices and load blocks from the cache; time quadrature is
    N_QUAD_T-point Gauss per step.
    """

    def __init__(self, f, cache):
        self.f = f
        self.cache = cache
        self._s, self._w = gauss_rule(N_QUAD_T)

    def load(self, space, traj, ends=False):
        """traj's loads in space, (steps, N_QUAD_T, dof) at the Gauss times of
        its steps or, if ends, (steps, dof) at times[1:]."""
        times = traj.times[1:] if ends else (
            traj.times[:-1, None] + np.diff(traj.times)[:, None] * self._s)
        return self.cache.load(space, times, self.f)

    def pair(self, a, b):
        """L2 inner product of two nodal fields in (possibly) different spaces."""
        G = self.cache.mass(a.space, b.space)
        return a.coefficients @ G @ b.coefficients

    def pair_analytic(self, fn, b):
        """(fn, b) for an analytic fn, by the fixed 10-point load rule; the
        load vector is assembled once per (space, fn)."""
        vec = self.cache.factor(
            ("analytic_load", b.space, fn),
            lambda: assemble_load(b.space, 0.0, lambda x, t: fn(x)))
        return vec @ b.coefficients

    def residual(self, traj, weight):
        """Per-step dual-weighted residuals of a trajectory of any q_t.

        R_n = int_{I_n} [l(phi) - a(U, phi) - (U_dot, phi)] dt
              - ([U]_{n-1}, phi(t_{n-1}^+)),
        with the first step's jump taken against the retained incoming value
        (a cross-space projection at a subdomain hand-off).  For cG the later
        jumps are exactly zero and skipped; for q_t = 0 (implicit Euler as
        dG(0)) U is constant on each step, so it takes one stiffness product
        per step and no U_dot term, and the jumps carry the time stepping.
        """
        ws, ts = weight.space, traj.space
        A_x = self.cache.stiffness(ws, ts)
        M_x = self.cache.mass(ws, ts)
        M_inc = self.cache.mass(ws, traj.incoming.space)
        dg0 = traj.q_t == 0
        dlam = lagrange_derivs(traj.q_t, self._s)
        lam_w = lagrange_values(weight.q_t, self._s).T  # (nq, q_w+1)
        lam_w0 = lagrange_values(weight.q_t, [0.0]).T
        lam_u = lagrange_values(traj.q_t, self._s).T
        loads = self.load(ws, traj)
        out = np.zeros(traj.n_steps)
        for n in range(1, traj.n_steps + 1):
            t0, t1 = traj.times[n - 1], traj.times[n]
            dt = t1 - t0
            slab = weight.slab_index(t0, t1)
            phi_q = lam_w @ weight.coeffs[slab]  # (nq, dof_w)
            c = traj.coeffs[n - 1]
            Au_q = ([A_x @ c[0]] * N_QUAD_T if dg0 else
                    [A_x @ u for u in lam_u @ c])
            du_q = dlam.T @ c / dt
            acc = 0.0
            for q in range(N_QUAD_T):
                r = loads[n - 1, q] @ phi_q[q] - phi_q[q] @ Au_q[q]
                if not dg0:
                    r -= phi_q[q] @ (M_x @ du_q[q])
                acc += self._w[q] * r
            out[n - 1] = acc * dt
            if n == 1:
                jump = M_x @ c[0] - M_inc @ traj.incoming.coefficients
            elif dg0:
                jump = M_x @ (c[0] - traj.coeffs[n - 2, 0])
            else:
                continue
            out[n - 1] -= (lam_w0 @ weight.coeffs[slab])[0] @ jump
        return out


def _jump_at_sync(state, p, fine_space, kind, cache):
    """Solution jump at T_{p-1} (p >= 2): value from subdomain p-1 minus the
    incoming value of subdomain p, expressed in the fine space."""
    trajs = state.coarse if kind == "coarse" else state.fine
    left = embed(trajs[p - 2].end, fine_space, cache)
    incoming = embed(trajs[p - 1].incoming, fine_space, cache)
    return left - incoming


def _ic_error_pair(ev, adj_field, u0, initial):
    """(adj_field, u0 - Uhat_0): analytic initial condition minus its coarse
    approximation, weighted by an adjoint field at t = 0."""
    return ev.pair_analytic(u0, adj_field) - ev.pair(initial, adj_field)


def _require_families(adjoints):
    for name in ("coarse", "fine", "aux"):
        if name not in adjoints:
            raise ValueError(f"missing adjoint family {name!r}")


def _ack_terms(partition, state, adjoints, ev, u0, fine_space):
    """The A, C and K components, shared by the TPA and STPA decompositions."""
    coarse_adj = adjoints["coarse"]
    fine_adjs = adjoints["fine"]
    aux_adjs = adjoints["aux"]
    P_t = partition.P_t
    # coarse-solution jumps at T_{p-1}, p = 2..P_t: each weights C and A terms
    coarse_jumps = {p: _jump_at_sync(state, p, fine_space, "coarse", ev.cache)
                    for p in range(2, P_t + 1)}
    K = C = A = 0.0
    for p in range(2, P_t + 1):
        t_sync = partition.sync_times[p - 1]
        phat = coarse_adj.value_at_node(t_sync)
        pfine = fine_adjs[p - 1].value_at_node(t_sync)
        K += ev.pair(phat, _jump_at_sync(state, p, fine_space, "fine",
                                         ev.cache))
        C += ev.pair(pfine - phat, coarse_jumps[p])
        aux = aux_adjs[p]
        a_p = 0.0
        for k in range(1, p):
            a_p += float(np.sum(ev.residual(state.coarse[k - 1], aux)))
        for k in range(2, p):
            a_p += ev.pair(aux.value_at_node(partition.sync_times[k - 1]),
                           coarse_jumps[k])
        a_p += _ic_error_pair(ev, aux.value_at_node(0.0), u0, state.initial)
        A += a_p
    return A, C, K


def tpa_breakdown(partition, state, adjoints, problem, true_error, cache):
    """Error decomposition for the time-parallel solver at one iteration.

    adjoints holds 'coarse', 'fine' (list over p) and 'aux' (dict keyed by
    p = 2..P_t); problem supplies f and the analytic initial condition.  The
    residuals take their matrices and loads from the experiment's cache.
    """
    _require_families(adjoints)
    ev = ResidualEvaluator(problem.f, cache)
    fine_space = state.fine[0].space
    D = 0.0
    for p in range(1, partition.P_t + 1):
        D += float(np.sum(ev.residual(state.fine[p - 1], adjoints["fine"][p - 1])))
    D += _ic_error_pair(ev, adjoints["fine"][0].value_at_node(0.0),
                        problem.u0, state.initial)
    A, C, K = _ack_terms(partition, state, adjoints, ev, problem.u0, fine_space)
    comps = {"D": D, "K": K, "C": C, "A": A}
    return ErrorBreakdown("TPA", comps, true_error)


def dd_split(traj, n, decomp, phi_val, ev):
    """Thm-2 split of the step-n algebraic error into discretization (E^N)
    and Schwarz-iteration (E^K) parts, for a Schwarz-solved trajectory.

    The spatial adjoints live in phi_val's space: the global one is solved
    with the cached step operator, the per-sweep subdomain ones by the
    cached sweeper of that space, the step's dt and the decomposition.  A
    non-finite spatial adjoint raises a ValueError naming it and dt.
    """
    if traj.schwarz_records is None:
        raise ValueError("trajectory carries no Schwarz sweep record")
    rec = traj.schwarz_records[n - 1]
    K_s = len(rec.locals_)
    cache, space3 = ev.cache, phi_val.space
    dt = traj.times[n] - traj.times[n - 1]
    M3x = cache.mass(space3, traj.space)
    # one dense M + dt*A per exact dt, not per_step's: shared across the
    # steps of a linspace grid, it moves 19 registry values past 1e-12
    # relative (D_s by up to 8.9e-7 on pardd_fine_time[r=2], D_k by 1.4e-11)
    B3x = cache.factor(
        ("step_matrix", space3, traj.space, dt),
        lambda: M3x + dt * cache.stiffness(space3, traj.space))
    # the step's right-hand functional evaluated on degree-3 fields
    if n == 1:
        M3inc = cache.mass(space3, traj.incoming.space)
        ell = M3inc @ traj.incoming.coefficients
    else:
        ell = M3x @ traj.field(n - 1).coefficients
    ell = ell + dt * ev.load(space3, traj, ends=True)[n - 1]

    Phi = cache.step_operator(space3, dt).solve(
        cache.mass(space3, space3) @ phi_val.coefficients)
    if not np.isfinite(Phi).all():
        raise ValueError(f"non-finite global spatial adjoint (dt={dt:.6g})")
    sweeper = AdditiveSchwarz.cached(cache, space3, dt, decomp)
    chi = sweeper.adjoint(phi_val, K_s)
    E_N = 0.0
    for ks in range(1, K_s + 1):
        for i in range(decomp.P_s):
            c = chi[ks - 1][i]
            E_N += c @ ell - c @ (B3x @ rec.locals_[ks - 1][i])
    u_n = traj.field(n).coefficients
    E_K = Phi @ ell - Phi @ (B3x @ u_n) - E_N
    return E_K, E_N


def stpa_breakdown(partition, state, adjoints, problem, true_error,
                   decomp, cache):
    """Error decomposition for the space-time parallel solver.

    Splits the fine discretization component into temporal (D_t), spatial
    (D_s) and Schwarz-iteration (D_k) parts; A, C, K are as in the
    time-parallel decomposition but on the Schwarz trajectories.  decomp is
    the decomposition the fine solves were swept over; a non-finite
    spatial adjoint, E_K or E_N raises, naming p and n.
    """
    _require_families(adjoints)
    ev = ResidualEvaluator(problem.f, cache)
    fine_space = state.fine[0].space
    D_t = D_s = D_k = 0.0
    for p in range(1, partition.P_t + 1):
        traj = state.fine[p - 1]
        res = ev.residual(traj, adjoints["fine"][p - 1])
        for n in range(1, traj.n_steps + 1):
            phi_val = adjoints["fine"][p - 1].value_at_node(traj.times[n])
            try:
                E_K, E_N = dd_split(traj, n, decomp, phi_val, ev)
            except ValueError as exc:
                raise ValueError(f"{exc} at p={p}, n={n}") from exc
            if not (math.isfinite(E_K) and math.isfinite(E_N)):
                raise ValueError(f"non-finite E_K={E_K}, E_N={E_N} at p={p}, n={n}")
            D_t += res[n - 1] - E_K - E_N
            D_s += E_N
            D_k += E_K
    D_t += _ic_error_pair(ev, adjoints["fine"][0].value_at_node(0.0),
                          problem.u0, state.initial)
    A, C, K = _ack_terms(partition, state, adjoints, ev, problem.u0, fine_space)
    comps = {"D_t": D_t, "D_s": D_s, "D_k": D_k, "K": K, "C": C, "A": A}
    return ErrorBreakdown("STPA", comps, true_error)
