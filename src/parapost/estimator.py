"""Adjoint-weighted residuals and the error decompositions for both solvers.

The time-parallel decomposition splits the terminal QoI error into a fine
discretization part D, an auxiliary part A from the adjoint discontinuities
at synchronization times, a coarse-solution jump part C, and an iteration
part K.  With a Schwarz fine solver, D further splits into a temporal part
D_t, a spatial discretization part D_s and a Schwarz iteration part D_k via
per-step global/subdomain spatial adjoints.

Everything here is a pure function of immutable trajectories and adjoints.
"""

import math
from dataclasses import dataclass

import numpy as np

from .adjoint import SpatialAdjointSolver
from .mesh import FormCache, assemble_load, embed, gauss_rule
from .timestepping import CgTrajectory


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

    Holds the load/matrix caches; time quadrature is 5-point Gauss per step
    (cubic-in-time weights against smooth forcing).
    """

    def __init__(self, f, cache=None, n_quad_t=5):
        self.f = f
        self.cache = cache or FormCache()
        self.n_quad_t = n_quad_t
        self._loads = {}
        self._s, self._w = gauss_rule(n_quad_t)

    def load(self, space, t):
        key = (space, round(float(t), 14))
        if key not in self._loads:
            self._loads[key] = assemble_load(space, t, self.f)
        return self._loads[key]

    def pair(self, a, b):
        """L2 inner product of two nodal fields in (possibly) different spaces."""
        G = self.cache.mass(a.space, b.space)
        return a.coefficients @ G @ b.coefficients

    def pair_analytic(self, fn, b):
        """(fn, b) for an analytic fn, by the fixed 10-point load rule."""
        vec = assemble_load(b.space, 0.0, lambda x, t: fn(x))
        return vec @ b.coefficients

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
        out = np.zeros(traj.n_steps)
        for n in range(1, traj.n_steps + 1):
            t0, t1 = traj.times[n - 1], traj.times[n]
            dt = t1 - t0
            slab = weight.slab_index(t0, t1)
            phi_q = weight.slab_eval(slab, self._s)  # (nq, dof_w)
            u_n = traj.values[n]
            au = A_x @ u_n
            acc = 0.0
            for q in range(self.n_quad_t):
                t_q = t0 + dt * self._s[q]
                acc += self._w[q] * (self.load(ws, t_q) @ phi_q[q] - phi_q[q] @ au)
            acc *= dt
            phi_left = weight.slab_eval(slab, [0.0])[0]
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
        from .mesh import lagrange_values, lagrange_derivs

        ws, ts = weight.space, traj.space
        A_x = self.cache.stiffness(ws, ts)
        M_x = self.cache.mass(ws, ts)
        q_t = traj.q_t
        lam = lagrange_values(q_t, self._s)    # (q_t+1, nq)
        dlam = lagrange_derivs(q_t, self._s)
        out = np.zeros(traj.n_steps)
        for n in range(1, traj.n_steps + 1):
            t0, t1 = traj.times[n - 1], traj.times[n]
            dt = t1 - t0
            slab = weight.slab_index(t0, t1)
            phi_q = weight.slab_eval(slab, self._s)
            c = traj.coeffs[n - 1]  # (q_t+1, dof)
            u_q = lam.T @ c
            du_q = dlam.T @ c / dt
            acc = 0.0
            for q in range(self.n_quad_t):
                t_q = t0 + dt * self._s[q]
                acc += self._w[q] * (
                    self.load(ws, t_q) @ phi_q[q]
                    - phi_q[q] @ (A_x @ u_q[q])
                    - phi_q[q] @ (M_x @ du_q[q])
                )
            out[n - 1] = acc * dt
        # projection discontinuity at the trajectory start
        M_inc = self.cache.mass(ws, traj.incoming.space)
        slab0 = weight.slab_index(traj.times[0], traj.times[1])
        phi0 = weight.slab_eval(slab0, [0.0])[0]
        out[0] -= phi0 @ (M_x @ traj.coeffs[0, 0]
                          - M_inc @ traj.incoming.coefficients)
        return out

    def residual(self, traj, weight):
        if isinstance(traj, CgTrajectory):
            return self.residual_cg(traj, weight)
        return self.residual_be(traj, weight)


def _jump_at_sync(state, p, fine_space, kind):
    """Solution jump at T_{p-1} (p >= 2): value from subdomain p-1 minus the
    incoming value of subdomain p, expressed in the fine space."""
    trajs = state.coarse if kind == "coarse" else state.fine
    left = embed(trajs[p - 2].end, fine_space)
    incoming = embed(trajs[p - 1].incoming, fine_space)
    return left - incoming


def _ic_error_pair(ev, adj_field, u0, initial):
    """(adj_field, u0 - Uhat_0): analytic initial condition minus its coarse
    approximation, weighted by an adjoint field at t = 0."""
    return ev.pair_analytic(u0, adj_field) - ev.pair(initial, adj_field)


def _ack_terms(partition, state, adjoints, ev, u0, fine_space):
    """The A, C and K components, shared by the TPA and STPA decompositions."""
    coarse_adj = adjoints["coarse"]
    fine_adjs = adjoints["fine"]
    aux_adjs = adjoints["aux"]
    P_t = partition.P_t
    K = C = A = 0.0
    for p in range(2, P_t + 1):
        t_sync = partition.sync_times[p - 1]
        phat = coarse_adj.value_at_node(t_sync)
        pfine = fine_adjs[p - 1].value_at_node(t_sync)
        K += ev.pair(phat, _jump_at_sync(state, p, fine_space, "fine"))
        C += ev.pair(pfine - phat, _jump_at_sync(state, p, fine_space, "coarse"))
        aux = aux_adjs[p]
        a_p = 0.0
        for k in range(1, p):
            a_p += float(np.sum(ev.residual(state.coarse[k - 1], aux)))
        for k in range(2, p):
            a_p += ev.pair(aux.value_at_node(partition.sync_times[k - 1]),
                           _jump_at_sync(state, k, fine_space, "coarse"))
        a_p += _ic_error_pair(ev, aux.value_at_node(0.0), u0, state.initial)
        A += a_p
    return A, C, K


def tpa_breakdown(partition, state, adjoints, problem, true_error,
                  cache=None, ev=None):
    """Error decomposition for the time-parallel solver at one iteration.

    adjoints holds 'coarse', 'fine' (list over p) and 'aux' (dict keyed by
    p = 2..P_t); problem supplies f and the analytic initial condition.
    """
    for name in ("coarse", "fine", "aux"):
        if name not in adjoints:
            raise ValueError(f"missing adjoint family {name!r}")
    ev = ev or ResidualEvaluator(problem.f, cache)
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

    The spatial adjoints live in phi_val's space; their solver is the one
    cached in ev.cache for that space, the step's dt and the decomposition.
    """
    if not hasattr(traj, "schwarz_records"):
        raise ValueError("trajectory carries no Schwarz sweep record")
    rec = traj.schwarz_records[n - 1]
    K_s = len(rec.locals_)
    space3 = phi_val.space
    dt = traj.times[n] - traj.times[n - 1]
    spatial_solver = SpatialAdjointSolver.cached(ev.cache, space3, dt, decomp)
    M3x = ev.cache.mass(space3, traj.space)
    B3x = M3x + dt * ev.cache.stiffness(space3, traj.space)
    # the step's right-hand functional evaluated on degree-3 fields
    if n == 1:
        M3inc = ev.cache.mass(space3, traj.incoming.space)
        ell = M3inc @ traj.incoming.coefficients
    else:
        ell = M3x @ traj.values[n - 1]
    ell = ell + dt * ev.load(space3, traj.times[n])

    Phi = spatial_solver.solve_global(phi_val)
    chi = spatial_solver.solve_subdomain(phi_val, K_s)
    E_N = 0.0
    for ks in range(1, K_s + 1):
        for i in range(decomp.P_s):
            c = chi[ks - 1][i]
            E_N += c @ ell - c @ (B3x @ rec.locals_[ks - 1][i])
    E_K = Phi.coefficients @ ell - Phi.coefficients @ (B3x @ traj.values[n]) - E_N
    return E_K, E_N


def stpa_breakdown(partition, state, adjoints, problem, true_error,
                   decomp, cache=None, ev=None):
    """Error decomposition for the space-time parallel solver.

    Splits the fine discretization component into temporal (D_t), spatial
    (D_s) and Schwarz-iteration (D_k) parts; A, C, K are as in the
    time-parallel decomposition but on the Schwarz trajectories.  decomp is
    the decomposition the fine solves were swept over.
    """
    ev = ev or ResidualEvaluator(problem.f, cache)
    fine_space = state.fine[0].space
    D_t = D_s = D_k = 0.0
    for p in range(1, partition.P_t + 1):
        traj = state.fine[p - 1]
        res = ev.residual_be(traj, adjoints["fine"][p - 1])
        for n in range(1, traj.n_steps + 1):
            phi_val = adjoints["fine"][p - 1].value_at_node(traj.times[n])
            E_K, E_N = dd_split(traj, n, decomp, phi_val, ev)
            D_t += res[n - 1] - E_K - E_N
            D_s += E_N
            D_k += E_K
    D_t += _ic_error_pair(ev, adjoints["fine"][0].value_at_node(0.0),
                          problem.u0, state.initial)
    A, C, K = _ack_terms(partition, state, adjoints, ev, problem.u0, fine_space)
    comps = {"D_t": D_t, "D_s": D_s, "D_k": D_k, "K": K, "C": C, "A": A}
    return ErrorBreakdown("STPA", comps, true_error)
