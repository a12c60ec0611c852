"""Adjoint-weighted residuals and the error decomposition for both solvers.

The time-parallel decomposition splits the terminal QoI error into a fine
discretization part D, an auxiliary part A from the adjoint discontinuities
at synchronization times, a coarse-solution jump part C, and an iteration
part K.  With a Schwarz fine solver, D further splits into a temporal part
D_t, a spatial discretization part D_s and a Schwarz iteration part D_k via
per-step global/subdomain spatial adjoints.  Each component is the math.fsum
of its terms, so it is correctly rounded and does not depend on their order.

Every forward solution is a Trajectory, implicit Euler as its q_t = 0 (dG(0))
case and cG as q_t >= 1, so one residual loop weights them all.  Everything
here is a pure function of immutable trajectories and adjoints.
"""

import math

import numpy as np

from .mesh import (_read_only, assemble_load, dots, embed, gauss_rule, groups,
                   lagrange_derivs, lagrange_values, matvecs, pairings)
from .schwarz import AdditiveSchwarz


# Gauss points per time step of the residual integrals: cubic-in-time
# weights against smooth forcing
N_QUAD_T = 5


class ResidualEvaluator:
    """Evaluates dual-weighted residuals and mixed-space pairings, each as
    one stacked call over many pairs.

    Takes its matrices and load blocks from the cache; time quadrature is
    N_QUAD_T-point Gauss per step.
    """

    def __init__(self, f, cache):
        self.f = f
        self.cache = cache
        self._s, self._w = gauss_rule(N_QUAD_T)

    def load(self, space, traj):
        """traj's loads in space at its step ends, (steps, dof): the cache's
        block at times[1:]."""
        return self.cache.load(space, traj.times[1:], self.f)

    def pairs(self, lefts, rights):
        """L2 inner products of two equally long lists of nodal fields, the
        lefts in one space and the rights in one (possibly other) space, by
        one stacked product; each is bitwise a @ G @ b."""
        if not lefts:
            return np.zeros(0)
        return pairings(np.array([a.coefficients for a in lefts]),
                        self.cache.mass(lefts[0].space, rights[0].space),
                        np.array([b.coefficients for b in rights]))

    def pair_analytic(self, fn, fields):
        """(fn, b) for each field b of one space, an analytic fn by the fixed
        10-point load rule; the load vector is assembled once per (space,
        fn), read-only."""
        if not fields:
            return np.zeros(0)
        space = fields[0].space
        vec = self.cache.factor(
            ("analytic_load", space, fn),
            lambda: _read_only(assemble_load(space, 0.0, lambda x, t: fn(x))))
        C = np.array([b.coefficients for b in fields])
        return dots(np.broadcast_to(vec, C.shape), C)

    def residual(self, pairs):
        """Per-step dual-weighted residuals of (trajectory, weight) pairs of
        any q_t, (pairs, steps): row j is that of pairs[j].

        R_n = int_{I_n} [l(phi) - a(U, phi) - (U_dot, phi)] dt
              - ([U]_{n-1}, phi(t_{n-1}^+)),
        with the first step's jump taken against the retained incoming value
        (a cross-space projection at a subdomain hand-off).  For cG the later
        jumps are exactly zero and skipped; for q_t = 0 (implicit Euler as
        dG(0)) U is constant on each step, so it takes one stiffness product
        per step and no U_dot term, and the jumps carry the time stepping.

        All pairs share the trajectory space, the weight space, both q_t and
        the step count; a ValueError names the first pair that does not.
        The trajectory-side products (loads, A U, M U_dot, jumps) are formed
        once per distinct trajectory, each pair's weight slabs are one
        slab_index lookup, and one quadrature loop serves all rows.  Every
        row's products go through mesh.matvecs and mesh.dots, so each row
        is bitwise the residual of its pair alone; no pairs give (0, 0).
        """
        if not pairs:
            return np.zeros((0, 0))
        shared = ("trajectory space", "weight space", "trajectory q_t",
                  "weight q_t", "step count")
        key = [(t.space, w.space, t.q_t, w.q_t, t.n_steps) for t, w in pairs]
        for j, k in enumerate(key):
            if k != key[0]:
                what = next(n for n, a, b in zip(shared, k, key[0]) if a != b)
                raise ValueError(f"residual pair {j} differs from pair 0 in "
                                 f"its {what}")
        (traj0, weight0), n_steps = pairs[0], key[0][4]
        ws, ts = weight0.space, traj0.space
        A_x = self.cache.stiffness(ws, ts)
        M_x = self.cache.mass(ws, ts)
        dg0 = traj0.q_t == 0
        # the trajectory side, once per distinct trajectory: (trajs, steps, ...)
        index = {}
        ti = np.array([index.setdefault(traj, len(index)) for traj, _ in pairs])
        trajs = list(index)
        c = np.array([traj.coeffs for traj in trajs])
        grids = np.array([traj.times for traj in trajs])
        dts = grids[:, 1:] - grids[:, :-1]
        # uncached loads, one block per trajectory: one for all would hold
        # 6.7 MB of temporaries at once for pardd_fine_time[r=8]'s D
        loads = np.array([assemble_load(ws, times, self.f) for times
                          in grids[:, :-1, None] + dts[:, :, None] * self._s])
        if dg0:
            Au_q = matvecs(A_x, c[:, :, :1])  # one product serves every q
        else:
            # U and U_dot at the quadrature points, not kept past the products
            Au_q = matvecs(
                A_x, np.matmul(lagrange_values(traj0.q_t, self._s).T, c))
            Mdu_q = matvecs(M_x, np.matmul(lagrange_derivs(
                traj0.q_t, self._s).T, c) / dts[:, :, None, None])
        # the jumps: against the incoming value at n = 1, and for q_t = 0 at
        # every later node; for cG they are exactly zero and skipped
        jumps = np.array([
            [M_x @ traj.coeffs[0, 0] - self.cache.mass(ws, traj.incoming.space)
             @ traj.incoming.coefficients] for traj in trajs])
        if dg0:
            jumps = np.concatenate(
                [jumps, matvecs(M_x, c[:, 1:, 0] - c[:, :-1, 0])], axis=1)
        # each row's weight coefficients on its trajectory's steps, and phi
        # at the quadrature points: (pairs, steps, nq, dof_w)
        W = np.array([weight.coeffs[weight.slab_index(
            grids[i, :-1], grids[i, 1:])] for i, (_, weight) in zip(ti, pairs)])
        phi_q = np.matmul(lagrange_values(weight0.q_t, self._s).T, W)
        acc = np.zeros((len(pairs), n_steps))
        for q in range(N_QUAD_T):
            phi = phi_q[:, :, q]
            r = (dots(loads[ti, :, q], phi)
                 - dots(phi, Au_q[ti, :, 0 if dg0 else q]))
            if not dg0:
                r -= dots(phi, Mdu_q[ti, :, q])
            acc += self._w[q] * r
        res = acc * dts[ti]
        n_jumps = jumps.shape[1]
        phi0 = np.matmul(lagrange_values(weight0.q_t, [0.0]).T,
                         W[:, :n_jumps])[:, :, 0]
        res[:, :n_jumps] -= dots(phi0, jumps[ti])
        return res


def _jump_at_sync(trajs, p, fine_space, cache):
    """Solution jump of trajs at T_{p-1} (p >= 2): the end value of
    subdomain p-1 minus the incoming value of subdomain p, expressed in the
    fine space."""
    return (embed(trajs[p - 2].end, fine_space, cache)
            - embed(trajs[p - 1].incoming, fine_space, cache))


def _ic_error_pairs(ev, adj_fields, u0, initial):
    """(adj_field, u0 - Uhat_0) for each adjoint field at t = 0: the analytic
    initial condition minus its coarse approximation, weighted."""
    return (ev.pair_analytic(u0, adj_fields)
            - ev.pairs([initial] * len(adj_fields), adj_fields))


def _ack_terms(partition, state, adjoints, ev, u0):
    """The A, C and K components, shared by the TPA and STPA decompositions.

    Each family of terms is one stacked call: the residuals of every coarse
    trajectory k < p against every auxiliary adjoint psi_p, the pairings of
    psi_p(T_{k-1}) with the coarse jumps, and the K, C and initial-condition
    pairings.  A is the fsum of its residual rows, jump pairings and
    initial pairings, C and K the fsums of their pairings.
    """
    coarse_adj = adjoints["coarse"]
    fine_adjs = adjoints["fine"]
    aux_adjs = adjoints["aux"]
    sync = partition.sync_times
    ps = range(2, partition.P_t + 1)
    fine_space = state.fine[0].space
    # coarse-solution jumps at T_{p-1}, p = 2..P_t: each weights C and A terms
    coarse_jumps = {p: _jump_at_sync(state.coarse, p, fine_space, ev.cache)
                    for p in ps}
    phats = [coarse_adj.value_at_node(sync[p - 1]) for p in ps]
    K_terms = ev.pairs(phats, [_jump_at_sync(state.fine, p, fine_space,
                                             ev.cache) for p in ps])
    C_terms = ev.pairs([fine_adjs[p - 1].value_at_node(sync[p - 1]) - phat
                        for p, phat in zip(ps, phats)],
                       [coarse_jumps[p] for p in ps])
    residuals = ev.residual([(state.coarse[k - 1], aux_adjs[p])
                             for p in ps for k in range(1, p)])
    jump_keys = [(p, k) for p in ps for k in range(2, p)]
    jump_terms = ev.pairs([aux_adjs[p].value_at_node(sync[k - 1])
                           for p, k in jump_keys],
                          [coarse_jumps[k] for _, k in jump_keys])
    ic_terms = _ic_error_pairs(ev, [aux_adjs[p].value_at_node(0.0)
                                    for p in ps], u0, state.initial)
    A = math.fsum(np.concatenate([residuals.ravel(), jump_terms, ic_terms]))
    return A, math.fsum(C_terms), math.fsum(K_terms)


def _step_functionals(traj, space, ev):
    """Each step's right-hand functional evaluated on the fields of a space,
    (steps, dof): the previous value's (the incoming one's at n = 1) mass
    pairing plus dt times the step-end load.  In traj's own space these are
    bitwise the right-hand sides its implicit-Euler steps solved."""
    cache = ev.cache
    prev = np.empty((traj.n_steps, space.dof_count))
    prev[0] = (cache.mass(space, traj.incoming.space)
               @ traj.incoming.coefficients)
    prev[1:] = matvecs(cache.mass(space, traj.space), traj.coeffs[:-1, -1])
    loads = ev.load(space, traj)
    return prev + np.diff(traj.times)[:, None] * loads


@np.errstate(over="ignore", invalid="ignore")
def dd_split(trajs, weights, decomp, K_s, ev):
    """Thm-2 split of every step's algebraic error into discretization (E^N)
    and Schwarz-iteration (E^K) parts, for trajectories sharing one space
    whose steps were solved by K_s sweeps over decomp from a zero guess.

    Step n of trajs[p-1] is weighted by the nodal field weights[p-1][n-1],
    all in one space, in which the spatial adjoints live.  Returns (E_K,
    E_N), one entry per step, in (p, n) order: a step's E_N is the fsum of
    its (k_s, i) subdomain terms, and its E_K the global adjoint's term less
    E_N.  The steps are split together, grouped by the cached sweeper of
    their step size: per group one multi-column solve each gives the global
    adjoints (step operator) and replays the steps' sweeps (the forward
    space's sweeper), and one backward recursion of the sweeper the
    per-sweep subdomain adjoints; every value is bitwise that of the step's
    own split.  The solvers do not check finiteness: this split checks
    each block it stacks once, naming dt, p and n of the first step whose
    global adjoint is non-finite, then per group of the first step whose
    replay misses its value by over 1e-12 relative (another decomposition,
    K_s or step solver), whose subdomain adjoints or E_N terms are not all
    finite, and last of the first step whose E_K is non-finite.  Its
    products overflow or turn invalid silently, so that under -W error
    these checks, not a RuntimeWarning, report the step.
    """
    cache, space3, space = ev.cache, weights[0][0].space, trajs[0].space
    where = [(p, n) for p, traj in enumerate(trajs, 1)
             for n in range(1, traj.n_steps + 1)]
    dts = np.concatenate([np.diff(traj.times) for traj in trajs]).tolist()
    ell = np.concatenate([_step_functionals(traj, space3, ev)
                          for traj in trajs])
    rhs = np.concatenate([_step_functionals(traj, space, ev)
                          for traj in trajs])
    u_n = np.concatenate([traj.coeffs[:, -1] for traj in trajs])
    phi = np.array([w.coefficients for ws in weights for w in ws])
    distinct = dict.fromkeys(dts)
    sweepers = {dt: AdditiveSchwarz.cached(cache, space3, dt, decomp)
                for dt in distinct}
    # one dense M + dt*A per exact dt, not per_step's, built for this call
    # alone: shared across the steps of a linspace grid, it moves 19
    # registry values past 1e-12 relative (D_s by up to 8.9e-7 on
    # pardd_fine_time[r=2], D_k by 1.4e-11)
    M3x, A3x = cache.mass(space3, space), cache.stiffness(space3, space)
    B3x = {dt: M3x + dt * A3x for dt in distinct}

    def b3x_times(X, by_dt):
        """B3x @ x for each row x of X, with the B3x of each row's exact dt."""
        out = np.empty((len(X), space3.dof_count))
        for dt, rows in by_dt:
            out[rows] = matvecs(B3x[dt], X[rows])
        return out

    def check(ok, what, cols=range(len(dts))):
        """Raise naming dt, p and n of the first step of cols not ok."""
        if not ok.all():
            j = cols[np.argmin(ok)]
            p, n = where[j]
            raise ValueError(f"{what} (dt={dts[j]:.6g}) at p={p}, n={n}")

    # the step operator and both sweepers share per_step's key, so those of
    # a group's first step serve the group
    by_sweeper = [(sweeper, cols, groups([dts[j] for j in cols]))
                  for sweeper, cols in groups([sweepers[dt] for dt in dts])]
    E_K = np.empty(len(dts))
    finite = np.empty(len(dts), dtype=bool)
    for _, cols, by_dt in by_sweeper:
        Phi = cache.step_operator(space3, dts[cols[0]]).solve(
            matvecs(cache.mass(space3, space3), phi[cols]).T).T
        finite[cols] = np.isfinite(Phi).all(axis=1)
        E_K[cols] = (dots(Phi, ell[cols])
                     - dots(Phi, b3x_times(u_n[cols], by_dt)))
    check(finite, "non-finite global spatial adjoint")
    E_N = np.empty(len(dts))
    for sweeper, cols, by_dt in by_sweeper:
        u, sweeps = AdditiveSchwarz.cached(
            cache, space, dts[cols[0]], decomp).solve(rhs[cols].T, 0, K_s)
        off = np.abs(u.T - u_n[cols]).max(axis=1, initial=0.0)
        check(off <= 1e-12 * np.abs(u_n[cols]).max(axis=1, initial=0.0),
              f"the step value is not that of {K_s} Schwarz sweeps over "
              f"this decomposition", cols)
        terms = np.empty((K_s, decomp.P_s, len(cols)))
        finite = np.ones(len(cols), dtype=bool)
        for ks, i, chi in sweeper.adjoint(phi[cols], K_s):
            finite &= np.isfinite(chi).all(axis=1)
            local = np.ascontiguousarray(sweeps[ks - 1, i].T)
            terms[ks - 1, i] = (dots(chi, ell[cols])
                                - dots(chi, b3x_times(local, by_dt)))
        check(finite, "non-finite subdomain spatial adjoint", cols)
        terms = terms.reshape(-1, len(cols)).T
        check(np.isfinite(terms).all(axis=1), "non-finite E_N term", cols)
        E_N[cols] = [math.fsum(step) for step in terms]
    E_K -= E_N
    check(np.isfinite(E_K), "non-finite E_K")
    return E_K, E_N


def stpa_breakdown(partition, state, adjoints, problem, decomp, K_s, cache):
    """Error decomposition at one iteration: the components, whose sum is the
    error estimate, each the math.fsum of its terms.

    adjoints holds 'coarse', 'fine' (list over p) and 'aux' (dict keyed by
    p = 2..P_t); problem supplies f and the analytic initial condition; the
    residuals take their matrices from the experiment's cache.  With decomp
    None (the time-parallel solver) the components are {'D', 'K', 'C', 'A'};
    D's terms are the per-step residuals of one residual call and the
    initial-condition pairing.  With a decomposition, each fine step was
    solved by K_s sweeps over it, and D splits into {'D_t', 'D_s', 'D_k'} by
    one dd_split call: D_k sums the steps' E_K, D_s their E_N, and D_t
    takes D's terms less both.  dd_split names p, n and dt of a step that
    does not replay or has a non-finite spatial adjoint, E_N term or E_K.
    """
    for name in ("coarse", "fine", "aux"):
        if name not in adjoints:
            raise ValueError(f"missing adjoint family {name!r}")
    ev = ResidualEvaluator(problem.f, cache)
    fine_adjs = adjoints["fine"]
    if decomp is not None:
        E_K, E_N = dd_split(
            state.fine, [[adj.value_at_node(t) for t in traj.times[1:]]
                         for traj, adj in zip(state.fine, fine_adjs)],
            decomp, K_s, ev)
    D = np.concatenate([
        ev.residual(list(zip(state.fine, fine_adjs))).ravel(),
        _ic_error_pairs(ev, [fine_adjs[0].value_at_node(0.0)], problem.u0,
                        state.initial)])
    A, C, K = _ack_terms(partition, state, adjoints, ev, problem.u0)
    if decomp is None:
        parts = {"D": math.fsum(D)}
    else:
        parts = {"D_t": math.fsum(np.concatenate([D, -E_K, -E_N])),
                 "D_s": math.fsum(E_N), "D_k": math.fsum(E_K)}
    return {**parts, "K": K, "C": C, "A": A}
