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

from .mesh import (_read_only, assemble_load, dots, embed_rows, gauss_rule,
                   groups, lagrange_derivs, lagrange_values, matvecs,
                   pairings)
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

    def pairs(self, lefts, rights):
        """L2 inner products a @ G @ b of the rows of two blocks of fields,
        each side a (space, (rows, dof) block) pair, by one stacked product,
        each bitwise its own; sides of unequal lengths raise a ValueError
        naming both."""
        (left_space, L), (right_space, R) = lefts, rights
        if len(L) != len(R):
            raise ValueError(f"{len(L)} left fields against {len(R)} right "
                             f"fields")
        return pairings(L, self.cache.mass(left_space, right_space), R)

    def pair_analytic(self, fn, fields):
        """(fn, b) for each row b of a (space, (rows, dof) block) of fields,
        an analytic fn by the fixed 10-point load rule; the load vector is
        assembled once per (space, fn), read-only."""
        space, C = fields
        vec = self.cache.factor(
            ("analytic_load", space, fn),
            lambda: _read_only(assemble_load(space, 0.0, lambda x, t: fn(x))))
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
        The trajectory-side products (A U, M U_dot, jumps) are formed once
        per distinct trajectory, those against the incoming values once per
        distinct incoming space, and the loads of all of them by one
        uncached assemble_load call.  Each pair's grid must be a run of
        consecutive nodes of its weight's grid, bitwise (a weight on a
        nested grid, as the adjoints are): one exact search per distinct
        weight finds where each of its pairs' grids starts, and a grid that
        is not such a run raises a ValueError naming its pair.  One
        quadrature loop serves all rows.  Every row's products go through
        mesh.matvecs and mesh.dots, so each row is bitwise the residual of
        its pair alone; no pairs give (0, 0).
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
        # uncached loads of every trajectory, (trajs, steps, nq, dof_w), by
        # one call, which bounds its temporaries itself
        loads = assemble_load(
            ws, grids[:, :-1, None] + dts[:, :, None] * self._s, self.f)
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
        jumps = matvecs(M_x, c[:, :1, 0])
        for space, js in groups([traj.incoming.space for traj in trajs]):
            jumps[js, 0] -= matvecs(self.cache.mass(ws, space), np.array(
                [trajs[j].incoming.coefficients for j in js]))
        if dg0:
            jumps = np.concatenate(
                [jumps, matvecs(M_x, c[:, 1:, 0] - c[:, :-1, 0])], axis=1)
        # each row's weight coefficients on its trajectory's steps, the
        # slabs from the node where its grid starts in its weight's grid,
        # and phi at the quadrature points: (pairs, steps, nq, dof_w)
        W = np.empty((len(pairs), n_steps) + weight0.coeffs.shape[1:])
        run = np.arange(n_steps + 1)
        for weight, rows in groups([weight for _, weight in pairs]):
            g = grids[ti[rows]]
            nodes = np.searchsorted(weight.times, g[:, :1]) + run
            ok = (nodes[:, -1] < len(weight.times)) & (
                weight.times[np.minimum(nodes, weight.n_steps)] == g).all(1)
            if not ok.all():
                raise ValueError(f"residual pair {rows[np.argmin(ok)]}: its "
                                 f"grid is not a run of its weight's grid")
            W[rows] = weight.coeffs[nodes[:, :-1]]
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


def _ic_error_pairs(ev, adj, u0, initial):
    """(adj_field, u0 - Uhat_0) for each adjoint field of a (space, (rows,
    dof) block) at t = 0: the analytic initial condition minus its coarse
    approximation, weighted."""
    rows = np.broadcast_to(initial.coefficients,
                           (len(adj[1]), initial.space.dof_count))
    return (ev.pair_analytic(u0, adj) - ev.pairs((initial.space, rows), adj))


def _ack_terms(partition, state, adjoints, ev, u0):
    """The A, C and K components, shared by the TPA and STPA decompositions.

    Each family of terms is one stacked call: the residuals of every coarse
    trajectory k < p against every auxiliary adjoint psi_p, the pairings of
    psi_p(T_{k-1}) with the coarse jumps, and the K, C and initial-condition
    pairings.  A is the fsum of its residual rows, jump pairings and
    initial pairings, C and K the fsums of their pairings.  The jumps at
    T_{p-1} (end value of subdomain p-1 minus incoming value of subdomain p,
    in the fine space) take one stacked embedding of each family's end
    values and one of the incoming values, which a subdomain's fine and
    coarse trajectories share (vpar hands each fine solve its coarse row's;
    a state where they differ raises a ValueError naming p), and every
    adjoint value is an index read at its node (see adjoint).
    """
    P_t, nhat_p = partition.P_t, partition.coarse_grids.shape[1] - 1
    if P_t == 1:  # no synchronization time: every family is empty
        return 0.0, 0.0, 0.0
    coarse_adj, fine_adjs, aux_adjs = (adjoints[k]
                                       for k in ("coarse", "fine", "aux"))
    ws, ps = coarse_adj.space, range(2, P_t + 1)
    fine_space, cache = state.fine[0].space, ev.cache

    def embedded(fields):
        """The coefficient rows of fields of one space in the fine space."""
        if any(u.space is not fields[0].space for u in fields):
            raise ValueError("the values of one side of the jumps at the "
                             "synchronization times mix spaces")
        return embed_rows(fields[0].space, np.array(
            [u.coefficients for u in fields]), fine_space, cache)

    incoming = embedded([t.incoming for t in state.coarse[1:]])
    for p in ps:
        if state.fine[p - 1].incoming is not state.coarse[p - 1].incoming:
            raise ValueError(f"the fine and coarse trajectories of subdomain "
                             f"p={p} start from different incoming values")

    def jumps(trajs):
        """The (P_t - 1, dof) jumps of trajs at T_1..T_{P_t-1}."""
        return embedded([t.end for t in trajs[:-1]]) - incoming

    coarse_jumps = jumps(state.coarse)  # each weights C and A terms
    phats = coarse_adj.coeffs[nhat_p - 1:(P_t - 1) * nhat_p:nhat_p, -1]
    K_terms = ev.pairs((ws, phats), (fine_space, jumps(state.fine)))
    C_terms = ev.pairs((ws, np.array([fine_adjs[p - 1].coeffs[0, 0]
                                      for p in ps]) - phats),
                       (fine_space, coarse_jumps))
    residuals = ev.residual([(state.coarse[k - 1], aux_adjs[p])
                             for p in ps for k in range(1, p)])
    jump_keys = [(p, k) for p in ps for k in range(2, p)]  # none at P_t = 2
    jump_terms = ev.pairs(
        (ws, np.array([aux_adjs[p].coeffs[(k - 1) * nhat_p - 1, -1]
                       for p, k in jump_keys]).reshape(-1, ws.dof_count)),
        (fine_space, coarse_jumps[[k - 2 for _, k in jump_keys]]))
    ic_terms = _ic_error_pairs(
        ev, (ws, np.array([aux_adjs[p].coeffs[0, 0] for p in ps])), u0,
        state.initial)
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
    loads = cache.loads(space, [traj.times[1:]], ev.f)[0]
    return prev + np.diff(traj.times)[:, None] * loads


@np.errstate(over="ignore", invalid="ignore")
def dd_split(trajs, weights, decomp, K_s, ev):
    """Thm-2 split of every step's algebraic error into discretization (E^N)
    and Schwarz-iteration (E^K) parts, for trajectories sharing one space
    whose steps were solved by K_s sweeps over decomp from a zero guess.

    weights is a (space, (steps, dof) block) pair: the steps of all trajs,
    in (p, n) order, are weighted by its rows, fields of the space in which
    the spatial adjoints live.  Returns (E_K, E_N), one entry per step, in
    (p, n) order: a step's E_N is the fsum of its (k_s, i) subdomain terms,
    and its E_K the global adjoint's term less E_N.  The steps are split together by the cached solvers of the first
    step's size: one multi-column solve each gives the global adjoints
    (step operator) and replays the steps' sweeps (the forward space's
    sweeper), and one backward recursion of the sweeper the per-sweep
    subdomain adjoints; every value is bitwise that of the step's own split
    if its size has the first's FormCache.per_step key.  The solvers do not
    check finiteness: this split checks each block it stacks once, naming
    dt, p and n of the first step whose global adjoint is non-finite, whose
    replay misses its value by over 1e-12 relative (another decomposition,
    K_s, step solver or step size), whose subdomain adjoints or E_N terms
    are not all finite, and last whose E_K is non-finite.  Its products
    overflow or turn invalid silently, so that under -W error these checks,
    not a RuntimeWarning, report the step.
    """
    cache, (space3, phi), space = ev.cache, weights, trajs[0].space
    where = [(p, n) for p, traj in enumerate(trajs, 1)
             for n in range(1, traj.n_steps + 1)]
    dts = np.concatenate([np.diff(traj.times) for traj in trajs]).tolist()
    # the adjoint-space step-end loads (the "load" entries _step_functionals
    # reads) of all trajectories of one step count by one call
    for _, js in groups([traj.n_steps for traj in trajs]):
        cache.loads(space3, [trajs[j].times[1:] for j in js], ev.f)
    ell = np.concatenate([_step_functionals(traj, space3, ev)
                          for traj in trajs])
    rhs = np.concatenate([_step_functionals(traj, space, ev)
                          for traj in trajs])
    u_n = np.concatenate([traj.coeffs[:, -1] for traj in trajs])
    # one dense M + dt*A per exact dt, not per_step's, built for this call
    # alone: shared across the steps of a linspace grid, it moves 19
    # registry values past 1e-12 relative (D_s by up to 8.9e-7 on
    # pardd_fine_time[r=2], D_k by 1.4e-11)
    M3x, A3x = cache.mass(space3, space), cache.stiffness(space3, space)
    by_dt = groups(dts)
    B3x = {dt: M3x + dt * A3x for dt, _ in by_dt}

    def b3x_times(X):
        """B3x @ x for each row x of X, with the B3x of each row's exact dt."""
        out = np.empty((len(X), space3.dof_count))
        for dt, rows in by_dt:
            out[rows] = matvecs(B3x[dt], X[rows])
        return out

    def check(ok, what):
        """Raise naming dt, p and n of the first step not ok."""
        if not ok.all():
            j = int(np.argmin(ok))
            p, n = where[j]
            raise ValueError(f"{what} (dt={dts[j]:.6g}) at p={p}, n={n}")

    Phi = cache.step_operator(space3, dts[0]).solve(
        matvecs(cache.mass(space3, space3), phi).T).T
    check(np.isfinite(Phi).all(axis=1), "non-finite global spatial adjoint")
    E_K = dots(Phi, ell) - dots(Phi, b3x_times(u_n))
    u, sweeps = AdditiveSchwarz.cached(cache, space, dts[0], decomp).solve(
        rhs.T, 0, K_s)
    off = np.abs(u.T - u_n).max(axis=1, initial=0.0)
    check(off <= 1e-12 * np.abs(u_n).max(axis=1, initial=0.0),
          f"the step value is not that of {K_s} Schwarz sweeps over this "
          f"decomposition or step size")
    terms = np.empty((K_s, decomp.P_s, len(dts)))
    finite = np.ones(len(dts), dtype=bool)
    sweeper = AdditiveSchwarz.cached(cache, space3, dts[0], decomp)
    for ks, i, chi in sweeper.adjoint(phi, K_s):
        finite &= np.isfinite(chi).all(axis=1)
        local = np.ascontiguousarray(sweeps[ks - 1, i].T)
        terms[ks - 1, i] = dots(chi, ell) - dots(chi, b3x_times(local))
    check(finite, "non-finite subdomain spatial adjoint")
    terms = terms.reshape(-1, len(dts)).T
    check(np.isfinite(terms).all(axis=1), "non-finite E_N term")
    E_N = np.array([math.fsum(step) for step in terms])
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
        # each step weighted by its fine adjoint's value at the step's end
        E_K, E_N = dd_split(state.fine, (fine_adjs[0].space, np.concatenate(
            [adj.coeffs[:, -1] for adj in fine_adjs])), decomp, K_s, ev)
    D = np.concatenate([
        ev.residual(list(zip(state.fine, fine_adjs))).ravel(),
        _ic_error_pairs(ev, (fine_adjs[0].space, fine_adjs[0].coeffs[:1, 0]),
                        problem.u0, state.initial)])
    A, C, K = _ack_terms(partition, state, adjoints, ev, problem.u0)
    if decomp is None:
        parts = {"D": math.fsum(D)}
    else:
        parts = {"D_t": math.fsum(np.concatenate([D, -E_K, -E_N])),
                 "D_s": math.fsum(E_N), "D_k": math.fsum(E_K)}
    return {**parts, "K": K, "C": C, "A": A}
