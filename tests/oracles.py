"""Reference implementations that only the tests use.

par_standard is Parareal in its standard form: it keeps only the values at
the synchronization times and re-solves every subdomain at every iteration,
so it also checks that vpar's reuse of converged subdomains changes
nothing.  serial_coarse_handoff is the serial fine solve that Parareal
reproduces after P_t iterations: subdomain by subdomain, each handing the
coarse interpolant of its fine end value to the next.
dg0_equivalence_check re-solves an implicit-Euler trajectory as the dG(0)
Galerkin method, with matrices assembled afresh and a dense solve.
be_per_step steps implicit Euler one step and one vector at a time.
cg_per_slab steps cG(q_t) one slab and one test function at a time.
dd_split_per_step splits one Schwarz-solved step at a time, with its own
replay of the step's sweeps, spatial adjoints and one-vector products.
ack_terms_per_pair forms the terms of the A, C and K components one
residual and one pairing at a time, and fsums them.  sweep_iterates
rebuilds the Schwarz iterates from a sweep history, slab_eval and at
evaluate a Trajectory inside its slabs, node_value reads it at a node of
its grid by index, value_at_node by a search of its times, and slab_index
finds its slabs by a search to NODE_TOL.  embed re-expresses one field in
a richer space.
subdomain_dof_sets_by_coords finds a subdomain's dofs by their coordinates.
fe_space_nodes_per_element builds an FeSpace's node coordinates and element
dof map one element at a time.
"""

import math

import numpy as np
from scipy import linalg as sla

from parapost.mesh import (AssembledOperator, NodalField, assemble_load,
                           assemble_matrix, embed_rows, lagrange_values)
from parapost.schwarz import AdditiveSchwarz
from parapost.timestepping import _cg_time_forms

# how far a time may be from a grid node or slab end and still name it
NODE_TOL = 1e-10


def par_standard(partition, K_t, ic_coarse, fine_solver, coarse_solver,
                 cache):
    """Standard Parareal: synchronization-time values only.

    Returns a list (one entry per iteration) of dicts with keys 'tilde'
    (synchronized values, coarse space), 'bar' (fine values at T_p) and
    'corrections' (fine space).  The synchronized value is the coarse end
    value plus the previous iteration's correction evaluated at the coarse
    space's nodes.
    """
    P_t = partition.P_t

    def g_end(grid, ic):  # one subdomain at a time: a one-row chain
        return coarse_solver(grid[None], ic, [])[0].end

    def f_end(grid, ic):
        return fine_solver(grid[None], [ic])[0].end

    out = []
    prev_corr = [None] * (P_t + 1)
    for k in range(1, K_t + 1):
        tilde, bar, corrs = [], [], []
        u_tilde = ic_coarse
        for p in range(1, P_t + 1):
            g_val = g_end(partition.coarse_grids[p - 1], u_tilde)
            f_val = f_end(partition.fine_grids[p - 1], u_tilde)
            corr = f_val - embed(g_val, f_val.space, cache)
            u_tilde = (g_val if prev_corr[p] is None
                       else g_val + g_val.space.interpolate(prev_corr[p]))
            tilde.append(u_tilde)
            bar.append(f_val)
            corrs.append(corr)
        out.append({"tilde": tilde, "bar": bar, "corrections": corrs})
        prev_corr = [None] + corrs
    return out


def serial_coarse_handoff(partition, ic_coarse, fine_solver):
    """The fine trajectories of a serial solve, subdomain by subdomain: the
    first starts from ic_coarse, each later one from the coarse space's
    nodal interpolant of the previous one's end value."""
    trajs, ic = [], ic_coarse
    for grid in partition.fine_grids:
        trajs.append(fine_solver(grid[None], [ic])[0])
        ic = ic_coarse.space.interpolate(trajs[-1].end)
    return trajs


def dg0_equivalence_check(traj, f):
    """Max nodal deviation between an implicit-Euler trajectory and the
    piecewise-constant-in-time Galerkin solution assembled from its weak form
    (jump term plus right-endpoint quadrature), solved by dense LU."""
    space = traj.space
    M = assemble_matrix(space, space, "mass")
    A = assemble_matrix(space, space, "stiffness")
    Minc = assemble_matrix(space, traj.incoming.space, "mass")
    prev_m = Minc @ traj.incoming.coefficients
    dev = 0.0
    for n in range(1, traj.n_steps + 1):
        dt = traj.times[n] - traj.times[n - 1]
        # ([U]_{n-1}, v) + dt a(U_n, v) = dt l(v)(t_n)
        rhs = prev_m + dt * assemble_load(space, traj.times[n], f)
        u = np.linalg.solve(M + dt * A, rhs)
        dev = max(dev, float(np.max(np.abs(u - traj.coeffs[n - 1, 0])))) if space.dof_count else 0.0
        prev_m = M @ u
    return dev


def be_per_step(space, times, ic, f, cache, decomp=None, K_s=None):
    """Coefficients (steps, 1, dof) of implicit Euler stepped one step at a
    time: step n's right-hand side is the incoming value's cross-space
    pairing M_x u_0 for n = 1 and M U_{n-1} after, each plus dt_n l(t_n)
    assembled alone, and it is solved as one vector by the cache's step
    operator of the step's size or, given decomp, by K_s Schwarz sweeps
    from a zero guess with the cache's sweeper of that size."""
    times = np.asarray(times, dtype=float)
    M = cache.mass(space, space)
    prev = cache.mass(space, ic.space) @ ic.coefficients
    coeffs = np.zeros((len(times) - 1, 1, space.dof_count))
    for n in range(1, len(times)):
        dt = times[n] - times[n - 1]
        rhs = prev + dt * assemble_load(space, times[n], f)
        if decomp is None:
            u = cache.step_operator(space, dt).solve(rhs)
        else:
            u = AdditiveSchwarz.cached(cache, space, dt, decomp).solve(
                rhs, 0, K_s)[0]
        coeffs[n - 1, 0] = u
        prev = M @ u
    return coeffs


def cg_per_slab(space, times, q_t, ic, f):
    """Coefficients (steps, q_t+1, dof) of cG(q_t) stepping done slab by
    slab: per slab and test function m, the time-integrated load and the
    slab start value's terms form block m of the right-hand side, the slab
    matrix is filled block by block, and the solution is copied out node by
    node.  A slab LU is factored for the first step of each size rounded to
    15 digits and reused for the others, as propagate_cg does."""
    times = np.asarray(times, dtype=float)
    M = assemble_matrix(space, space, "mass")
    A = assemble_matrix(space, space, "stiffness")
    alpha, beta, sq, Pw = _cg_time_forms(q_t)
    ndof = space.dof_count
    Minc = assemble_matrix(space, ic.space, "mass")
    prev = AssembledOperator("mass", space, M, A, 0.0).solve(
        Minc @ ic.coefficients)
    if f is not None:
        loads = assemble_load(
            space, times[:-1, None] + np.diff(times)[:, None] * sq, f)
    coeffs = np.zeros((len(times) - 1, q_t + 1, ndof))
    lus = {}
    for n in range(len(times) - 1):
        dt = times[n + 1] - times[n]
        key = round(dt, 15)
        if key not in lus:
            K = np.zeros((q_t * ndof, q_t * ndof))
            for m in range(q_t):
                for j in range(1, q_t + 1):
                    K[m * ndof:(m + 1) * ndof, (j - 1) * ndof:j * ndof] = (
                        alpha[m, j] * M + dt * beta[m, j] * A)
            lus[key] = sla.lu_factor(K)
        F = np.zeros(q_t * ndof)
        for m in range(q_t):
            block = F[m * ndof:(m + 1) * ndof]
            if f is not None:
                block[:] = dt * Pw[m] @ loads[n]
            block -= alpha[m, 0] * (M @ prev) + dt * beta[m, 0] * (A @ prev)
        sol = sla.lu_solve(lus[key], F)
        coeffs[n, 0] = prev
        for j in range(1, q_t + 1):
            coeffs[n, j] = sol[(j - 1) * ndof:j * ndof]
        prev = coeffs[n, -1]
    return coeffs


def subdomain_adjoints(sweeper, weight, K_s):
    """chi[k_s - 1][i], the per-sweep subdomain adjoints of one weight field,
    by the backward recursion run one subdomain and one sweep at a time
    with one-vector solves and products."""
    Mm, Bm = sweeper._counted
    tau, P_s = sweeper.decomp.tau, sweeper.decomp.P_s
    ndof = sweeper.space.dof_count
    chi = [[np.zeros(ndof) for _ in range(P_s)] for _ in range(K_s)]
    tMw = tau * (Mm @ weight.coefficients)
    for i, (interior, _) in enumerate(sweeper.sets):
        running = np.zeros(len(interior))  # sum_{l > k_s} chi_i^l
        for ks in range(K_s, 0, -1):
            x = sweeper.local_solve(i, tMw[interior] - tau * (Bm[i] @ running))
            chi[ks - 1][i][interior] = x
            running = running + x
    return chi


def dd_split_per_step(traj, n, decomp, K_s, phi_val, ev, solve_cache):
    """(E_K, E_N) of step n of a trajectory whose steps were solved by K_s
    Schwarz sweeps over decomp, weighted by phi_val.  The step's sweeps are
    replayed by a one-vector solve with the sweeper of solve_cache, the
    cache the trajectory was solved with; the global adjoint is solved by
    ev.cache's step operator and the subdomain ones by its sweeper of the
    step's dt, each looked up for this step alone.  E_N is the math.fsum of
    the (k_s, i) terms, each formed alone."""
    cache, space3 = ev.cache, phi_val.space
    dt = traj.times[n] - traj.times[n - 1]

    def ell(space):
        """Step n's right-hand functional on the fields of a space."""
        if n == 1:
            prev = (cache.mass(space, traj.incoming.space)
                    @ traj.incoming.coefficients)
        else:
            prev = (cache.mass(space, traj.space)
                    @ node_value(traj, n - 1).coefficients)
        return prev + dt * cache.loads(space, [traj.times[1:]], ev.f)[0][n - 1]

    _, sweeps = AdditiveSchwarz.cached(solve_cache, traj.space, dt, decomp
                                       ).solve(ell(traj.space), 0, K_s)
    B3x = (cache.mass(space3, traj.space)
           + dt * cache.stiffness(space3, traj.space))
    ell3 = ell(space3)
    Phi = cache.step_operator(space3, dt).solve(
        cache.mass(space3, space3) @ phi_val.coefficients)
    sweeper = AdditiveSchwarz.cached(cache, space3, dt, decomp)
    chi = subdomain_adjoints(sweeper, phi_val, K_s)
    terms = []
    for ks in range(1, K_s + 1):
        for i in range(decomp.P_s):
            c = chi[ks - 1][i]
            terms.append(c @ ell3 - c @ (B3x @ sweeps[ks - 1, i]))
    E_N = math.fsum(terms)
    u_n = node_value(traj, n).coefficients
    E_K = Phi @ ell3 - Phi @ (B3x @ u_n) - E_N
    return E_K, E_N


def ack_terms_per_pair(partition, state, adjoints, ev, u0):
    """(A, C, K) by a double loop over (k, p): per p, one one-pair residual
    call per coarse trajectory k < p and one pairing x @ G @ y per jump,
    each term computed alone; each component is the math.fsum of its terms,
    A's those of A_p = sum_k R(Uhat_k, psi_p)
    + sum_k (psi_p(T_{k-1}), [Uhat]_{k-1}) + (psi_p(0), u_0 - Uhat_0)
    over p.  The jumps at T_{p-1} are the end value of subdomain p-1 minus
    the incoming value of subdomain p, both embedded in the fine space."""
    cache = ev.cache
    fine_space = state.fine[0].space

    def pair(a, b):
        return a.coefficients @ cache.mass(a.space, b.space) @ b.coefficients

    def ic_error_pair(adj_field):
        u0_load = assemble_load(adj_field.space, 0.0, lambda x, t: u0(x))
        return u0_load @ adj_field.coefficients - pair(state.initial,
                                                       adj_field)

    def jump(trajs, p):
        return (embed(trajs[p - 2].end, fine_space, cache)
                - embed(trajs[p - 1].incoming, fine_space, cache))

    coarse_adj, fine_adjs = adjoints["coarse"], adjoints["fine"]
    aux_adjs = adjoints["aux"]
    P_t = partition.P_t
    coarse_jumps = {p: jump(state.coarse, p) for p in range(2, P_t + 1)}
    K, C, A = [], [], []
    for p in range(2, P_t + 1):
        t_sync = partition.sync_times[p - 1]
        phat = value_at_node(coarse_adj, t_sync)
        pfine = value_at_node(fine_adjs[p - 1], t_sync)
        K.append(pair(phat, jump(state.fine, p)))
        C.append(pair(pfine - phat, coarse_jumps[p]))
        aux = aux_adjs[p]
        for k in range(1, p):
            A.extend(ev.residual([(state.coarse[k - 1], aux)])[0])
        for k in range(2, p):
            A.append(pair(value_at_node(aux, partition.sync_times[k - 1]),
                          coarse_jumps[k]))
        A.append(ic_error_pair(value_at_node(aux, 0.0)))
    return math.fsum(A), math.fsum(C), math.fsum(K)


def sweep_iterates(guess, sweeps, tau):
    """The iterates u^0 = guess, ..., u^{K_s} of a Schwarz solve, rebuilt
    from its sweep history: u^k = (1 - tau P_s) u^{k-1} + tau sum_i
    sweeps[k-1, i], summed in subdomain order as AdditiveSchwarz.solve
    blends them."""
    P_s = sweeps.shape[1]
    iterates = [np.array(guess, dtype=float)]
    for sweep in sweeps:
        u = (1.0 - tau * P_s) * iterates[-1]
        for u_loc in sweep:
            u = u + tau * u_loc
        iterates.append(u)
    return iterates


def slab_eval(traj, n, s):
    """Coefficient vectors of a Trajectory at local coordinates s in [0,1]
    of slab n, shape (len(s), dof)."""
    return lagrange_values(traj.q_t, s).T @ traj.coeffs[n]


def at(traj, t):
    """A Trajectory's value at a time in its grid's span (to NODE_TOL);
    outside, raises.

    At an interior node t_n this is slab n's start value: for q_t = 0 the
    right limit U_{n+1}, where node_value(n) gives U_n; at the last node both
    give the end value."""
    times = traj.times
    if not times[0] - NODE_TOL <= t <= times[-1] + NODE_TOL:
        raise ValueError(f"t={t} is outside the grid span "
                         f"[{times[0]}, {times[-1]}]")
    n = int(np.clip(np.searchsorted(times, t, side="right") - 1, 0,
                    traj.n_steps - 1))
    s = (t - times[n]) / (times[n + 1] - times[n])
    return NodalField(traj.space, slab_eval(traj, n, [s])[0])


def node_value(traj, n):
    """A Trajectory's nodal value at times[n]: slab n-1's end value (U_n for
    q_t = 0), or for n = 0 slab 0's start value, which a q_t = 0 field
    lacks."""
    if n == 0 and traj.q_t == 0:
        raise ValueError("a q_t = 0 field has no value at times[0]; "
                         "read its incoming value")
    c = traj.coeffs[n - 1, -1] if n else traj.coeffs[0, 0]
    return NodalField(traj.space, c)


def value_at_node(traj, t):
    """A Trajectory's exact nodal value at a node of its grid (to NODE_TOL),
    as its node_value, found by a search of its times."""
    n = int(np.argmin(np.abs(traj.times - t)))
    if abs(traj.times[n] - t) > NODE_TOL:
        raise ValueError(f"{t} is not a node of this grid")
    return node_value(traj, n)


def slab_index(traj, t0, t1):
    """Index of the slab [t0, t1] of a Trajectory's grid (ends to
    NODE_TOL), or for arrays of ends an array of indices, by one search;
    raises naming the first interval that is not a slab."""
    t0, t1 = np.asarray(t0, dtype=float), np.asarray(t1, dtype=float)
    n = np.searchsorted(traj.times, 0.5 * (t0 + t1)) - 1
    m = np.clip(n, 0, traj.n_steps - 1)
    ok = ((n == m) & (np.abs(traj.times[m] - t0) < NODE_TOL)
          & (np.abs(traj.times[m + 1] - t1) < NODE_TOL))
    if not ok.all():
        j = np.argmin(ok)
        raise ValueError(f"[{t0.flat[j]}, {t1.flat[j]}] is not a slab of "
                         f"this grid")
    return n if n.ndim else int(n)


def embed(field, target_space, cache):
    """Exact re-expression of a field in a richer nested space (same mesh),
    by one one-row embed_rows call."""
    if field.space is target_space:
        return field
    return NodalField(target_space, embed_rows(
        field.space, field.coefficients[None], target_space, cache)[0])


def subdomain_dof_sets_by_coords(space, decomp, i):
    """(interior, trace) dof indices of subdomain i in a space, found by
    comparing the dof coordinates with the subdomain's end points to within
    1e-12 of the domain length: interior strictly between them, trace on
    them."""
    lo, hi = decomp.ranges[i]
    x_lo = space.mesh.boundaries[lo]
    x_hi = space.mesh.boundaries[hi]
    coords = space.dof_coords
    tol = 1e-12 * (space.mesh.b - space.mesh.a)
    inside = (coords > x_lo + tol) & (coords < x_hi - tol)
    on_trace = (np.abs(coords - x_lo) <= tol) | (np.abs(coords - x_hi) <= tol)
    return np.nonzero(inside)[0], np.nonzero(on_trace)[0]


def fe_space_nodes_per_element(mesh, q):
    """(node coordinates, element -> dof map) of the degree-q FeSpace on
    mesh, built element by element: element e writes nodes e*q ... e*q + q,
    so a shared node keeps the next element's x0."""
    N = mesh.n_elements
    n_nodes = q * N + 1
    nodes = np.empty(n_nodes)
    ref = np.linspace(0.0, 1.0, q + 1)
    for e in range(N):
        x0, x1 = mesh.boundaries[e], mesh.boundaries[e + 1]
        nodes[e * q : e * q + q + 1] = x0 + (x1 - x0) * ref
    emap = np.empty((N, q + 1), dtype=int)
    for e in range(N):
        g = e * q + np.arange(q + 1)
        emap[e] = np.where((g == 0) | (g == n_nodes - 1), -1, g - 1)
    return nodes, emap
