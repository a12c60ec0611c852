"""Temporal partitions and the coarse/fine propagators.

Implicit Euler, with each step solved directly or by additive Schwarz
iteration, and cG(q_t) continuous-in-time Galerkin stepping run through one
slab driver, _step_slabs, and return the one space-time field type,
Trajectory: implicit Euler is its q_t = 0 case, the piecewise-constant-in-
time Galerkin method dG(0), and cG(q_t) its q_t >= 1 case.  Propagations
on distinct temporal subdomains share no mutable state.
"""
import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import legendre

from . import mesh
from ._lapack import dgetrf, dgetrs
from .mesh import (
    NodalField,
    _read_only,
    gauss_rule,
    lagrange_values,
    lagrange_derivs,
    lapack_solution,
)
from .schwarz import AdditiveSchwarz


@dataclass(frozen=True)
class TimePartition:
    """P_t temporal subdomains; coarse_grids and fine_grids are read-only
    (P_t, steps + 1) stacks, row p - 1 the grid of subdomain p."""

    T: float
    P_t: int
    Nhat_t: int
    r: int
    sync_times: np.ndarray
    coarse_grids: np.ndarray
    fine_grids: np.ndarray

    @staticmethod
    def uniform(T, P_t, Nhat_t, r):
        if P_t < 1 or Nhat_t < 1 or r < 1:
            raise ValueError("P_t, Nhat_t and r must be positive")
        if Nhat_t % P_t != 0:
            raise ValueError(f"Nhat_t={Nhat_t} must be divisible by P_t={P_t}")
        sync = _read_only(np.linspace(0.0, T, P_t + 1))
        nhat_p = Nhat_t // P_t
        # row p is bitwise np.linspace(sync[p], sync[p + 1], n + 1)
        coarse, fine = (
            _read_only(np.linspace(sync[:-1], sync[1:], n + 1, axis=1))
            for n in (nhat_p, r * nhat_p))
        return TimePartition(T, P_t, Nhat_t, r, sync, coarse, fine)

    @property
    def coarse_grid(self):
        """The global coarse grid over [0, T], the subdomains' coarse grids
        joined at the synchronization times."""
        return np.append(self.coarse_grids[:, :-1], self.sync_times[-1])


class Trajectory:
    """Space-time Galerkin field on a step grid: per slab, q_t+1 time-nodal
    coefficient vectors, coeffs of shape (steps, q_t+1, dof).

    q_t >= 1 is cG(q_t): coeffs[n, j] is the value at time node j
    (equispaced in slab n), and continuity means coeffs[n, -1] ==
    coeffs[n+1, 0].  q_t = 0 is implicit Euler read as dG(0): coeffs[n, 0] is
    the value U_{n+1} held on the whole slab (t_n, t_{n+1}], and the field
    jumps at every node.  Forward solutions of both integrators and the
    backward adjoints are all of this type; incoming is the value fed to a
    forward solve (possibly in another space), or an adjoint's terminal
    datum.  A Schwarz-swept solve keeps only its step values: the split of
    its steps (estimator.dd_split) replays the iteration from them.
    """

    def __init__(self, space, times, q_t, coeffs, incoming):
        self.space = space
        self.times = np.asarray(times, dtype=float)
        self.q_t = q_t
        self.coeffs = coeffs
        self.incoming = incoming
        want = (len(self.times) - 1, q_t + 1, space.dof_count)
        if q_t < 0 or coeffs.shape != want:
            raise ValueError(f"coefficients of shape {coeffs.shape} do not fit "
                             f"q_t={q_t} on this grid: want {want}")

    @property
    def n_steps(self):
        return len(self.times) - 1

    @property
    def end(self):
        """The value at the last node: the last slab's end value."""
        return NodalField(self.space, self.coeffs[-1, -1])


def _check_finite(coeffs, grids, first=None):
    """Raise the _column_error of the first column j of a (P, steps, nodes,
    dof) stack of coefficients that is not all finite, naming its first
    such step n and end time t_n.  A ragged stack gives first as _step_slabs
    takes it: step n of column j is slab first[j] + n - 1.  One isfinite
    pass over the whole stack, which cannot overflow as a sum can, clears
    it; only if that fails are the unset slabs before first[j] masked out."""
    if np.isfinite(coeffs).all():
        return
    first = [0] * len(coeffs) if first is None else first
    solved = np.arange(coeffs.shape[1]) >= np.asarray(first)[:, None]
    bad = solved & ~np.isfinite(coeffs).all(axis=(2, 3))  # (P, steps)
    if bad.any():
        j, m = divmod(int(np.argmax(bad)), bad.shape[1])
        raise _column_error(j, "non-finite solution at step n="
                            f"{m - first[j] + 1}, t={grids[j, m + 1]:.6g}")


def _column_error(j, message):
    """The ValueError of a stacked solve's failing column j, with j as its
    column attribute, so a caller that knows its rows names the row and
    re-runs nothing."""
    exc = ValueError(message)
    exc.column = j
    return exc


def _largest_time(grids):
    """The largest |time| of a (P, n) stack (not copied) or a sequence of
    step grids, by one plain reduction, which a NaN propagates; a non-finite
    time raises the _column_error naming its first column j, node n and t."""
    every = grids if isinstance(grids, np.ndarray) else np.concatenate(grids)
    top = float(np.abs(every).max())
    if not math.isfinite(top):
        j = next(j for j, g in enumerate(grids) if not np.isfinite(g).all())
        n = int(np.argmin(np.isfinite(grids[j])))
        raise _column_error(j, f"non-finite time at node n={n}, "
                               f"t={grids[j][n]}")
    return top


def _step_sizes(grids, first, top=None, chained=False):
    """(dts, dt) of a (P, steps+1) stack of grids: its step sizes (np.diff's
    values, without its call overhead) and the list of its calls' step sizes,
    each the first solved one (first as _step_slabs takes it, a list), which
    every solved step must match to 1e-12 relative plus 8 ulps of top, the
    largest |time| the grids come from (by default their own, by _largest_time,
    before any difference), as a linspace grid's steps spread by up to 2; else
    a _column_error names the first step that does not, and its end time.  Each
    chained row is a call, of its own top."""
    if top is None:
        top = _largest_time(grids)
    dts = grids[:, 1:] - grids[:, :-1]
    if chained:
        dt, top = dts[:, :1], np.abs(grids).max(axis=1, keepdims=True)
        ulp = np.spacing(top)
    else:
        dt, ulp = float(dts[0, first[0]]), math.ulp(top)
    off = np.abs(dts - dt)
    for j in range(first.count(0), len(first)):  # the later-starting columns
        off[j, :first[j]] = 0.0  # whose unset slabs are not read
    tol = 1e-12 * abs(dt) + 8 * ulp
    if not (off <= tol).all():
        j, m = divmod(int(np.argmax(~(off <= tol))), off.shape[1])
        raise _column_error(j, f"step n={m - first[j] + 1}, t="
                               f"{grids[j, m + 1]:.6g}, has size "
                               f"{dts[j, m]:.6g}, not the call's "
                               f"{dts[j, 0] if chained else dt:.6g}")
    return dts, dt[:, 0].tolist() if chained else [dt]


def _as_stack(times, ic, jumps=None):
    """(grids, incomings, stacked) of a propagation's arguments: one step
    grid with its incoming value, or a (P, steps+1) stack of grids with a
    sequence of P incoming values, or a chain's one and P - 1 jumps, as a
    (P, steps+1) array and a list."""
    times = np.asarray(times, dtype=float)
    stacked = times.ndim == 2
    grids = times if stacked else times[None]
    ics = list(ic) if stacked and jumps is None else [ic]
    if grids.shape[1] < 2:
        raise ValueError("a step grid needs at least two times")
    n = len(ics) if jumps is None else 1 + len(jumps)  # a chain's: ic, jumps
    if n != len(grids):
        raise ValueError(f"{len(grids)} grids but {n} incoming values")
    return grids, ics, stacked


def _propagate(space, times, q_t, ic, f, cache, decomp=None, K_s=None,
               jumps=None):
    """The dG(0) (q_t = 0) or cG(q_t) Trajectory of one step grid times from
    its incoming value ic or, given a (P, steps+1) stack of grids with equal
    step counts and a sequence ic of P incoming values, the list of P
    Trajectories, stepped together by _step_slabs, each bitwise its own
    single-grid call's (FormCache.per_step says when); given jumps, a chain
    (_step_slabs) from ic, each row its own call from its incoming value.
    f=None is a homogeneous problem: no load is assembled.  A non-finite
    time, a step of another size (_step_sizes) or a non-finite step value
    (_check_finite) raises a ValueError naming the first such node or step
    n of the first such column, and its time t, with that column's index in
    the stack as its column attribute."""
    grids, ics, stacked = _as_stack(times, ic, jumps)
    coeffs = _step_slabs(space, grids, q_t, ics, f, cache, decomp, K_s,
                         jumps=jumps)
    _check_finite(coeffs, grids)
    trajs = [Trajectory(space, grids[j], q_t, coeffs[j], ics[j])
             for j in range(len(ics))]
    return trajs if stacked else trajs[0]


def propagate_be(space, times, ic, f, cache, decomp=None, K_s=None,
                 jumps=None):
    """Implicit Euler, (M + dt A) U_n = (U_{n-1}, .) + dt l(t_n), by
    _propagate as dG(0): each step is solved directly (banded Cholesky) or,
    given an OverlapDecomposition, by K_s additive Schwarz iterations from
    a zero guess, keeping only the final iterate.  An incoming value may
    live in another space on the same mesh: its first-step term is the
    exact cross-space L2 pairing."""
    if decomp is not None and (K_s is None or K_s < 1):
        raise ValueError("K_s must be >= 1")
    return _propagate(space, times, 0, ic, f, cache, decomp, K_s, jumps)


def propagate_cg(space, times, q_t, ic, f, cache, jumps=None):
    """cG(q_t) time stepping, with test functions of time degree q_t - 1, by
    _propagate; the first slab starts from the incoming value's L2
    projection into the solve space."""
    if q_t < 1:
        raise ValueError("q_t must be >= 1")
    return _propagate(space, times, q_t, ic, f, cache, jumps=jumps)


def _cg_time_forms(q_t):
    """Time-integration tables for one cG(q_t) slab on the reference interval.

    Test functions are Legendre polynomials P_m of degree < q_t, integrated
    by the (q_t+3)-point Gauss rule (s, w).  Returns (alpha, beta, s, Pw)
    with alpha[m, j] = int lam_j' P_m ds, beta[m, j] = int lam_j P_m ds and
    Pw[m, i] = P_m(s_i) w_i, the weights of a time-integrated load, all
    read-only, as a FormCache shares them with every later caller.
    """
    s, w = gauss_rule(q_t + 3)
    lam = lagrange_values(q_t, s)
    dlam = lagrange_derivs(q_t, s)
    # Legendre on [0,1]: P_m is the series of coefficient vector e_m
    P = np.array([legendre.legval(2 * s - 1, e) for e in np.eye(q_t)])
    Pw = P * w[None, :]
    return tuple(map(_read_only, (Pw @ dlam.T, Pw @ lam.T, s, Pw)))


def _slab_lu(M, A, alpha, beta, dt):
    """LU factors (lu, piv) of the cG(q_t) slab matrix of blocks alpha[m, j]
    M + dt beta[m, j] A (m < q_t, 1 <= j <= q_t), built and factored in one
    Fortran-order array."""
    q_t, n = len(alpha), len(M)
    S = np.empty((q_t * n, q_t * n), order="F")
    for m in range(q_t):
        for j in range(1, q_t + 1):
            S[m * n:(m + 1) * n, (j - 1) * n:j * n] = (
                alpha[m, j] * M + dt * beta[m, j] * A)
    lu, piv, info = dgetrf(S, overwrite_a=True)
    return lapack_solution("dgetrf", (lu, piv), info)


_QUAD_BLOCK = 2**20  # values of a cG stack's quadrature loads per call


def _slab_loads(space, grids, q_t, f, cache):
    """Per grid of a (P, steps+1) stack, each slab's load integrated against
    its time test functions, a read-only (steps, max(q_t, 1), dof) block.
    dG(0)'s row [n, 0] is l(t_n), the cache's step-end block, which
    _step_slabs weights by dt_n for a whole stack at once.  cG(q_t)'s row
    [n, m] is dt_n sum_i Pw[m, i] l(t_n + dt_n s_i) (see _cg_time_forms),
    the cache's "cg_load" entry per (space, q_t, f, exact grid).  The grids
    not yet cached are assembled by one mesh.assemble_load call, at every
    cG slab's q_t+3 quadrature times (a block the cache does not keep, by
    as many calls as keep it within _QUAD_BLOCK values), each grid's block
    bitwise that of its own one-grid call."""
    if not q_t:
        return [b[:, None] for b in cache.loads(space, grids[:, 1:], f)]

    def build(js):
        _, _, s, Pw = _time_forms(q_t, cache)
        dt = grids[js, 1:] - grids[js, :-1]
        out = np.empty(dt.shape + (q_t, space.dof_count))
        per = max(1, _QUAD_BLOCK // (dt[0].size * len(s) * out.shape[-1]))
        for a in range(0, len(js), per):
            d = dt[a:a + per]  # block: (grids, steps, q_t+3, dof) loads
            block = mesh.assemble_load(
                space, grids[js[a:a + per], :-1, None] + d[..., None] * s, f)
            for m in range(q_t):
                # one vector-matrix product per slab: a (q_t, q_t+3) matrix
                # product per slab sums in another order for q_t >= 2
                out[a:a + per, :, m] = (
                    (d[..., None, None] * Pw[m]) @ block)[..., 0, :]
        return map(_read_only, out)
    raw, n = grids.tobytes(), grids.shape[1] * grids.itemsize  # g.tobytes()
    return cache.factors([("cg_load", space, q_t, f, raw[j:j + n])
                          for j in range(0, len(raw), n)], build)


def _time_forms(q_t, cache):
    """The cache's _cg_time_forms(q_t), built once per degree."""
    return cache.factor(("cg_time_forms", q_t), lambda: _cg_time_forms(q_t))


def _slab_solver(space, q_t, dt, cache, decomp=None, K_s=None):
    """(solve, a0, b0, M, A) of a call of step size dt: solve(rows)
    overwrites each row of a (k, nodes * dof) block of slab right-hand sides
    with its slab solution; a0 and b0 are alpha[:, 0] and beta[:, 0].  dG(0)
    solves by the step operator M + dt A or, given decomp, K_s Schwarz
    sweeps, with a0 = -1 and b0 None: a zero factor forms no product (0 *
    inf is NaN).  cG(q_t) solves by its "cg_slab" entry (_slab_lu's LU, a0,
    b0 and the cache's M and A), by one single-column dgetrs per row (a
    multi-column one sums in another order), checking the infos once."""
    if not q_t:
        op = (cache.step_operator(space, dt) if decomp is None
              else AdditiveSchwarz.cached(cache, space, dt, decomp))

        def solve(rows):
            b = rows.T
            rows[...] = (op.solve(b) if decomp is None
                         else op.solve(b, 0, K_s)[0]).T
        return solve, -1.0, None, cache.mass(space, space), None

    def slab():  # the entry holds no reference to the cache
        M, A = cache.mass(space, space), cache.stiffness(space, space)
        alpha, beta, _, _ = _time_forms(q_t, cache)
        return (*_slab_lu(M, A, alpha, beta, dt), alpha[:, :1, None],
                beta[:, :1, None], M, A)
    lu, piv, a0, b0, M, A = cache.per_step(space, dt, slab, "cg_slab", q_t)

    def solve(rows):
        infos = [dgetrs(lu, piv, b, 0, 1)[1] for b in rows]
        lapack_solution("dgetrs", None, next(filter(None, infos), 0))
    return solve, a0, b0, M, A


def _step_slabs(space, grids, q_t, ics, f, cache, decomp=None, K_s=None,
                reverse=None, first=None, jumps=None):
    """The (P, steps, q_t+1, dof) coefficients of the dG(0) (q_t = 0) or
    cG(q_t) solutions on a (P, steps+1) stack of grids from incoming values
    ics; given reverse, the largest |time| of the grids these time-reverse,
    each column is stored in reversed slab and time-node order, which is
    the forward order of a time-reversed solve.  A ragged cG stack gives
    first, the nondecreasing slab each column starts at (all end at the
    last), so the active columns are a prefix; earlier slabs are unset.
    Given jumps (each None or a field of the solve space, checked once),
    the stack is a chain, solved one row after another: ics holds row 0's
    incoming value and gains each later row j's, row j-1's end value plus
    jumps[j-1].

    Slab n solves sum_j (alpha[m, j] M + dt beta[m, j] A) U_j = L_m - (a0[m]
    M + dt b0[m] A) U_0 for its unknown nodes U_j, with L its loads
    (_slab_loads, for the whole stack) and U_0 the previous slab's end
    value.  On the first slab dG(0)'s M U_0 is the incoming value's
    cross-space pairing, and cG's U_0 that pairing's L2 projection, for all
    columns before the slab loop by one multi-column banded solve, or for a
    chained row as it starts.  Per call, or chained row, it uses the
    _slab_solver of the first solved step's size (_step_sizes), looked up
    once per distinct size.  Per slab it forms all active columns'
    right-hand sides, each with its own exact dt, by one stacked product of
    M and one of A, and solves them in place.  Nothing here checks the
    solutions' finiteness: the callers do, naming what they solve.
    """
    P, n_slabs, nodes = grids.shape[0], grids.shape[1] - 1, max(q_t, 1)
    first = [0] * P if first is None else list(first)
    dts, dt = _step_sizes(grids, first, reverse, jumps is not None)
    if jumps and any(u is not None and u.space is not space for u in jumps):
        raise ValueError("a chain's jumps must live in its solve space")
    # a cG slab LU takes a dense slab-sized matrix: allocate after building it
    solvers = {dt[0]: _slab_solver(space, q_t, dt[0], cache, decomp, K_s)}
    solve, a0, b0, M, A = solvers[dt[0]]
    loads = None  # a homogeneous problem subtracts from the scalar 0.0
    if f is not None:  # (steps, P, nodes, dof, 1); one grid views its block
        blocks = _slab_loads(space, grids, q_t, f, cache)
        loads = (blocks[0][:, None] if P == 1
                 else np.stack(blocks, 1))[..., None]
        if not q_t:  # dG(0)'s right-endpoint rule: dt_n l(t_n)
            loads = dts.T[:, :, None, None, None] * loads
    out = np.empty((P, n_slabs, q_t + 1, space.dof_count))
    coeffs = out if reverse is None else out[:, ::-1, ::-1]
    # per slab and column dt * beta[m, 0], as the single-grid products form it
    dt_b0 = None if b0 is None else np.multiply.outer(dts.T, b0)
    # F holds every column's slab right-hand side, which the solves overwrite
    # with the solution; prev views its last block, the next start value, as
    # (dof, 1), so a stacked product with it is one gemv (see mesh.matvecs),
    # and a cG column's start value until its first slab
    F = np.empty((P, nodes, space.dof_count, 1))
    # each incoming value's cross-space pairing (dG(0)'s first-slab M U_0)
    M0 = cache.mass(space, ics[0].space)  # and one lookup per row elsewhere
    paired = np.array([(M0 if u.space is ics[0].space else cache.mass(
        space, u.space)) @ u.coefficients for u in ics])
    if q_t:
        mass_op = cache.step_operator(space, 0.0)
        starts = mass_op.solve(paired.T).T
        F[:len(ics), -1, :, 0] = coeffs[:len(ics), 0, 0] = starts
    # the columns lo..hi-1 active on slabs s..e-1: a prefix, or a chained row
    bounds = sorted(set(first)) + [n_slabs]
    segments = ([(0, bisect_right(first, s), s, e)
                 for s, e in zip(bounds, bounds[1:])] if jumps is None
                else [(j, j + 1, 0, n_slabs) for j in range(P)])
    for lo, hi, s, e in segments:
        if lo:  # a chained row: its incoming value, solver and start value
            u = coeffs[lo - 1, -1, -1]
            if jumps[lo - 1] is not None:
                u = u + jumps[lo - 1].coefficients
            ics.append(NodalField(space, u))
            solve, a0, b0, M, A = solvers.get(dt[lo]) or solvers.setdefault(
                dt[lo], _slab_solver(space, q_t, dt[lo], cache, decomp, K_s))
            paired = (M @ u)[None]
            if q_t:
                F[lo, -1, :, 0] = coeffs[lo, 0, 0] = mass_op.solve(paired.T).T
        Fk, prev = F[lo:hi], F[lo:hi, -1:]
        loads_k = None if loads is None else loads[:, lo:hi]
        rows_k = Fk.reshape(hi - lo, -1)  # one row per column, a view of F
        sol_k, coeffs_k = Fk[..., 0], coeffs[lo:hi, :, -nodes:]
        dt_b0_k = None if dt_b0 is None else dt_b0[:, lo:hi]
        for n in range(s, e):
            terms = a0 * (np.matmul(M, prev) if n or q_t
                          else paired[:hi - lo, None, :, None])
            if dt_b0_k is not None:
                terms += dt_b0_k[n] * np.matmul(A, prev)
            np.subtract(0.0 if loads_k is None else loads_k[n], terms, out=Fk)
            solve(rows_k)
            coeffs_k[:, n] = sol_k
    if q_t:
        coeffs[:, 1:, 0] = coeffs[:, :-1, -1]
        for j in range(first.count(0), P):  # the later-starting columns
            coeffs[j, first[j], 0] = starts[j]
    return out
