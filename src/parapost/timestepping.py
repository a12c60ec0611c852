"""Temporal partitions and the coarse/fine propagators.

Implicit Euler, with each step solved directly or by additive Schwarz
iteration, and cG(q_t) continuous-in-time Galerkin stepping.  Both return the
one space-time field type, Trajectory: implicit Euler is its q_t = 0 case,
the piecewise-constant-in-time Galerkin method dG(0), and cG(q_t) its
q_t >= 1 case.  Propagations on distinct temporal subdomains share no
mutable state.
"""

from dataclasses import dataclass

import numpy as np
from scipy import linalg as sla
from scipy.linalg.lapack import dgetrs

from .mesh import (
    NodalField,
    _read_only,
    gauss_rule,
    groups,
    lagrange_values,
    lagrange_derivs,
    lapack_solution,
    matvecs,
)
from .schwarz import AdditiveSchwarz

# how far a time may be from a grid node or slab end and still name it
NODE_TOL = 1e-10


@dataclass(frozen=True)
class TimePartition:
    """P_t temporal subdomains with per-subdomain coarse and fine step grids."""

    T: float
    P_t: int
    Nhat_t: int
    r: int
    sync_times: np.ndarray
    coarse_grids: tuple
    fine_grids: tuple

    @staticmethod
    def uniform(T, P_t, Nhat_t, r):
        if P_t < 1 or Nhat_t < 1 or r < 1:
            raise ValueError("P_t, Nhat_t and r must be positive")
        if Nhat_t % P_t != 0:
            raise ValueError(f"Nhat_t={Nhat_t} must be divisible by P_t={P_t}")
        sync = np.linspace(0.0, T, P_t + 1)
        nhat_p = Nhat_t // P_t
        coarse, fine = [], []
        for p in range(P_t):
            coarse.append(np.linspace(sync[p], sync[p + 1], nhat_p + 1))
            fine.append(np.linspace(sync[p], sync[p + 1], r * nhat_p + 1))
        return TimePartition(T, P_t, Nhat_t, r, sync, tuple(coarse), tuple(fine))

    @property
    def N_t(self):
        return self.r * self.Nhat_t

    def coarse_grid_upto(self, p):
        """Concatenated coarse grid over [0, T_{p-1}] (subdomains 1..p-1)."""
        parts = [self.coarse_grids[0]]
        for k in range(1, p - 1):
            parts.append(self.coarse_grids[k][1:])
        return np.concatenate(parts)

    def coarse_grid_global(self):
        return self.coarse_grid_upto(self.P_t + 1)


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

    def field(self, n):
        """Nodal value at times[n]: slab n-1's end value (U_n for q_t = 0), or
        for n = 0 slab 0's start value, which a q_t = 0 field lacks."""
        if n == 0 and self.q_t == 0:
            raise ValueError("a q_t = 0 field has no value at times[0]; "
                             "read its incoming value")
        c = self.coeffs[n - 1, -1] if n else self.coeffs[0, 0]
        return NodalField(self.space, c)

    @property
    def end(self):
        return self.field(self.n_steps)

    def slab_index(self, t0, t1):
        """Index of the slab [t0, t1] (ends to NODE_TOL); raises if the
        interval is not a slab."""
        n = int(np.searchsorted(self.times, 0.5 * (t0 + t1)) - 1)
        if not (0 <= n < self.n_steps
                and abs(self.times[n] - t0) < NODE_TOL
                and abs(self.times[n + 1] - t1) < NODE_TOL):
            raise ValueError(f"[{t0}, {t1}] is not a slab of this grid")
        return n

    def value_at_node(self, t):
        """Exact nodal value at a grid node (to NODE_TOL), as field(n)."""
        k = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[k] - t) > NODE_TOL:
            raise ValueError(f"{t} is not a node of this grid")
        return self.field(k)


def _require_finite(coeffs, times):
    """Raise a ValueError naming the first step n whose coefficients
    (coeffs[n-1]) are not all finite, and its end time t_n."""
    bad = ~np.isfinite(coeffs).all(axis=(1, 2))
    if bad.any():
        n = int(np.argmax(bad)) + 1
        raise ValueError(f"non-finite solution at step n={n}, t={times[n]:.6g}")


def propagate_be(space, times, ic, f, cache, decomp=None, K_s=None):
    """Implicit Euler over a step grid: (M + dt A) U_n = (U_{n-1}, .) + dt l(t_n).

    times is one step grid with ic its incoming value, giving one
    Trajectory, or a stack of P grids with equal step counts (shape
    (P, steps+1)) with ic a sequence of P incoming values, giving a list of
    P Trajectories.  The columns of a stack are stepped together: each
    step's P systems are one multi-column solve, columns splitting only
    where their step sizes key different factors, and every column's values
    are bitwise those of its own single-grid call.  Each step's SPD system
    is solved directly (banded Cholesky) or, given an OverlapDecomposition,
    by K_s additive Schwarz iterations from a zero guess, of which only the
    final iterate is kept.  The loads l(t_n) are the cache's block for each
    grid.  An incoming value may live in a different space on the same mesh;
    its first-step contribution is the exact cross-space L2 pairing.  A
    non-finite step value raises a ValueError naming the first such step n
    of the first such column, and its time t.
    """
    if decomp is not None and (K_s is None or K_s < 1):
        raise ValueError("K_s must be >= 1")
    times = np.asarray(times, dtype=float)
    grids, ics = (times[None], [ic]) if times.ndim == 1 else (times, list(ic))
    if len(ics) != len(grids):
        raise ValueError(f"{len(grids)} grids but {len(ics)} incoming values")
    P, n_steps, ndof = len(grids), grids.shape[1] - 1, space.dof_count
    M = cache.mass(space, space)
    coeffs = np.zeros((P, n_steps, 1, ndof))
    # (U_0, phi_i) per column; every matrix-vector product here is one
    # column's (mesh.matvecs), as a product with a block of columns sums in
    # another order
    prev_m = np.array([cache.mass(space, u0.space) @ u0.coefficients
                       for u0 in ics])
    loads = np.stack([cache.load(space, g[1:], f) for g in grids], axis=1)
    steps = np.diff(grids, axis=1).T  # (n_steps, P)
    # one lookup per distinct exact dt, in step order, so each solver is
    # still built from the first dt of its key
    solvers = {dt: cache.step_operator(space, dt) if decomp is None
               else AdditiveSchwarz.cached(cache, space, dt, decomp)
               for dt in dict.fromkeys(steps.ravel().tolist())}
    for n, dts in enumerate(steps, 1):
        rhs = prev_m + dts[:, None] * loads[n - 1]
        u = np.empty_like(rhs)
        for solver, cols in groups([solvers[dt] for dt in dts.tolist()]):
            b = rhs[cols].T  # (dof, columns)
            x = solver.solve(b) if decomp is None else solver.solve(b, 0, K_s)[0]
            u[cols] = x.T
        coeffs[:, n - 1, 0] = u
        prev_m = matvecs(M, u)
    for j in range(P):
        _require_finite(coeffs[j], grids[j])
    trajs = [Trajectory(space, grids[j], 0, coeffs[j], ics[j])
             for j in range(P)]
    return trajs[0] if times.ndim == 1 else trajs


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
    # Legendre on [0,1]
    P = np.array([np.polynomial.legendre.Legendre.basis(m)(2 * s - 1)
                  for m in range(q_t)])
    Pw = P * w[None, :]
    return tuple(map(_read_only, (Pw @ dlam.T, Pw @ lam.T, s, Pw)))


def propagate_cg(space, times, q_t, ic, f, cache):
    """cG(q_t) time stepping with test functions of time degree q_t - 1.

    Continuity across slabs is enforced by construction; the slab start value
    is the L2 projection of the incoming value into the solve space.  The
    loads are the cache's block for the slabs' quadrature times; f=None is a
    homogeneous problem: no load is assembled.  A non-finite slab solution
    raises a ValueError naming the first such step and its end time.
    """
    if q_t < 1:
        raise ValueError("q_t must be >= 1")
    times = np.asarray(times, dtype=float)
    dts = np.diff(times)
    M, A = cache.mass(space, space), cache.stiffness(space, space)
    alpha, beta, sq, Pw = cache.factor(("cg_time_forms", q_t), lambda: _cg_time_forms(q_t))
    ndof = space.dof_count

    Minc = cache.mass(space, ic.space)
    u0 = cache.step_operator(space, 0.0).solve(Minc @ ic.coefficients)

    # coeffs[n, 1:] holds slab n's time-integrated load against each test
    # function until the slab's solution overwrites it
    coeffs = np.zeros((len(dts), q_t + 1, ndof))
    if f is not None:  # (steps, q_t+3, dof), at every slab's quadrature times
        loads = cache.load(space, times[:-1, None] + dts[:, None] * sq, f)
        for m in range(q_t):
            # one vector-matrix product per slab: a (q_t, q_t+3) matrix
            # product per slab sums in another order for q_t >= 2
            coeffs[:, m + 1] = ((dts[:, None, None] * Pw[m]) @ loads)[:, 0]
    # one lookup per distinct exact dt, in slab order, so each LU is still
    # built from the first dt of its key
    lus = {dt: cache.per_step(
        space, dt,
        lambda: sla.lu_factor(np.block(
            [[alpha[m, j] * M + dt * beta[m, j] * A
              for j in range(1, q_t + 1)] for m in range(q_t)])),
        "cg_slab", q_t) for dt in dict.fromkeys(dts.tolist())}
    prev = u0
    for n, dt in enumerate(dts):
        lu = lus[dt]
        F = coeffs[n, 1:] - (alpha[:, :1] * (M @ prev)
                             + dt * beta[:, :1] * (A @ prev))
        sol = lapack_solution("dgetrs", *dgetrs(*lu, F.ravel()))
        coeffs[n, 0] = prev
        coeffs[n, 1:] = sol.reshape(q_t, ndof)
        prev = coeffs[n, -1]
    _require_finite(coeffs, times)
    return Trajectory(space, times, q_t, coeffs, incoming=ic)
