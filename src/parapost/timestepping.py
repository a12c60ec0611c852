"""Temporal partitions and the coarse/fine propagators.

Implicit Euler (nodally a piecewise-constant-in-time Galerkin method), with
each step solved directly or by additive Schwarz sweeps, and cG(q_t)
continuous-in-time Galerkin stepping, both returning full space-time
trajectories on a step grid.  Propagations on distinct temporal subdomains
share no mutable state.
"""

from dataclasses import dataclass

import numpy as np
from scipy import linalg as sla

from .mesh import (
    FormCache,
    NodalField,
    assemble_load,
    assemble_matrix,
    gauss_rule,
    lagrange_values,
    lagrange_derivs,
)
from .schwarz import AdditiveSchwarz


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
    """Implicit-Euler (dG(0)-equivalent) trajectory on one step grid.

    values[n] is the solution at times[n] for n >= 1; values[0] is the L2
    projection of the incoming value into the solve space.  The incoming
    field (left limit at the grid start, possibly in a different space) is
    retained for jump terms.
    """

    def __init__(self, space, times, values, incoming):
        self.space = space
        self.times = np.asarray(times, dtype=float)
        self.values = values
        self.incoming = incoming
        if values.shape != (len(self.times), space.dof_count):
            raise ValueError("trajectory shape mismatch")

    @property
    def n_steps(self):
        return len(self.times) - 1

    def field(self, n):
        return NodalField(self.space, self.values[n])

    @property
    def end(self):
        return self.field(self.n_steps)


def propagate_be(space, times, ic, f, cache=None, decomp=None, K_s=None):
    """Implicit Euler over a step grid: (M + dt A) U_n = (U_{n-1}, .) + dt l(t_n).

    Each step's SPD system is solved directly (banded Cholesky) or, given an
    OverlapDecomposition, by K_s additive Schwarz sweeps from a zero guess;
    the trajectory then carries the per-step sweep records in
    traj.schwarz_records (index n-1 for step n).  The incoming value may
    live in a different space on the same mesh; its first-step contribution
    is the exact cross-space L2 pairing.
    """
    if decomp is not None and (K_s is None or K_s < 1):
        raise ValueError("K_s must be >= 1")
    cache = cache or FormCache()
    times = np.asarray(times, dtype=float)
    n_steps = len(times) - 1
    M = cache.mass(space, space)
    values = np.zeros((n_steps + 1, space.dof_count))
    Minc = cache.mass(space, ic.space)
    prev_m = Minc @ ic.coefficients  # (U_0, phi_i)
    values[0] = cache.step_operator(space, 0.0).solve(prev_m)
    records = []
    for n in range(1, n_steps + 1):
        dt = times[n] - times[n - 1]
        rhs = prev_m + dt * assemble_load(space, times[n], f)
        if decomp is None:
            values[n] = cache.step_operator(space, dt).solve(rhs)
        else:
            sweeper = AdditiveSchwarz.cached(cache, space, dt, decomp)
            values[n], rec = sweeper.solve(rhs, np.zeros(space.dof_count), K_s)
            records.append(rec)
        prev_m = M @ values[n]
    traj = Trajectory(space, times, values, incoming=ic)
    if decomp is not None:
        traj.schwarz_records = records
    return traj


class CgTrajectory:
    """cG(q_t) trajectory: per slab, q_t+1 time-nodal coefficient vectors.

    coeffs[n, j] is the coefficient vector at time node j (equispaced in the
    slab); continuity means coeffs[n, -1] == coeffs[n+1, 0].
    """

    def __init__(self, space, times, q_t, coeffs, incoming):
        self.space = space
        self.times = np.asarray(times, dtype=float)
        self.q_t = q_t
        self.coeffs = coeffs
        self.incoming = incoming

    @property
    def n_steps(self):
        return len(self.times) - 1

    def field(self, n):
        """Solution at grid time times[n] (right end of slab n-1 for n >= 1)."""
        if n == 0:
            return NodalField(self.space, self.coeffs[0, 0])
        return NodalField(self.space, self.coeffs[n - 1, -1])

    @property
    def end(self):
        return self.field(self.n_steps)

    def at(self, t):
        """Solution at an arbitrary time in the grid's span."""
        n = int(np.clip(np.searchsorted(self.times, t, side="right") - 1, 0,
                        self.n_steps - 1))
        t0, t1 = self.times[n], self.times[n + 1]
        s = (t - t0) / (t1 - t0)
        lam = lagrange_values(self.q_t, [s])[:, 0]
        return NodalField(self.space, lam @ self.coeffs[n])


def _cg_time_forms(q_t):
    """Time-integration tables for one cG(q_t) slab on the reference interval.

    Test functions are Legendre polynomials of degree < q_t.  Returns
    (alpha, beta) with alpha[m, j] = int lam_j' P_m ds, beta[m, j] = int lam_j P_m ds.
    """
    nq = q_t + 3
    s, w = gauss_rule(nq)
    lam = lagrange_values(q_t, s)
    dlam = lagrange_derivs(q_t, s)
    # Legendre on [0,1]
    P = np.array([np.polynomial.legendre.Legendre.basis(m)(2 * s - 1)
                  for m in range(q_t)])
    alpha = (P * w[None, :]) @ dlam.T
    beta = (P * w[None, :]) @ lam.T
    return alpha, beta


def propagate_cg(space, times, q_t, ic, f, cache=None):
    """cG(q_t) time stepping with test functions of time degree q_t - 1.

    Continuity across slabs is enforced by construction; the slab start value
    is the L2 projection of the incoming value into the solve space.  f=None
    is a homogeneous problem: no load is assembled.
    """
    if q_t < 1:
        raise ValueError("q_t must be >= 1")
    cache = cache or FormCache()
    times = np.asarray(times, dtype=float)
    n_steps = len(times) - 1
    M, A = cache.mass(space, space), cache.stiffness(space, space)
    alpha, beta = _cg_time_forms(q_t)
    ndof = space.dof_count

    Minc = cache.mass(space, ic.space)
    u0 = cache.step_operator(space, 0.0).solve(Minc @ ic.coefficients)

    nq = q_t + 3
    sq, wq = gauss_rule(nq)
    Pq = np.array([np.polynomial.legendre.Legendre.basis(m)(2 * sq - 1)
                   for m in range(q_t)])

    def slab_system(dt):
        K = np.zeros((q_t * ndof, q_t * ndof))
        for m in range(q_t):
            for j in range(1, q_t + 1):
                K[m * ndof:(m + 1) * ndof, (j - 1) * ndof:j * ndof] = (
                    alpha[m, j] * M + dt * beta[m, j] * A
                )
        return K

    coeffs = np.zeros((n_steps, q_t + 1, ndof))
    prev = u0
    for n in range(n_steps):
        t0 = times[n]
        dt = times[n + 1] - t0
        lu = cache.factor(("cg_slab", space, q_t, round(dt, 15)),
                          lambda: sla.lu_factor(slab_system(dt)))
        F = np.zeros(q_t * ndof)
        if f is not None:
            # time-integrated load against each test function
            loads = np.array([assemble_load(space, t0 + dt * s, f) for s in sq])
            for m in range(q_t):
                F[m * ndof:(m + 1) * ndof] = dt * (wq * Pq[m]) @ loads
        for m in range(q_t):
            F[m * ndof:(m + 1) * ndof] -= (
                alpha[m, 0] * (M @ prev) + dt * beta[m, 0] * (A @ prev)
            )
        sol = sla.lu_solve(lu, F)
        coeffs[n, 0] = prev
        for j in range(1, q_t + 1):
            coeffs[n, j] = sol[(j - 1) * ndof:j * ndof]
        prev = coeffs[n, -1]
    return CgTrajectory(space, times, q_t, coeffs, incoming=ic)


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
        dev = max(dev, float(np.max(np.abs(u - traj.values[n])))) if space.dof_count else 0.0
        prev_m = M @ u
    return dev
