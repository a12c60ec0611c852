"""Adjoint (dual) problems weighting the residuals of the forward solvers.

Five families: the coarse temporal adjoint on the global coarse grid, the
per-subdomain fine adjoints, the auxiliary adjoints accounting for the
adjoint jumps at synchronization times, and for the Schwarz solver the
global and per-subdomain spatial adjoints of each time step.

The backward-in-time problems are solved as forward cG(q) problems on the
time-reversed grid (the bilinear form is self-adjoint), on the forward
meshes but with higher polynomial degree (default 3 in both space and time).
"""

import numpy as np

from .mesh import FormCache, NodalField, lagrange_values
from .schwarz import AdditiveSchwarz
from .timestepping import propagate_cg


class SpaceTimeAdjoint:
    """Piecewise cG(q)-in-time adjoint on a step grid, continuous in time.

    coeffs[n, j] is the coefficient vector at equispaced time node j of slab
    n; the terminal value is coeffs[-1, -1].
    """

    def __init__(self, kind, space, times, q_t, coeffs, terminal):
        self.kind = kind
        self.space = space
        self.times = np.asarray(times, dtype=float)
        self.q_t = q_t
        self.coeffs = coeffs
        self.terminal = terminal

    @property
    def n_slabs(self):
        return len(self.times) - 1

    def slab_index(self, t0, t1, tol=1e-10):
        """Index of the slab [t0, t1]; raises if the interval is not a slab."""
        n = int(np.searchsorted(self.times, 0.5 * (t0 + t1)) - 1)
        if not (0 <= n < self.n_slabs
                and abs(self.times[n] - t0) < tol
                and abs(self.times[n + 1] - t1) < tol):
            raise ValueError(
                f"[{t0}, {t1}] is not a slab of this adjoint's grid"
            )
        return n

    def slab_eval(self, n, s):
        """Coefficient vectors at local coordinates s in [0,1] of slab n,
        shape (len(s), dof)."""
        lam = lagrange_values(self.q_t, s)  # (q_t+1, ns)
        return lam.T @ self.coeffs[n]

    def at(self, t):
        """Adjoint field at an arbitrary time in the grid's span."""
        n = int(np.clip(np.searchsorted(self.times, t, side="right") - 1,
                        0, self.n_slabs - 1))
        t0, t1 = self.times[n], self.times[n + 1]
        s = (t - t0) / (t1 - t0)
        return NodalField(self.space, self.slab_eval(n, [s])[0])

    def value_at_node(self, t, tol=1e-10):
        """Adjoint field at a grid node (exact nodal value)."""
        k = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[k] - t) > tol:
            raise ValueError(f"{t} is not a node of this adjoint's grid")
        if k == 0:
            return NodalField(self.space, self.coeffs[0, 0])
        return NodalField(self.space, self.coeffs[k - 1, -1])


def solve_backward_cg(kind, space, times, terminal, q_t=3, cache=None):
    """Solve (-phi_dot, v) = -a(v, phi) backward over the grid with the given
    terminal field, as a forward cG(q_t) solve of the time-reversed problem."""
    cache = cache or FormCache()
    times = np.asarray(times, dtype=float)
    rev = times[-1] - times[::-1]
    traj = propagate_cg(space, rev, q_t, terminal, None, cache=cache)
    # reverse slab order and time-node order within slabs
    coeffs = traj.coeffs[::-1, ::-1, :].copy()
    return SpaceTimeAdjoint(kind, space, times, q_t, coeffs, terminal)


def solve_coarse_adjoint(partition, space, psi, q_t=3, cache=None):
    """Global backward solve on the coarse grid with terminal data the nodal
    interpolant of psi."""
    terminal = space.interpolate(psi) if callable(psi) else psi
    grid = partition.coarse_grid_global()
    return solve_backward_cg("coarse", space, grid, terminal, q_t, cache)


def solve_fine_adjoints(partition, coarse_adjoint, q_t=3, cache=None):
    """Independent backward solves on each subdomain's fine grid, with
    terminal data taken from the coarse adjoint at T_p."""
    out = []
    space = coarse_adjoint.space
    for p in range(1, partition.P_t + 1):
        term = coarse_adjoint.value_at_node(partition.sync_times[p])
        adj = solve_backward_cg(
            f"fine({p})", space, partition.fine_grids[p - 1], term, q_t, cache
        )
        out.append(adj)
    return out


def solve_auxiliary_adjoints(partition, coarse_adjoint, fine_adjoints,
                             q_t=3, cache=None):
    """Backward solves on (0, T_{p-1}] with terminal data the fine/coarse
    adjoint jump at T_{p-1}; returned dict is keyed by p = 2..P_t."""
    out = {}
    space = coarse_adjoint.space
    for p in range(2, partition.P_t + 1):
        t_sync = partition.sync_times[p - 1]
        term = (fine_adjoints[p - 1].value_at_node(t_sync)
                - coarse_adjoint.value_at_node(t_sync))
        grid = partition.coarse_grid_upto(p)
        out[p] = solve_backward_cg(
            f"auxiliary({p})", space, grid, term, q_t, cache
        )
    return out


class SpatialAdjointSolver:
    """Global and subdomain spatial adjoints of the Schwarz-solved step systems.

    Operates in the (degree-3) adjoint space on the forward mesh; the step
    operator is B = M + dt*A in that space.  The subdomain factorizations are
    those of the cached AdditiveSchwarz for (space, dt, decomp), so one
    instance serves every (p, n) pair of a run with uniform fine steps.
    """

    def __init__(self, space, dt, decomp, cache=None):
        self.space = space
        self.decomp = decomp
        self.dt = dt
        self.cache = cache or FormCache()
        self._B_op = self.cache.step_operator(space, dt)
        self.B_dense = self._B_op.dense
        self.M = self.cache.mass(space, space)
        self._sweeper = AdditiveSchwarz.cached(self.cache, space, dt, decomp)
        # overlap-restricted mass and B matrices, keyed (i, j)
        self._M_ov, self._B_ov = {}, {}
        for (i, j), (lo, hi) in decomp.overlaps.items():
            elems = tuple(range(lo, hi))
            Mij = self.cache.matrix(space, space, "mass", elems)
            Aij = self.cache.matrix(space, space, "stiffness", elems)
            self._M_ov[(i, j)] = Mij
            self._B_ov[(i, j)] = Mij + dt * Aij

    def solve_global(self, weight):
        """Phi solving B(v, Phi) = (weight, v) for all v (B symmetric)."""
        rhs = self.M @ weight.coefficients
        return NodalField(self.space, self._B_op.solve(rhs))

    def solve_subdomain(self, weight, K_s):
        """Backward recursion for the per-sweep subdomain adjoints.

        Returns chi[k_s][i] (1-based k_s flattened to index k_s-1) as
        full-length coefficient vectors, zero outside subdomain i.
        """
        tau, P_s = self.decomp.tau, self.decomp.P_s
        ndof = self.space.dof_count
        chi = [[np.zeros(ndof) for _ in range(P_s)] for _ in range(K_s)]
        running = [np.zeros(ndof) for _ in range(P_s)]  # sum_{l > k_s} chi_i^l
        for ks in range(K_s, 0, -1):
            for i in range(P_s):
                rhs = np.zeros(ndof)
                for j in range(P_s):
                    if (i, j) not in self._M_ov:
                        continue
                    rhs += self._M_ov[(i, j)] @ weight.coefficients
                    rhs -= self._B_ov[(i, j)] @ running[i]
                rhs *= tau
                interior = self._sweeper.sets[i][0]
                chi[ks - 1][i][interior] = self._sweeper.local_solve(
                    i, rhs[interior])
            for i in range(P_s):
                running[i] = running[i] + chi[ks - 1][i]
        return chi
