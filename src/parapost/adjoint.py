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

from .mesh import FormCache, NodalField, assemble_matrix, lagrange_values
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
    those of the cached AdditiveSchwarz for (space, dt, decomp).  cached()
    builds one instance per (space, dt, decomposition), shared by every step
    of that size.
    """

    def __init__(self, space, dt, decomp, cache=None):
        cache = cache or FormCache()
        self.space = space
        self.decomp = decomp
        self._B_op = cache.step_operator(space, dt)
        self.M = cache.mass(space, space)
        self._sweeper = AdditiveSchwarz.cached(cache, space, dt, decomp)
        # mass and step matrices with each element counted once per subdomain
        # covering it; on the interior rows of subdomain i they equal the sum
        # over j of the matrices restricted to the overlaps of i and j
        self._Mm = sum(assemble_matrix(space, space, "mass", decomp.elements(j))
                       for j in range(decomp.P_s))
        Bm = self._Mm + dt * sum(
            assemble_matrix(space, space, "stiffness", decomp.elements(j))
            for j in range(decomp.P_s))
        self._Bm = [Bm[np.ix_(interior, interior)]
                    for interior, _ in self._sweeper.sets]

    @classmethod
    def cached(cls, cache, space, dt, decomp):
        """The solver for step size dt, built once per (space, dt,
        decomposition) and owned by the FormCache."""
        return cache.factor(("spatial_adjoint", space, round(dt, 15), decomp),
                            lambda: cls(space, dt, decomp, cache))

    def solve_global(self, weight):
        """Phi solving B(v, Phi) = (weight, v) for all v (B symmetric)."""
        rhs = self.M @ weight.coefficients
        return NodalField(self.space, self._B_op.solve(rhs))

    def solve_subdomain(self, weight, K_s):
        """Backward recursion for the per-sweep subdomain adjoints.

        Returns chi[k_s][i] (1-based k_s flattened to index k_s-1) as
        full-length coefficient vectors, zero outside the interior of
        subdomain i; on its interior rows
        B chi_i^{k_s} = tau (Mm weight - Bm sum_{l > k_s} chi_i^l).
        """
        tau, P_s = self.decomp.tau, self.decomp.P_s
        ndof = self.space.dof_count
        chi = [[np.zeros(ndof) for _ in range(P_s)] for _ in range(K_s)]
        tMw = tau * (self._Mm @ weight.coefficients)
        for i, (interior, _) in enumerate(self._sweeper.sets):
            running = np.zeros(len(interior))  # sum_{l > k_s} chi_i^l
            for ks in range(K_s, 0, -1):
                x = self._sweeper.local_solve(
                    i, tMw[interior] - tau * (self._Bm[i] @ running))
                chi[ks - 1][i][interior] = x
                running = running + x
        return chi
