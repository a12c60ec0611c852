"""Adjoint (dual) problems weighting the residuals of the forward solvers.

Five families: the coarse temporal adjoint on the global coarse grid, the
per-subdomain fine adjoints, the auxiliary adjoints accounting for the
adjoint jumps at synchronization times, and for the Schwarz solver the
global and per-subdomain spatial adjoints of each time step.

The backward-in-time problems are solved as forward cG(q) problems on the
time-reversed grid (the bilinear form is self-adjoint), on the forward
meshes but with higher polynomial degree (ExperimentConfig's
adjoint_space_degree and adjoint_time_degree, passed in explicitly).
Each temporal adjoint is a Trajectory with q_t >= 1, the one space-time
field type the forward solvers also return (implicit Euler as its q_t = 0
case), so field(n) and value_at_node give exact nodal values.
"""

import numpy as np

from .mesh import NodalField, assemble_matrix
from .schwarz import AdditiveSchwarz
from .timestepping import Trajectory, propagate_cg


def solve_backward_cg(kind, space, times, terminal, q_t, cache):
    """Solve (-phi_dot, v) = -a(v, phi) backward over the grid with the given
    terminal field, as a forward cG(q_t) solve of the time-reversed problem.

    Returns the adjoint as a cG(q_t) Trajectory on the grid, with the terminal
    field as its incoming value; kind names the adjoint in errors.
    """
    times = np.asarray(times, dtype=float)
    rev = times[-1] - times[::-1]
    try:
        traj = propagate_cg(space, rev, q_t, terminal, None, cache)
    except ValueError as exc:
        raise ValueError(f"{kind} adjoint (time reversed, t -> "
                         f"{times[-1]:.6g} - t): {exc}") from exc
    # reverse slab order and time-node order within slabs
    coeffs = traj.coeffs[::-1, ::-1, :].copy()
    return Trajectory(space, times, q_t, coeffs, incoming=terminal)


def solve_coarse_adjoint(partition, space, psi, q_t, cache):
    """Global backward solve on the coarse grid with terminal data the nodal
    interpolant of psi."""
    grid = partition.coarse_grid_global()
    return solve_backward_cg("coarse", space, grid, space.interpolate(psi),
                             q_t, cache)


def solve_fine_adjoints(partition, coarse_adjoint, q_t, cache):
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
                             q_t, cache):
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

    def __init__(self, space, dt, decomp, cache):
        self.space = space
        self.dt = dt
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

    def _require_finite(self, kind, values):
        if not np.isfinite(values).all():
            raise ValueError(f"non-finite {kind} spatial adjoint "
                             f"(dt={self.dt:.6g})")
        return values

    def solve_global(self, weight):
        """Phi solving B(v, Phi) = (weight, v) for all v (B symmetric); a
        non-finite Phi raises a ValueError naming the adjoint and dt."""
        rhs = self.M @ weight.coefficients
        return NodalField(self.space, self._require_finite(
            "global", self._B_op.solve(rhs)))

    def solve_subdomain(self, weight, K_s):
        """Backward recursion for the per-sweep subdomain adjoints.

        Returns chi[k_s][i] (1-based k_s flattened to index k_s-1) as
        full-length coefficient vectors, zero outside the interior of
        subdomain i; on its interior rows
        B chi_i^{k_s} = tau (Mm weight - Bm sum_{l > k_s} chi_i^l).
        A non-finite chi raises a ValueError naming the adjoint and dt.
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
        self._require_finite("subdomain", chi)
        return chi
