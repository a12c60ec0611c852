"""Reference implementations that only the tests use.

par_standard is Parareal in its standard form: it keeps only the values at
the synchronization times and re-solves every subdomain at every iteration,
so it also checks that vpar's reuse of converged subdomains changes
nothing.  dg0_equivalence_check re-solves an implicit-Euler trajectory as
the dG(0) Galerkin method, with matrices assembled afresh and a dense solve.
"""

import numpy as np

from parapost.mesh import assemble_load, assemble_matrix, embed
from parapost.parareal import _synchronize


def par_standard(partition, K_t, ic_coarse, fine_solver, coarse_solver,
                 fine_space, sync_space="coarse"):
    """Standard Parareal: synchronization-time values only.

    Returns a list (one entry per iteration) of dicts with keys 'tilde'
    (coarse synchronized values, fine space), 'bar' (fine values at T_p) and
    'corrections'.
    """
    if sync_space not in ("coarse", "fine"):
        raise ValueError(f"unknown sync_space {sync_space!r}")
    P_t = partition.P_t

    def g_end(grid, ic):
        return coarse_solver(grid, ic).end

    def f_end(grid, ic):
        return fine_solver(grid, ic).end

    out = []
    prev_corr = [None] * (P_t + 1)
    for k in range(1, K_t + 1):
        tilde, bar, corrs = [], [], []
        u_tilde = ic_coarse
        for p in range(1, P_t + 1):
            g_val = g_end(partition.coarse_grids[p - 1], u_tilde)
            f_val = f_end(partition.fine_grids[p - 1], u_tilde)
            corr = f_val - embed(g_val, fine_space)
            u_tilde = _synchronize(g_val, prev_corr[p], fine_space, sync_space)
            tilde.append(u_tilde)
            bar.append(f_val)
            corrs.append(corr)
        out.append({"tilde": tilde, "bar": bar, "corrections": corrs})
        prev_corr = [None] + corrs
    return out


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
