"""Parareal iteration over temporal subdomains, in variational and standard form.

The variational form retains full coarse and fine space-time trajectories for
every iteration (the error estimator evaluates fields at every
synchronization time of the reported iteration).  Solvers are closures
mapping (step grid, incoming field) to a trajectory; fine solves within one
iteration are mutually independent.

The value handed to subdomain p at T_{p-1} is the synchronized value
Uhat^{p-1}(T_{p-1}) + C_{p-1}^{k-1} (with C_0 = 0), which makes the standard
and variational forms agree at the synchronization times.  Synchronized
values are kept in the coarse space: the fine-space correction is nodally
interpolated onto the coarse space before it is added.
"""

from dataclasses import dataclass

from .mesh import NodalField, embed, project_field


@dataclass
class PararealState:
    """Trajectories and corrections for one Parareal iteration."""

    iteration: int
    coarse: list          # per subdomain, coarse-space trajectory
    fine: list            # per subdomain, fine-space trajectory
    corrections: list     # C_p^{k_t}, fine-space NodalField, p = 1..P_t
    initial: NodalField   # Uhat_0

    def sync_incoming(self, p):
        """Value fed to subdomain p (1-based) at T_{p-1}."""
        return self.coarse[p - 1].incoming


def _synchronize(coarse_end, corr, fine_space, sync_space):
    """Combine a coarse end value with the previous iteration's correction.

    With sync_space='coarse' the correction is nodally interpolated onto the
    coarse space so the synchronized value stays there (both propagators then
    restart from the same coarse-space field).  With 'fine' the synchronized
    value is the classic fine-space sum, which restores finite-termination
    exactness (serial fine solve after P_t iterations) when the spaces differ.
    """
    if corr is None:
        return coarse_end
    if sync_space == "coarse":
        return coarse_end + project_field(corr, coarse_end.space,
                                          "nodal_interpolation")
    if sync_space == "fine":
        return embed(coarse_end, fine_space) + corr
    raise ValueError(f"unknown sync_space {sync_space!r}")


def vpar(partition, K_t, ic_coarse, fine_solver, coarse_solver, fine_space,
         sync_space="coarse"):
    """Variational Parareal: returns the states of all K_t iterations.

    ic_coarse is Uhat_0 in the coarse space; fine_space is the space the
    corrections live in (coarse fields embed into it exactly).
    """
    if K_t < 1:
        raise ValueError("K_t must be >= 1")
    if sync_space not in ("coarse", "fine"):
        raise ValueError(f"unknown sync_space {sync_space!r}")
    P_t = partition.P_t
    states = []
    prev_corr = [None] * (P_t + 1)  # prev_corr[p] = C_p^{k-1}; index 0 unused
    for k in range(1, K_t + 1):
        coarse_trajs, fine_trajs, corrs = [], [], []
        sync = ic_coarse  # incoming value for subdomain 1 (C_0 = 0)
        for p in range(1, P_t + 1):
            try:
                ct = coarse_solver(partition.coarse_grids[p - 1], sync)
                ft = fine_solver(partition.fine_grids[p - 1], sync)
            except Exception as exc:
                raise RuntimeError(
                    f"solver failure on subdomain p={p}, iteration k_t={k}"
                ) from exc
            coarse_trajs.append(ct)
            fine_trajs.append(ft)
            corrs.append(ft.end - embed(ct.end, fine_space))
            # synchronized value handed to subdomain p+1
            sync = _synchronize(ct.end, prev_corr[p], fine_space, sync_space)
        states.append(
            PararealState(k, coarse_trajs, fine_trajs, corrs, ic_coarse)
        )
        prev_corr = [None] + corrs
    return states


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
