"""Parareal iteration over temporal subdomains, in variational form.

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

By finite termination (Gander & Vandewalle 2007) subdomain p receives the
same incoming value at every iteration k >= p, so iteration k keeps the
trajectories and corrections of subdomains p < k from iteration k-1 and
solves only subdomains k..P_t.
"""

from dataclasses import dataclass

from .mesh import NodalField, embed


@dataclass
class PararealState:
    """Trajectories and corrections for one Parareal iteration."""

    iteration: int
    coarse: list          # per subdomain, coarse-space trajectory
    fine: list            # per subdomain, fine-space trajectory
    corrections: list     # C_p^{k_t}, fine-space NodalField, p = 1..P_t
    initial: NodalField   # Uhat_0


def _synchronize(coarse_end, corr, fine_space, sync_space, cache):
    """Combine a coarse end value with the previous iteration's correction.

    With sync_space='coarse' the correction is nodally interpolated onto the
    coarse space so the synchronized value stays there (both propagators then
    restart from the same coarse-space field).  With 'fine' the synchronized
    value is the classic fine-space sum, which restores finite-termination
    exactness (serial fine solve after P_t iterations) when the spaces differ.
    The callers have validated sync_space.
    """
    if corr is None:
        return coarse_end
    if sync_space == "coarse":
        space = coarse_end.space
        return coarse_end + (corr if corr.space is space
                             else cache.interpolate(corr, space))
    return embed(coarse_end, fine_space, cache) + corr


def vpar(partition, K_t, ic_coarse, fine_solver, coarse_solver, fine_space,
         cache, sync_space="coarse"):
    """Variational Parareal: returns the states of all K_t iterations.

    ic_coarse is Uhat_0 in the coarse space; fine_space is the space the
    corrections live in (coarse fields embed into it exactly).  Iteration k
    solves subdomains k..P_t only: for p < k its state holds iteration
    k-1's coarse and fine trajectories and corrections, the same objects,
    since subdomain p's incoming value is unchanged from iteration p on.
    That holds only if both solvers are pure functions of (grid, incoming).
    The embeddings between the coarse and fine spaces are the cache's.
    """
    if K_t < 1:
        raise ValueError("K_t must be >= 1")
    if sync_space not in ("coarse", "fine"):
        raise ValueError(f"unknown sync_space {sync_space!r}")
    P_t = partition.P_t
    states = []
    coarse, fine, corrs = [], [], [None] * P_t  # corrs[p-1] = C_p^{k-1}
    for k in range(1, K_t + 1):
        prev_corrs = corrs
        coarse, fine, corrs = coarse[:k - 1], fine[:k - 1], corrs[:k - 1]
        for p in range(k, P_t + 1):
            # synchronized value handed to subdomain p (C_0 = 0)
            sync = ic_coarse if p == 1 else _synchronize(
                coarse[p - 2].end, prev_corrs[p - 2], fine_space, sync_space,
                cache)
            try:
                ct = coarse_solver(partition.coarse_grids[p - 1], sync)
                ft = fine_solver(partition.fine_grids[p - 1], sync)
            except Exception as exc:
                raise RuntimeError(
                    f"solver failure on subdomain p={p}, iteration k_t={k}: "
                    f"{exc}") from exc
            coarse.append(ct)
            fine.append(ft)
            corrs.append(ft.end - embed(ct.end, fine_space, cache))
        states.append(PararealState(k, coarse, fine, corrs, ic_coarse))
    return states
