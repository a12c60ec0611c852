"""Parareal iteration over temporal subdomains, in variational form.

The variational form retains full coarse and fine space-time trajectories for
every iteration (the error estimator evaluates fields at every
synchronization time of the reported iteration).  Solvers are closures
mapping step grids and incoming fields to trajectories.  Within one
iteration the fine solves are mutually independent once the coarse sweep
has fixed their incoming values, so each iteration runs its serial coarse
sweep first and then hands all its fine solves to the fine solver in one
call, which may step them together.

The value handed to subdomain p at T_{p-1} is the synchronized value
Uhat^{p-1}(T_{p-1}) + C_{p-1}^{k-1} (with C_0 = 0), which makes the standard
and variational forms agree at the synchronization times.  There is one
synchronization, in the coarse space: the correction is nodally interpolated
onto the coarse space before it is added.  The corrections live in the fine
space, which each reads from its own fine trajectory.  When the fine space is
richer, K_t = P_t iterations reproduce the serial fine solve that hands on
the coarse interpolant of each subdomain's fine end value.

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

    coarse: list          # per subdomain, coarse-space trajectory
    fine: list            # per subdomain, fine-space trajectory
    corrections: list     # C_p^{k_t}, fine-space NodalField, p = 1..P_t
    initial: NodalField   # Uhat_0


def _fine_solves(fine_solver, grids, syncs, k):
    """The fine trajectories of subdomains k..P_t, by one fine_solver call.

    If the call raises, the subdomains are solved one at a time, each as a
    one-row stack, to name the first that fails."""
    try:
        return fine_solver(grids, syncs)
    except Exception as exc:
        for p, (grid, sync) in enumerate(zip(grids, syncs), start=k):
            try:
                fine_solver(grid[None], [sync])
            except Exception as col_exc:
                raise RuntimeError(
                    f"solver failure on subdomain p={p}, iteration k_t={k}: "
                    f"{col_exc}") from col_exc
        raise RuntimeError(
            f"solver failure on subdomains p={k}..{k + len(grids) - 1}, "
            f"iteration k_t={k}: {exc}") from exc


def vpar(partition, K_t, ic_coarse, fine_solver, coarse_solver, cache):
    """Variational Parareal: returns the states of all K_t iterations.

    ic_coarse is Uhat_0 in the coarse space, which the fine trajectories'
    space contains (coarse fields embed into it exactly).
    coarse_solver(grid, incoming) returns one trajectory;
    fine_solver(grids, incomings) returns the trajectories of a stack of
    rows of partition.fine_grids, in order.  Iteration k solves subdomains
    k..P_t only: first the serial coarse sweep, then one fine_solver call
    for all of them.  For p < k its state holds iteration k-1's coarse and
    fine trajectories and corrections, the same objects, since subdomain
    p's incoming value is unchanged from iteration p on.  That holds only if
    both solvers are pure functions of (grid, incoming).  The embeddings
    between the coarse and fine spaces are the cache's.
    """
    if K_t < 1:
        raise ValueError("K_t must be >= 1")
    P_t = partition.P_t
    states = []
    coarse, fine, corrs = [], [], [None] * P_t  # corrs[p-1] = C_p^{k-1}
    for k in range(1, K_t + 1):
        prev_corrs = corrs
        coarse, fine, corrs = coarse[:k - 1], fine[:k - 1], corrs[:k - 1]
        syncs = []
        for p in range(k, P_t + 1):
            # synchronized value handed to subdomain p (C_0 = 0), in the
            # coarse space
            sync = ic_coarse if p == 1 else coarse[p - 2].end
            corr = None if p == 1 else prev_corrs[p - 2]
            if corr is not None:
                sync = sync + (corr if corr.space is sync.space
                               else cache.interpolate(corr, sync.space))
            try:
                coarse.append(coarse_solver(partition.coarse_grids[p - 1],
                                            sync))
            except Exception as exc:
                raise RuntimeError(
                    f"solver failure on subdomain p={p}, iteration k_t={k}: "
                    f"{exc}") from exc
            syncs.append(sync)
        if syncs:  # an iteration past P_t has nothing left to solve
            fine += _fine_solves(fine_solver, partition.fine_grids[k - 1:],
                                 syncs, k)
        corrs += [ft.end - embed(ct.end, ft.space, cache)
                  for ft, ct in zip(fine[k - 1:], coarse[k - 1:], strict=True)]
        states.append(PararealState(coarse, fine, corrs, ic_coarse))
    return states
