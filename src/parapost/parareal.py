"""Parareal iteration over temporal subdomains, in variational form.

The variational form retains full coarse and fine space-time trajectories for
every iteration (the error estimator evaluates fields at every
synchronization time of the reported iteration).  Solvers are closures
mapping step grids and incoming fields to trajectories.  Within one
iteration the fine solves are mutually independent once the coarse sweep
has fixed their incoming values, so each iteration runs its serial coarse
sweep first, as one chained call, and then hands all its fine solves to the
fine solver in one call, which may step them together.

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

import numpy as np

from .mesh import NodalField, embed_rows


@dataclass
class PararealState:
    """Trajectories and corrections for one Parareal iteration."""

    coarse: list          # per subdomain, coarse-space trajectory
    fine: list            # per subdomain, fine-space trajectory
    corrections: list     # C_p^{k_t}, fine-space NodalField, p = 1..P_t
    initial: NodalField   # Uhat_0


def _failure(p, k, exc, n=1):
    """The RuntimeError of a solver failure exc on the n rows of subdomains
    p..p+n-1 in iteration k, naming subdomain p + j if exc carries the
    failing row j as its column attribute (a propagation's step errors do)
    or n is 1, else all n."""
    j = getattr(exc, "column", None)
    where = (f"subdomains p={p}..{p + n - 1}" if j is None and n > 1
             else f"subdomain p={p + (j or 0)}")
    return RuntimeError(f"solver failure on {where}, iteration k_t={k}: {exc}")


def _fine_solves(fine_solver, grids, syncs, k):
    """The fine trajectories of subdomains k..P_t, by one fine_solver call.
    An exception that does not carry its row (_failure) has the subdomains
    solved one at a time, each as a one-row stack, to name the first."""
    try:
        return fine_solver(grids, syncs)
    except Exception as exc:
        if getattr(exc, "column", None) is None:
            for p, (grid, sync) in enumerate(zip(grids, syncs), start=k):
                try:
                    fine_solver(grid[None], [sync])
                except Exception as col_exc:
                    raise _failure(p, k, col_exc) from col_exc
        raise _failure(k, k, exc, len(grids)) from exc


def vpar(partition, K_t, ic_coarse, fine_solver, coarse_solver, cache):
    """Variational Parareal: returns the states of all K_t iterations.

    ic_coarse is Uhat_0 in the coarse space, which the fine trajectories'
    space contains (coarse fields embed into it exactly).  Iteration k
    solves subdomains k..P_t only, by one call on their rows of each of the
    partition's stacks of grids.  First the serial coarse sweep,
    coarse_solver(grids, ic, jumps): row 0 starts from the synchronized
    value ic, each later row j from row j-1's end value plus jumps[j-1],
    the coarse-space correction I_c C_{k+j-1}^{k-1} (None at k = 1).  Then
    fine_solver(grids, ics), from the coarse rows' incoming values.  Each
    returns its rows' trajectories in order, in one space (else a
    ValueError); an exception it raises with a column attribute (a
    propagator's step errors) names that row.  The corrections of the
    rows, fine end minus embedded coarse end, take one stacked gather, and
    so do the next iteration's coarse-space jumps, each row bitwise its
    own.  For p < k the state holds iteration k-1's trajectories and
    corrections, the same objects, as subdomain p's incoming value is
    unchanged from iteration p on, if both solvers give each row as a pure
    function of its grid and incoming value: the propagators do for a
    chain and for the rows that share row 0's FormCache.per_step key.  The
    embeddings between the coarse and fine spaces are the cache's.
    """
    if K_t < 1:
        raise ValueError("K_t must be >= 1")
    P_t, space = partition.P_t, ic_coarse.space
    # the stacked end values (Trajectory.end) of rows of one space
    ends = lambda trajs: np.array([t.coeffs[-1, -1] for t in trajs])
    states = []
    coarse, fine, corrs = [], [], []  # corrs[p-1] = C_p^{k-1}
    for k in range(1, K_t + 1):
        coarse, fine, corrs = coarse[:k - 1], fine[:k - 1], corrs[:k - 1]
        if k <= P_t:  # an iteration past P_t has nothing left to solve
            # the synchronized value handed to subdomain k (C_0 = 0) and the
            # later rows' jumps, from iteration k-1's corrections
            sync, jumps = ic_coarse, [None] * (P_t - k)
            if k > 1:
                onto = (block[:-1] if fine_space is space
                        else cache.gather(fine_space, space)(block[:-1]))
                sync = coarse[-1].end + NodalField(space, onto[0])
                jumps = [NodalField(space, c) for c in onto[1:]]
            try:
                coarse += coarse_solver(partition.coarse_grids[k - 1:], sync,
                                        jumps)
            except Exception as exc:
                raise _failure(k, k, exc, P_t - k + 1) from exc
            fine += _fine_solves(fine_solver, partition.fine_grids[k - 1:],
                                 [ct.incoming for ct in coarse[k - 1:]], k)
            # C_p^k, p = k..P_t: fine end minus embedded coarse end
            if len(coarse) != P_t or len(fine) != P_t or any(
                    t.space is not ts[k - 1].space
                    for ts in (coarse, fine) for t in ts[k:]):
                raise ValueError(f"iteration {k}: each solver must return "
                                 f"{P_t - k + 1} trajectories in one space")
            fine_space, coarse_space = fine[k - 1].space, coarse[k - 1].space
            block = ends(fine[k - 1:]) - embed_rows(
                coarse_space, ends(coarse[k - 1:]), fine_space, cache)
            corrs += [NodalField(fine_space, c) for c in block]
        states.append(PararealState(coarse, fine, corrs, ic_coarse))
    return states
