"""Adjoint (dual) problems weighting the residuals of the forward solvers.

Three families: the coarse temporal adjoint on the global coarse grid, the
per-subdomain fine adjoints, and the auxiliary adjoints accounting for the
adjoint jumps at synchronization times.  The spatial adjoints of a
Schwarz-solved step are not here: estimator.dd_split solves the global one
with the cached step operator, and the per-sweep subdomain ones are the
sweeps of schwarz.AdditiveSchwarz run backwards (its adjoint method).

The backward-in-time problems are solved as forward cG(q) problems on the
time-reversed grid (the bilinear form is self-adjoint), on the forward
meshes but with higher polynomial degree (ExperimentConfig's
adjoint_space_degree and adjoint_time_degree, passed in explicitly).
Each temporal adjoint is a Trajectory with q_t >= 1, the one space-time
field type the forward solvers also return (implicit Euler as its q_t = 0
case), so its exact nodal values are index reads of its coefficients: a
synchronization time T_p is node p * Nhat_t / P_t of the global coarse
grid, and node 0 or the last node of a subdomain's own grid.
"""

import numpy as np

from .mesh import NodalField
from .timestepping import (Trajectory, _as_stack, _check_finite, _largest_time,
                           _step_slabs)


def _solve_backward(kinds, space, grids, terms, q_t, cache):
    """The backward cG(q_t) adjoints of grids, longest first, with their
    terminal fields, as one _step_slabs stack aligned at the ends in solve
    order: each is a forward-ordered view out[j, :steps] of one array and
    bitwise its own single-grid solve (see FormCache.per_step for when).
    Every column error is named by its column's entry of kinds: a
    non-finite time of the forward grids (_largest_time, before they are
    reversed) and, on the time-reversed grids, a step of another size or
    else a non-finite value, named in solve order by _check_finite."""
    first = [len(grids[0]) - len(g) for g in grids]
    revs = np.zeros((len(grids), len(grids[0])))
    try:
        top = _largest_time(grids)  # g[-1] - g would warn at inf - inf
        for rev, g, s in zip(revs, grids, first):
            rev[s:] = (g[-1] - g)[::-1]
        out = _step_slabs(space, revs, q_t, terms, None, cache, reverse=top,
                          first=first)
        _check_finite(out[:, ::-1, ::-1], revs, first)
    except ValueError as exc:
        if not hasattr(exc, "column"):
            raise
        raise ValueError(f"{kinds[exc.column]} adjoint (time reversed, t -> "
                         f"{grids[exc.column][-1]:.6g} - t): {exc}") from None
    return [Trajectory(space, g, q_t, c[:len(g) - 1], term)
            for g, c, term in zip(grids, out, terms)]


def solve_backward_cg(kind, space, times, terminal, q_t, cache):
    """Solve (-phi_dot, v) = -a(v, phi) backward over the grid with the given
    terminal field, as a forward cG(q_t) solve of the time-reversed problem.

    Returns the adjoint as a cG(q_t) Trajectory on the grid, with the terminal
    field as its incoming value; kind names the adjoint in errors.  Given a
    (P, steps+1) stack of grids, a sequence of P terminal fields and a
    sequence of P names, it steps all P together (see _solve_backward) and
    returns P adjoints, each bitwise its own single-grid call's; a step of
    another size, or a non-finite value, names the first such column.
    """
    grids, terms, stacked = _as_stack(times, terminal)
    kinds = list(kind) if stacked else [kind]
    if len(kinds) != len(grids):
        raise ValueError(f"{len(grids)} grids but {len(kinds)} names")
    adjs = _solve_backward(kinds, space, grids, terms, q_t, cache)
    return adjs if stacked else adjs[0]


def solve_coarse_adjoint(partition, space, psi, q_t, cache):
    """Global backward solve on the coarse grid with terminal data the nodal
    interpolant of psi."""
    return solve_backward_cg("coarse", space, partition.coarse_grid,
                             space.interpolate(psi), q_t, cache)


def solve_fine_adjoints(partition, coarse_adjoint, q_t, cache):
    """Independent backward solves on each subdomain's fine grid, with
    terminal data the coarse adjoint's (on the global coarse grid) at T_p,
    stepped together as one stack."""
    nhat_p, space = partition.coarse_grids.shape[1] - 1, coarse_adjoint.space
    return solve_backward_cg(
        [f"fine({p})" for p in range(1, partition.P_t + 1)], space,
        partition.fine_grids,
        [NodalField(space, c)
         for c in coarse_adjoint.coeffs[nhat_p - 1::nhat_p, -1]], q_t, cache)


def solve_auxiliary_adjoints(partition, coarse_adjoint, fine_adjoints,
                             q_t, cache):
    """Backward solves on (0, T_{p-1}], the global coarse grid's prefix, with
    terminal data the fine/coarse adjoint jump at T_{p-1}; returned dict is
    keyed by p = 2..P_t.  All are stepped as one ragged stack, longest
    (p = P_t) first, each bitwise its own solve_backward_cg call; a
    non-finite value names the first auxiliary(p) in that order."""
    grid, nhat_p = partition.coarse_grid, partition.coarse_grids.shape[1] - 1
    ps, space = range(partition.P_t, 1, -1), coarse_adjoint.space
    if not ps:
        return {}
    adjs = _solve_backward(
        [f"auxiliary({p})" for p in ps], space,
        [grid[:(p - 1) * nhat_p + 1] for p in ps],
        [NodalField(space, fine_adjoints[p - 1].coeffs[0, 0]
                    - coarse_adjoint.coeffs[(p - 1) * nhat_p - 1, -1])
         for p in ps], q_t, cache)
    return dict(sorted(zip(ps, adjs)))
