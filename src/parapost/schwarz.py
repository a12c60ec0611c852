"""Overlapping additive Schwarz decomposition of the spatial domain.

Used as the per-time-step solver at the fine scale: each sweep solves the
P_s local Dirichlet problems against the current iterate's trace values and
blends them with a Richardson parameter tau.  A solve returns every
sweep's local solutions, which the a posteriori error split replays.  The
subdomain factorizations are set up here once per (space, step size,
decomposition), and the same sweeper runs its sweeps backwards as the
per-sweep subdomain adjoints of that split.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._lapack import dpotrf, dpotrs
from .mesh import assemble_matrix, lapack_solution, matvecs, require_finite


@dataclass(frozen=True, eq=False)
class OverlapDecomposition:
    """P_s overlapping element blocks of a 1D mesh.

    Compares and hashes by identity, so it can key a FormCache entry.
    """

    mesh: object
    P_s: int
    beta: float
    tau: float
    ranges: tuple     # per subdomain, (first_element, last_element_exclusive)

    def elements(self, i):
        lo, hi = self.ranges[i]
        return range(lo, hi)


def decompose_domain(mesh, P_s, beta, tau):
    """The OverlapDecomposition of a mesh by overlap_ranges."""
    return OverlapDecomposition(
        mesh, P_s, beta, tau, overlap_ranges(mesh.n_elements, P_s, beta, tau))


def overlap_ranges(N, P_s, beta, tau):
    """The (first_element, last_element_exclusive) blocks of P_s subdomains
    of N elements: equal element blocks, each interior edge extended by
    round(beta * block) elements on both sides and clamped to the domain,
    or a ValueError naming the bad setting.

    The damping must satisfy 0 < tau * m < 2, with m the largest number of
    subdomains covering an element: in 1D m bounds the largest eigenvalue of
    the summed subdomain projections (a coloring argument, Toselli & Widlund
    2005), so the damped sweeps converge.
    """
    if P_s < 1:
        raise ValueError("P_s must be >= 1")
    if N % P_s != 0:
        raise ValueError(f"N_s={N} must be divisible by P_s={P_s}")
    block = N // P_s
    ext = int(round(beta * block))
    if P_s > 1 and ext < 1:
        raise ValueError(
            f"beta={beta} yields no overlap; need beta > {0.5 / block} "
            f"for at least one overlap element"
        )
    ranges = [(max(0, i * block - ext), min(N, (i + 1) * block + ext))
              for i in range(P_s)]
    cover = np.zeros(N, dtype=int)
    for lo, hi in ranges:
        cover[lo:hi] += 1
    m = int(cover.max())
    if not (tau > 0 and tau * m < 2):
        raise ValueError(
            f"tau={tau} does not give convergent sweeps; need "
            f"0 < tau * {m} < 2 ({m} subdomains overlap on some element)"
        )
    return tuple(ranges)


def subdomain_dof_sets(space, decomp, i):
    """(interior, trace) dof indices of subdomain i in a space.

    Subdomain i holds the elements lo..hi-1, so with q nodes per element its
    interior nodes are lo*q+1 .. hi*q-1 and its trace the end nodes lo*q and
    hi*q that are not on the outer boundary; dof j is node j+1.
    """
    q, N = space.degree, space.mesh.n_elements
    lo, hi = decomp.ranges[i]
    trace = [node for node, inner in ((lo * q, lo > 0), (hi * q, hi < N))
             if inner]
    return np.arange(lo * q, hi * q - 1), np.array(trace, dtype=int) - 1


def _cut(M, A, dt, rows, cols):
    """The rows x cols block of M + dt*A, cut from M and A before summing:
    elementwise the block of the dense sum, which is never formed."""
    ix = np.ix_(rows, cols)
    return M[ix] + dt * A[ix]


def _cholesky(B):
    """The upper Cholesky factor of B, with B's lower triangle left in
    place, as scipy's cho_factor returns it."""
    require_finite(B)
    return lapack_solution("dpotrf", *dpotrf(B, lower=0, clean=0))


class AdditiveSchwarz:
    """Additive Schwarz sweeps for a fixed step operator B = M + dt*A, and
    the same sweeps run backwards as the per-sweep subdomain adjoints.

    Keeps, per subdomain, the upper Cholesky factor of B's interior block
    and the interior x trace coupling block, both cut from the cache's M and
    A; B itself is never formed.
    """

    def __init__(self, space, dt, decomp, cache):
        self.space = space
        self.dt = dt
        self.decomp = decomp
        self.sets = [subdomain_dof_sets(space, decomp, i)
                     for i in range(decomp.P_s)]
        M, A = cache.mass(space, space), cache.stiffness(space, space)
        self._chol = [_cholesky(_cut(M, A, dt, interior, interior))
                      for interior, _ in self.sets]
        self._coupling = [_cut(M, A, dt, interior, trace)
                          for interior, trace in self.sets]

    @classmethod
    def cached(cls, cache, space, dt, decomp):
        """The sweeper of the step operator M + dt*A, built once per
        (space, step size, decomposition) and owned by the FormCache."""
        return cache.per_step(space, dt,
                              lambda: cls(space, dt, decomp, cache),
                              "schwarz", decomp)

    def local_solve(self, i, rhs):
        """Solve the interior block of B on subdomain i, for one right-hand
        side or each column of a block."""
        return lapack_solution("dpotrs", *dpotrs(self._chol[i], rhs))

    def solve(self, rhs, guess, K_s):
        """Run K_s sweeps from the given initial guess; returns the final
        iterate and the sweep history.

        The history sweeps, shape (K_s, P_s) + rhs.shape, holds in
        sweeps[k-1, i] the full-length local solution of subdomain i in
        sweep k: the solve on the interior of subdomain i, and the iterate
        before sweep k elsewhere.  Of the iterate only the last is kept:
        iterate k is (1 - tau P_s) iterate k-1 + tau sum_i sweeps[k-1, i],
        summed in i order.  rhs is one vector or a (dof, P) block of P
        columns, swept together with one local solve per subdomain and
        sweep; each column of the result and of the history is bitwise that
        of its own one-vector solve.  guess has rhs's shape, or is a scalar
        taken for every entry.
        """
        if K_s < 1:
            raise ValueError("K_s must be >= 1")
        tau, P_s = self.decomp.tau, self.decomp.P_s
        u = np.array(np.broadcast_to(guess, np.shape(rhs)), dtype=float)
        sweeps = np.empty((K_s, P_s) + np.shape(rhs))
        for k in range(K_s):
            acc = (1.0 - tau * P_s) * u
            for i, (interior, trace) in enumerate(self.sets):
                r = rhs[interior] - self._coupling[i] @ u[trace]
                # the local solution equals u outside the interior, so it is
                # also the subdomain's contribution to the blend
                u_loc = sweeps[k, i]
                u_loc[...] = u
                u_loc[interior] = self.local_solve(i, r)
                acc += tau * u_loc
            u = acc
        return u, sweeps

    @cached_property
    def _counted(self):
        """The mass matrix and, per subdomain, the interior block of the step
        matrix, with each element counted once per subdomain covering it: on
        the interior rows of subdomain i they equal the sum over j of the
        matrices restricted to the overlaps of i and j.  Built on first use."""
        Mm, Am = (sum(assemble_matrix(self.space, self.space, kind,
                                      self.decomp.elements(j))
                      for j in range(self.decomp.P_s))
                  for kind in ("mass", "stiffness"))
        return Mm, [_cut(Mm, Am, self.dt, interior, interior)
                    for interior, _ in self.sets]

    def adjoint(self, weights, K_s):
        """Per-sweep subdomain adjoints of K_s sweeps for a (columns, dof)
        block of weights in this sweeper's space: the sweeps run backwards.

        Yields (k_s, i, chi) for each subdomain i and, within it, k_s from
        K_s down to 1, with chi the (columns, dof) block of the adjoints
        chi_i^{k_s}, zero outside the interior of subdomain i; on its
        interior rows B chi_i^{k_s} = tau (Mm weight - Bm sum_{l > k_s}
        chi_i^l).  The columns are swept together with one local solve per
        subdomain and sweep, and each is bitwise its own one-row block's.
        Nothing here checks finiteness: the caller, which knows each
        column's step, does (estimator.dd_split).
        """
        Mm, Bm = self._counted
        tau = self.decomp.tau
        tMw = tau * matvecs(Mm, weights)
        for i, (interior, _) in enumerate(self.sets):
            running = np.zeros((len(weights), len(interior)))  # sum_{l > k_s}
            for ks in range(K_s, 0, -1):
                r = tMw[:, interior] - tau * matvecs(Bm[i], running)
                x = self.local_solve(i, r.T).T
                chi = np.zeros_like(tMw)
                chi[:, interior] = x
                yield ks, i, chi
                running = running + x
