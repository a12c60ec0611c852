"""Overlapping additive Schwarz decomposition of the spatial domain.

Used as the per-time-step solver at the fine scale: each sweep solves the
P_s local Dirichlet problems against the current iterate's trace values and
blends them with a Richardson parameter tau.  The full sweep history is
recorded for the a posteriori error split.  The subdomain factorizations
are set up here once per (space, dt, decomposition) and shared with the
spatial adjoints.
"""

from dataclasses import dataclass

import numpy as np
from scipy import linalg as sla
from scipy.linalg.lapack import dpotrs

from .mesh import lapack_solution


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
    """Equal element blocks, each interior edge extended by round(beta * block)
    elements on both sides and clamped to the domain.

    The damping must satisfy 0 < tau * m < 2, with m the largest number of
    subdomains covering an element: in 1D m bounds the largest eigenvalue of
    the summed subdomain projections (a coloring argument, Toselli & Widlund
    2005), so the damped sweeps converge.
    """
    N = mesh.n_elements
    if P_s < 1:
        raise ValueError("P_s must be >= 1")
    if N % P_s != 0:
        raise ValueError(f"N_s={N} must be divisible by P_s={P_s}")
    block = N // P_s
    ext = int(round(beta * block))
    if P_s > 1 and ext < 1:
        raise ValueError(
            f"beta={beta} yields no overlap; need beta >= {0.5 / block} "
            f"for at least one overlap element"
        )
    ranges = []
    for i in range(P_s):
        lo = i * block
        hi = (i + 1) * block
        if i > 0:
            lo -= ext
        if i < P_s - 1:
            hi += ext
        ranges.append((max(0, lo), min(N, hi)))
    cover = np.zeros(N, dtype=int)
    for lo, hi in ranges:
        cover[lo:hi] += 1
    m = int(cover.max())
    if not (tau > 0 and tau * m < 2):
        raise ValueError(
            f"tau={tau} does not give convergent sweeps; need "
            f"0 < tau * {m} < 2 ({m} subdomains overlap on some element)"
        )
    return OverlapDecomposition(mesh, P_s, beta, tau, tuple(ranges))


def subdomain_dof_sets(space, decomp, i):
    """(interior, trace) dof indices of subdomain i in a space.

    interior: nodes strictly inside Omega_i (excluding the outer boundary);
    trace: nodes on the internal boundary of Omega_i.
    """
    lo, hi = decomp.ranges[i]
    x_lo = space.mesh.boundaries[lo]
    x_hi = space.mesh.boundaries[hi]
    coords = space.dof_coords
    tol = 1e-12 * (space.mesh.b - space.mesh.a)
    inside = (coords > x_lo + tol) & (coords < x_hi - tol)
    on_trace = (np.abs(coords - x_lo) <= tol) | (np.abs(coords - x_hi) <= tol)
    return np.nonzero(inside)[0], np.nonzero(on_trace)[0]


@dataclass
class SchwarzSweepRecord:
    """Per-sweep local solutions and blended global iterates for one solve.

    iterates[0] is the initial guess; iterates[k] the blend after sweep k.
    locals_[k-1][i] is the full-length local solution of subdomain i in sweep
    k (iterate values outside the subdomain interior).
    """

    iterates: list
    locals_: list

    def column(self, c):
        """The record of column c of a multi-column solve, as views of this
        one's arrays."""
        return SchwarzSweepRecord([u[:, c] for u in self.iterates],
                                  [[u[:, c] for u in sweep]
                                   for sweep in self.locals_])


class AdditiveSchwarz:
    """Additive Schwarz sweeps for a fixed step operator B = M + dt*A.

    Keeps, per subdomain, the upper Cholesky factor of B's interior block
    and the interior x trace coupling block, both cut once from B; B itself
    is not kept.
    """

    def __init__(self, space, B_dense, decomp):
        self.space = space
        self.decomp = decomp
        self.sets = [subdomain_dof_sets(space, decomp, i)
                     for i in range(decomp.P_s)]
        self._chol = [sla.cho_factor(B_dense[np.ix_(interior, interior)])[0]
                      for interior, _ in self.sets]
        self._coupling = [B_dense[np.ix_(interior, trace)]
                          for interior, trace in self.sets]

    @classmethod
    def cached(cls, cache, space, dt, decomp):
        """The sweeper of the step operator M + dt*A, built once per
        (space, dt, decomposition) and owned by the FormCache."""
        return cache.factor(
            ("schwarz", space, round(dt, 15), decomp),
            lambda: cls(space, cache.mass(space, space)
                        + dt * cache.stiffness(space, space), decomp),
        )

    def local_solve(self, i, rhs):
        """Solve the interior block of B on subdomain i, for one right-hand
        side or each column of a block."""
        return lapack_solution("dpotrs", *dpotrs(self._chol[i], rhs))

    def solve(self, rhs, guess, K_s):
        """Run K_s sweeps from the given initial guess; returns the final
        iterate and the full sweep record.

        rhs and guess are one vector each or (dof, P) blocks of P columns,
        swept together with one local solve per subdomain and sweep; each
        column of the result and of the record (record.column) is bitwise
        that of its own one-vector solve.  The record's arrays keep the
        guess's memory order, so a Fortran-ordered guess gives contiguous
        columns.
        """
        if K_s < 1:
            raise ValueError("K_s must be >= 1")
        tau, P_s = self.decomp.tau, self.decomp.P_s
        u = np.array(guess, dtype=float)
        record = SchwarzSweepRecord(iterates=[np.copy(u)], locals_=[])
        for k in range(K_s):
            locals_k = []
            acc = (1.0 - tau * P_s) * u
            for i, (interior, trace) in enumerate(self.sets):
                r = rhs[interior] - self._coupling[i] @ u[trace]
                # u_loc equals u outside the interior, so it is also the
                # subdomain's contribution to the blend
                u_loc = np.copy(u)
                u_loc[interior] = self.local_solve(i, r)
                locals_k.append(u_loc)
                acc += tau * u_loc
            u = acc
            record.iterates.append(np.copy(u))
            record.locals_.append(locals_k)
        return u, record
