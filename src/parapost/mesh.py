"""1D Lagrange finite elements on an interval with homogeneous Dirichlet conditions.

Provides uniform meshes, nodal FE spaces of arbitrary degree, assembly of
mass/stiffness/load forms (including cross-space and element-restricted
variants), L2 projection and nodal interpolation, banded SPD solves, and
evaluation of terminal-time quantities of interest.

All objects are immutable after construction and safe to share.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import linalg as sla


@lru_cache(maxsize=32)
def gauss_rule(n):
    """Gauss-Legendre nodes/weights on [0, 1], exact for degree 2n-1."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


@lru_cache(maxsize=16)
def _lagrange_coeffs(q):
    """Monomial coefficients of the q+1 Lagrange basis on nodes j/q in [0,1].

    Row i holds the coefficients of basis function i in increasing powers.
    """
    nodes = np.linspace(0.0, 1.0, q + 1)
    V = np.vander(nodes, increasing=True)
    return np.linalg.inv(V).T


def lagrange_values(q, s):
    """Values of the degree-q Lagrange basis at points s in [0,1], shape (q+1, len(s))."""
    s = np.atleast_1d(np.asarray(s, dtype=float))
    powers = s[None, :] ** np.arange(q + 1)[:, None]
    return _lagrange_coeffs(q) @ powers


@lru_cache(maxsize=16)
def _quadrature_basis(q, n_quad):
    """Transposed degree-q basis at the n_quad-point Gauss nodes, (n_quad, q+1)."""
    out = lagrange_values(q, gauss_rule(n_quad)[0]).T
    out.flags.writeable = False
    return out


def lagrange_derivs(q, s):
    """Reference-coordinate derivatives of the degree-q Lagrange basis at s."""
    s = np.atleast_1d(np.asarray(s, dtype=float))
    C = _lagrange_coeffs(q)
    k = np.arange(1, q + 1)
    dC = C[:, 1:] * k[None, :]
    powers = s[None, :] ** np.arange(q)[:, None]
    return dC @ powers


@dataclass(frozen=True)
class SpatialMesh:
    """Partition of the interval (a, b) into elements."""

    a: float
    b: float
    boundaries: np.ndarray

    def __post_init__(self):
        bd = np.asarray(self.boundaries, dtype=float)
        if bd.ndim != 1 or len(bd) < 2:
            raise ValueError("mesh needs at least one element")
        if not (np.all(np.diff(bd) > 0)):
            raise ValueError("element boundaries must be strictly increasing")
        if not (abs(bd[0] - self.a) < 1e-14 and abs(bd[-1] - self.b) < 1e-14):
            raise ValueError("boundaries must span (a, b)")
        widths = np.diff(bd)
        widths.flags.writeable = False
        object.__setattr__(self, "boundaries", bd)
        object.__setattr__(self, "_widths", widths)

    @property
    def n_elements(self):
        return len(self.boundaries) - 1

    @property
    def widths(self):
        return self._widths

    @staticmethod
    def uniform(a, b, n_elements):
        if n_elements < 1:
            raise ValueError("n_elements must be positive")
        return SpatialMesh(a, b, np.linspace(a, b, n_elements + 1))

    def element_of(self, x):
        """Element index containing each point x (clipped to valid range)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        idx = np.searchsorted(self.boundaries, x, side="right") - 1
        return np.clip(idx, 0, self.n_elements - 1)


class FeSpace:
    """Continuous piecewise-polynomial space of degree q, zero on the boundary.

    Global nodes are the q*N+1 equispaced Lagrange nodes; the two endpoint
    nodes are constrained to zero, so dof_count = q*N - 1.
    """

    def __init__(self, mesh, degree):
        if degree < 1:
            raise ValueError("degree must be >= 1")
        self.mesh = mesh
        self.degree = degree
        q, N = degree, mesh.n_elements
        self.n_nodes = q * N + 1
        self.dof_count = q * N - 1
        # node coordinates, element by element
        nodes = np.empty(self.n_nodes)
        ref = np.linspace(0.0, 1.0, q + 1)
        for e in range(N):
            x0, x1 = mesh.boundaries[e], mesh.boundaries[e + 1]
            nodes[e * q : e * q + q + 1] = x0 + (x1 - x0) * ref
        self.node_coords = nodes
        # element -> global dof indices (-1 marks a constrained boundary node)
        emap = np.empty((N, q + 1), dtype=int)
        for e in range(N):
            g = e * q + np.arange(q + 1)
            emap[e] = np.where((g == 0) | (g == self.n_nodes - 1), -1, g - 1)
        self.element_dofs = emap
        self.dof_coords = nodes[1:-1]

    def zero_field(self):
        return NodalField(self, np.zeros(self.dof_count))

    def interpolate(self, fn):
        """Nodal interpolation of a callable fn(x) (boundary values dropped)."""
        return NodalField(self, np.asarray(fn(self.dof_coords), dtype=float))


@dataclass
class NodalField:
    """Coefficient vector of an FE function at a fixed time."""

    space: FeSpace
    coefficients: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=float)
        if c.shape != (self.space.dof_count,):
            raise ValueError(
                f"coefficient length {c.shape} does not match dof_count "
                f"{self.space.dof_count}"
            )
        self.coefficients = c

    def __call__(self, x):
        return eval_field(self.space, self.coefficients, x)

    def __add__(self, other):
        assert other.space is self.space
        return NodalField(self.space, self.coefficients + other.coefficients)

    def __sub__(self, other):
        assert other.space is self.space
        return NodalField(self.space, self.coefficients - other.coefficients)

    def __mul__(self, s):
        return NodalField(self.space, self.coefficients * s)

    __rmul__ = __mul__


def eval_field(space, coefficients, x):
    """Evaluate an FE function with the given coefficients at points x."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    q = space.degree
    e = space.mesh.element_of(x)
    x0 = space.mesh.boundaries[e]
    h = space.mesh.widths[e]
    s = (x - x0) / h
    vals = np.zeros_like(x)
    basis = lagrange_values(q, s)  # (q+1, npts)
    for j in range(q + 1):
        g = space.element_dofs[e, j]
        mask = g >= 0
        vals[mask] += basis[j, mask] * coefficients[g[mask]]
    return vals


class AssembledOperator:
    """Banded Cholesky factor of a symmetric positive definite Galerkin
    operator (a mass matrix, or a step operator M + dt*A).

    Built from the dense matrix it is given, which it does not keep: only
    the factor of the upper band (half-bandwidth the space degree) is held.
    """

    def __init__(self, kind, space, dense):
        u, n = space.degree, dense.shape[0]
        ab = np.zeros((u + 1, n))
        for i in range(u + 1):
            ab[u - i, i:] = np.diagonal(dense, offset=i)
        try:
            self._cho = sla.cholesky_banded(ab, lower=False)
        except sla.LinAlgError as exc:
            raise ValueError(
                f"{kind} operator is not positive definite "
                "(likely an assembly bug)"
            ) from exc

    def solve(self, rhs):
        rhs = np.asarray(rhs, dtype=float)
        return sla.cho_solve_banded((self._cho, False), rhs)


def assemble_matrix(row_space, col_space, kind, elements=None):
    """Dense Galerkin matrix between two spaces on the same mesh.

    kind is 'mass' (phi_i phi_j) or 'stiffness' (phi_i' phi_j').  An element
    index subset restricts the integration domain (used for Schwarz overlaps).
    Quadrature is exact for the polynomial integrand.
    """
    if row_space.mesh is not col_space.mesh:
        if not np.array_equal(row_space.mesh.boundaries, col_space.mesh.boundaries):
            raise ValueError("row and column spaces must share a mesh")
    mesh = row_space.mesh
    if np.any(mesh.widths <= 0):
        raise ValueError("degenerate mesh: zero-length element")
    qr, qc = row_space.degree, col_space.degree
    nq = (qr + qc) // 2 + 1
    s, w = gauss_rule(nq)
    if kind == "mass":
        br = lagrange_values(qr, s)
        bc = lagrange_values(qc, s)
    elif kind == "stiffness":
        br = lagrange_derivs(qr, s)
        bc = lagrange_derivs(qc, s)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    local_ref = (br * w[None, :]) @ bc.T  # reference-element block
    elems = (np.arange(mesh.n_elements) if elements is None
             else np.asarray(elements, dtype=int))
    h = mesh.widths[elems]
    scale = h if kind == "mass" else 1.0 / h
    blocks = local_ref[None, :, :] * scale[:, None, None]
    rows = np.broadcast_to(row_space.element_dofs[elems][:, :, None], blocks.shape)
    cols = np.broadcast_to(col_space.element_dofs[elems][:, None, :], blocks.shape)
    keep = (rows >= 0) & (cols >= 0)
    A = np.zeros((row_space.dof_count, col_space.dof_count))
    # unbuffered, in element order: each entry sums its (at most two)
    # element contributions in the same order as an element-by-element loop
    np.add.at(A, (rows[keep], cols[keep]), blocks[keep])
    return A


def assemble_load(space, t, f, n_quad=10):
    """Load vector with entries (f(., t), phi_i), fixed 10-point Gauss rule per element.

    f is called once, on the flattened (n_elements, n_quad) grid of quadrature
    points; a scalar result is broadcast to every point.  f=None (homogeneous
    problem) gives exact zeros without evaluating anything.
    """
    if f is None:
        return np.zeros(space.dof_count)
    mesh = space.mesh
    s, w = gauss_rule(n_quad)
    x0 = mesh.boundaries[:-1, None]
    h = mesh.widths[:, None]
    x = x0 + h * s[None, :]
    fx = np.asarray(f(x.ravel(), t), dtype=float)
    if fx.shape != (x.size,):
        # a scalar f; broadcast_to only here, it costs a fifth of a call
        fx = np.broadcast_to(fx, x.size)
    basis_t = _quadrature_basis(space.degree, n_quad)
    contrib = ((w * fx.reshape(x.shape)) @ basis_t) * h  # (n_elements, q+1)
    dofs = space.element_dofs
    keep = dofs >= 0
    return np.bincount(dofs[keep], weights=contrib[keep],
                       minlength=space.dof_count)


class FormCache:
    """The one holder of dense Galerkin matrices and of factorizations.

    matrix() memoizes assembled matrices; factor() memoizes whatever solves
    with them (banded step operators, cG slab LU, Schwarz sweepers, spatial
    adjoint solvers), each keeping only its factors and the blocks it cuts.
    Keys hold the space objects themselves (spaces hash by identity), so an
    entry keeps its spaces alive exactly as long as the cache lives and can
    never be confused with a later space that reuses a freed address.
    """

    def __init__(self):
        self._mats = {}
        self._factors = {}

    def matrix(self, row_space, col_space, kind, elements=None):
        key = (row_space, col_space, kind,
               None if elements is None else tuple(elements))
        if key not in self._mats:
            self._mats[key] = assemble_matrix(row_space, col_space, kind, elements)
        return self._mats[key]

    def mass(self, row_space, col_space):
        return self.matrix(row_space, col_space, "mass")

    def stiffness(self, row_space, col_space):
        return self.matrix(row_space, col_space, "stiffness")

    def step_operator(self, space, dt):
        """Banded SPD operator M + dt*A, cached per (space, dt); dt = 0 is
        the mass operator (M + 0*A equals M exactly)."""
        return self.factor(
            ("step", space, round(dt, 15)),
            lambda: AssembledOperator(
                "step", space,
                self.mass(space, space) + dt * self.stiffness(space, space)),
        )

    def factor(self, key, build):
        """A factorization, or a solver holding factorizations, built once
        per key by build()."""
        if key not in self._factors:
            self._factors[key] = build()
        return self._factors[key]


def project_field(source, target_space, mode="l2_projection"):
    """Project a NodalField or callable onto target_space.

    'l2_projection' solves M c = (source, phi_i); 'nodal_interpolation'
    samples at the Lagrange nodes.  For a NodalField source the meshes must
    agree.
    """
    if isinstance(source, NodalField):
        if not np.array_equal(
            source.space.mesh.boundaries, target_space.mesh.boundaries
        ):
            raise ValueError("source and target spaces live on different meshes")
        if source.space is target_space:
            return NodalField(target_space, source.coefficients.copy())
    if mode == "nodal_interpolation":
        return target_space.interpolate(source)
    if mode != "l2_projection":
        raise ValueError(f"unknown mode {mode!r}")
    if isinstance(source, NodalField):
        rhs = assemble_matrix(target_space, source.space, "mass") @ source.coefficients
    else:
        rhs = assemble_load(target_space, 0.0, lambda x, t: source(x))
    M = AssembledOperator("mass", target_space,
                          assemble_matrix(target_space, target_space, "mass"))
    return NodalField(target_space, M.solve(rhs))


def embed(field, target_space):
    """Exact re-expression of a field in a richer nested space (same mesh)."""
    if field.space is target_space:
        return field
    if field.space.degree > target_space.degree:
        raise ValueError("embed requires a target of equal or higher degree")
    return target_space.interpolate(field)


def qoi_eval(psi, fld, n_quad=10):
    """Terminal-time quantity of interest: integral of psi(x) * fld(x) over the domain."""
    mesh = fld.space.mesh
    s, w = gauss_rule(n_quad)
    total = 0.0
    psi_fn = psi if callable(psi) else (lambda x: psi(x))
    for e in range(mesh.n_elements):
        x0, h = mesh.boundaries[e], mesh.widths[e]
        x = x0 + h * s
        total += h * np.sum(w * psi_fn(x) * fld(x))
    return total
