"""1D Lagrange finite elements on an interval with homogeneous Dirichlet conditions.

Provides uniform meshes, nodal FE spaces of arbitrary degree with nodal
interpolation (and exact embedding into a richer space), assembly of
mass/stiffness/load forms (including cross-space and element-restricted
variants), banded SPD solves, row-by-row products of blocks, and evaluation
of terminal-time quantities of interest.

All objects are immutable after construction and safe to share.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import legendre

from ._lapack import dpbtrf, dpbtrs

# Gauss points per element of the load vectors and the QoI integral
N_QUAD = 10


def _read_only(a):
    """a, made read-only, for an array that every later caller shares (the
    lru_cached tables are shared by the whole process)."""
    a.flags.writeable = False
    return a


@lru_cache(maxsize=32)
def gauss_rule(n):
    """Gauss-Legendre nodes/weights on [0, 1], exact for degree 2n-1."""
    x, w = legendre.leggauss(n)
    return _read_only(0.5 * (x + 1.0)), _read_only(0.5 * w)


@lru_cache(maxsize=16)
def _lagrange_coeffs(q):
    """Monomial coefficients of the q+1 Lagrange basis on nodes j/q in [0,1].

    Row i holds the coefficients of basis function i in increasing powers.
    """
    nodes = np.linspace(0.0, 1.0, q + 1)
    V = np.vander(nodes, increasing=True)
    return _read_only(np.linalg.inv(V).T)


def lagrange_values(q, s):
    """Values of the degree-q Lagrange basis at points s in [0,1], shape (q+1, len(s))."""
    s = np.atleast_1d(np.asarray(s, dtype=float))
    powers = s[None, :] ** np.arange(q + 1)[:, None]
    return _lagrange_coeffs(q) @ powers


@lru_cache(maxsize=16)
def _quadrature_basis(q, n_quad):
    """Transposed degree-q basis at the n_quad-point Gauss nodes, (n_quad, q+1)."""
    return _read_only(lagrange_values(q, gauss_rule(n_quad)[0]).T)


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
        self.dof_count = q * N - 1
        # element -> global dof indices (-1 marks a constrained boundary node)
        emap = q * np.arange(N)[:, None] + np.arange(q + 1) - 1
        emap[0, 0] = emap[-1, -1] = -1
        self.element_dofs = emap
        # node coordinates x0 + (x1 - x0) * ref per element; a shared node is
        # the next element's x0, and the two boundary nodes are dropped
        ref = np.linspace(0.0, 1.0, q + 1)
        x0 = mesh.boundaries[:-1, None]
        local = x0 + (mesh.boundaries[1:, None] - x0) * ref
        self.dof_coords = local[:, :q].ravel()[1:]

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
        return NodalGather(self.space, x)(self.coefficients[None])[0]

    def __add__(self, other):
        self._require_same_space(other)
        return NodalField(self.space, self.coefficients + other.coefficients)

    def __sub__(self, other):
        self._require_same_space(other)
        return NodalField(self.space, self.coefficients - other.coefficients)

    def _require_same_space(self, other):
        """Raise a ValueError unless other lives in this field's space: two
        spaces with equal dof counts would otherwise combine silently."""
        if other.space is not self.space:
            raise ValueError(
                "fields of different spaces: degree "
                f"{self.space.degree} on {self.space.mesh.n_elements} "
                f"elements and degree {other.space.degree} on "
                f"{other.space.mesh.n_elements} elements")


class NodalGather:
    """Evaluation of the fields of one space at fixed points x: per local
    basis function j, the points whose element has a free dof there, that
    dof and the basis value.  Building it does the element search and the
    basis evaluation; each call only gathers, summing in j order, from each
    row of a (rows, dof) block, bitwise the row's own one-row call."""

    def __init__(self, space, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        e = space.mesh.element_of(x)
        s = (x - space.mesh.boundaries[e]) / space.mesh.widths[e]
        basis = lagrange_values(space.degree, s)  # (q+1, npts)
        self._n = len(x)
        self._terms = []
        for j in range(space.degree + 1):
            g = space.element_dofs[e, j]
            mask = g >= 0
            self._terms.append((mask, g[mask], basis[j, mask]))

    def __call__(self, coefficients):
        vals = np.zeros((len(coefficients), self._n))
        for mask, g, b in self._terms:
            vals[:, mask] += b * coefficients[:, g]
        return vals


class AssembledOperator:
    """Banded Cholesky factor of a symmetric positive definite Galerkin
    operator (a mass matrix, or a step operator M + dt*A).

    Built from the upper band (half-bandwidth the space degree) of M + dt*A
    given the dense M and A, which it does not keep: each band entry is the
    sum of M's and dt*A's, so no dense sum is formed, and only the band's
    factor is held.
    """

    def __init__(self, kind, space, M, A, dt):
        u, n = space.degree, M.shape[0]
        ab = np.zeros((u + 1, n))
        for i in range(u + 1):
            ab[u - i, i:] = (np.diagonal(M, offset=i)
                             + dt * np.diagonal(A, offset=i))
        require_finite(ab)
        try:
            self._cho = lapack_solution("dpbtrf", *dpbtrf(ab, lower=0))
        except np.linalg.LinAlgError as exc:
            raise ValueError(
                f"{kind} operator is not positive definite "
                "(likely an assembly bug)"
            ) from exc

    def solve(self, rhs):
        """The solution for one right-hand side, or for each column of a
        (dof, P) block in one multi-column solve."""
        return lapack_solution("dpbtrs", *dpbtrs(self._cho, rhs))


def require_finite(a):
    """Raise unless every entry of a matrix about to be factored is finite:
    a NaN passes LAPACK's pivot test (ajj <= 0) and would factor."""
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")


def lapack_solution(routine, x, info):
    """x of a direct LAPACK call's (x, info); nonzero info raises."""
    if info != 0:
        raise np.linalg.LinAlgError(f"{routine} returned info={info}")
    return x


# Row by row products of a block: a matrix product with a block of columns,
# B @ X.T, sums in another order than B @ x does for each column, but numpy's
# stacked matmul makes the one-vector BLAS call (dgemv, ddot) once per row,
# so each row is bitwise that row's own product.

def matvecs(B, X):
    """B @ x for each row x of X, as the rows of a (rows, B.shape[0]) array."""
    return np.matmul(B, X[..., None])[..., 0]


def dots(X, Y):
    """x @ y for each pair of rows of X and Y."""
    return np.matmul(X[..., None, :], Y[..., :, None])[..., 0, 0]


def pairings(X, G, Y):
    """x @ G @ y for each pair of rows of the 2-d X and Y."""
    return dots(np.matmul(X[:, None, :], G)[:, 0], Y)


def groups(keys):
    """(key, indices) per distinct key of a sequence, in first-seen order."""
    index = {}
    for j, key in enumerate(keys):
        index.setdefault(key, []).append(j)
    return [(key, np.array(js)) for key, js in index.items()]


@lru_cache(maxsize=64)
def _reference_block(qr, qc, kind):
    """The read-only reference-element block of assemble_matrix between the
    degree-qr and degree-qc bases, exact for the polynomial integrand."""
    s, w = gauss_rule((qr + qc) // 2 + 1)
    if kind == "mass":
        br, bc = lagrange_values(qr, s), lagrange_values(qc, s)
    elif kind == "stiffness":
        br, bc = lagrange_derivs(qr, s), lagrange_derivs(qc, s)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return _read_only((br * w[None, :]) @ bc.T)


def assemble_matrix(row_space, col_space, kind, elements=None):
    """Dense Galerkin matrix between two spaces on the same mesh.

    kind is 'mass' (phi_i phi_j) or 'stiffness' (phi_i' phi_j').  An element
    index subset restricts the integration domain (used for Schwarz overlaps).
    Each call scales and scatters the cached _reference_block.
    """
    if row_space.mesh is not col_space.mesh:
        if not np.array_equal(row_space.mesh.boundaries, col_space.mesh.boundaries):
            raise ValueError("row and column spaces must share a mesh")
    mesh = row_space.mesh
    local_ref = _reference_block(row_space.degree, col_space.degree, kind)
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


# values of f per block of an assemble_load call (times x quadrature
# points): its temporaries (f's values, their weighted copy, the element
# contributions and their rows) grow with the block, not with the call
_LOAD_BLOCK = 2**16


def assemble_load(space, t, f):
    """Load vectors with entries (f(., t), phi_i), N_QUAD-point Gauss rule per element.

    A scalar time t gives shape (dof,), an array of times t.shape + (dof,).
    f must broadcast like a numpy ufunc: it is called once per block of
    times, as f(x[None, :], times[:, None]), with x the flattened
    (n_elements, N_QUAD) grid of quadrature points and times the block's T
    times, and its result is broadcast to shape (T, len(x)), so a scalar
    result holds at every point and time.  A block takes as many times as
    keep its T * len(x) values of f within _LOAD_BLOCK, and at least one;
    one contraction and one scatter serve it.  Each time's load is its own
    product and bins, so every load is bitwise that of its own call, and
    the temporaries are bounded by the block however many times are asked
    for.  f=None (homogeneous problem) gives exact zeros without evaluating
    anything.
    """
    t = np.asarray(t, dtype=float)
    n, times = space.dof_count, t.reshape(-1)
    if f is None:
        return np.zeros(t.shape + (n,))
    mesh = space.mesh
    h = mesh.widths[:, None]
    s = gauss_rule(N_QUAD)[0]
    x = (mesh.boundaries[:-1, None] + h * s[None, :]).ravel()
    out = np.empty((len(times), n))
    block = max(1, _LOAD_BLOCK // x.size)
    for a in range(0, len(times), block):
        out[a:a + block] = _load_block(space, x, h, times[a:a + block], f)
    return out.reshape(t.shape + (n,))


def _load_block(space, x, h, times, f):
    """The (T, dof) loads of assemble_load at T times, at the quadrature
    points x of elements of widths h: one contraction and one bincount,
    time k's dofs offset by k*dof."""
    n, mesh, w = space.dof_count, space.mesh, gauss_rule(N_QUAD)[1]
    fx = np.broadcast_to(f(x[None, :], times[:, None]), (len(times), x.size))
    fx = fx.reshape(len(times), mesh.n_elements, N_QUAD)
    contrib = ((w * fx) @ _quadrature_basis(space.degree, N_QUAD)) * h
    keep = space.element_dofs >= 0
    rows = space.element_dofs[keep] + n * np.arange(len(times))[:, None]
    return np.bincount(rows.ravel(), weights=contrib[:, keep].ravel(),
                       minlength=len(times) * n).reshape(len(times), n)


class FormCache:
    """The one owner of assembled matrices, load blocks, embeddings and every
    factorization, for the lifetime of one experiment.

    factor() builds each entry once per key, whose first element is its
    kind, and factors() several by one call: matrix() and loads() the
    assembled matrices and the step-end load blocks of implicit Euler and
    the estimator's splits, read-only since every later caller shares them;
    gather() its nodal gathers; the read-only time-integrated cG loads of a
    grid (timestepping's "cg_load" blocks; the raw quadrature block they
    are integrated from is not kept) and per_step() the solvers built once
    per step size (banded step operators, Schwarz sweepers, and a cG
    degree's "cg_slab" entry: the slab LU, its start-value tables and this
    cache's own M and A, all a slab reads), each keeping only its factors
    and the blocks it cuts.
    release() drops the entries of one kind: the cG slab LUs, the largest,
    live only until the adjoint solves end, as no later step of the
    estimate solves a slab.  Keys hold the
    space objects themselves (spaces hash by identity), so an entry keeps
    its spaces alive exactly as long as the cache lives and can never be
    confused with a later space that reuses a freed address.  Its cached
    solvers must not be shared across threads: scipy's dgetrs wrapper
    rewrites the pivot array of a slab LU in place during each call.
    """

    def __init__(self):
        self._factors = {}

    def matrix(self, row_space, col_space, kind):
        return self.factor(("matrix", row_space, col_space, kind),
                           lambda: _read_only(
                               assemble_matrix(row_space, col_space, kind)))

    def mass(self, row_space, col_space):
        return self.matrix(row_space, col_space, "mass")

    def stiffness(self, row_space, col_space):
        return self.matrix(row_space, col_space, "stiffness")

    def step_operator(self, space, dt):
        """Banded SPD operator M + dt*A, one per (space, step size); dt = 0
        is the mass operator (M + 0*A equals M exactly)."""
        return self.per_step(
            space, dt,
            lambda: AssembledOperator("step", space, self.mass(space, space),
                                      self.stiffness(space, space), dt),
            "step")

    def loads(self, space, ts, f):
        """assemble_load(space, t, f) for each row t of a stack of times ts,
        read-only, each assembled once per (space, f, exact times): those
        not yet cached by one assemble_load call (each row bitwise its
        own)."""
        ts = np.asarray(ts, dtype=float)
        return self.factors(
            [("load", space, f, t.shape, t.tobytes()) for t in ts],
            lambda js: map(_read_only, assemble_load(space, ts[js], f)))

    def gather(self, space, target_space):
        """The NodalGather of space's fields at target_space's nodes."""
        return self.factor(("gather", space, target_space),
                           lambda: NodalGather(space, target_space.dof_coords))

    def per_step(self, space, dt, build, *key):
        """The solver build() returns for step size dt, built once per (key,
        space, dt to 15 digits) from the first dt of its key.  Each solving
        call looks one up, for its first step's size, and serves every step
        with it; this is the one place that decides which calls share one.
        A stack's column is bitwise its own call if its first step has the
        stack's key; a uniform partition's rows can straddle the key."""
        return self.factor(key + (space, round(dt, 15)), build)

    def release(self, kind):
        """Drop every entry whose key starts with kind; a lookup rebuilds it."""
        self._factors = {key: value for key, value in self._factors.items()
                         if key[0] != kind}

    def factor(self, key, build):
        """The object build() returns, built once per key."""
        if key not in self._factors:
            self._factors[key] = build()
        return self._factors[key]

    def factors(self, keys, build):
        """The factor() of each key, those not yet built by one call build(js)
        that returns the objects of the keys at indices js."""
        todo = {key: j for j, key in enumerate(keys)
                if key not in self._factors}
        if todo:
            self._factors.update(zip(todo, build(list(todo.values()))))
        return [self.factor(key, None) for key in keys]


def embed_rows(space, rows, target_space, cache):
    """The exact re-expression of each row of a (rows, dof) block of space's
    fields in a richer nested space (same mesh), by the cache's nodal
    gather, one stacked call, each row bitwise its own one-row call."""
    if space is target_space:
        return rows
    if space.degree > target_space.degree:
        raise ValueError("embed requires a target of equal or higher degree")
    return cache.gather(space, target_space)(rows)


def qoi_eval(psi, fld):
    """Terminal-time quantity of interest: integral of psi(x) * fld(x) over
    the domain, by the N_QUAD-point Gauss rule per element."""
    mesh = fld.space.mesh
    s, w = gauss_rule(N_QUAD)
    h = mesh.widths
    x = (mesh.boundaries[:-1, None] + h[:, None] * s[None, :]).ravel()
    shape = (mesh.n_elements, N_QUAD)
    psi_x = np.broadcast_to(psi(x), x.shape).reshape(shape)
    sums = np.sum(w * psi_x * fld(x).reshape(shape), axis=1)
    total = 0.0
    for v in h * sums:  # added in element order
        total += v
    return total
