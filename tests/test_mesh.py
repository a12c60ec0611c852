"""Meshes, spaces, assembly, projections, banded solves and QoI evaluation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.linalg import eigh

from parapost.mesh import (
    AssembledOperator,
    FeSpace,
    FormCache,
    NodalField,
    SpatialMesh,
    assemble_load,
    assemble_matrix,
    embed,
    project_field,
    qoi_eval,
)


def test_mesh_uniform_invariants():
    mesh = SpatialMesh.uniform(0.0, 1.0, 20)
    b = np.asarray(mesh.boundaries)
    assert b[0] == 0.0 and b[-1] == 1.0
    assert np.all(np.diff(b) > 0)
    assert np.max(np.abs(np.diff(b) - 0.05)) <= 1e-14


def test_mesh_rejects_degenerate():
    with pytest.raises(ValueError):
        SpatialMesh.uniform(0.0, 1.0, 0)
    with pytest.raises(ValueError):
        SpatialMesh(0.0, 1.0, (0.0, 0.5, 0.5, 1.0))


def test_dof_count_formula():
    mesh = SpatialMesh.uniform(0.0, 1.0, 20)
    for q in (1, 2, 3):
        assert FeSpace(mesh, q).dof_count == q * 20 - 1


def _mass_and_stiffness(space):
    return (assemble_matrix(space, space, "mass"),
            assemble_matrix(space, space, "stiffness"))


def test_mass_stiffness_single_interior_dof():
    # q=1, N_s=2 on (0,1): one interior hat; M = [1/3], A = [4]
    mesh = SpatialMesh.uniform(0.0, 1.0, 2)
    space = FeSpace(mesh, 1)
    M, A = _mass_and_stiffness(space)
    assert M.shape == (1, 1)
    assert abs(M[0, 0] - 1.0 / 3.0) < 1e-14
    assert abs(A[0, 0] - 4.0) < 1e-14


def test_operator_symmetry_and_pd():
    space = FeSpace(SpatialMesh.uniform(0.0, 1.0, 13), 2)
    for mat in _mass_and_stiffness(space):
        scale = np.max(np.abs(mat))
        assert np.max(np.abs(mat - mat.T)) <= 1e-15 * scale
        assert np.min(np.linalg.eigvalsh(mat)) > 0.0


def test_stiffness_smallest_eigenvalue_is_pi_squared():
    # generalized eigenproblem A x = lam M x discretizes -u'' eigenvalues
    space = FeSpace(SpatialMesh.uniform(0.0, 1.0, 20), 2)
    M, A = _mass_and_stiffness(space)
    lam = eigh(A, M, eigvals_only=True)
    assert abs(lam[0] - np.pi**2) / np.pi**2 < 0.01


def test_load_zero():
    space = FeSpace(SpatialMesh.uniform(0.0, 1.0, 7), 2)
    assert np.all(assemble_load(space, 0.3, lambda x, t: np.zeros_like(x)) == 0)


def test_load_manufactured_t0_vs_oracle():
    # f(x,0) = pi^2 sin(pi x) for nu anything, mu=1; compare per-dof to
    # adaptive quadrature of the exact integrand
    space = FeSpace(SpatialMesh.uniform(0.0, 1.0, 8), 2)
    nu = 4.0
    f = lambda x, t: np.sin(np.pi * x) * (
        np.pi**2 * np.cos(nu * np.pi * t) - nu * np.pi * np.sin(nu * np.pi * t)
    )
    vec = assemble_load(space, 0.0, f)
    # oracle: integrate pi^2 sin(pi x) * phi_i by quadrature per basis fn
    for i in range(space.dof_count):
        e = np.zeros(space.dof_count)
        e[i] = 1.0
        phi = NodalField(space, e)
        val, _ = quad(lambda x: np.pi**2 * np.sin(np.pi * x) * phi(x).item(),
                      0, 1, points=list(space.mesh.boundaries), limit=200)
        assert abs(vec[i] - val) < 1e-10


def test_load_constant_partition_of_unity():
    # interior-dof assembly of f=c sums to c*(b-a) minus boundary-hat mass
    space = FeSpace(SpatialMesh.uniform(0.0, 1.0, 10), 1)
    c = 3.0
    vec = assemble_load(space, 0.0, lambda x, t: c * np.ones_like(x))
    h = 0.1
    assert abs(vec.sum() - (c * 1.0 - 2 * c * h / 2)) < 1e-13


def test_projection_identity_on_space():
    space = FeSpace(SpatialMesh.uniform(0.0, 1.0, 9), 2)
    rng = np.random.default_rng(0)
    fld = NodalField(space, rng.standard_normal(space.dof_count))
    for mode in ("l2_projection", "nodal_interpolation"):
        out = project_field(fld, space, mode)
        assert np.max(np.abs(out.coefficients - fld.coefficients)) < 1e-12


def test_projection_l2_beats_interpolation():
    space = FeSpace(SpatialMesh.uniform(0.0, 1.0, 20), 1)
    u0 = lambda x: np.sin(np.pi * x)
    pl2 = project_field(u0, space, "l2_projection")
    pin = project_field(u0, space, "nodal_interpolation")

    def l2err(fld):
        val, _ = quad(lambda x: (u0(x) - fld(x).item()) ** 2, 0, 1,
                      points=list(space.mesh.boundaries), limit=200)
        return np.sqrt(val)

    e_l2, e_in = l2err(pl2), l2err(pin)
    assert e_l2 <= e_in
    assert e_in < 0.5 * (np.pi / 20) ** 2  # O(h^2)


def test_projection_zero():
    space = FeSpace(SpatialMesh.uniform(0.0, 1.0, 5), 3)
    out = project_field(lambda x: np.zeros_like(x), space, "l2_projection")
    assert np.max(np.abs(out.coefficients)) < 1e-14


def test_solve_spd_identity_and_scalar():
    ident = AssembledOperator("mass", FeSpace(SpatialMesh.uniform(0, 1, 2), 1),
                              np.array([[1.0]]))
    assert ident.solve(np.array([0.7]))[0] == pytest.approx(0.7)
    four = AssembledOperator("mass", FeSpace(SpatialMesh.uniform(0, 1, 2), 1),
                             np.array([[4.0]]))
    assert four.solve(np.array([1.0]))[0] == pytest.approx(0.25)


def test_solve_spd_banded_vs_dense_oracle():
    rng = np.random.default_rng(42)
    space = FeSpace(SpatialMesh.uniform(0.0, 1.0, 25), 2)  # 49 dofs, banded
    M, A = _mass_and_stiffness(space)
    B = M + 0.03 * A
    op = AssembledOperator("mass", space, B)
    rhs = rng.standard_normal(space.dof_count)
    x = op.solve(rhs)
    x_dense = np.linalg.solve(B, rhs)
    assert np.max(np.abs(x - x_dense)) <= 1e-12 * max(1.0, np.max(np.abs(x_dense)))
    assert np.linalg.norm(B @ x - rhs) <= 1e-12 * np.linalg.norm(rhs)


def test_solve_spd_rejects_indefinite():
    # the factor is built with the operator, so that is where it fails
    space = FeSpace(SpatialMesh.uniform(0.0, 1.0, 2), 1)
    with pytest.raises(ValueError):
        AssembledOperator("mass", space, np.array([[-1.0]]))


def test_qoi_zero_weight():
    space = FeSpace(SpatialMesh.uniform(0.0, 1.0, 6), 2)
    fld = space.interpolate(lambda x: np.sin(np.pi * x))
    assert qoi_eval(lambda x: np.zeros_like(np.asarray(x)), fld) == 0.0


def test_qoi_bump_weight_vs_oracle():
    space = FeSpace(SpatialMesh.uniform(0.0, 1.0, 80), 2)
    fld = space.interpolate(lambda x: np.sin(np.pi * x))

    def psi(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        m = (x > 0.2) & (x < 0.6)
        out[m] = 10000.0 * (x[m] - 0.2) ** 2 * (x[m] - 0.6) ** 2
        return out

    oracle, _ = quad(
        lambda x: 10000.0 * (x - 0.2) ** 2 * (x - 0.6) ** 2 * np.sin(np.pi * x),
        0.2, 0.6, epsabs=1e-13, epsrel=1e-13)
    assert abs(qoi_eval(psi, fld) - oracle) < 1e-8


def test_qoi_hat_against_itself_is_mass_diagonal():
    space = FeSpace(SpatialMesh.uniform(0.0, 1.0, 10), 1)
    M = assemble_matrix(space, space, "mass")
    i = 4
    e = np.zeros(space.dof_count)
    e[i] = 1.0
    hat = NodalField(space, e)
    assert abs(qoi_eval(hat, hat) - M[i, i]) < 1e-13


def test_nested_embedding_pointwise():
    mesh = SpatialMesh.uniform(0.0, 1.0, 7)
    coarse, fine = FeSpace(mesh, 1), FeSpace(mesh, 3)
    rng = np.random.default_rng(3)
    fld = NodalField(coarse, rng.standard_normal(coarse.dof_count))
    up = embed(fld, fine)
    xs = rng.uniform(0.0, 1.0, 70)
    assert np.max(np.abs(fld(xs) - up(xs))) < 1e-13


def test_cross_mass_matches_quadrature():
    mesh = SpatialMesh.uniform(0.0, 1.0, 4)
    a_sp, b_sp = FeSpace(mesh, 2), FeSpace(mesh, 3)
    G = assemble_matrix(a_sp, b_sp, "mass")
    rng = np.random.default_rng(5)
    u = NodalField(a_sp, rng.standard_normal(a_sp.dof_count))
    v = NodalField(b_sp, rng.standard_normal(b_sp.dof_count))
    oracle, _ = quad(lambda x: u(x).item() * v(x).item(), 0, 1,
                     points=list(mesh.boundaries), limit=200)
    assert abs(u.coefficients @ G @ v.coefficients - oracle) < 1e-12


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 12), q=st.integers(1, 3), seed=st.integers(0, 10**6))
def test_property_operator_symmetry_pd(n, q, seed):
    space = FeSpace(SpatialMesh.uniform(0.0, 1.0, n), q)
    M, A = _mass_and_stiffness(space)
    assert np.max(np.abs(M - M.T)) <= 1e-15 * np.max(np.abs(M))
    assert np.max(np.abs(A - A.T)) <= 1e-15 * np.max(np.abs(A))
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(space.dof_count)
    assert v @ M @ v > 0
    assert v @ A @ v > 0


def test_form_cache_reuse():
    cache = FormCache()
    space = FeSpace(SpatialMesh.uniform(0.0, 1.0, 6), 2)
    assert cache.mass(space, space) is cache.mass(space, space)
    op1 = cache.step_operator(space, 0.01)
    op2 = cache.step_operator(space, 0.01)
    assert op1 is op2


def test_mass_solve_is_the_zero_step_operator():
    # M + 0*A equals M bit for bit, so the dt = 0 step operator is the
    # banded mass operator
    cache = FormCache()
    space = FeSpace(SpatialMesh.uniform(0.0, 1.0, 9), 3)
    M, A = cache.mass(space, space), cache.stiffness(space, space)
    assert np.array_equal(M + 0.0 * A, M)
    rhs = np.random.default_rng(2).standard_normal(space.dof_count)
    assert np.array_equal(cache.step_operator(space, 0.0).solve(rhs),
                          AssembledOperator("mass", space, M).solve(rhs))
