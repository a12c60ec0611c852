"""Array assembly of mass/stiffness/load forms, field evaluation and QoI
sums against element-by-element oracles."""

import tracemalloc

import numpy as np
import pytest

import parapost.mesh as mesh_module
from parapost.harness import build_manufactured
from parapost.mesh import (
    FeSpace,
    FormCache,
    NodalField,
    SpatialMesh,
    assemble_load,
    assemble_matrix,
    gauss_rule,
    lagrange_derivs,
    lagrange_values,
    qoi_eval,
)

from oracles import embed


def loop_assemble_matrix(row_space, col_space, kind, elements=None):
    """Oracle: the Galerkin matrix summed one element and one entry at a time."""
    mesh = row_space.mesh
    qr, qc = row_space.degree, col_space.degree
    s, w = gauss_rule((qr + qc) // 2 + 1)
    basis = lagrange_values if kind == "mass" else lagrange_derivs
    local_ref = (basis(qr, s) * w[None, :]) @ basis(qc, s).T
    A = np.zeros((row_space.dof_count, col_space.dof_count))
    elems = range(mesh.n_elements) if elements is None else elements
    for e in elems:
        h = mesh.widths[e]
        block = local_ref * (h if kind == "mass" else 1.0 / h)
        for i, gi in enumerate(row_space.element_dofs[e]):
            if gi < 0:
                continue
            for j, gj in enumerate(col_space.element_dofs[e]):
                if gj >= 0:
                    A[gi, gj] += block[i, j]
    return A


def loop_assemble_load(space, t, f, n_quad=10):
    """Oracle: the load vector integrated and scattered one element at a time."""
    mesh = space.mesh
    s, w = gauss_rule(n_quad)
    basis = lagrange_values(space.degree, s)
    out = np.zeros(space.dof_count)
    for e in range(mesh.n_elements):
        x0, h = mesh.boundaries[e], mesh.widths[e]
        fx = np.asarray(f(x0 + h * s, t), dtype=float)
        contrib = basis @ (w * fx) * h
        for j, g in enumerate(space.element_dofs[e]):
            if g >= 0:
                out[g] += contrib[j]
    return out


def loop_eval_field(space, coefficients, x):
    """Oracle: a field's values at points x, summed basis function by basis
    function over the points' elements."""
    e = space.mesh.element_of(x)
    s = (x - space.mesh.boundaries[e]) / space.mesh.widths[e]
    basis = lagrange_values(space.degree, s)
    vals = np.zeros_like(x)
    for j in range(space.degree + 1):
        g = space.element_dofs[e, j]
        mask = g >= 0
        vals[mask] += basis[j, mask] * coefficients[g[mask]]
    return vals


def loop_qoi_eval(psi, fld, n_quad=10):
    """Oracle: the QoI integral summed one element at a time."""
    mesh = fld.space.mesh
    s, w = gauss_rule(n_quad)
    total = 0.0
    for e in range(mesh.n_elements):
        x0, h = mesh.boundaries[e], mesh.widths[e]
        x = x0 + h * s
        total += h * np.sum(w * psi(x) * fld(x))
    return total


def graded_mesh(n):
    """A non-uniform mesh of n elements on (0, 1), so element widths differ."""
    rng = np.random.default_rng(n)
    widths = rng.uniform(0.5, 1.5, n)
    bd = np.concatenate(([0.0], np.cumsum(widths) / widths.sum()))
    bd[-1] = 1.0
    return SpatialMesh(0.0, 1.0, bd)


MESHES = [graded_mesh(5), graded_mesh(20), SpatialMesh.uniform(0.0, 1.0, 80)]


def subsets(n):
    """None (all elements), a contiguous overlap-like range and a scattered set."""
    return [None, tuple(range(n // 3, n // 3 + max(1, n // 4))),
            tuple(range(0, n, 3))]


@pytest.mark.parametrize("mesh", MESHES, ids=lambda m: f"N{m.n_elements}")
@pytest.mark.parametrize("kind", ["mass", "stiffness"])
def test_matrix_bitwise_equals_loop_oracle(mesh, kind):
    # each entry has at most two element contributions, summed in element
    # order by both, so the arrays must agree exactly
    for qr in (1, 2, 3):
        for qc in (1, 2, 3):
            rs, cs = FeSpace(mesh, qr), FeSpace(mesh, qc)
            for elems in subsets(mesh.n_elements):
                got = assemble_matrix(rs, cs, kind, elems)
                want = loop_assemble_matrix(rs, cs, kind, elems)
                assert np.array_equal(got, want), (qr, qc, elems)


LOADS = {
    "smooth": lambda x, t: np.sin(3 * np.pi * x) * (1.0 + t),
    "signed_poly": lambda x, t: (x - 0.3) * (x - 0.7) * np.exp(t) - 0.01,
    "kink": lambda x, t: np.abs(x - 0.45) * np.cos(t),
}


@pytest.mark.parametrize("mesh", MESHES, ids=lambda m: f"N{m.n_elements}")
@pytest.mark.parametrize("name", sorted(LOADS))
def test_load_matches_loop_oracle(mesh, name):
    # the element contraction is one matrix product instead of one
    # matrix-vector product per element, so sums may reassociate: allow a
    # few ulps of the largest entry
    f = LOADS[name]
    for q in (1, 2, 3):
        space = FeSpace(mesh, q)
        got = assemble_load(space, 0.37, f)
        want = loop_assemble_load(space, 0.37, f)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def test_load_none_is_exact_zeros():
    for q in (1, 2, 3):
        space = FeSpace(MESHES[1], q)
        out = assemble_load(space, 0.5, None)
        assert out.shape == (space.dof_count,)
        assert not np.any(out)


def test_load_accepts_scalar_forcing():
    space = FeSpace(MESHES[1], 2)
    got = assemble_load(space, 0.0, lambda x, t: 2.5)
    want = loop_assemble_load(space, 0.0, lambda x, t: 2.5 * np.ones_like(x))
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def test_load_calls_forcing_once_on_all_points():
    space = FeSpace(MESHES[1], 3)
    seen = []

    def f(x, t):
        seen.append(np.array(x, copy=True))
        return np.ones_like(x)

    assemble_load(space, 0.0, f)
    assert len(seen) == 1
    assert seen[0].size == space.mesh.n_elements * 10


TIMES = np.array([0.0, 0.37, 0.37 + 1e-3, 1.9])


@pytest.mark.parametrize("mesh", MESHES, ids=lambda m: f"N{m.n_elements}")
def test_load_over_times_equals_stacked_scalar_calls(mesh):
    # one contraction and one scatter serve every time, each sum in the
    # order of the scalar call, so the rows must agree exactly
    forcings = dict(LOADS, scalar=lambda x, t: 2.5 + t)
    for q in (1, 2, 3):
        space = FeSpace(mesh, q)
        for name, f in sorted(forcings.items()):
            got = assemble_load(space, TIMES, f)
            want = np.array([assemble_load(space, t, f) for t in TIMES])
            assert got.shape == (len(TIMES), space.dof_count)
            assert np.array_equal(got, want), (q, name)
        zeros = assemble_load(space, TIMES, None)
        assert zeros.shape == (len(TIMES), space.dof_count)
        assert not np.any(zeros)


def test_load_over_times_calls_forcing_once_per_block():
    # the forcing broadcasts: one call for the whole block, with the
    # quadrature points as a row and the block's times as a column
    space = FeSpace(MESHES[1], 2)
    seen = []

    def f(x, t):
        seen.append((x.shape, np.array(t, copy=True)))
        return np.cos(x) * t

    grid = TIMES.reshape(2, 2)
    out = assemble_load(space, grid, f)
    assert len(seen) == 1
    assert seen[0][0] == (1, space.mesh.n_elements * 10)
    assert seen[0][1].shape == (len(TIMES), 1)
    assert np.array_equal(seen[0][1][:, 0], TIMES)
    assert out.shape == (2, 2, space.dof_count)
    assert np.array_equal(out[1, 0], assemble_load(space, grid[1, 0], f))


def test_load_over_many_blocks_is_bitwise_per_time_and_bounded():
    # 1000 times on 800 quadrature points take 13 blocks of at most
    # _LOAD_BLOCK values of f: every row is bitwise its own call's, and the
    # call holds 1.4 MB besides its result (14.7 MB as one block)
    space = FeSpace(SpatialMesh.uniform(0.0, 1.0, 80), 3)
    prob = build_manufactured(4, 2, 1.0)
    times = np.linspace(0.0, 1.0, 1000)
    block = mesh_module._LOAD_BLOCK // (80 * 10)
    seen = []

    def f(x, t):
        seen.append(len(t))
        return prob.f(x, t)

    assemble_load(space, times[:2], f)  # lazily built tables, untraced
    seen.clear()
    tracemalloc.start()
    try:
        got = assemble_load(space, times, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert seen == [block] * (len(times) // block) + [len(times) % block]
    assert peak - got.nbytes <= 2e6
    want = np.array([assemble_load(space, t, prob.f) for t in times])
    assert np.array_equal(got, want)


@pytest.mark.parametrize("mesh", MESHES, ids=lambda m: f"N{m.n_elements}")
def test_gather_bitwise_equals_loop_evaluation(monkeypatch, mesh):
    # the cached gather between every pair of degrees 1..3, in either
    # direction, interpolates exactly as evaluating at the target's nodes,
    # and is built once per pair
    rng = np.random.default_rng(mesh.n_elements)
    built, real = [], mesh_module.NodalGather
    monkeypatch.setattr(mesh_module, "NodalGather",
                        lambda space, x: built.append(space) or real(space, x))
    cache = FormCache()
    spaces = [FeSpace(mesh, q) for q in (1, 2, 3)]
    for source in spaces:
        for target in spaces:
            for rebuilt in (1, 0):
                fld = NodalField(source, rng.standard_normal(source.dof_count))
                want = loop_eval_field(source, fld.coefficients,
                                       target.dof_coords)
                before = len(built)
                got = NodalField(target, cache.gather(fld.space, target)(
                    fld.coefficients[None])[0])
                assert len(built) - before == rebuilt
                assert np.array_equal(got.coefficients, want)
                assert np.array_equal(target.interpolate(fld).coefficients,
                                      want)
                if source.degree < target.degree:
                    assert np.array_equal(
                        embed(fld, target, cache).coefficients, want)


def test_qoi_bitwise_equals_element_loop():
    rng = np.random.default_rng(75)
    prob = build_manufactured(4, 2, 2.0)
    for mesh in MESHES:
        for q in (1, 2, 3):
            space = FeSpace(mesh, q)
            fld = NodalField(space, rng.standard_normal(space.dof_count))
            for psi in (prob.psi, lambda x: np.exp(x) * np.sin(7 * x),
                        lambda x: 2.5):
                assert qoi_eval(psi, fld) == loop_qoi_eval(psi, fld)


def test_cached_load_is_assembled_once_and_read_only():
    cache = FormCache()
    space = FeSpace(MESHES[0], 2)
    f = lambda x, t: np.cos(x) * t
    block, = cache.loads(space, [TIMES], f)
    assert np.array_equal(block, assemble_load(space, TIMES, f))
    assert cache.loads(space, [TIMES.copy()], f)[0] is block  # by the values
    assert cache.loads(space, [TIMES[:2]], f)[0] is not block
    with pytest.raises(ValueError, match="read-only"):
        block[0, 0] = 1.0


def test_cached_matrices_are_read_only():
    # every later caller shares the cached matrix, so none may write into it
    cache = FormCache()
    coarse, fine = FeSpace(MESHES[0], 1), FeSpace(MESHES[0], 2)
    for mat in (cache.mass(fine, fine), cache.stiffness(fine, coarse)):
        with pytest.raises(ValueError, match="read-only"):
            mat[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            mat *= 2.0
    assert np.array_equal(cache.mass(fine, fine),
                          assemble_matrix(fine, fine, "mass"))


def test_lru_cached_tables_are_read_only():
    # gauss_rule and _lagrange_coeffs are cached for the whole process, so
    # one caller's write would reach every later run
    tables = [*mesh_module.gauss_rule(5), mesh_module._lagrange_coeffs(3),
              mesh_module._quadrature_basis(2, 10)]
    for table in tables:
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 1.0
    s, w = mesh_module.gauss_rule(5)
    assert abs(w.sum() - 1.0) < 1e-15 and np.all((s > 0) & (s < 1))
