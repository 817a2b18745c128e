import gc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from biotbench import (Coefficients, Constant, KozenyCarman, StepperConfig,
                       assemble_coupling, assemble_elasticity, assemble_laplace,
                       assemble_load_q, assemble_load_v, assemble_mass,
                       assemble_permeability_stiffness, assemble_pressure_mass,
                       build_structured_mesh, element_divergence,
                       error_vs_manufactured, experiment_41_data,
                       experiment_42_data, run)
from biotbench import assembly
from biotbench.mesh import prolongation
from dense_reference import (dense_coupling, dense_elasticity, dense_load_q,
                             dense_load_v, dense_mass,
                             dense_permeability_stiffness, restrict_dense,
                             scipy_csr, unconstrained)

KC = KozenyCarman(kappa0=1.0, rho0=0.5, c_s=-0.75, C_s=0.75)


def unit_coeffs(model=None):
    return Coefficients(lam=1.0, mu=1.0, alpha=1.0, M=1.0, kappa_over_nu=1.0,
                        permeability=model or KC)


@pytest.fixture(scope="module")
def mesh2():
    return build_structured_mesh(2)


def mesh_of(n, dirichlet):
    """The structured mesh for n, or that mesh without its Dirichlet nodes."""
    mesh = build_structured_mesh(n)
    return mesh if dirichlet else unconstrained(mesh)


@pytest.mark.parametrize("n", [1, 2, 4])
def test_operators_match_dense_reference(n):
    mesh = build_structured_mesh(n)
    co = unit_coeffs()
    rng = np.random.default_rng(n)
    u = rng.standard_normal(mesh.num_displacement_dofs)
    free = unconstrained(mesh)

    A = assemble_elasticity(free, co).toarray()
    assert np.abs(A - dense_elasticity(mesh, co.lam, co.mu)).max() < 1e-12

    C = scipy_csr(assemble_pressure_mass(free, co)).toarray()
    assert np.abs(C - dense_mass(mesh, 1.0 / co.M)).max() < 1e-12

    D = assemble_coupling(free, co).toarray()
    assert np.abs(D - dense_coupling(mesh, co.alpha)).max() < 1e-12

    B = scipy_csr(assemble_permeability_stiffness(free, co, mesh.extend_vector(u))).toarray()
    assert np.abs(B - dense_permeability_stiffness(mesh, co, u)).max() < 1e-12


@pytest.mark.parametrize("n", [2, 4])
def test_interior_restriction_matches_dense_reference(n):
    mesh = build_structured_mesh(n)
    co = unit_coeffs()
    A = assemble_elasticity(mesh, co).toarray()
    A_ref = restrict_dense(mesh, dense_elasticity(mesh, co.lam, co.mu),
                           "vector", "vector")
    assert np.abs(A - A_ref).max() < 1e-12
    D = assemble_coupling(mesh, co).toarray()
    D_ref = restrict_dense(mesh, dense_coupling(mesh, co.alpha), "scalar", "vector")
    assert np.abs(D - D_ref).max() < 1e-12


@pytest.mark.parametrize("n", [2, 4])
def test_symmetry_and_positive_definiteness(n):
    mesh = build_structured_mesh(n)
    co = unit_coeffs()
    rng = np.random.default_rng(77)
    u = rng.standard_normal(mesh.num_displacement_dofs)
    for op in (assemble_elasticity(mesh, co), scipy_csr(assemble_pressure_mass(mesh, co)),
               scipy_csr(assemble_permeability_stiffness(mesh, co, u))):
        dense = op.toarray()
        assert np.abs(dense - dense.T).max() < 1e-12
        assert np.linalg.eigvalsh(dense).min() > 0.0


def test_elasticity_spd_quadratic_form(mesh2):
    A = assemble_elasticity(mesh2, unit_coeffs())
    rng = np.random.default_rng(1)
    for _ in range(20):
        u = rng.standard_normal(A.shape[0])
        assert u @ (A @ u) > 0.0
    assert np.zeros(A.shape[0]) @ (A @ np.zeros(A.shape[0])) == 0.0


def test_elasticity_scales_linearly_in_lame_coefficients(mesh2):
    co1 = unit_coeffs()
    co2 = Coefficients(lam=2.0, mu=2.0, alpha=1.0, M=1.0, kappa_over_nu=1.0,
                       permeability=KC)
    A1 = assemble_elasticity(mesh2, co1).toarray()
    A2 = assemble_elasticity(mesh2, co2).toarray()
    assert np.abs(A2 - 2.0 * A1).max() < 1e-12


def test_pressure_mass_entry_sum_is_domain_measure_over_M():
    free = unconstrained(build_structured_mesh(4))
    for M in (1.0, 2.0, 7e9):
        co = Coefficients(lam=1.0, mu=1.0, alpha=1.0, M=M, kappa_over_nu=1.0,
                          permeability=KC)
        C_full = scipy_csr(assemble_pressure_mass(free, co))
        assert abs(C_full.sum() - 1.0 / M) < 1e-12


def test_pressure_mass_ratio_in_M(mesh2):
    co1 = unit_coeffs()
    co2 = Coefficients(lam=1.0, mu=1.0, alpha=1.0, M=2.0, kappa_over_nu=1.0,
                       permeability=KC)
    C1 = scipy_csr(assemble_pressure_mass(mesh2, co1)).toarray()
    C2 = scipy_csr(assemble_pressure_mass(mesh2, co2)).toarray()
    assert np.abs(C1 - 2.0 * C2).max() < 1e-14


def test_coupling_divergence_theorem():
    mesh = build_structured_mesh(4)
    co = unit_coeffs()
    D_full = assemble_coupling(unconstrained(mesh), co)
    ones = np.ones(mesh.num_nodes)
    rng = np.random.default_rng(9)
    for _ in range(20):
        u = rng.standard_normal(mesh.num_displacement_dofs)
        u_full = mesh.extend_vector(u)
        assert abs(ones @ (D_full @ u_full)) < 1e-12


def test_coupling_scales_with_alpha(mesh2):
    co1 = unit_coeffs()
    co2 = Coefficients(lam=1.0, mu=1.0, alpha=2.0, M=1.0, kappa_over_nu=1.0,
                       permeability=KC)
    D1 = assemble_coupling(mesh2, co1).toarray()
    D2 = assemble_coupling(mesh2, co2).toarray()
    assert np.abs(D2 - 2.0 * D1).max() < 1e-14


def test_constant_permeability_gives_laplace_stencil():
    # interior row of the stiffness on the diagonal-split grid: 4 on the
    # diagonal, -1 to the four axis neighbours, 0 to the diagonal neighbours
    mesh = build_structured_mesh(2)
    co = unit_coeffs(Constant(kappa=1.0))
    u = np.zeros(mesh.num_displacement_dofs)
    B_full = scipy_csr(assemble_permeability_stiffness(unconstrained(mesh), co,
                                                       mesh.extend_vector(u))).toarray()
    center = 4  # node (1,1)
    row = B_full[center]
    assert row[center] == pytest.approx(4.0, abs=1e-13)
    for neighbor in (1, 3, 5, 7):  # axis neighbours
        assert row[neighbor] == pytest.approx(-1.0, abs=1e-13)
    for diag in (0, 2, 6, 8):  # diagonal neighbours
        assert row[diag] == pytest.approx(0.0, abs=1e-13)


def test_zero_displacement_freezes_kappa_at_zero(mesh2):
    co = unit_coeffs()
    u0 = np.zeros(mesh2.num_displacement_dofs)
    B = scipy_csr(assemble_permeability_stiffness(mesh2, co, u0)).toarray()
    L = scipy_csr(assemble_laplace(mesh2)).toarray()
    assert np.abs(B - co.permeability.eval(0.0) * L).max() < 1e-13


def test_permeability_stiffness_coercivity_window():
    mesh = build_structured_mesh(4)
    co = unit_coeffs()
    lo, hi = (co.kappa_over_nu * b for b in co.permeability.bounds())
    L = scipy_csr(assemble_laplace(mesh))
    rng = np.random.default_rng(123)
    for _ in range(100):
        u = 3.0 * rng.standard_normal(mesh.num_displacement_dofs)
        p = rng.standard_normal(mesh.num_pressure_dofs)
        B = scipy_csr(assemble_permeability_stiffness(mesh, co, u))
        ratio = (p @ (B @ p)) / (p @ (L @ p))
        assert lo - 1e-12 <= ratio <= hi + 1e-12


def test_stiffness_depends_on_u_only_through_element_divergence():
    # on this mesh family the per-element divergence map has a trivial
    # kernel (P1 locking), so the property is tested in its equivalent
    # form: B(u) coincides with the Laplace assembly weighted purely by
    # the mobility of the divergence values
    from dense_reference import dense_laplace

    mesh = build_structured_mesh(3)
    co = unit_coeffs()
    free = unconstrained(mesh)
    rng = np.random.default_rng(4)

    div_rows = []
    for k in range(mesh.num_displacement_dofs):
        e = np.zeros(mesh.num_displacement_dofs)
        e[k] = 1.0
        div_rows.append(element_divergence(mesh, e))
    div_matrix = np.array(div_rows).T  # (elements, dofs)
    assert np.linalg.matrix_rank(div_matrix) == mesh.num_displacement_dofs

    for _ in range(5):
        u = rng.standard_normal(mesh.num_displacement_dofs)
        weights = co.mobility(element_divergence(mesh, u))
        B = scipy_csr(assemble_permeability_stiffness(free, co, mesh.extend_vector(u))).toarray()
        B_from_div = dense_laplace(mesh, weight_per_element=weights)
        assert np.abs(B - B_from_div).max() < 1e-13


def test_loads_zero_and_partition_of_unity():
    mesh = build_structured_mesh(3)
    zero = assemble_load_v(mesh, lambda x, y, t: (0.0 * x, 0.0 * x), 0.3)
    assert np.all(zero == 0.0)
    total = assemble_load_q(unconstrained(mesh), lambda x, y, t: np.ones_like(x), 0.0).sum()
    assert abs(total - 1.0) < 1e-14


def test_no_body_force_is_the_zero_displacement_load():
    # every path gets its displacement loads from this call, f or no f
    mesh = build_structured_mesh(3)
    load = assemble_load_v(mesh, None, 0.3)
    assert load.shape == (mesh.num_displacement_dofs,) and not load.any()


def test_loads_match_dense_quadrature_oracle(mesh2):
    free = unconstrained(mesh2)
    g = lambda x, y, t: x
    lq = assemble_load_q(free, g, 0.0)
    assert np.abs(lq - dense_load_q(mesh2, g, 0.0)).max() < 1e-12

    f = lambda x, y, t: (x * y + t, np.cos(x))
    lv = assemble_load_v(free, f, 0.5)
    assert np.abs(lv - dense_load_v(mesh2, f, 0.5)).max() < 1e-12


def test_load_drops_boundary_entries(mesh2):
    lq = assemble_load_q(mesh2, lambda x, y, t: np.ones_like(x), 0.0)
    assert lq.shape == (mesh2.num_pressure_dofs,)


def test_assembled_matrices_have_sorted_unique_columns():
    mesh = build_structured_mesh(4)
    co = unit_coeffs()
    for op in (assemble_elasticity(mesh, co), scipy_csr(assemble_pressure_mass(mesh, co)),
               assemble_coupling(mesh, co), scipy_csr(assemble_laplace(mesh)),
               scipy_csr(assemble_mass(mesh))):
        assert op.has_sorted_indices
        indptr, indices = op.indptr, op.indices
        for r in range(op.shape[0]):
            row = indices[indptr[r]:indptr[r + 1]]
            assert np.all(np.diff(row) > 0)


def test_coefficients_validation():
    with pytest.raises(ValueError):
        Coefficients(lam=-1.0, mu=1.0, alpha=1.0, M=1.0, kappa_over_nu=1.0,
                     permeability=KC)
    with pytest.raises(ValueError):
        Coefficients(lam=1.0, mu=0.0, alpha=1.0, M=1.0, kappa_over_nu=1.0,
                     permeability=KC)
    with pytest.raises(ValueError):
        Coefficients(lam=1.0, mu=1.0, alpha=1.0, M=-1.0, kappa_over_nu=1.0,
                     permeability=KC)


# exact agreement with a plain COO assembly


def coo_scatter(mesh, local, rows, cols):
    """Sum (E, r, c) local matrices the plain way: COO to CSR, restrict to the
    mesh's kept dofs, sort."""
    def space(kind):
        if kind == "scalar":
            return mesh.triangles, mesh.num_nodes, mesh.interior_nodes
        dofs = np.stack([2 * mesh.triangles, 2 * mesh.triangles + 1], axis=2).reshape(-1, 6)
        return dofs, 2 * mesh.num_nodes, mesh.interior_displacement_dofs()

    row_dof, n_rows, row_keep = space(rows)
    col_dof, n_cols, col_keep = space(cols)
    row_idx = np.repeat(row_dof, col_dof.shape[1], axis=1).ravel()
    col_idx = np.tile(col_dof, (1, row_dof.shape[1])).ravel()
    mat = sp.coo_matrix((local.ravel(), (row_idx, col_idx)), shape=(n_rows, n_cols)).tocsr()
    mat = mat[row_keep][:, col_keep]
    mat.sort_indices()
    return mat


def assert_same_csr(mat, ref):
    assert mat.shape == ref.shape
    for part in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(mat, part), getattr(ref, part)), part


SPACE_PAIRS = [("scalar", "scalar"), ("vector", "vector"), ("scalar", "vector")]


@pytest.mark.parametrize("n", [1, 2, 5, 8])
@pytest.mark.parametrize("dirichlet", [True, False])
def test_scatter_equals_coo_assembly_bit_for_bit(n, dirichlet):
    # random element matrices make every difference in summation order visible
    mesh = mesh_of(n, dirichlet)
    rng = np.random.default_rng(n)
    for rows, cols in SPACE_PAIRS:
        shape = (mesh.num_triangles, 3 if rows == "scalar" else 6, 3 if cols == "scalar" else 6)
        local = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, size=shape)
        mat = assembly._scatter(mesh, local, rows, cols)
        assert_same_csr(mat, coo_scatter(mesh, local, rows, cols))


@pytest.mark.parametrize("n", [1, 2, 5, 8])
@pytest.mark.parametrize("dirichlet", [True, False])
def test_operators_equal_coo_assembly_bit_for_bit(n, dirichlet, monkeypatch):
    mesh = mesh_of(n, dirichlet)
    co = unit_coeffs()
    u = np.random.default_rng(n).standard_normal(mesh.num_displacement_dofs)
    # given the dilatation, B(u) read through the B map equals the COO
    # assembly of the weighted grad-grad element matrices
    _, _, area = assembly.triangle_geometry(mesh)
    weights = co.mobility(element_divergence(mesh, u)) / (4.0 * area)
    grad_grad = assembly._mesh_data(mesh).grad_grad
    B_ref = coo_scatter(mesh, grad_grad * weights[:, None, None], "scalar", "scalar")
    scattered = []
    real_scatter = assembly._scatter

    def recording_scatter(mesh, local, rows="scalar", cols="scalar"):
        mat = real_scatter(mesh, local, rows, cols)
        scattered.append((coo_scatter(mesh, local, rows, cols), scipy_csr(mat)))
        return mat

    monkeypatch.setattr(assembly, "_scatter", recording_scatter)
    assert_same_csr(assemble_permeability_stiffness(mesh, co, u), B_ref)
    assert scattered == []
    ops = [assemble_elasticity(mesh, co), assemble_coupling(mesh, co),
           assemble_mass(mesh), assemble_laplace(mesh)]
    C = assemble_pressure_mass(mesh, co)
    assert len(scattered) == 5
    for (ref, mat), op in zip(scattered, ops):
        assert_same_csr(mat, ref)
        assert_same_csr(op, ref)
    assert_same_csr(C, scattered[-1][0] * (1.0 / co.M))


def gather_divergence(mesh, u_interior):
    """Elementwise divergence by gathering u to the elements and summing b u_x + c u_y."""
    b, c, area = assembly.triangle_geometry(mesh)
    dofs = np.stack([2 * mesh.triangles, 2 * mesh.triangles + 1], axis=2).reshape(-1, 6)
    u = mesh.extend_vector(u_interior)[dofs]
    return ((u[:, 0::2] * b).sum(axis=1) + (u[:, 1::2] * c).sum(axis=1)) / (2.0 * area)


@pytest.mark.parametrize("n", [1, 5, 8])
def test_divergence_map_agrees_with_the_element_gather(n):
    mesh = build_structured_mesh(n)
    rng = np.random.default_rng(n)
    for _ in range(5):
        u = rng.standard_normal(mesh.num_displacement_dofs) * 10.0 ** rng.integers(-6, 6)
        div, ref = element_divergence(mesh, u), gather_divergence(mesh, u)
        assert div.shape == (mesh.num_triangles,)
        assert np.abs(div - ref).max() <= 1e-15 * np.abs(ref).max()


# vertex weights of the element-local edge-midpoint rule, edges (0,1), (1,2),
# (2,0): vertex i gets 1/2 on its two edges
MIDPOINT_VERTEX_WEIGHTS = 0.5 * np.array([[1.0, 0.0, 1.0],
                                          [1.0, 1.0, 0.0],
                                          [0.0, 1.0, 1.0]])


def add_at_load(mesh, components):
    """Edge-midpoint load summed element by element with np.add.at into the
    full vector, then restricted to the mesh's kept dofs."""
    _, _, area = assembly.triangle_geometry(mesh)
    k = len(components)
    out = np.zeros(k * mesh.num_nodes)
    for comp, vals in enumerate(components):
        dofs = k * mesh.triangles + comp
        vals = np.broadcast_to(np.asarray(vals, dtype=float), dofs.shape)
        np.add.at(out, dofs, (area / 3.0)[:, None] * (vals @ MIDPOINT_VERTEX_WEIGHTS.T))
    return mesh.restrict_scalar(out) if k == 1 else mesh.restrict_vector(out)


def assert_load_matches(load, reference):
    # the load map adds each node's edge values in another order than the
    # element-by-element sum, so the two agree to rounding, not bit for bit
    assert load.shape == reference.shape
    assert np.abs(load - reference).max(initial=0.0) <= 1e-15 * np.abs(reference).max(initial=0.0)


@pytest.mark.parametrize("n", [1, 2, 5, 8])
@pytest.mark.parametrize("dirichlet", [True, False])
def test_loads_equal_add_at_reference_bit_for_bit(n, dirichlet):
    # named for the element-order sum it once reproduced; see assert_load_matches
    mesh = mesh_of(n, dirichlet)
    pts = mesh.nodes[mesh.triangles]
    mid = 0.5 * (pts + np.roll(pts, -1, axis=1))
    x, y = mid[..., 0], mid[..., 1]
    g = lambda x, y, t: np.exp(x - y) * np.sin(7.0 * x * y + t)
    f = lambda x, y, t: (x * y - t, np.cos(5.0 * x) + y ** 3)
    lq = assemble_load_q(mesh, g, 0.3)
    assert_load_matches(lq, add_at_load(mesh, [g(x, y, 0.3)]))
    lv = assemble_load_v(mesh, f, 0.3)
    assert_load_matches(lv, add_at_load(mesh, list(f(x, y, 0.3))))
    # a constant source comes back as a scalar and is broadcast over the midpoints
    lc = assemble_load_q(mesh, lambda x, y, t: 2.0, 0.0)
    assert_load_matches(lc, add_at_load(mesh, [2.0]))


def element_midpoints(mesh):
    """The (E, 3) element-local edge midpoints, edges (0,1), (1,2), (2,0)."""
    pts = mesh.nodes[mesh.triangles]
    mid = 0.5 * (pts + np.roll(pts, -1, axis=1))
    return mid[..., 0], mid[..., 1]


@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_unique_edge_midpoints_match_the_element_local_ones(n):
    mesh = build_structured_mesh(n)
    data = assembly._mesh_data(mesh)
    x, y, edges = data.x, data.y, data.element_edges
    assert x.shape == y.shape == (3 * n * n + 2 * n,)
    assert x.flags.c_contiguous and y.flags.c_contiguous
    assert not any(arr.flags.writeable for arr in (x, y, edges, data.edge_nodes,
                                                   data.grad_grad, *data.geometry))
    assert len(set(zip(x.tolist(), y.tolist()))) == x.size
    # each midpoint lies halfway between its edge's two endpoints
    ends = mesh.nodes[data.edge_nodes]
    assert np.array_equal(0.5 * (ends[:, 0, 0] + ends[:, 1, 0]), x)
    assert np.array_equal(0.5 * (ends[:, 0, 1] + ends[:, 1, 1]), y)
    local_x, local_y = element_midpoints(mesh)
    assert np.array_equal(x[edges], local_x) and np.array_equal(y[edges], local_y)
    # an interior edge is shared by two elements, a boundary edge belongs to one
    refs = np.bincount(edges.ravel(), minlength=x.size)
    on_boundary = (x == 0.0) | (x == 1.0) | (y == 0.0) | (y == 1.0)
    assert np.count_nonzero(on_boundary) == 4 * n
    assert np.all(refs[on_boundary] == 1) and np.all(refs[~on_boundary] == 2)


def test_forcing_is_called_once_per_load_on_the_edge_midpoints():
    mesh = build_structured_mesh(5)
    n_edges = 3 * 5 * 5 + 2 * 5
    shapes = []

    def g(x, y, t):
        shapes.append((x.shape, y.shape))
        return x * y + t

    def f(x, y, t):
        shapes.append((x.shape, y.shape))
        return x + t, y

    assemble_load_q(mesh, g, 0.1)
    assert shapes == [((n_edges,), (n_edges,))]
    assemble_load_v(mesh, f, 0.1)
    assert shapes == [((n_edges,), (n_edges,))] * 2


def test_experiment_loads_equal_add_at_reference_on_element_midpoints():
    # the reference feeds the forcing strided (E, 3) arrays, the assembly
    # contiguous edge arrays: numpy's vectorised sin/cos/exp must agree on
    # both bit for bit, and the loads to rounding (assert_load_matches)
    mesh = build_structured_mesh(64)
    x, y = element_midpoints(mesh)
    data = assembly._mesh_data(mesh)
    edges = data.element_edges
    ex41, ex42 = experiment_41_data(), experiment_42_data()
    for t in (0.0, 0.03125, 0.5, 0.96875, 1.0):
        for forcing, load in ((ex42.g, assemble_load_q), (ex42.f, assemble_load_v),
                              (ex41.g, assemble_load_q)):
            local = forcing(x, y, t)
            on_edges = forcing(data.x, data.y, t)
            if load is assemble_load_q:
                local, on_edges = [local], [on_edges]
            assert all(np.array_equal(e[edges], v) for e, v in zip(on_edges, local))
            assert_load_matches(load(mesh, forcing, t), add_at_load(mesh, list(local)))


def test_scatter_plans_live_once_per_mesh_and_space_pair(monkeypatch):
    gc.collect()
    cached_before = len(assembly._MESH_DATA)
    built = []
    real_build = assembly._build_plan

    def counting_build(mesh, rows, cols):
        built.append((rows, cols))
        return real_build(mesh, rows, cols)

    monkeypatch.setattr(assembly, "_build_plan", counting_build)
    prob = experiment_42_data()
    mesh = build_structured_mesh(4)
    cfg = StepperConfig(scheme="semi_explicit", tau=0.25, T=0.5)
    trajectory, _ = run(mesh, prob.coeffs, cfg, prob.f, prob.g, prob.p0)
    error_vs_manufactured(mesh, prob.coeffs, trajectory, prob.exact_u, prob.exact_p)
    assert sorted(built) == [("scalar", "scalar"), ("scalar", "vector"), ("vector", "vector")]
    # the run built the dilatation map, the B map and the load map, and
    # later B(u) calls read the same objects
    maps = assembly._mesh_data(mesh).maps
    assert sorted(maps) == ["B", "div", "load"]
    kept = dict(maps)
    assemble_permeability_stiffness(mesh, prob.coeffs, trajectory[-1].u)
    assert element_divergence(mesh, trajectory[-1].u).shape == (mesh.num_triangles,)
    assert maps.keys() == kept.keys() and all(maps[k] is kept[k] for k in kept)
    map_refs = [weakref.ref(m) for m in kept.values()]
    del kept, maps

    # a caller editing a returned matrix in place leaves the shared plan intact
    L = scipy_csr(assemble_laplace(mesh))
    expected = L.copy()
    L.indices[:] = 0
    L.indptr[:] = 0
    L.data[:] = 0.0
    assert_same_csr(assemble_laplace(mesh), expected)
    assert len(built) == 3

    alive = weakref.ref(mesh)
    del mesh, L
    gc.collect()
    assert alive() is None
    assert all(m() is None for m in map_refs)
    assert len(assembly._MESH_DATA) == cached_before


@pytest.mark.parametrize("dirichlet", [True, False])
def test_load_maps_live_once_per_mesh_and_interior_choice(dirichlet, monkeypatch):
    gc.collect()
    cached_before = len(assembly._MESH_DATA)
    used = []
    real_map = assembly._load_map

    def recording(mesh):
        used.append(real_map(mesh))
        return used[-1]

    monkeypatch.setattr(assembly, "_load_map", recording)
    prob = experiment_42_data()
    mesh, other_mesh = mesh_of(4, dirichlet), mesh_of(4, not dirichlet)
    for t in (0.25, 0.5):
        assemble_load_v(mesh, prob.f, t)
        assemble_load_q(mesh, prob.g, t)
    # both loads, at every time, read the one map the mesh keeps
    assert len(used) == 4 and all(m is used[0] for m in used)
    maps = assembly._mesh_data(mesh).maps
    assert list(maps) == ["load"] and maps["load"] is used[0]
    rows = mesh.num_pressure_dofs if dirichlet else mesh.num_nodes
    assert used[0].shape == (rows, assembly._mesh_data(mesh).x.size)
    # the other choice of Dirichlet nodes and another mesh get maps of their own
    other = real_map(other_mesh)
    assert other is not used[0] and other.shape[0] != rows
    assert real_map(mesh_of(4, dirichlet)) is not used[0]
    map_refs = [weakref.ref(used[0]), weakref.ref(other)]
    alive = [weakref.ref(mesh), weakref.ref(other_mesh)]
    used.clear()
    del mesh, other_mesh, maps, other
    gc.collect()
    assert all(ref() is None for ref in alive)
    assert all(ref() is None for ref in map_refs)
    assert len(assembly._MESH_DATA) == cached_before


# the multigrid hierarchy of the pressure space


def test_pressure_prolongations_are_the_interior_restriction_of_mesh_prolong():
    # levels of n = 32: the maps 16 -> 32 and 8 -> 16, finest first
    mesh = build_structured_mesh(32)
    levels = assembly.pressure_prolongations(mesh)
    # the Galerkin maps start on the pattern C and B(u) are assembled on,
    # and each level's coarse pattern is the next level's fine one
    C = assemble_pressure_mass(mesh, unit_coeffs())
    fine = levels[0].fine
    assert np.array_equal(fine.indptr, C.indptr) and np.array_equal(fine.indices, C.indices)
    assert levels[0].coarse is levels[1].fine
    for level in levels:
        # one diagonal slot per row, in row order
        assert np.array_equal(level.fine.indices[level.fine.diagonal],
                              np.arange(level.P.shape[0]))
        assert level.galerkin.shape == (level.coarse.indices.size, level.fine.indices.size)
    assert [level.P.shape for level in levels] == [(31 ** 2, 15 ** 2), (15 ** 2, 7 ** 2)]
    for (P, R, *_), m in zip(levels, (16, 8)):
        coarse, fine = build_structured_mesh(m), build_structured_mesh(2 * m)
        columns = [fine.restrict_scalar(prolongation(coarse, fine) @ coarse.extend_scalar(e))
                   for e in np.eye(coarse.num_pressure_dofs)]
        assert np.array_equal(P.toarray(), np.column_stack(columns))
        # no stored zero, which would widen every Galerkin product
        assert np.all((P.data == 1.0) | (P.data == 0.5))
        assert sp.isspmatrix_csr(P) and sp.isspmatrix_csr(R)
        assert np.array_equal(R.toarray(), P.toarray().T)


@pytest.mark.parametrize("n, shapes", [
    (64, [(63 ** 2, 31 ** 2), (31 ** 2, 15 ** 2), (15 ** 2, 7 ** 2)]),
    (36, [(35 ** 2, 17 ** 2), (17 ** 2, 8 ** 2)]),
    (34, [(33 ** 2, 16 ** 2)]),
    (24, [(23 ** 2, 11 ** 2)]),
    (23, []),
    (22, [(21 ** 2, 10 ** 2)]),
    (18, [(17 ** 2, 8 ** 2)]),
    (16, []),
    (33, []),
    (8, []),
], ids=["64", "36", "34", "24", "23", "22", "crossover", "16", "odd", "coarsest"])
def test_pressure_hierarchy_halves_while_n_is_even_and_its_half_has_8_cells(n, shapes):
    mesh = build_structured_mesh(n)
    levels = assembly.pressure_prolongations(mesh)
    assert [level.P.shape for level in levels] == shapes
    # below the multigrid crossover the hierarchy is not even looked up
    assert ("prolongations" in assembly._mesh_data(mesh).maps) == (n >= 18)


def test_pressure_prolongations_live_once_per_mesh_and_only_where_asked_for(monkeypatch):
    gc.collect()
    cached_before = len(assembly._MESH_DATA)
    built = []
    real_build = assembly.interior_prolongation

    def counting_build(nodes, n):
        built.append(n // 2)
        return real_build(nodes, n)

    monkeypatch.setattr(assembly, "interior_prolongation", counting_build)
    # a Picard run above the multigrid crossover never asks for the hierarchy
    prob = experiment_42_data()
    mesh = build_structured_mesh(32)
    picard = StepperConfig(scheme="implicit_picard", tau=0.5, T=0.5, picard_max=2)
    run(mesh, prob.coeffs, picard, prob.f, prob.g, prob.p0)
    assert built == [] and "prolongations" not in assembly._mesh_data(mesh).maps
    semi = StepperConfig(scheme="semi_explicit", tau=0.25, T=0.5)
    run(mesh, prob.coeffs, semi, prob.f, prob.g, prob.p0)
    assert built == [16, 8]
    levels = assembly.pressure_prolongations(mesh)
    assert assembly.pressure_prolongations(mesh) is levels and built == [16, 8]
    level_refs = [weakref.ref(op) for level in levels
                  for op in (level.P, level.R, level.galerkin)]
    alive = weakref.ref(mesh)
    del mesh, levels
    gc.collect()
    assert alive() is None
    assert all(ref() is None for ref in level_refs)
    assert len(assembly._MESH_DATA) == cached_before
